package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvserver"
)

// node-writemix: one in-process kvserver on TCP loopback, driven by two
// pipelined connections. A batch is one counter op (gets, then cas in the
// next batch, of a counter only that connection writes) and seven ops
// drawn 65% get, 25% overwriting set (one in four with a TTL), 10%
// delete, over Zipf-distributed keys three times the cache's capacity.
// Every write goes over the wire. Value sizes are drawn per (key,
// version), log-uniform in [16 B, 900 B): the largest that fit one 1 KiB
// server read with their command line (see the wire chunks in tcp.go).
// Every probeEvery batches a client runs the probe, a 1.5 KiB set that
// the kvproto defect fails every time.
const (
	nodeClients  = 2
	nodeKeys     = 12288 // per client
	nodeCounters = 64    // per client
	nodeDepth    = 8
	nodeSets     = 128 // sets per shard: 8 shards × 128 × 8 ways = 8192 entries
	nodeZipfS    = 1.01
	nodeMinValue = 16
	nodeMaxValue = 900
)

func nodeCacheConfig() adaptivekv.Config { return adaptivekv.Config{Sets: nodeSets} }

func nodeKeyTable(id int) [][]byte {
	keys := make([][]byte, 0, nodeKeys+nodeCounters)
	for i := 0; i < nodeKeys; i++ {
		keys = append(keys, []byte(fmt.Sprintf("c%d.k%05d", id, i)))
	}
	for i := 0; i < nodeCounters; i++ {
		keys = append(keys, []byte(fmt.Sprintf("c%d.n%03d", id, i)))
	}
	return keys
}

// nodeSize is the size of version ver of key k (counters: 32 B).
func nodeSize(k int, ver uint32) int {
	if k >= nodeKeys {
		return 32
	}
	u := float64(mix64(uint64(k)<<32|uint64(ver))>>11) / (1 << 53)
	return int(nodeMinValue * math.Exp2(math.Log2(nodeMaxValue/nodeMinValue)*u))
}

func newNodeClient(id int, addr string, seed uint64) (*client, error) {
	m := newModel(fmt.Sprintf("node-writemix client %d", id), nodeKeyTable(id), nodeSize, ttlGrace)
	var c *client
	if addr == "" {
		c = &client{id: id, m: m, rng: rand.New(rand.NewPCG(seed, uint64(id)))}
	} else {
		var err error
		if c, err = dialClient(id, addr, m, seed); err != nil {
			return nil, err
		}
	}
	c.zipf = rand.NewZipf(c.rng, nodeZipfS, 1, nodeKeys-1)
	c.casids = make([]uint64, len(m.keys))
	c.reset = make([]bool, len(m.keys))
	return c, nil
}

// nodeNext fills the next batch.
func nodeNext(c *client, reqs []request) []request {
	reqs = batchSlots(reqs, nodeDepth)
	k := nodeKeys + c.cntNext
	r := &reqs[0]
	r.ttl, r.casid = false, 0
	switch {
	case c.casids[k] != 0:
		r.kind, r.key, r.ver, r.casid = opCas, k, c.m.nextVersion(k), c.casids[k]
		c.casids[k] = 0
		c.cntNext = (c.cntNext + 1) % nodeCounters
	case c.reset[k]:
		r.kind, r.key, r.ver = opSet, k, c.m.nextVersion(k)
		c.reset[k] = false
		c.cntNext = (c.cntNext + 1) % nodeCounters
	default:
		r.kind, r.key = opGets, k
	}
	for i := 1; i < nodeDepth; i++ {
		r := &reqs[i]
		p, k := c.rng.IntN(100), int(c.zipf.Uint64())
		r.key, r.ttl = k, false
		switch {
		case p < 65:
			r.kind = opGet
		case p < 90:
			r.kind, r.ver, r.ttl = opSet, c.m.nextVersion(k), c.rng.IntN(4) == 0
		default:
			r.kind = opDel
		}
	}
	return reqs
}

type nodeStack struct {
	srv     *kvserver.Server
	ln      net.Listener
	served  sync.WaitGroup
	spans   *spanLog
	clients []*client
}

func buildNode(seed uint64, traced bool) (*nodeStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &nodeStack{srv: kvserver.New(kvserver.Config{Cache: nodeCacheConfig()}), ln: ln}
	if traced {
		st.spans = &spanLog{}
		st.ln = &spanListener{Listener: ln, log: st.spans}
	}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		st.srv.Serve(st.ln)
	}()
	for id := 0; id < nodeClients; id++ {
		c, err := newNodeClient(id, ln.Addr().String(), seed)
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	prefill(st.clients)
	if t := sumClients(st.clients); t.failed > 0 || t.violations > 0 {
		st.close()
		return nil, fmt.Errorf("node-writemix: prefill failed %d sets", t.failed)
	}
	resetTallies(st.clients)
	return st, nil
}

func (st *nodeStack) close() {
	for _, c := range st.clients {
		c.close()
	}
	st.srv.Shutdown(st.ln, time.Second)
	st.served.Wait()
}

// serverSnap is what a pass reads from the server's public surface.
type serverSnap struct {
	stats adaptivekv.Stats
	net   kvserver.NetCounters
	prom  promText
	rt    runtimeSnap
}

func snapServer(srv *kvserver.Server) serverSnap {
	var b bytes.Buffer
	srv.WriteMetrics(&b)
	return serverSnap{stats: srv.Cache().Stats(), net: srv.NetCounters(), prom: parseProm(b.Bytes()), rt: readRuntime()}
}

// tcpPass is one measured pass of a TCP workload.
type tcpPass struct {
	t       tally
	elapsed time.Duration
	cpu     float64 // process CPU seconds
	ops     float64 // keys answered plus writes acknowledged
}

func runTCPPass(clients []*client, next func(*client, []request) []request, d time.Duration, probes bool) tcpPass {
	cpu0 := cpuSeconds()
	elapsed := drivePass(clients, next, d, probes)
	cpu := cpuSeconds() - cpu0
	t := sumClients(clients)
	for _, c := range clients {
		c.win = nil
	}
	return tcpPass{t: t, elapsed: elapsed, cpu: cpu, ops: float64(t.keysOK + t.writesOK)}
}

func (p tcpPass) rate() float64 { return p.ops / p.elapsed.Seconds() }

func (p tcpPass) e2e(setupS float64) map[string]float64 {
	m := windowFigures(p.t.windows)
	m["ops_per_cpu_s"] = ratio(p.ops, p.cpu)
	m["hit_ratio"] = ratio(float64(p.t.hits), float64(p.t.keysOK))
	m["live_heap_mb"] = liveHeapMB()
	m["setup_s"] = setupS
	return m
}

// modelProblems reports the clients' semantic violations.
func modelProblems(t tally) []string {
	if t.violations == 0 {
		return nil
	}
	return append([]string{fmt.Sprintf("%d replies broke memcached semantics", t.violations)}, t.examples...)
}

// attempted and failed count the probes too: the probe's failures are
// the pass's only expected ones.
func (p tcpPass) attempted() uint64 { return p.t.keysOK + p.t.writesOK + p.t.failed + p.t.probeOps }
func (p tcpPass) failed() uint64    { return p.t.failed + p.t.probeFailed }

func nodeChecks(p tcpPass, d adaptivekv.Stats) []string {
	problems := modelProblems(p.t)
	gets, hits := p.t.keysOK+p.t.probeGets, p.t.hits+p.t.probeHits
	if err := engineCheck("node-writemix", d.Gets, d.GetHits, gets, gets+p.t.readsFailed,
		hits, hits+p.t.readsFailed, d.HashCollisions); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

func runNode(rc runConfig) (*outcome, error) {
	st, setupS, err := timedSetups(func() (*nodeStack, error) { return buildNode(rc.seed, false) }, (*nodeStack).close)
	if err != nil {
		return nil, err
	}
	b := snapServer(st.srv)
	p := runTCPPass(st.clients, nodeNext, rc.duration(), true)
	a := snapServer(st.srv)
	d := statsDelta(b.stats, a.stats)
	out := &outcome{attempted: p.attempted(), failed: p.failed(), problems: nodeChecks(p, d)}
	if !rc.trace {
		out.e2e = p.e2e(setupS)
		st.close()
		return out, nil
	}
	st.close()

	layer := cacheLayer(d)
	layer["kvserver.ops_per_flush"] = ratio(sumDelta(b.prom, a.prom, "kv_batched_ops_per_flush_sum"),
		sumDelta(b.prom, a.prom, "kv_batched_ops_per_flush_count"))
	layer["kvserver.vectored_writes_per_kop"] = ratio(float64(a.net.VectoredWrites-b.net.VectoredWrites), p.ops/1000)
	layer["kvproto.wire_bytes_per_op"] = ratio(float64(a.net.BytesIn-b.net.BytesIn+a.net.BytesOut-b.net.BytesOut), p.ops)
	layer["kvserver.service_ns"] = 1e9 * ratio(sumDelta(b.prom, a.prom, "kv_op_latency_seconds_sum"), float64(p.t.requests))
	layer["runtime.alloc_bytes_per_op"] = ratio(float64(a.rt.totalAlloc-b.rt.totalAlloc), p.ops)
	layer["runtime.gc_cycles"] = float64(a.rt.numGC - b.rt.numGC)

	// Traced pass: the same inputs on a fresh stack behind span conns.
	st2, err := buildNode(rc.seed, true)
	if err != nil {
		return nil, err
	}
	for _, c := range st2.clients {
		c.logging = true
	}
	b2 := snapServer(st2.srv)
	st2.spans.on.Store(true)
	p2 := runTCPPass(st2.clients, nodeNext, rc.duration(), true)
	st2.spans.on.Store(false)
	a2 := snapServer(st2.srv)
	out.attempted += p2.attempted()
	out.failed += p2.failed()
	out.problems = append(out.problems, nodeChecks(p2, statsDelta(b2.stats, a2.stats))...)
	serverNS := float64(spanTotal(st2.spans.take()))
	service2 := 1e9 * sumDelta(b2.prom, a2.prom, "kv_op_latency_seconds_sum")
	layer["kvserver.dispatch_ns"] = ratio(serverNS-service2, float64(p2.t.requests))
	layer["net.loopback_ns"] = ratio(float64(p2.t.clientSpanNS)-serverNS, float64(p2.t.requests))
	layer["trace.overhead_pct"] = 100 * (1 - p2.rate()/p.rate())
	st2.close()

	s := logStream(st2.clients, nodeCacheConfig())
	for k, v := range coreLayer(s) {
		layer[k] = v
	}
	for k, v := range protoLayer(s) {
		layer[k] = v
	}
	out.layer = layer
	return out, nil
}

// logStream turns the clients' operation logs into a replay stream.
func logStream(clients []*client, cfg adaptivekv.Config) refStream {
	ops := mergeLogs(clients)
	return opsStream(ops, clients, cfg)
}

func opsStream(ops []refOp, clients []*client, cfg adaptivekv.Config) refStream {
	names := make([][]string, len(clients))
	for i, c := range clients {
		names[i] = make([]string, len(c.m.keys))
		for j, k := range c.m.keys {
			names[i][j] = string(k)
		}
	}
	return refStream{
		cfg:     cfg,
		n:       len(ops),
		at:      func(i int) refOp { return ops[i] },
		keyName: func(id uint64) string { return names[id>>32][id&0xffffffff] },
	}
}

// offlineStream generates a TCP workload's operations without a server,
// for the reference figures: the prefill, then n operations in which every
// gets is taken to hit, so the counter cas always follows.
func offlineStream(clients []*client, next func(*client, []request) []request, n int, cfg adaptivekv.Config) refStream {
	var ops []refOp
	for _, c := range clients {
		for k := range c.m.keys {
			ver := c.m.nextVersion(k)
			ops = append(ops, refOp{key: uint64(c.id)<<32 | uint64(k), size: int32(c.m.size(k, ver)), kind: opSet})
		}
	}
	reqs := make([][]request, len(clients))
	for len(ops) < n {
		for i, c := range clients {
			reqs[i] = next(c, reqs[i])
			for j := range reqs[i] {
				r := &reqs[i][j]
				if r.kind == opGets {
					c.casids[r.key] = 1
				}
				r.hitLo, r.hitHi = 0, 0
				c.logOp(r)
				ops = append(ops, c.log...)
				c.log = c.log[:0]
			}
		}
	}
	return opsStream(ops, clients, cfg)
}

func nodeRefStream(seed uint64) refStream {
	clients := make([]*client, nodeClients)
	for id := range clients {
		clients[id], _ = newNodeClient(id, "", seed)
	}
	return offlineStream(clients, nodeNext, 2_000_000, nodeCacheConfig())
}
