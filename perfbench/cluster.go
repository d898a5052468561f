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
	"repro/internal/kvcluster"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// cluster-multiget: a kvcluster Router with Replicas 2 in front of three
// in-process kvserver nodes, driven by two connections with one request
// in flight each. 95% of requests are gets of 24 to 40 distinct keys, the
// rest sets, which the cluster writes to both owners. The working set
// (8192 keys, twice that with replicas, over three 16384-entry nodes)
// fits and is prefilled, so nearly every get hits: scatter/gather, the
// router hop, multi-key parse and reply, and loopback carry the load.
const (
	clusterNodes   = 3
	clusterClients = 2
	clusterKeys    = 4096 // per client
	clusterMinKeys = 24
	clusterMaxKeys = 40
	clusterSetPct  = 5
)

func clusterCacheConfig() adaptivekv.Config { return adaptivekv.Config{} }

// clusterSize is log-uniform in [64 B, 512 B).
func clusterSize(k int, ver uint32) int {
	u := float64(mix64(uint64(k)<<32|uint64(ver))>>11) / (1 << 53)
	return int(64 * math.Exp2(3*u))
}

func newClusterClient(id int, addr string, seed uint64) (*client, error) {
	keys := make([][]byte, clusterKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("c%d.m%05d", id, i))
	}
	m := newModel(fmt.Sprintf("cluster-multiget client %d", id), keys, clusterSize, ttlGrace)
	var c *client
	if addr == "" {
		c = &client{id: id, m: m, rng: rand.New(rand.NewPCG(seed, uint64(id)))}
	} else {
		var err error
		if c, err = dialClient(id, addr, m, seed); err != nil {
			return nil, err
		}
	}
	c.stamp = make([]uint32, clusterKeys)
	return c, nil
}

func clusterNext(c *client, reqs []request) []request {
	reqs = batchSlots(reqs, 1)
	r := &reqs[0]
	r.ttl = false
	if c.rng.IntN(100) < clusterSetPct {
		r.kind, r.key = opSet, c.rng.IntN(clusterKeys)
		r.ver = c.m.nextVersion(r.key)
		return reqs
	}
	n := clusterMinKeys + c.rng.IntN(clusterMaxKeys-clusterMinKeys+1)
	c.stampGen++
	r.kind, r.keys = opMGet, r.keys[:0]
	for len(r.keys) < n {
		if k := c.rng.IntN(clusterKeys); c.stamp[k] != c.stampGen {
			c.stamp[k] = c.stampGen
			r.keys = append(r.keys, k)
		}
	}
	r.key = r.keys[0]
	return reqs
}

type clusterStack struct {
	nodes     []*kvserver.Server
	nodeLns   []net.Listener
	nodeSpans []*spanLog
	cl        *kvcluster.Cluster
	router    *kvcluster.Router
	rln       net.Listener
	spans     *spanLog // router conns
	served    sync.WaitGroup
	clients   []*client
}

// listen opens a loopback listener, behind span conns when log is set.
func listen(log *spanLog) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := ln.Addr().String()
	if log != nil {
		return &spanListener{Listener: ln, log: log}, addr, nil
	}
	return ln, addr, nil
}

func buildCluster(seed uint64, traced bool) (*clusterStack, error) {
	st := &clusterStack{}
	var addrs []string
	for i := 0; i < clusterNodes; i++ {
		var log *spanLog
		if traced {
			log = &spanLog{}
		}
		ln, addr, err := listen(log)
		if err != nil {
			st.close()
			return nil, err
		}
		srv := kvserver.New(kvserver.Config{Cache: clusterCacheConfig()})
		st.nodes, st.nodeLns, st.nodeSpans = append(st.nodes, srv), append(st.nodeLns, ln), append(st.nodeSpans, log)
		addrs = append(addrs, addr)
		st.served.Add(1)
		go func() {
			defer st.served.Done()
			srv.Serve(ln)
		}()
	}
	cl, err := kvcluster.New(kvcluster.Config{
		Nodes: addrs, Replicas: 2, Seed: seed,
		Reconnect: kvproto.ReconnectConfig{ReadTimeout: ioTimeout, WriteTimeout: ioTimeout},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.cl = cl
	cl.Start()
	st.router = kvcluster.NewRouter(cl, kvcluster.RouterConfig{})
	if traced {
		st.spans = &spanLog{}
	}
	rln, raddr, err := listen(st.spans)
	if err != nil {
		st.close()
		return nil, err
	}
	st.rln = rln
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		st.router.Serve(rln)
	}()
	for id := 0; id < clusterClients; id++ {
		c, err := newClusterClient(id, raddr, seed)
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	prefill(st.clients)
	if t := sumClients(st.clients); t.failed > 0 || t.violations > 0 {
		st.close()
		return nil, fmt.Errorf("cluster-multiget: prefill failed %d sets", t.failed)
	}
	resetTallies(st.clients)
	return st, nil
}

func (st *clusterStack) close() {
	for _, c := range st.clients {
		c.close()
	}
	if st.rln != nil {
		st.router.Shutdown(st.rln, time.Second)
	}
	if st.cl != nil {
		st.cl.Close()
	}
	for i, srv := range st.nodes {
		srv.Shutdown(st.nodeLns[i], time.Second)
	}
	st.served.Wait()
}

type clusterSnap struct {
	stats     adaptivekv.Stats
	net       kvserver.NetCounters
	nodes     promText // every node's exposition, summed series by series
	cluster   promText // the cluster's and router's registry
	failovers uint64
	rt        runtimeSnap
}

func snapCluster(st *clusterStack) clusterSnap {
	s := clusterSnap{nodes: promText{}, failovers: st.cl.FailoverReads()}
	for _, srv := range st.nodes {
		var b bytes.Buffer
		srv.WriteMetrics(&b)
		for k, v := range parseProm(b.Bytes()) {
			s.nodes[k] += v
		}
		s.stats.Add(srv.Cache().Stats())
		n := srv.NetCounters()
		s.net.VectoredWrites += n.VectoredWrites
	}
	var b bytes.Buffer
	st.cl.Registry().WritePrometheus(&b)
	s.cluster = parseProm(b.Bytes())
	s.rt = readRuntime()
	return s
}

func clusterChecks(p tcpPass, b, a clusterSnap) []string {
	problems := modelProblems(p.t)
	d := statsDelta(b.stats, a.stats)
	if err := engineCheck("cluster-multiget", d.Gets, d.GetHits, p.t.keysOK, p.t.keysOK+p.t.readsFailed,
		p.t.hits, p.t.hits+p.t.readsFailed, d.HashCollisions); err != nil {
		problems = append(problems, err.Error())
	}
	if lo, hi := 2*p.t.setsAcked, 2*(p.t.setsAcked+p.t.setsAmbiguous); d.Stores < lo || d.Stores > hi {
		problems = append(problems, fmt.Sprintf("cluster-multiget: nodes stored %d values for %d acknowledged sets (want twice as many)",
			d.Stores, p.t.setsAcked))
	}
	if f := a.failovers - b.failovers; f != 0 {
		problems = append(problems, fmt.Sprintf("cluster-multiget: %d failover reads on a healthy cluster", f))
	}
	return problems
}

func runCluster(rc runConfig) (*outcome, error) {
	st, setupS, err := timedSetups(func() (*clusterStack, error) { return buildCluster(rc.seed, false) }, (*clusterStack).close)
	if err != nil {
		return nil, err
	}
	b := snapCluster(st)
	p := runTCPPass(st.clients, clusterNext, rc.duration(), false)
	a := snapCluster(st)
	out := &outcome{attempted: p.attempted(), failed: p.failed(), problems: clusterChecks(p, b, a)}
	if !rc.trace {
		out.e2e = p.e2e(setupS)
		st.close()
		return out, nil
	}
	st.close()

	d := statsDelta(b.stats, a.stats)
	layer := cacheLayer(d)
	layer["kvserver.ops_per_flush"] = ratio(sumDelta(b.nodes, a.nodes, "kv_batched_ops_per_flush_sum"),
		sumDelta(b.nodes, a.nodes, "kv_batched_ops_per_flush_count"))
	layer["kvserver.vectored_writes_per_kop"] = ratio(float64(a.net.VectoredWrites-b.net.VectoredWrites), p.ops/1000)
	layer["kvproto.wire_bytes_per_op"] = ratio(sumDelta(b.cluster, a.cluster, "kvrouter_bytes_in_total")+
		sumDelta(b.cluster, a.cluster, "kvrouter_bytes_out_total"), p.ops)
	layer["kvserver.service_ns"] = 1e9 * ratio(sumDelta(b.nodes, a.nodes, "kv_op_latency_seconds_sum"), float64(p.t.requests))
	layer["kvcluster.backend_rtt_ns"] = 1e9 * ratio(sumDelta(b.cluster, a.cluster, "kvcluster_node_rtt_seconds_sum"),
		sumDelta(b.cluster, a.cluster, "kvcluster_node_rtt_seconds_count"))
	layer["kvcluster.fanout"] = ratio(sumDelta(b.cluster, a.cluster, "kvcluster_fanout_nodes_sum"),
		sumDelta(b.cluster, a.cluster, "kvcluster_fanout_nodes_count"))
	layer["kvcluster.replica_writes_per_set"] = ratio(float64(d.Stores), float64(p.t.setsAcked))
	layer["runtime.alloc_bytes_per_op"] = ratio(float64(a.rt.totalAlloc-b.rt.totalAlloc), p.ops)
	layer["runtime.gc_cycles"] = float64(a.rt.numGC - b.rt.numGC)

	// Traced pass: the same inputs on a fresh stack, with span conns at
	// the router's and every node's listener.
	st2, err := buildCluster(rc.seed, true)
	if err != nil {
		return nil, err
	}
	for _, c := range st2.clients {
		c.logging = true
	}
	logs := append([]*spanLog{st2.spans}, st2.nodeSpans...)
	b2 := snapCluster(st2)
	for _, l := range logs {
		l.on.Store(true)
	}
	p2 := runTCPPass(st2.clients, clusterNext, rc.duration(), false)
	for _, l := range logs {
		l.on.Store(false)
	}
	a2 := snapCluster(st2)
	st2.close()
	out.attempted += p2.attempted()
	out.failed += p2.failed()
	out.problems = append(out.problems, clusterChecks(p2, b2, a2)...)

	routerSpans := st2.spans.take()
	var nodeSpans [][]span
	var nodeNS float64
	for _, l := range st2.nodeSpans {
		s := l.take()
		nodeNS += float64(spanTotal(s))
		nodeSpans = append(nodeSpans, s)
	}
	service2 := 1e9 * sumDelta(b2.nodes, a2.nodes, "kv_op_latency_seconds_sum")
	layer["kvcluster.hop_ns"] = hopNS(routerSpans, nodeSpans)
	layer["kvserver.dispatch_ns"] = ratio(nodeNS-service2, float64(p2.t.requests))
	layer["net.loopback_ns"] = ratio(float64(p2.t.clientSpanNS-spanTotal(routerSpans)), float64(p2.t.requests))
	layer["trace.overhead_pct"] = 100 * (1 - p2.rate()/p.rate())

	s := logStream(st2.clients, clusterCacheConfig())
	for k, v := range coreLayer(s) {
		layer[k] = v
	}
	for k, v := range protoLayer(s) {
		layer[k] = v
	}
	out.layer = layer
	return out, nil
}

func clusterRefStream(seed uint64) refStream {
	clients := make([]*client, clusterClients)
	for id := range clients {
		clients[id], _ = newClusterClient(id, "", seed)
	}
	return offlineStream(clients, clusterNext, 2_000_000, clusterCacheConfig())
}
