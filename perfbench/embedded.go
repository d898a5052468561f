package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// embedded-phase: two goroutines drive the adaptivekv library in
// process, read-through (get, then set on a miss), each over its own half
// of the key space. Every round is two phases, run by both goroutines in
// step: a Zipf hot set over a scan (LFU's regime) and a hot set that
// jumps every embEpisode references per goroutine, ~100k combined (LRU's
// regime). Only adaptation across the phases keeps the hit ratio up.
const (
	embClients    = 2
	embPhaseRefs  = 1 << 19 // references per goroutine per phase
	embHotZipf    = 8192    // per-goroutine Zipf hot set: both together fill the cache
	embHotJump    = 4096    // per-goroutine jumping hot set: both together fill half of it
	embEpisode    = 50000   // per-goroutine references between jumps
	embWarmRefs   = 1 << 18 // per-goroutine warm-up references in set-up
	embSampleMask = 31      // untraced passes time one library call in 32
	embJumpBase   = 1 << 40 // keeps the two phases' key ranges apart
	embValueBytes = 32
)

// embTraces generates each goroutine's key sequence for one round; the
// same seed gives the same keys.
func embTraces(seed uint64) [][]uint64 {
	traces := make([][]uint64, embClients)
	for g := range traces {
		s := mix64(seed*embClients + uint64(g))
		zipf := workload.NewKeyStream(s, workload.MixedZipf(embHotZipf, 0.8))
		jump := workload.NewKeyStream(s^0x6a756d70, []workload.Pattern{
			{Kind: workload.PatHot, Blocks: embHotJump, Skew: 0.5, Episode: embEpisode},
		})
		t := make([]uint64, 0, 2*embPhaseRefs)
		for i := 0; i < embPhaseRefs; i++ {
			t = append(t, zipf.Next()<<1|uint64(g))
		}
		for i := 0; i < embPhaseRefs; i++ {
			t = append(t, (jump.Next()+embJumpBase)<<1|uint64(g))
		}
		traces[g] = t
	}
	return traces
}

// embValue is the value read-through stores for key k.
func embValue(k uint64) []byte {
	v := make([]byte, embValueBytes)
	fillEmbValue(v, k)
	return v
}

func fillEmbValue(v []byte, k uint64) {
	binary.LittleEndian.PutUint64(v[0:], k)
	binary.LittleEndian.PutUint64(v[8:], mix64(k))
	binary.LittleEndian.PutUint64(v[16:], mix64(k^1))
	binary.LittleEndian.PutUint64(v[24:], mix64(k^2))
}

func embCheck(k uint64, v []byte) bool {
	var want [embValueBytes]byte
	fillEmbValue(want[:], k)
	return string(v) == string(want[:])
}

// embClient is one goroutine's tally.
type embClient struct {
	gets, hits, sets, bad uint64
	hist                  *metrics.Histogram // the round's, shared by both goroutines
	getNS, setNS          int64              // traced pass: summed call spans
	nGet, nSet            uint64
}

func (e *embClient) drive(c *adaptivekv.Cache[uint64, []byte], keys []uint64, traced bool) {
	for i, k := range keys {
		timed := traced || i&embSampleMask == 0
		var t0 int64
		if timed {
			t0 = mono()
		}
		v, ok := c.Get(k)
		if timed {
			e.timed(mono()-t0, &e.getNS, &e.nGet, traced)
		}
		e.gets++
		if ok {
			e.hits++
			if !embCheck(k, v) {
				e.bad++
			}
			continue
		}
		val := embValue(k)
		if timed {
			t0 = mono()
		}
		c.Set(k, val)
		if timed {
			e.timed(mono()-t0, &e.setNS, &e.nSet, traced)
		}
		e.sets++
	}
}

// timed records one call span: into the round's latency histogram in an
// untraced pass, into the per-call sums in a traced one.
func (e *embClient) timed(d int64, sum *int64, n *uint64, traced bool) {
	if traced {
		*sum += d
		*n++
		return
	}
	e.hist.RecordNS(d)
}

type embStack struct {
	cache *adaptivekv.Cache[uint64, []byte]
	warm  []*embClient
}

func newEmbClients() []*embClient {
	h := new(metrics.Histogram)
	cs := make([]*embClient, embClients)
	for i := range cs {
		cs[i] = &embClient{hist: h}
	}
	return cs
}

// embPhase runs one phase slice of every goroutine's trace in parallel.
func embPhase(c *adaptivekv.Cache[uint64, []byte], clients []*embClient, traces [][]uint64, lo, hi int, traced bool) {
	var wg sync.WaitGroup
	for g := range clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clients[g].drive(c, traces[g][lo:hi], traced)
		}(g)
	}
	wg.Wait()
}

func buildEmb(traces [][]uint64) (*embStack, error) {
	st := &embStack{cache: adaptivekv.New[uint64, []byte](adaptivekv.Config{}), warm: newEmbClients()}
	embPhase(st.cache, st.warm, traces, 0, embWarmRefs, false)
	return st, nil
}

// embPass runs whole rounds until d has passed. It returns the summed
// tallies and one window per round.
func embPass(st *embStack, traces [][]uint64, d time.Duration, traced bool) (embClient, []windowStat, time.Duration) {
	total := sumEmb()
	var rounds []windowStat
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		clients := newEmbClients()
		t0 := time.Now()
		embPhase(st.cache, clients, traces, 0, embPhaseRefs, traced)
		embPhase(st.cache, clients, traces, embPhaseRefs, 2*embPhaseRefs, traced)
		r := sumEmb(clients...)
		w := windowStat{rate: float64(r.gets+r.sets) / time.Since(t0).Seconds()}
		w.setLatency(clients[0].hist)
		rounds = append(rounds, w)
		total.add(r)
	}
	return total, rounds, time.Since(start)
}

func sumEmb(cs ...*embClient) embClient {
	var t embClient
	for _, c := range cs {
		t.add(*c)
	}
	return t
}

func (t *embClient) add(c embClient) {
	t.gets += c.gets
	t.hits += c.hits
	t.sets += c.sets
	t.bad += c.bad
	t.getNS += c.getNS
	t.setNS += c.setNS
	t.nGet += c.nGet
	t.nSet += c.nSet
}

// embChecks verifies every hit's bytes and the engine's counters.
func embChecks(st *embStack, pass embClient) []string {
	var problems []string
	all := sumEmb(st.warm...)
	all.add(pass)
	if all.bad > 0 {
		problems = append(problems, fmt.Sprintf("embedded-phase: %d hits returned bytes other than the value written", all.bad))
	}
	s := st.cache.Stats()
	if err := engineCheck("embedded-phase", s.Gets, s.GetHits, all.gets, all.gets, all.hits, all.hits, s.HashCollisions); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

func runEmbedded(rc runConfig) (*outcome, error) {
	traces := embTraces(rc.seed)
	st, setupS, err := timedSetups(func() (*embStack, error) { return buildEmb(traces) }, func(*embStack) {})
	if err != nil {
		return nil, err
	}
	before, rt0, cpu0 := st.cache.Stats(), readRuntime(), cpuSeconds()
	tot, rounds, elapsed := embPass(st, traces, rc.duration(), false)
	cpu, rt1, after := cpuSeconds()-cpu0, readRuntime(), st.cache.Stats()
	out := &outcome{
		attempted: tot.gets + tot.sets,
		problems:  embChecks(st, tot),
	}
	ops := float64(tot.gets + tot.sets)
	untracedRate := ops / elapsed.Seconds()
	if !rc.trace {
		traces = nil
		out.e2e = windowFigures(rounds)
		out.e2e["ops_per_cpu_s"] = ratio(ops, cpu)
		out.e2e["hit_ratio"] = ratio(float64(tot.hits), float64(tot.gets))
		out.e2e["live_heap_mb"] = liveHeapMB()
		out.e2e["setup_s"] = setupS
		runtime.KeepAlive(st)
		return out, nil
	}

	// Traced pass: the same inputs on a fresh stack, every call timed.
	st2, _ := buildEmb(traces)
	ttot, _, telapsed := embPass(st2, traces, rc.duration(), true)
	out.attempted += ttot.gets + ttot.sets
	out.problems = append(out.problems, embChecks(st2, ttot)...)

	layer := cacheLayer(statsDelta(before, after))
	for k, v := range coreLayer(embReplayStream(traces, 0, 2*embPhaseRefs)) {
		layer[k] = v
	}
	// The engine costs come from the traced pass's own call spans, taken
	// concurrently as the workload runs, rather than from the replay.
	layer["adaptivekv.get_ns"] = ratio(float64(ttot.getNS), float64(ttot.nGet))
	layer["adaptivekv.set_ns"] = ratio(float64(ttot.setNS), float64(ttot.nSet))
	layer["runtime.alloc_bytes_per_op"] = ratio(float64(rt1.totalAlloc-rt0.totalAlloc), ops)
	layer["runtime.gc_cycles"] = float64(rt1.numGC - rt0.numGC)
	layer["trace.overhead_pct"] = 100 * (1 - (float64(ttot.gets+ttot.sets)/telapsed.Seconds())/untracedRate)
	out.layer = layer
	return out, nil
}

// statsDelta is after − before, counter by counter.
func statsDelta(before, after adaptivekv.Stats) adaptivekv.Stats {
	return adaptivekv.Stats{
		Gets:               after.Gets - before.Gets,
		GetHits:            after.GetHits - before.GetHits,
		Stores:             after.Stores - before.Stores,
		StoreHits:          after.StoreHits - before.StoreHits,
		Deletes:            after.Deletes - before.Deletes,
		DeleteHits:         after.DeleteHits - before.DeleteHits,
		Evictions:          after.Evictions - before.Evictions,
		PolicySwitches:     after.PolicySwitches - before.PolicySwitches,
		HashCollisions:     after.HashCollisions - before.HashCollisions,
		OptimisticFastpath: after.OptimisticFastpath - before.OptimisticFastpath,
		OptimisticFallback: after.OptimisticFallback - before.OptimisticFallback,
		PendingHitsDropped: after.PendingHitsDropped - before.PendingHitsDropped,
		Expired:            after.Expired - before.Expired,
		SweepRemoved:       after.SweepRemoved - before.SweepRemoved,
		CasStored:          after.CasStored - before.CasStored,
		CasConflicts:       after.CasConflicts - before.CasConflicts,
		CasMisses:          after.CasMisses - before.CasMisses,
	}
}

// cacheLayer derives the adaptivekv counter metrics from one pass's
// engine counters.
func cacheLayer(d adaptivekv.Stats) map[string]float64 {
	kops := float64(d.Gets+d.Stores+d.Deletes+d.CasOps()) / 1000
	return map[string]float64{
		"adaptivekv.evictions_per_kop":       ratio(float64(d.Evictions), kops),
		"adaptivekv.fastpath_share":          ratio(float64(d.OptimisticFastpath), float64(d.Gets)),
		"adaptivekv.fallbacks_per_kop":       ratio(float64(d.OptimisticFallback), kops),
		"adaptivekv.pending_dropped_per_kop": ratio(float64(d.PendingHitsDropped), kops),
		"adaptivekv.expired_per_kop":         ratio(float64(d.Expired), kops),
		"core.policy_switches":               float64(d.PolicySwitches),
	}
}
