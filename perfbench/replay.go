package main

import (
	"repro/adaptivekv"
)

// The replays drive one workload's operation stream single-threaded
// through direct adaptivekv calls. They give the per-layer engine costs
// (spans around each call), the core metrics (served configuration
// against single-component baselines on the same stream) and, with
// StrictOrder, the deterministic reference figures.

type opKind uint8

const (
	opGet opKind = iota
	opMGet
	opSet
	opDel
	opGets
	opCas
)

// refOp is one operation of a key stream as the replays see it: multi-key
// gets are flattened into one opGet per key.
type refOp struct {
	key  uint64
	size int32 // opSet/opCas: value bytes; opGet/opGets: bytes returned, -1 on a miss
	kind opKind
	cont bool // a later key of the same multi-key get
}

// refStream is a workload's key stream. readThrough streams hold only
// gets; the replay sets every key that misses, as the workload does.
type refStream struct {
	cfg         adaptivekv.Config
	n           int
	at          func(i int) refOp
	readThrough bool
	keyName     func(id uint64) string // nil: the id itself is the key
}

type replayResult struct {
	gets, hits       uint64
	getNS, setNS     int64
	casNS            int64
	nGet, nSet, nCas uint64
}

func (r replayResult) hitRatio() float64 { return ratio(float64(r.hits), float64(r.gets)) }

func replay(s refStream, cfg adaptivekv.Config, timed bool) replayResult {
	if s.keyName == nil {
		return replayKeys(s, cfg, timed, func(id uint64) uint64 { return id })
	}
	return replayKeys(s, cfg, timed, s.keyName)
}

func replayKeys[K comparable](s refStream, cfg adaptivekv.Config, timed bool, keyOf func(uint64) K) replayResult {
	c := adaptivekv.New[K, []byte](cfg)
	defer c.Close()
	var r replayResult
	casids := make(map[uint64]uint64)
	var t0 int64
	start := func() {
		if timed {
			t0 = mono()
		}
	}
	span := func(sum *int64, n *uint64) {
		if timed {
			*sum += mono() - t0
			*n++
		}
	}
	for i := 0; i < s.n; i++ {
		op := s.at(i)
		k := keyOf(op.key)
		switch op.kind {
		case opGet, opGets:
			start()
			_, id, ok := c.GetCas(k)
			span(&r.getNS, &r.nGet)
			r.gets++
			if ok {
				r.hits++
				if op.kind == opGets {
					casids[op.key] = id
				}
				continue
			}
			if s.readThrough {
				v := make([]byte, embValueBytes)
				start()
				c.Set(k, v)
				span(&r.setNS, &r.nSet)
			}
		case opSet:
			v := make([]byte, op.size)
			start()
			c.Set(k, v)
			span(&r.setNS, &r.nSet)
		case opDel:
			c.Delete(k)
		case opCas:
			v := make([]byte, op.size)
			start()
			c.CompareAndSwap(k, v, casids[op.key], 0)
			span(&r.casNS, &r.nCas)
		}
	}
	return r
}

func single(cfg adaptivekv.Config, policy string) adaptivekv.Config {
	cfg.Mode = adaptivekv.ModeSingle
	cfg.Components = []string{policy}
	return cfg
}

// coreLayer replays the stream under the served configuration and under
// each of its single components. core.decision_ns is the served
// configuration's mean Set cost minus single LRU's; core.regret_pts is
// the best single component's hit ratio minus the served one, in points.
// The served replay also gives the engine's per-call costs.
func coreLayer(s refStream) map[string]float64 {
	served := replay(s, s.cfg, true)
	lru := replay(s, single(s.cfg, "LRU"), true)
	lfu := replay(s, single(s.cfg, "LFU"), false)
	best := max(lru.hitRatio(), lfu.hitRatio())
	return map[string]float64{
		"core.decision_ns":  ratio(float64(served.setNS), float64(served.nSet)) - ratio(float64(lru.setNS), float64(lru.nSet)),
		"core.regret_pts":   100 * (best - served.hitRatio()),
		"adaptivekv.get_ns": ratio(float64(served.getNS), float64(served.nGet)),
		"adaptivekv.set_ns": ratio(float64(served.setNS), float64(served.nSet)),
		"adaptivekv.cas_ns": ratio(float64(served.casNS), float64(served.nCas)),
	}
}

// embReplayStream interleaves the embedded goroutines' round traces,
// references lo to hi of each, reference by reference.
func embReplayStream(traces [][]uint64, lo, hi int) refStream {
	g := len(traces)
	return refStream{
		cfg:         adaptivekv.Config{},
		n:           (hi - lo) * g,
		at:          func(i int) refOp { return refOp{kind: opGet, key: traces[i%g][lo+i/g]} },
		readThrough: true,
	}
}
