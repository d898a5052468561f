package main

import (
	"container/heap"
	"fmt"
	"math"

	"repro/adaptivekv"
)

// The reference figures: each workload's key stream replayed
// single-threaded under StrictOrder (so every figure is deterministic in
// the seed) through single policies, SBAR, full adaptive with 8-bit and
// full shadow tags, a three-component SBAR, and the fully associative
// Belady OPT ceiling at the same capacity. They are figures to read, not
// checks: no mode is promised to sit within a bound of its best component.

type refConfig struct {
	name string
	cfg  func(adaptivekv.Config) adaptivekv.Config
}

var refConfigs = []refConfig{
	{"LRU", func(c adaptivekv.Config) adaptivekv.Config { return single(c, "LRU") }},
	{"LFU", func(c adaptivekv.Config) adaptivekv.Config { return single(c, "LFU") }},
	{"MRU", func(c adaptivekv.Config) adaptivekv.Config { return single(c, "MRU") }},
	{"SBAR(LRU,LFU)", func(c adaptivekv.Config) adaptivekv.Config { return c }},
	{"adaptive(LRU,LFU) 8-bit tags", func(c adaptivekv.Config) adaptivekv.Config {
		c.Mode, c.ShadowTagBits = adaptivekv.ModeAdaptive, 8
		return c
	}},
	{"adaptive(LRU,LFU) full tags", func(c adaptivekv.Config) adaptivekv.Config {
		c.Mode, c.ShadowTagBits = adaptivekv.ModeAdaptive, -1
		return c
	}},
	{"SBAR(LRU,LFU,MRU)", func(c adaptivekv.Config) adaptivekv.Config {
		c.Components = []string{"LRU", "LFU", "MRU"}
		return c
	}},
}

func referenceStreams(seed uint64) []struct {
	name string
	s    refStream
} {
	traces := embTraces(seed)
	return []struct {
		name string
		s    refStream
	}{
		{"embedded-phase", embReplayStream(traces, 0, 2*embPhaseRefs)},
		{"embedded-phase, Zipf phase alone", embReplayStream(traces, 0, embPhaseRefs)},
		{"embedded-phase, jumping phase alone", embReplayStream(traces, embPhaseRefs, 2*embPhaseRefs)},
		{"node-writemix", nodeRefStream(seed)},
		{"cluster-multiget", clusterRefStream(seed)},
	}
}

func referenceMain(seed uint64) int {
	fmt.Printf("reference hit ratios, seed %d, single-threaded, StrictOrder\n", seed)
	for _, w := range referenceStreams(seed) {
		cap := adaptivekv.New[uint64, []byte](w.s.cfg).Capacity()
		fmt.Printf("\n%s: %d operations, capacity %d entries\n", w.name, w.s.n, cap)
		for _, rc := range refConfigs {
			cfg := rc.cfg(w.s.cfg)
			cfg.StrictOrder = true
			fmt.Printf("  %-30s %.4f\n", rc.name, replay(w.s, cfg, false).hitRatio())
		}
		fmt.Printf("  %-30s %.4f\n", "Belady OPT (fully assoc.)", beladyHitRatio(w.s, cap))
	}
	return 0
}

// beladyHitRatio is the get hit ratio of Belady's OPT with demand fill
// (every miss of a read-through stream, and every set, inserts) over a
// fully associative cache of capacity entries. A copy whose next access
// is a write or a delete is dead, so its next use is never. TTLs are
// ignored, which can only raise the ceiling.
func beladyHitRatio(s refStream, capacity int) float64 {
	const never = math.MaxInt32
	next := make([]int32, s.n)
	nextRead := make(map[uint64]int32)
	for i := s.n - 1; i >= 0; i-- {
		op := s.at(i)
		nr, ok := nextRead[op.key]
		if !ok {
			nr = never
		}
		next[i] = nr
		switch op.kind {
		case opGet, opGets, opCas:
			nextRead[op.key] = int32(i)
		case opSet, opDel:
			nextRead[op.key] = never
		}
	}
	nextRead = nil

	resident := make(map[uint64]int32, capacity)
	h := &useHeap{}
	insert := func(key uint64, use int32) {
		if _, ok := resident[key]; !ok && len(resident) >= capacity {
			for {
				top := heap.Pop(h).(useEntry)
				if u, ok := resident[top.key]; ok && u == top.use {
					delete(resident, top.key)
					break
				}
			}
		}
		resident[key] = use
		heap.Push(h, useEntry{use, key})
		if h.Len() > 4*capacity+1024 {
			// Drop the stale entries every access leaves behind.
			*h = (*h)[:0]
			for k, u := range resident {
				*h = append(*h, useEntry{u, k})
			}
			heap.Init(h)
		}
	}
	var gets, hits uint64
	for i := 0; i < s.n; i++ {
		op := s.at(i)
		_, in := resident[op.key]
		switch op.kind {
		case opGet, opGets:
			gets++
			if in {
				hits++
				insert(op.key, next[i])
			} else if s.readThrough {
				insert(op.key, next[i])
			}
		case opCas:
			if in {
				insert(op.key, next[i])
			}
		case opSet:
			insert(op.key, next[i])
		case opDel:
			delete(resident, op.key)
		}
	}
	return ratio(float64(hits), float64(gets))
}

type useEntry struct {
	use int32
	key uint64
}

// useHeap is a max-heap on next use; stale entries are skipped on pop.
type useHeap []useEntry

func (h useHeap) Len() int           { return len(h) }
func (h useHeap) Less(i, j int) bool { return h[i].use > h[j].use }
func (h useHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *useHeap) Push(x any)        { *h = append(*h, x.(useEntry)) }
func (h *useHeap) Pop() any          { old := *h; e := old[len(old)-1]; *h = old[:len(old)-1]; return e }
