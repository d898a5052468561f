package main

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// quantiles returns the first, second and third quartile of vals, as
// Python's statistics.quantiles(vals, n=4) computes them (the default
// "exclusive" method), plus the minimum and maximum.
func quartiles(vals []float64) (q1, med, q3, lo, hi float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return
	}
	if n == 1 {
		return s[0], s[0], s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3), s[0], s[n-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the mean of the middle half of vals (the interquartile
// mean): like the median, a stall that hits a few windows does not move
// it, but it averages over many windows, so latency quantiles that sit
// on histogram bucket bounds still resolve finer than one bucket.
func midMean(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 4 {
		return median(s)
	}
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// The end-to-end rate and latency figures are taken per window of a pass
// and then summarised over the windows: a stall of the shared machine
// that hits one window moves that window's figures, not the run's.
// windowStat summarises one window.
type windowStat struct{ rate, p50, p95, p99 float64 }

// windowWidth is the width of the TCP workloads' windows; embedded-phase
// uses its rounds as windows, so every window holds both phases.
const windowWidth = 500 * time.Millisecond

// windowed holds a pass's tallies per window, shared by its clients. The
// latency histograms are internal/metrics.Histogram: lock-free, and
// their quantiles are at most 3.125% above the true value.
type windowed struct {
	start, width int64
	ops          []atomic.Uint64
	hists        []*metrics.Histogram
}

// newWindowed covers the n whole windows of width that fit in a pass of
// length d starting at start; completions after them are not counted.
func newWindowed(start int64, d time.Duration) *windowed {
	n := int(d / windowWidth)
	w := &windowed{start: start, width: int64(windowWidth), ops: make([]atomic.Uint64, n), hists: make([]*metrics.Histogram, n)}
	for i := range w.hists {
		w.hists[i] = new(metrics.Histogram)
	}
	return w
}

// add counts ops completed at at, and one request latency.
func (w *windowed) add(at int64, ops uint64, lat int64) {
	i := int((at - w.start) / w.width)
	if i < 0 || i >= len(w.ops) {
		return
	}
	w.ops[i].Add(ops)
	w.hists[i].RecordNS(lat)
}

// stats summarises each window.
func (w *windowed) stats() []windowStat {
	out := make([]windowStat, len(w.ops))
	for i := range out {
		out[i] = windowStat{rate: float64(w.ops[i].Load()) / time.Duration(w.width).Seconds()}
		out[i].setLatency(w.hists[i])
	}
	return out
}

func (s *windowStat) setLatency(h *metrics.Histogram) {
	s.p50 = float64(h.Quantile(0.50))
	s.p95 = float64(h.Quantile(0.95))
	s.p99 = float64(h.Quantile(0.99))
}

// windowFigures returns the median over windows of the rate, and the
// interquartile mean over windows of the p50, p95 and p99 latencies in
// microseconds.
func windowFigures(st []windowStat) map[string]float64 {
	var rate, p50, p95, p99 []float64
	for _, s := range st {
		rate, p50 = append(rate, s.rate), append(p50, s.p50/1e3)
		p95, p99 = append(p95, s.p95/1e3), append(p99, s.p99/1e3)
	}
	return map[string]float64{"ops_per_s": median(rate), "latency_p50_us": midMean(p50),
		"latency_p95_us": midMean(p95), "latency_p99_us": midMean(p99)}
}
