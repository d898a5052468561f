package main

import (
	"runtime"
	"syscall"
	"time"
)

// setupRuns is how many times a run builds its stack; setup_s is the
// median, so one slow start-up does not move the metric.
const setupRuns = 9

// timedSetups builds the stack setupRuns times, tearing down all but the
// last, and returns the last one with the median build time in seconds.
func timedSetups[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var st T
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, median(times), nil
}

// runtimeSnap holds the allocator counters a pass is charged with.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{ms.TotalAlloc, ms.NumGC}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var epoch = time.Now()

// mono is monotonic nanoseconds since process start: every span, latency
// and client-side TTL deadline is on this clock.
func mono() int64 { return int64(time.Since(epoch)) }

// cpuSeconds is the user plus system CPU time the process has used.
// ops_per_cpu_s divides a pass's work by the CPU time it took: unlike the
// wall-clock rate it does not move when the host lends the CPUs elsewhere.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
