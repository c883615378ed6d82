package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailQuantile is quantile, but only when at least ten samples lie beyond
// the percentile; otherwise 0, because the sample does not support it.
func tailQuantile(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10-1e-9 {
		return 0
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler polls the live Go heap — the bytes the last collection found
// reachable — and keeps the peak. It is the memory the run needs, without
// the garbage whose amount depends on when collections happen to run.
// runtime/metrics reads do not stop the world, so sampling does not perturb
// the timed operations the way ReadMemStats would.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // guarded by mu
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters is a point-in-time read of the allocator and GC totals.
type runtimeCounters struct {
	allocBytes uint64
	gcPauseNs  uint64
}

// liveHeapMB collects garbage and returns the live heap in MiB: what the
// loaded system keeps resident between operations.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{allocBytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs}
}

// seq returns 0..n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
