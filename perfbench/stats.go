package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is a handful of outliers, not a percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the q-quantile among n
// samples, and whether at least minBeyond samples lie beyond it. The median
// is exempt from the tail rule: it needs only one sample.
func rank(n int64, q float64) (int64, bool) {
	if n <= 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	r := int64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if q > 0.5 && n-r < minBeyond {
		return r, false
	}
	return r, true
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place) and
// false when the rank rule refuses it.
func quantile(xs []float64, q float64) (float64, bool) {
	r, ok := rank(int64(len(xs)), q)
	if !ok {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[r-1], true
}

// median is quantile(xs, 0.5), NaN for no samples.
func median(xs []float64) float64 {
	v, ok := quantile(xs, 0.5)
	if !ok {
		return math.NaN()
	}
	return v
}

// histMaxNS is the largest sample, in nanoseconds, a hist counts in its
// one-nanosecond buckets; anything longer is kept exactly in overflow.
const histMaxNS = 1 << 16

// hist is a latency histogram with one bucket per nanosecond. Recording
// never allocates while samples stay below histMaxNS, so the benchmark's
// own bookkeeping stays out of the allocation and heap figures it reports,
// and percentiles are exact to the nanosecond.
type hist struct {
	counts   []uint32
	overflow []int64
	n        int64
}

func newHist() *hist {
	return &hist{counts: make([]uint32, histMaxNS), overflow: make([]int64, 0, 4096)}
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns < histMaxNS {
		h.counts[ns]++
	} else {
		h.overflow = append(h.overflow, ns)
	}
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.overflow = h.overflow[:0]
	h.n = 0
}

// quantile returns the nearest-rank q-quantile in nanoseconds and false
// when the rank rule refuses it.
func (h *hist) quantile(q float64) (float64, bool) {
	r, ok := rank(h.n, q)
	if !ok {
		return 0, false
	}
	var seen int64
	for ns, c := range h.counts {
		seen += int64(c)
		if seen >= r {
			return float64(ns), true
		}
	}
	sort.Slice(h.overflow, func(i, j int) bool { return h.overflow[i] < h.overflow[j] })
	return float64(h.overflow[r-seen-1]), true
}

// memStats reads the cumulative allocation count and the in-use heap. It
// stops the world, so callers sample only between machine instances.
func memStats() (mallocs, heapInuse uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.HeapInuse
}

// memTally records heap allocations per operation of each measured
// instance and the largest live heap seen at any checkpoint.
type memTally struct {
	perOp     []float64 // each instance's allocations per operation
	peakInuse uint64
	start     uint64
	lastCheck time.Time
}

// checkEvery spaces heap checkpoints: each forces a collection, which is
// too slow to take after every short instance.
const checkEvery = 250 * time.Millisecond

// begin opens a measured interval.
func (t *memTally) begin() {
	t.start, _ = memStats()
}

// end closes the interval opened by begin, in which ops operations
// finished, and, at most every checkEvery, takes a heap checkpoint. The
// checkpoint collects garbage first, so it reads the heap the finished
// instance still holds (the caller keeps its machine live across the
// call), not how far the collector lagged.
func (t *memTally) end(ops int64) {
	m, _ := memStats()
	if ops > 0 {
		t.perOp = append(t.perOp, float64(m-t.start)/float64(ops))
	}
	if time.Since(t.lastCheck) < checkEvery {
		return
	}
	runtime.GC()
	_, inuse := memStats()
	if inuse > t.peakInuse {
		t.peakInuse = inuse
	}
	t.lastCheck = time.Now()
}

// allocsPerOp is the median over instances of allocations per operation:
// how many allocations an operation takes varies with how the PEs
// interleave (envelope-pool misses, queue spills), and the median keeps an
// instance the host stalled from moving the run's figure.
func (t *memTally) allocsPerOp() float64 { return median(t.perOp) }

func (t *memTally) peakMiB() float64 { return float64(t.peakInuse) / (1 << 20) }
