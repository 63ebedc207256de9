package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is the least number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples in
// microseconds. It refuses (with an error) a percentile that fewer than
// minBeyond samples lie beyond, because such a tail is one or two outliers,
// not a distribution. samples is sorted in place.
func percentile(samples []time.Duration, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", p, n, beyond, minBeyond)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[idx]) / float64(time.Microsecond), nil
}

// median is percentile 50 without the tail rule, for small per-layer sets.
func median(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[(len(samples)-1)/2]) / float64(time.Microsecond)
}

// medianF is the median of plain numbers.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered set of named metrics.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]metric{}} }

func (m *metricSet) set(name, unit string, v float64) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// ratio divides, reading 0/0 as 0 (a layer the workload bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtSample is a runtime/metrics snapshot of the counters the benchmark
// reports per operation or per run.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
	gcPauses, schedLat    *metrics.Float64Histogram
	wall                  time.Time
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		gcPauses:   s[4].Value.Float64Histogram(),
		schedLat:   s[5].Value.Float64Histogram(),
		wall:       time.Now(),
	}
}

// histDeltaP returns the p-th percentile (upper bucket bound, in
// microseconds) of the observations added between two histogram snapshots.
func histDeltaP(a, b *metrics.Float64Histogram, p float64) float64 {
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// liveHeapBytes forces a full collection and reads the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
