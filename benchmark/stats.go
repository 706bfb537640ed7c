package main

import (
	"math"
	"sort"
)

// sample is one completed round trip of the measured phase.
type sample struct {
	done int64 // completion time, ns since its slice started
	lat  int64 // client-observed round trip, ns
	ok   int32 // deploys it completed successfully (0 for a failed request)
}

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest element with at least q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the midpoint median without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sliceStats is one slice (one second) of the measured phase reduced to its
// numbers, each already at reference speed.
type sliceStats struct {
	throughput float64 // successful deploys per second
	cpuUS      float64 // daemon CPU microseconds per successful deploy
	p50MS      float64 // median round trip
	p95MS      float64 // 95th-percentile round trip
	p99MS      float64 // 99th-percentile round trip
}

// reduceSlice turns one slice's samples and the daemon CPU seconds spent
// during it into sliceStats. speed is the host's speed while the slice ran
// (reference.speed): a host twice as fast as the reference halves every time
// and doubles every rate, so times are multiplied by it and rates divided.
// The slice lasts until its last completion. A slice without a successful
// deploy has no rate to speak of and reads all zero.
func reduceSlice(samples []sample, cpuSeconds, speed float64) sliceStats {
	var ok, last int64
	lats := make([]float64, len(samples))
	for i, s := range samples {
		ok += int64(s.ok)
		last = max(last, s.done)
		lats[i] = float64(s.lat) / 1e6
	}
	if ok == 0 || last == 0 {
		return sliceStats{}
	}
	sort.Float64s(lats)
	return sliceStats{
		throughput: float64(ok) / (float64(last) / 1e9) / speed,
		cpuUS:      cpuSeconds * 1e6 / float64(ok) * speed,
		p50MS:      quantile(lats, 0.5) * speed,
		p95MS:      quantile(lats, 0.95) * speed,
		p99MS:      quantile(lats, 0.99) * speed,
	}
}

// medianOf is the median over slices of one of their numbers. A stall of
// the host spoils the slices it covers, not the metric.
func medianOf(slices []sliceStats, pick func(sliceStats) float64) float64 {
	xs := make([]float64, len(slices))
	for i, s := range slices {
		xs[i] = pick(s)
	}
	return median(xs)
}
