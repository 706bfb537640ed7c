package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the fixed bucket count of every Histogram. Buckets are
// log-scaled at powers of two of the recorded value (seconds for latencies):
// bucket 0 holds values ≤ 2⁻³⁰ (~1 ns), buckets 1..HistBuckets-2 each span
// one binary order of magnitude up to 2¹² s (~68 min), and the last bucket
// is the +Inf overflow. The index is read straight out of the float's
// exponent bits, so a record costs no math library calls.
const HistBuckets = 44

// histExpMin is the binary exponent mapped to bucket 1; exponent e lands in
// bucket e - histExpMin + 1.
const histExpMin = -30

// histShard is one shard of a Histogram. Exactly six cache lines
// ((4 + HistBuckets) × 8 bytes), so sibling shards never share a line; all
// fields of one shard are written by that shard's owner only.
type histShard struct {
	count atomic.Uint64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
	min   atomic.Uint64 // float64 bits, CAS-lowered; initialized to +Inf
	max   atomic.Uint64 // float64 bits, CAS-raised; initialized to -Inf
	cells [HistBuckets]atomic.Uint64
}

// Histogram is a sharded fixed-bucket log-scaled histogram. Record with
// ObserveAt (lock-free, allocation-free), or note values into a
// HistogramBatch and publish them with one FlushAt; read with Snapshot,
// which merges the shards. Create with NewHistogram or intern via
// Registry.Histogram.
type Histogram struct {
	shards [NumShards]histShard
}

// NewHistogram returns an empty histogram with min/max sentinels in place.
func NewHistogram() *Histogram {
	h := &Histogram{}
	for i := range h.shards {
		h.shards[i].min.Store(math.Float64bits(math.Inf(1)))
		h.shards[i].max.Store(math.Float64bits(math.Inf(-1)))
	}
	return h
}

// bucketIndex maps a value to its bucket from the float's exponent bits.
// Non-positive values (and NaN) fall into bucket 0.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	e := int(math.Float64bits(v)>>52&0x7ff) - 1023
	idx := e - histExpMin + 1
	if idx < 0 {
		return 0
	}
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	return idx
}

// BucketBound returns the upper bound of bucket i (the Prometheus `le`
// label); the last bucket's bound is +Inf.
func BucketBound(i int) float64 {
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i+histExpMin)
}

// Observe records v on shard 0.
func (h *Histogram) Observe(v float64) { h.ObserveAt(0, v) }

// ObserveAt records v on the given shard (masked into range): one atomic
// add for the count, one for the bucket, a CAS accumulate for the sum, and
// CAS races for min/max. With one writer per shard every CAS succeeds on
// the first try.
func (h *Histogram) ObserveAt(shard int, v float64) {
	s := &h.shards[shard&shardMask]
	s.count.Add(1)
	s.cells[bucketIndex(v)].Add(1)
	s.fold(v, v, v)
}

// fold adds sum to the shard's sum and lowers its min to lo and raises its
// max to hi where they extend it.
func (s *histShard) fold(sum, lo, hi float64) {
	for {
		old := s.sum.Load()
		if s.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			break
		}
	}
	for {
		old := s.min.Load()
		if lo >= math.Float64frombits(old) || s.min.CompareAndSwap(old, math.Float64bits(lo)) {
			break
		}
	}
	for {
		old := s.max.Load()
		if hi <= math.Float64frombits(old) || s.max.CompareAndSwap(old, math.Float64bits(hi)) {
			break
		}
	}
}

// HistogramBatch accumulates observations in plain memory for one owner, to
// be published into a Histogram by one FlushAt: an observation costs no
// atomic operation, and the flush costs what one ObserveAt does plus one
// atomic add per touched bucket. The zero value is an empty batch, and a
// flushed batch is the zero value again. Not safe for concurrent use.
type HistogramBatch struct {
	count   uint64
	sum     float64
	min     float64 // meaningful when count > 0
	max     float64 // meaningful when count > 0
	touched uint64  // bit b set when cells[b] > 0 (HistBuckets ≤ 64)
	cells   [HistBuckets]uint64
}

// Observe notes v in the batch.
func (b *HistogramBatch) Observe(v float64) {
	// The comparisons are fold's, so a tie (0 and -0) keeps the earlier
	// value as ObserveAt does.
	if b.count == 0 || !(v >= b.min) {
		b.min = v
	}
	if b.count == 0 || !(v <= b.max) {
		b.max = v
	}
	b.count++
	b.sum += v
	i := bucketIndex(v)
	b.cells[i]++
	b.touched |= 1 << i
}

// FlushAt publishes the batch on the given shard and empties it. The count
// and every touched bucket are one atomic add each, the sum is one CAS, and
// min and max are CASed only when they extend the shard's. Afterwards the
// count, buckets, min and max are what ObserveAt of each noted value would
// have left (for values that are not NaN); the sum differs at most by the
// float association of the batch's partial sum.
func (h *Histogram) FlushAt(shard int, b *HistogramBatch) {
	if b.count == 0 {
		return
	}
	s := &h.shards[shard&shardMask]
	s.count.Add(b.count)
	for m := b.touched; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		s.cells[i].Add(b.cells[i])
		b.cells[i] = 0
	}
	s.fold(b.sum, b.min, b.max)
	b.count, b.sum, b.min, b.max, b.touched = 0, 0, 0, 0, 0
}

// HistogramSnapshot is a merged point-in-time view of a Histogram. A
// snapshot taken concurrently with records is not an atomic cut across
// shards (count, sum, and buckets may disagree by in-flight records), which
// is the standard trade for a lock-free write path.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Min     float64 // 0 when Count == 0
	Max     float64 // 0 when Count == 0
	Buckets [HistBuckets]uint64
}

// Snapshot merges the shards into out (caller-owned scratch; no
// allocation).
func (h *Histogram) Snapshot(out *HistogramSnapshot) {
	*out = HistogramSnapshot{Min: math.Inf(1), Max: math.Inf(-1)}
	for i := range h.shards {
		s := &h.shards[i]
		out.Count += s.count.Load()
		out.Sum += math.Float64frombits(s.sum.Load())
		out.Min = math.Min(out.Min, math.Float64frombits(s.min.Load()))
		out.Max = math.Max(out.Max, math.Float64frombits(s.max.Load()))
		for b := range s.cells {
			out.Buckets[b] += s.cells[b].Load()
		}
	}
	if out.Count == 0 {
		// Keep empty snapshots JSON-safe: no ±Inf sentinels escape.
		out.Min, out.Max = 0, 0
	}
}

// Mean returns Sum/Count (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile as the upper bound of the first
// bucket whose cumulative count reaches q×Count. The estimate is
// bucket-granular — within one binary order of magnitude of the true value —
// which is exactly the precision a rolling tail threshold needs. Returns 0
// when empty; returns Max instead of +Inf when the rank lands in the
// overflow bucket.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += s.Buckets[i]
		if cum > rank {
			if i == HistBuckets-1 {
				return s.Max
			}
			return BucketBound(i)
		}
	}
	return s.Max
}
