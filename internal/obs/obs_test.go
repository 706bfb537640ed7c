package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestCounterShardsMerge(t *testing.T) {
	var c Counter
	for shard := 0; shard < NumShards*2; shard++ { // exercises the mask
		c.AddAt(shard, 1.5)
	}
	if got := c.Value(); got != 1.5*float64(NumShards*2) {
		t.Fatalf("Value = %v, want %v", got, 1.5*float64(NumShards*2))
	}
	c.Add(0.5)
	if got := c.Value(); got != 1.5*float64(NumShards*2)+0.5 {
		t.Fatalf("Value after Add = %v", got)
	}
}

func TestGaugeSetFlag(t *testing.T) {
	var g Gauge
	if _, ok := g.Value(); ok {
		t.Fatal("unset gauge reports ok")
	}
	g.Set(42)
	if v, ok := g.Value(); !ok || v != 42 {
		t.Fatalf("gauge = %v %v", v, ok)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	// Bucket index must be monotone in the value and every value must land
	// in a bucket whose bound is at least the value.
	prev := 0
	for _, v := range []float64{0, 1e-300, 1e-12, 1e-9, 1e-6, 0.001, 0.5, 1, 3, 1024, 1e6, 1e300, math.Inf(1)} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%g) = %d < previous %d", v, idx, prev)
		}
		if bound := BucketBound(idx); v > bound {
			t.Fatalf("value %g exceeds its bucket bound %g (bucket %d)", v, bound, idx)
		}
		prev = idx
	}
	if bucketIndex(math.NaN()) != 0 || bucketIndex(-1) != 0 {
		t.Fatal("NaN and negatives must fall into bucket 0")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for i, v := range []float64{1, 2, 3, 4} {
		h.ObserveAt(i, v) // spread across shards; merge must still see all
	}
	var s HistogramSnapshot
	h.Snapshot(&s)
	if s.Count != 4 || s.Sum != 10 || s.Min != 1 || s.Max != 4 || s.Mean() != 2.5 {
		t.Fatalf("snapshot = %+v", s)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("buckets sum to %d, count is %d", total, s.Count)
	}
}

// TestHistogramBatchMatchesObserveAt pins FlushAt's exactness: values noted
// into batches of random lengths and flushed on random shards leave the
// count, every bucket, min and max exactly where ObserveAt of each value
// leaves them, the sum within float association, and every flushed batch
// empty (the zero value). The values include zeros of both signs,
// negatives, subnormals, the bucket edges and +Inf.
func TestHistogramBatchMatchesObserveAt(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	special := []float64{0, math.Copysign(0, -1), -1, 5e-324, 0x1p-30, 0x1p-31, 0x1p12, 0x1p13, math.Inf(1), 1e300}
	value := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return special[rng.IntN(len(special))]
		case 1:
			return rng.Float64() * 1e-3
		default:
			return math.Ldexp(rng.Float64(), rng.IntN(60)-40)
		}
	}
	for trial := 0; trial < 200; trial++ {
		want, got := NewHistogram(), NewHistogram()
		var batch HistogramBatch
		for run := rng.IntN(6); run >= 0; run-- {
			shard := rng.IntN(2 * NumShards)
			for n := rng.IntN(40); n > 0; n-- {
				v := value()
				if rng.IntN(8) == 0 {
					v = 1e-4 // repeats, so a tie meets a batch's min and max
				}
				want.ObserveAt(shard, v)
				batch.Observe(v)
			}
			got.FlushAt(shard, &batch)
			if batch != (HistogramBatch{}) {
				t.Fatalf("trial %d: FlushAt left the batch non-empty", trial)
			}
		}
		for i := range want.shards {
			w, g := &want.shards[i], &got.shards[i]
			if w.count.Load() != g.count.Load() || w.min.Load() != g.min.Load() || w.max.Load() != g.max.Load() {
				t.Fatalf("trial %d shard %d: count/min/max %d %v %v, want %d %v %v", trial, i,
					g.count.Load(), math.Float64frombits(g.min.Load()), math.Float64frombits(g.max.Load()),
					w.count.Load(), math.Float64frombits(w.min.Load()), math.Float64frombits(w.max.Load()))
			}
			for b := range w.cells {
				if w.cells[b].Load() != g.cells[b].Load() {
					t.Fatalf("trial %d shard %d bucket %d: %d, want %d", trial, i, b, g.cells[b].Load(), w.cells[b].Load())
				}
			}
			ws, gs := math.Float64frombits(w.sum.Load()), math.Float64frombits(g.sum.Load())
			if ws != gs && !(math.Abs(ws-gs) <= 1e-9*math.Abs(ws)) {
				t.Fatalf("trial %d shard %d: sum %v, want %v", trial, i, gs, ws)
			}
		}
	}
}

func TestHistogramEmptySnapshotJSONSafe(t *testing.T) {
	h := NewHistogram()
	var s HistogramSnapshot
	h.Snapshot(&s)
	if s.Min != 0 || s.Max != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty snapshot leaks sentinels: %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	// 99 fast observations around 1ms, one at ~1s: p50 must stay in the
	// millisecond range and p99 must reach the outlier's magnitude.
	for i := 0; i < 99; i++ {
		h.Observe(0.001)
	}
	h.Observe(1.0)
	var s HistogramSnapshot
	h.Snapshot(&s)
	if p50 := s.Quantile(0.50); p50 > 0.01 {
		t.Fatalf("p50 = %g, want ~1ms bucket", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 0.5 {
		t.Fatalf("p99 = %g, want to reach the 1s outlier", p99)
	}
}

func TestRegistryInternsAndLooksUp(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.LookupCounter("c"); ok {
		t.Fatal("lookup before intern succeeded")
	}
	c := r.Counter("c")
	if again := r.Counter("c"); again != c {
		t.Fatal("Counter did not intern")
	}
	if got, ok := r.LookupCounter("c"); !ok || got != c {
		t.Fatal("LookupCounter missed the interned instrument")
	}
	if r.Histogram("h") != r.Histogram("h") || r.Gauge("g") != r.Gauge("g") {
		t.Fatal("histogram/gauge interning broken")
	}
	names := r.HistogramNames()
	if len(names) != 1 || names[0] != "h" {
		t.Fatalf("HistogramNames = %v", names)
	}
}

func TestStageTraceAndSet(t *testing.T) {
	r := NewRegistry()
	ss := NewStageSet(r, "stage_seconds")
	var tr StageTrace
	tr.D[StageQueue] = 2 * time.Millisecond
	tr.D[StageSim] = 3 * time.Millisecond
	if tr.Total() != 5*time.Millisecond {
		t.Fatalf("Total = %v", tr.Total())
	}
	var batch StageBatch
	batch.Observe(&tr)
	ss.FlushAt(1, &batch)
	if batch != (StageBatch{}) {
		t.Fatal("FlushAt left the stage batch non-empty")
	}
	queue, ok := r.LookupHistogram("stage_seconds{stage=queue}")
	if !ok {
		t.Fatal("stage histogram not interned under labeled name")
	}
	var s HistogramSnapshot
	queue.Snapshot(&s)
	if s.Count != 1 || s.Sum != 0.002 {
		t.Fatalf("queue stage snapshot = %+v", s)
	}
	if _, ok := r.LookupHistogram("stage_seconds{stage=sim_exec}"); !ok {
		t.Fatal("stage histogram not interned under labeled name")
	}
	tr.Reset()
	if tr.Total() != 0 {
		t.Fatal("Reset left durations behind")
	}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
	}
}

func TestSlowRingFixedThreshold(t *testing.T) {
	ring := NewSlowRing(4, 10*time.Millisecond, nil)
	var tr StageTrace
	for i := 0; i < 100; i++ {
		ring.Observe("t", "fast", time.Millisecond, &tr, true, false)
	}
	if got := ring.Snapshot(); len(got) != 0 {
		t.Fatalf("fast requests captured: %d", len(got))
	}
	// Six outliers through a 4-slot ring: oldest two overwritten.
	for i := 0; i < 6; i++ {
		tr.D[StageSim] = time.Duration(i) * time.Second
		ring.Observe("t", "slow", time.Duration(20+i)*time.Millisecond, &tr, false, false)
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	if got[0].Total != 22*time.Millisecond || got[3].Total != 25*time.Millisecond {
		t.Fatalf("ring order wrong: first=%v last=%v", got[0].Total, got[3].Total)
	}
	if got[3].Stages.D[StageSim] != 5*time.Second {
		t.Fatalf("stage breakdown not captured: %+v", got[3].Stages)
	}
	if ring.Captured() != 6 {
		t.Fatalf("Captured = %d, want 6", ring.Captured())
	}
	if ring.Threshold() != 10*time.Millisecond {
		t.Fatalf("fixed threshold drifted to %v", ring.Threshold())
	}
}

func TestSlowRingRollingThreshold(t *testing.T) {
	lat := NewHistogram()
	ring := NewSlowRing(8, 0, lat)
	var tr StageTrace
	// Before the warmup retune nothing is captured (threshold boots at
	// +Inf), even for an extreme outlier.
	ring.Observe("t", "a", time.Hour, &tr, false, false)
	if ring.Captured() != 0 {
		t.Fatal("rolling ring captured before any retune")
	}
	// Feed a steady 1ms population so the rolling p99 settles near 1ms...
	for i := 0; i < 2*rollEvery; i++ {
		lat.Observe(0.001)
		ring.Observe("t", "a", time.Millisecond, &tr, false, false)
		ring.Count(1)
	}
	th := ring.Threshold()
	if th <= 0 || th > 100*time.Millisecond {
		t.Fatalf("rolling threshold = %v, want a few ms", th)
	}
	captured := ring.Captured()
	// ...then a burst of 1s outliers: all must be captured.
	for i := 0; i < 3; i++ {
		lat.Observe(1.0)
		ring.Observe("t", "a", time.Second, &tr, false, false)
	}
	if ring.Captured() != captured+3 {
		t.Fatalf("outliers not captured: %d -> %d", captured, ring.Captured())
	}
}

// TestSlowRingCountsInBatches: a rolling ring counted in batches of 16, or
// of 24 (whose batches straddle the crossings), retunes at the crossings one
// counted per request does — rollWarmup, then every multiple of rollEvery —
// and holds the same threshold after every batch. Counting is apart from
// capture: an outlier is captured on the request that carries it, not when
// its batch is counted.
func TestSlowRingCountsInBatches(t *testing.T) {
	var tr StageTrace
	for _, batch := range []int{16, 24} {
		lat1, latB := NewHistogram(), NewHistogram()
		one, batched := NewSlowRing(8, 0, lat1), NewSlowRing(8, 0, latB)
		boot := one.Threshold()
		for n := batch; n <= 3*rollEvery; n += batch {
			// A 1 ms population, then 1 s from half of rollEvery on, so the
			// retune at rollEvery moves the threshold.
			v := 0.001
			if n > rollEvery/2 {
				v = 1
			}
			for k := 0; k < batch; k++ {
				lat1.Observe(v)
				one.Count(1)
				latB.Observe(v)
			}
			batched.Count(batch)
			got, want := batched.Threshold(), one.Threshold()
			if got != want {
				t.Fatalf("batch %d, after %d requests: batched threshold %v, per-request %v", batch, n, got, want)
			}
			switch {
			case n < rollWarmup && got != boot:
				t.Fatalf("batch %d, after %d requests: retuned before rollWarmup (%v)", batch, n, got)
			case n >= rollWarmup && n < rollEvery && got > 10*time.Millisecond:
				t.Fatalf("batch %d, after %d requests: threshold %v, want the 1 ms population's p99", batch, n, got)
			case n >= rollEvery && got < 100*time.Millisecond:
				t.Fatalf("batch %d, after %d requests: threshold %v, want the 1 s population's p99", batch, n, got)
			}
			if n-batch < rollWarmup && n >= rollWarmup {
				// An outlier mid-batch: captured at once, before any count.
				before := batched.Captured()
				batched.Observe("t", "a", time.Hour, &tr, false, false)
				if batched.Captured() != before+1 {
					t.Fatalf("batch %d: an outlier was not captured on the request that carries it", batch)
				}
			}
		}
	}
}

func TestSlowRingDisabled(t *testing.T) {
	var nilRing *SlowRing
	var tr StageTrace
	nilRing.Observe("t", "a", time.Hour, &tr, false, false) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Captured() != 0 || nilRing.Threshold() != 0 {
		t.Fatal("nil ring must be inert")
	}
	off := NewSlowRing(0, time.Nanosecond, nil)
	off.Observe("t", "a", time.Hour, &tr, false, false)
	if off.Snapshot() != nil || off.Captured() != 0 {
		t.Fatal("zero-capacity ring must be inert")
	}
}

// TestInstrumentsConcurrent is the -race stress: hammer every instrument
// from many goroutines while a reader snapshots and renders concurrently,
// then check nothing was lost.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	ss := NewStageSet(r, "st")
	ring := NewSlowRing(16, 0, h)

	const goroutines = 8
	const perG = 2000
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader: snapshots, expvar doc, ring drain
		defer reader.Done()
		var snap HistogramSnapshot
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot(&snap)
				_ = r.Vars()
				_ = ring.Snapshot()
			}
		}
	}()
	writers.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer writers.Done()
			var tr StageTrace
			tr.D[StageSchedule] = time.Microsecond
			var batch StageBatch
			for i := 0; i < perG; i++ {
				c.AddAt(g, 1)
				h.ObserveAt(g, 0.001)
				batch.Observe(&tr)
				if i%16 == 15 {
					ss.FlushAt(g, &batch)
				}
				ring.Observe("t", "a", time.Millisecond, &tr, false, false)
				ring.Count(1)
			}
			ss.FlushAt(g, &batch)
		}(g)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %v, want %v", got, goroutines*perG)
	}
	var s HistogramSnapshot
	h.Snapshot(&s)
	if s.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	sched, _ := r.LookupHistogram("st{stage=schedule}")
	sched.Snapshot(&s)
	if s.Count != goroutines*perG {
		t.Fatalf("stage histogram count = %d, want %d", s.Count, goroutines*perG)
	}
}

// TestRecordAllocationFree pins the record path of every hot-path
// instrument at zero allocations: counter add, histogram observe, a
// histogram batch and a stage batch noted and flushed, and the slow ring's
// fast path.
func TestRecordAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	ss := NewStageSet(r, "st")
	ring := NewSlowRing(16, time.Hour, nil) // fixed bar nothing reaches
	var tr StageTrace
	tr.D[StageSim] = time.Microsecond
	var hb HistogramBatch
	var sb StageBatch

	if allocs := testing.AllocsPerRun(200, func() {
		c.AddAt(3, 1)
		h.ObserveAt(3, 0.0001)
		hb.Observe(0.0001)
		h.FlushAt(3, &hb)
		sb.Observe(&tr)
		ss.FlushAt(3, &sb)
		ring.Observe("tenant", "app", 50*time.Microsecond, &tr, true, false)
	}); allocs != 0 {
		t.Fatalf("record path allocates %v per run, want 0", allocs)
	}

	// Snapshot into caller scratch is also allocation-free.
	var snap HistogramSnapshot
	if allocs := testing.AllocsPerRun(200, func() {
		h.Snapshot(&snap)
	}); allocs != 0 {
		t.Fatalf("snapshot allocates %v per run, want 0", allocs)
	}
}
