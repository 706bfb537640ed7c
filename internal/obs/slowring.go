package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowRequest is one captured tail outlier: the request's identity, its
// end-to-end latency, and the full per-stage breakdown — enough to explain
// after the fact where a slow request's time went.
type SlowRequest struct {
	At       time.Time     `json:"at"`
	Tenant   string        `json:"tenant"`
	App      string        `json:"app"`
	Total    time.Duration `json:"total"`
	CacheHit bool          `json:"cache_hit"`
	Failed   bool          `json:"failed"`
	Stages   StageTrace    `json:"stages"`
}

// rollEvery is how many observations pass between rolling-threshold
// retunes; a power of two so the check is a mask.
const rollEvery = 1024

// rollWarmup is the first retune point: without it a rolling ring would sit
// at its +Inf boot threshold for a full rollEvery observations.
const rollWarmup = 64

// SlowRing captures the stage breakdown of requests slower than a
// threshold into a bounded ring buffer. The threshold is either fixed
// (configured) or rolling — retuned periodically to the latency
// histogram's current p99 estimate, so the ring tracks "the slowest ~1%"
// as load shifts. The warm path costs one atomic threshold compare per
// answer (Observe); only actual outliers take the ring's lock. A rolling
// ring's retunes are driven by its observation count, which callers add in
// batches (Count), so no per-answer write is shared between workers.
type SlowRing struct {
	threshold atomic.Int64 // ns; requests at or above are captured
	fixed     bool
	seen      atomic.Uint64 // observations counted, drives rolling retunes
	captured  atomic.Int64  // total captures over the ring's lifetime

	latency *Histogram // rolling-threshold source; nil when fixed

	mu      sync.Mutex
	buf     []SlowRequest // ring storage, allocated once
	next    int           // next write slot
	filled  int           // live entries, ≤ len(buf)
	scratch HistogramSnapshot
}

// NewSlowRing returns a ring of the given capacity. A positive threshold
// fixes the capture bar; threshold 0 makes it rolling, retuned to the p99
// of the supplied latency histogram (required in that mode). capacity <= 0
// disables capture entirely (Observe becomes two atomic loads).
func NewSlowRing(capacity int, threshold time.Duration, latency *Histogram) *SlowRing {
	r := &SlowRing{latency: latency}
	if capacity > 0 {
		r.buf = make([]SlowRequest, capacity)
	}
	if threshold > 0 {
		r.fixed = true
		r.threshold.Store(int64(threshold))
	} else {
		// Rolling: capture nothing until the first retune has data.
		r.threshold.Store(int64(^uint64(0) >> 1))
	}
	return r
}

// Observe considers one finished request for capture. The fast path — the
// overwhelming majority of requests — is branch, atomic load, branch: no
// locks, no allocation, and no shared write. It does not count the request
// toward a rolling retune; Count does.
func (r *SlowRing) Observe(tenant, app string, total time.Duration, tr *StageTrace, cacheHit, failed bool) {
	if r == nil || r.buf == nil {
		return
	}
	if int64(total) < r.threshold.Load() {
		return
	}
	r.capture(tenant, app, total, tr, cacheHit, failed)
}

// Count adds n observed requests to a rolling ring's count and retunes the
// threshold when the count crosses rollWarmup or a multiple of rollEvery —
// the crossings per-request counting retunes at, taken once per batch and
// at most n requests later. A caller that observes requests in batches
// counts each batch once, after it has flushed the batch's latencies into
// the histogram the retune reads. A fixed ring ignores it.
func (r *SlowRing) Count(n int) {
	if r == nil || r.buf == nil || r.fixed || n <= 0 {
		return
	}
	to := r.seen.Add(uint64(n))
	from := to - uint64(n)
	if from < rollWarmup && to >= rollWarmup || from/rollEvery != to/rollEvery {
		r.retune()
	}
}

// capture appends the outlier, overwriting the oldest entry when full.
func (r *SlowRing) capture(tenant, app string, total time.Duration, tr *StageTrace, cacheHit, failed bool) {
	r.captured.Add(1)
	at := time.Now()
	r.mu.Lock()
	slot := &r.buf[r.next]
	slot.At = at
	slot.Tenant = tenant
	slot.App = app
	slot.Total = total
	slot.CacheHit = cacheHit
	slot.Failed = failed
	slot.Stages = *tr
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
	r.mu.Unlock()
}

// retune re-derives the rolling threshold from the latency histogram's
// current p99 estimate (bucket-granular: within one binary order of
// magnitude). Runs every rollEvery observations, under the ring lock so
// concurrent retunes cannot race the shared scratch snapshot.
func (r *SlowRing) retune() {
	if r.latency == nil {
		return
	}
	r.mu.Lock()
	r.latency.Snapshot(&r.scratch)
	p99 := r.scratch.Quantile(0.99)
	r.mu.Unlock()
	if p99 > 0 {
		r.threshold.Store(int64(p99 * float64(time.Second)))
	}
}

// Threshold reports the current capture bar.
func (r *SlowRing) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.threshold.Load())
}

// Captured reports total captures over the ring's lifetime (captures past
// capacity overwrote the oldest entries).
func (r *SlowRing) Captured() int64 {
	if r == nil {
		return 0
	}
	return r.captured.Load()
}

// Snapshot copies the live entries, oldest first.
func (r *SlowRing) Snapshot() []SlowRequest {
	if r == nil || r.buf == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SlowRequest, 0, r.filled)
	start := r.next - r.filled
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.filled; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
