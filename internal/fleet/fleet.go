// Package fleet is DEEP's multi-tenant deployment service: it turns the
// single-shot Figure 1 pipeline (schedule one app, simulate it, report) into
// a throughput machine. Deployment requests enter a bounded admission queue
// with backpressure, fan out to a pool of scheduler workers, and have their
// placements memoized in a concurrency-safe LRU keyed by a canonical
// fingerprint of (app DAG, cluster, scheduler) — the Nash best-response
// iteration is deterministic, so repeated shapes skip the game entirely.
// The package also ships an open-loop traffic driver (Poisson, bursty, and
// diurnal arrival processes over configurable application mixes) for
// scenario sweeps far beyond the paper's two case studies.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/monitor"
	"deep/internal/netsim"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/workload"
)

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity; the request was rejected, not enqueued.
	ErrQueueFull = errors.New("fleet: admission queue full")
	// ErrClosed is returned by Submit after Close began.
	ErrClosed = errors.New("fleet: closed")
	// ErrDeadline is wrapped into a Response.Err when the request's deadline
	// expired before its placement could be scheduled or simulated.
	ErrDeadline = errors.New("fleet: deadline exceeded")
)

// Config tunes a Fleet.
type Config struct {
	// Workers is the scheduler/simulator pool size (default 1). Each worker
	// owns a private scheduler instance and a private cluster, so workers
	// never contend on scheduler state or device layer caches.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A Submit against
	// a full queue is rejected with ErrQueueFull and counted. The depth is
	// split across QueueShards bounded queues (rounding the per-shard
	// capacity up, so the aggregate QueueCap may slightly exceed this).
	QueueDepth int
	// QueueShards is the number of independent admission queues (default
	// min(Workers, GOMAXPROCS)). Submitters pick a shard by hashing
	// (tenant, app name) — the same keys that dominate the request
	// fingerprint — so a hot tenant's requests land on one worker's home
	// shard and keep the 8-way model cache shard warm.
	// Workers drain their home shard first and work-steal from siblings, so
	// skewed tenant traffic can never strand idle workers. On a single-core
	// box the default collapses to one shard — exactly the pre-sharding
	// queue.
	QueueShards int
	// NewScheduler constructs one scheduler per worker (default
	// sched.NewDEEP). Any method from sched.All works.
	NewScheduler func() sched.Scheduler
	// NewCluster constructs one cluster per worker (default
	// workload.Testbed). Workers need private clusters because simulation
	// mutates device layer caches.
	NewCluster func() *sim.Cluster
	// CacheSize bounds the placement LRU in entries. Zero means the
	// default of 1024; a negative value disables placement memoization.
	CacheSize int
	// SimOptions apply to every simulation run; per-request seeds are
	// folded in on top. A fleet is a long-lived service, so by default
	// SimOptions.WarmCaches is forced on — device layer caches persist
	// across requests, the way a real cluster's image caches do. Set
	// ColdCaches to keep whatever WarmCaches value this carries.
	SimOptions sim.Options
	// ColdCaches opts out of the warm-cache default: when true, SimOptions
	// is taken verbatim (its zero value flushes every device layer cache
	// before each run — the one-shot benchmarking behavior, not what a
	// long-lived service wants).
	ColdCaches bool
	// Metrics receives per-tenant aggregates (default: a fresh registry).
	// Its backing obs registry (Metrics.Obs) also carries the fleet's
	// per-stage latency histograms and point-in-time gauges, so rendering
	// that one registry exposes the whole fleet.
	Metrics *monitor.Metrics
	// SlowThreshold fixes the slow-request capture bar: any request slower
	// than this has its full stage breakdown kept in the slow-request
	// ring. Zero (the default) makes the bar rolling — periodically
	// retuned to the current p99 of the request-latency histogram, so the
	// ring tracks the slowest ~1% as load shifts.
	SlowThreshold time.Duration
	// SlowRingSize bounds the slow-request ring in entries. Zero means the
	// default of 64; a negative value disables slow-request capture.
	SlowRingSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueShards <= 0 {
		c.QueueShards = c.Workers
		if p := runtime.GOMAXPROCS(0); p < c.QueueShards {
			c.QueueShards = p
		}
		if c.QueueShards < 1 {
			c.QueueShards = 1
		}
	}
	if c.NewScheduler == nil {
		c.NewScheduler = func() sched.Scheduler { return sched.NewDEEP() }
	}
	if c.NewCluster == nil {
		c.NewCluster = workload.Testbed
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if !c.ColdCaches {
		c.SimOptions.WarmCaches = true
	}
	if c.Metrics == nil {
		c.Metrics = monitor.NewMetrics()
	}
	if c.SlowRingSize == 0 {
		c.SlowRingSize = defaultSlowRingSize
	}
	return c
}

// defaultSlowRingSize bounds the slow-request ring: enough tail outliers to
// explain an incident, small enough to be memory-irrelevant.
const defaultSlowRingSize = 64

// Request is one tenant's deployment request.
type Request struct {
	// Tenant labels the requester for per-tenant aggregation (default
	// "default").
	Tenant string
	// App is the application to deploy. The fleet only reads it, and keys
	// every cache by its memoized App.Digest, so from submission on the
	// caller must treat it as read-only too. In return one *dag.App may be
	// shared by any number of concurrent requests (the serving layer interns
	// apps by spec bytes and submits the same pointer for every repeat).
	App *dag.App
	// Seed perturbs this request's simulation jitter (combined with
	// Config.SimOptions).
	Seed int64
	// Deadline bounds the request's total service time, measured from
	// enqueue. A request whose deadline expires before scheduling or
	// simulation fails with ErrDeadline; deadline pressure also steers
	// schedulable requests onto the degraded (best-response) ladder rung
	// when the exact game is expected to blow the budget. Zero means no
	// deadline.
	Deadline time.Duration
}

// Response is the outcome of one deployment request.
//
// Responses are pool-managed: the fleet recycles the response, its Result
// buffers, and the job plumbing that carried it once the receiver calls
// Release. Until Release, every field is the receiver's to read; after
// Release, none may be touched — copy Placement (Materialize) or Result
// (Clone) first to keep them. Calling Release is optional (an unreleased
// response is simply garbage collected, at the cost of a pool miss later),
// but the warm path only stays allocation-free when responses are returned.
type Response struct {
	Tenant string
	App    string
	// Placement is the indexed view of the placement; on a cache hit it
	// aliases the memo's immutable compiled entry, so serving it allocates
	// nothing. Valid until Release.
	Placement PlacementView
	// Result points at a pool-owned buffer, valid until Release; nil when
	// Err is set.
	Result *sim.Result
	// CacheHit is true when the placement came from the memo instead of a
	// scheduling pass.
	CacheHit bool
	// QueueWait is the time spent in the admission queue.
	QueueWait time.Duration
	// Latency is the end-to-end service time (queue wait + scheduling +
	// simulation).
	Latency time.Duration
	// Stages is the per-stage wall-time breakdown of this request (queue
	// wait, fingerprint, shape compile, placement-cache lookup, schedule,
	// simulate). Stages past a failure point are zero; under churn retries
	// the compile/lookup/schedule stages accumulate across attempts.
	Stages obs.StageTrace
	// Epoch is the cluster epoch this response's placement was validated
	// against: the placement references no device or registry that was down
	// at that epoch.
	Epoch int64
	// Degraded is true when the placement came from the best-response
	// fallback instead of the exact scheduler (deadline pressure or churn
	// retry).
	Degraded bool
	// Index is the request's position within its SubmitBatch call; 0 for
	// single-request submissions.
	Index int
	// Err is non-nil when scheduling or simulation failed.
	Err error

	// owner is the pooled job this response recycles on Release; nil for
	// responses the pool does not manage (test fixtures) and after Release.
	owner *job
	// pooled stays true after Release so race builds can detect a double
	// Release (owner alone cannot distinguish released from unmanaged).
	pooled bool
}

// Release returns the response and its job plumbing to the fleet's pool.
// After Release the response, its Placement view, and its Result must not be
// touched: the buffers will be overwritten by a future request. Releasing a
// response the pool does not manage is a no-op; releasing the same response
// twice is a caller bug that panics under the race detector (and is ignored
// in normal builds — by the second call the job may already be live again,
// so corrupting it quietly would be far worse than the leak).
func (r *Response) Release() {
	j := r.owner
	if j == nil {
		if raceEnabled && r.pooled {
			panic("fleet: Response released twice")
		}
		return
	}
	r.owner = nil
	j.f.putJob(j)
}

// Stats is a point-in-time view of the fleet's counters.
type Stats struct {
	Submitted  int64           `json:"submitted"`
	Rejected   int64           `json:"rejected"`
	Completed  int64           `json:"completed"`
	Failed     int64           `json:"failed"`
	InFlight   int64           `json:"in_flight"`
	Cache      CacheStats      `json:"cache"`
	ModelCache ModelCacheStats `json:"model_cache"`
	Churn      ChurnStats      `json:"churn"`
}

// Fleet is a concurrent multi-tenant deployment service. Create with New,
// submit with Submit or Do, stop with Close.
type Fleet struct {
	cfg    Config
	cache  *placementCache
	models *sharedModelCache
	// queues are the sharded bounded admission queues (Config.QueueShards).
	// Submitters enqueue on their hash-picked home shard and spill over to
	// siblings when it is full; workers drain home-first and steal. queued
	// tracks the aggregate backlog in requests (a batch counts each item),
	// which is what serving layers size Retry-After hints from.
	queues []chan *job
	queued atomic.Int64
	qcap   int
	// jobPool recycles the whole per-request chain — job, Response, Result
	// buffers, placement-view scratch, and the cap-1 done channel — via the
	// Response.Release contract. A job re-enters the pool only after its
	// response was released, which proves the done channel was drained, so
	// reusing the channel can never cross-deliver between submitters.
	jobPool sync.Pool

	// Telemetry, interned in the Metrics' backing obs registry: per-stage
	// latency histograms, the end-to-end request-latency histogram the
	// rolling slow threshold reads, and the slow-request ring. Workers
	// record on their own shard, so instrumentation adds no shared cache
	// lines (and no allocations) to the request path.
	stages  *obs.StageSet
	latency *obs.Histogram
	slow    *obs.SlowRing

	// Solver telemetry, monotonic: how many stage games each scheduling
	// pass solved on each path (fleet_solver_path_total{path=...}) and how
	// many best-response games ran out of iterations without settling
	// (fleet_solver_nonconverged_total). Placement-cache hits run no games
	// and add nothing.
	solverExact, solverBestResponse *obs.Counter
	solverNonconverged              *obs.Counter

	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// labels interns per-tenant metric names, capped at tenantLabelCap
	// entries; past the cap new tenants share overflowLabels (see
	// labelsFor).
	labels         sync.Map
	labelCount     atomic.Int64
	overflowLabels *tenantLabels

	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	inFlight  atomic.Int64

	// Churn machinery. base is the fleet's canonical cluster (one more
	// Config.NewCluster call, made lazily by the first ApplyChurn) whose
	// device handles intern every churn epoch's patched table;
	// baseTable/baseDigest are its compiled substrate and digest, shared
	// through the model cache with workers whose private clusters digest
	// identically. All three are written under churnMu and published to
	// workers through the churn pointer's release/acquire edge. chaosTopo
	// is a lazy clone of the base topology that accumulates link
	// degradations (mutated only under churnMu; the base topology is never
	// touched, so restores read base bandwidths). churn is the published
	// epoch state workers adopt with one atomic load per request.
	base       *sim.Cluster
	baseDigest ClusterDigest
	baseTable  *topo.ClusterTable
	churnMu    sync.Mutex
	chaosTopo  *netsim.Topology
	churn      atomic.Pointer[churnState]

	churnEpochs      atomic.Int64
	churnInvalidated atomic.Int64
	shapesPurged     atomic.Int64
	staleRejected    atomic.Int64
	reschedules      atomic.Int64
	downgrades       atomic.Int64
	deadlineExceeded atomic.Int64
}

type job struct {
	f        *Fleet
	req      Request
	enqueued time.Time
	done     chan *Response
	// ctx is the submitter's context (nil from plain Submit): a request whose
	// submitter has already given up is answered with its context error
	// instead of being scheduled.
	ctx context.Context

	// Batch plumbing: a non-nil items marks a batch head occupying one
	// queue slot for the whole batch; items[0] is the head itself, and
	// every item's response is delivered on the shared bdone channel
	// (capacity len(items)) in submission order. Workers copy both fields
	// into locals before processing: an early item's response can be
	// received and Released — recycling its job, the head included — while
	// later items are still being scheduled.
	items []*job
	bdone chan *Response

	// Pool-owned response buffers, recycled by Response.Release: the
	// response itself, the detached copy of the Exec's result, and the
	// scratch backing cache-miss placement views. In steady state a request
	// touches none of the allocator.
	resp    Response
	result  sim.Result
	names   []string
	assigns []sim.Assignment
}

// weight is the number of admission slots the job accounts for in QueueLen:
// each batch item counts, since each is one request a worker must serve.
func (j *job) weight() int64 {
	if j.items != nil {
		return int64(len(j.items))
	}
	return 1
}

// getJob draws a job from the pool (or mints one with its done channel).
func (f *Fleet) getJob() *job {
	j := f.jobPool.Get().(*job)
	j.f = f
	return j
}

// putJob clears a job's references and returns it to the pool. Buffers with
// reusable capacity — the result's slices and maps, the placement-view
// scratch, the done channel — are kept; everything that pins caller memory
// (the app, the context, batch plumbing, view aliases) is dropped.
func (f *Fleet) putJob(j *job) {
	j.req = Request{}
	j.ctx = nil
	j.items = nil
	j.bdone = nil
	j.enqueued = time.Time{}
	r := &j.resp
	r.Tenant, r.App = "", ""
	r.Placement = PlacementView{}
	r.Result = nil
	r.Err = nil
	r.owner = nil
	f.jobPool.Put(j)
}

// New starts a fleet with the given config, spinning up the worker pool.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:    cfg,
		cache:  newPlacementCache(cfg.CacheSize),
		models: newSharedModelCache(modelCacheSize),
	}
	per := (cfg.QueueDepth + cfg.QueueShards - 1) / cfg.QueueShards
	f.queues = make([]chan *job, cfg.QueueShards)
	for i := range f.queues {
		f.queues[i] = make(chan *job, per)
	}
	f.qcap = per * cfg.QueueShards
	f.jobPool.New = func() any { return &job{done: make(chan *Response, 1)} }
	reg := cfg.Metrics.Obs()
	f.overflowLabels = newTenantLabels(reg, "other")
	f.stages = obs.NewStageSet(reg, "fleet_stage_seconds")
	f.latency = reg.Histogram("fleet_request_latency_s")
	f.slow = obs.NewSlowRing(cfg.SlowRingSize, cfg.SlowThreshold, f.latency)
	f.solverExact = reg.Counter("fleet_solver_path_total{path=exact}")
	f.solverBestResponse = reg.Counter("fleet_solver_path_total{path=best_response}")
	f.solverNonconverged = reg.Counter("fleet_solver_nonconverged_total")
	reg.OnCollect(f.collectGauges)
	// Epoch 0 is the pristine pre-churn state: nil table and digest mean
	// "every worker keeps its own substrate". The fleet's canonical base
	// cluster is built lazily on the first ApplyChurn (ensureBase), so a
	// fleet that never churns never pays for it.
	f.churn.Store(&churnState{})
	f.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go f.worker(i)
	}
	return f
}

// collectGauges publishes the fleet's point-in-time counters as gauges in
// the obs registry; it runs on every exposition pass (Prometheus scrape,
// expvar read), so /metrics always reflects the live admission and cache
// state without any per-request cost.
func (f *Fleet) collectGauges() {
	reg := f.cfg.Metrics.Obs()
	s := f.Stats()
	reg.Gauge("fleet_requests_submitted").Set(float64(s.Submitted))
	reg.Gauge("fleet_requests_rejected").Set(float64(s.Rejected))
	reg.Gauge("fleet_requests_completed").Set(float64(s.Completed))
	reg.Gauge("fleet_requests_failed").Set(float64(s.Failed))
	reg.Gauge("fleet_requests_in_flight").Set(float64(s.InFlight))
	reg.Gauge("fleet_placement_cache_hits").Set(float64(s.Cache.Hits))
	reg.Gauge("fleet_placement_cache_misses").Set(float64(s.Cache.Misses))
	reg.Gauge("fleet_placement_cache_evictions").Set(float64(s.Cache.Evictions))
	reg.Gauge("fleet_placement_cache_entries").Set(float64(s.Cache.Entries))
	reg.Gauge("fleet_shape_cache_hits").Set(float64(s.ModelCache.Hits))
	reg.Gauge("fleet_shape_cache_misses").Set(float64(s.ModelCache.Misses))
	reg.Gauge("fleet_shape_cache_compiles").Set(float64(s.ModelCache.Compiles))
	reg.Gauge("fleet_shape_cache_first_sight").Set(float64(s.ModelCache.FirstSight))
	reg.Gauge("fleet_cluster_table_compiles").Set(float64(s.ModelCache.ClusterCompiles))
	reg.Gauge("fleet_app_table_compiles").Set(float64(s.ModelCache.AppCompiles))
	reg.Gauge("fleet_app_table_entries").Set(float64(s.ModelCache.AppEntries))
	reg.Gauge("fleet_slow_requests_captured").Set(float64(f.slow.Captured()))
	reg.Gauge("fleet_slow_threshold_s").Set(f.slow.Threshold().Seconds())
	reg.Gauge("fleet_churn_epoch").Set(float64(s.Churn.Epoch))
	reg.Gauge("fleet_churn_down_devices").Set(float64(s.Churn.DownDevices))
	reg.Gauge("fleet_churn_down_registries").Set(float64(s.Churn.DownRegistries))
	reg.Gauge("fleet_churn_degraded_links").Set(float64(s.Churn.DegradedLinks))
	reg.Gauge("fleet_churn_epochs_applied").Set(float64(s.Churn.EpochsApplied))
	reg.Gauge("fleet_churn_invalidated").Set(float64(s.Churn.Invalidated))
	reg.Gauge("fleet_churn_shapes_purged").Set(float64(s.Churn.ShapesPurged))
	reg.Gauge("fleet_churn_stale_rejected").Set(float64(s.Churn.StaleRejected))
	reg.Gauge("fleet_churn_reschedules").Set(float64(s.Churn.Reschedules))
	reg.Gauge("fleet_churn_downgrades").Set(float64(s.Churn.Downgrades))
	reg.Gauge("fleet_churn_deadline_exceeded").Set(float64(s.Churn.DeadlineExceeded))
}

// SlowRequests returns the slow-request ring's current contents, oldest
// first: the full stage breakdown of every captured tail outlier.
func (f *Fleet) SlowRequests() []obs.SlowRequest { return f.slow.Snapshot() }

// StageHistogram exposes one stage's live histogram (for tests and custom
// exposition); the same instruments are rendered by Metrics().Obs().
func (f *Fleet) StageHistogram(s obs.Stage) *obs.Histogram { return f.stages.Histogram(s) }

// Metrics returns the registry receiving per-tenant aggregates.
func (f *Fleet) Metrics() *monitor.Metrics { return f.cfg.Metrics }

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	st := f.churn.Load()
	return Stats{
		Submitted:  f.submitted.Load(),
		Rejected:   f.rejected.Load(),
		Completed:  f.completed.Load(),
		Failed:     f.failed.Load(),
		InFlight:   f.inFlight.Load(),
		Cache:      f.cache.Stats(),
		ModelCache: f.models.Stats(),
		Churn: ChurnStats{
			Epoch:            st.epoch,
			DownDevices:      len(st.downDevs),
			DownRegistries:   len(st.downRegs),
			DegradedLinks:    len(st.degraded),
			EpochsApplied:    f.churnEpochs.Load(),
			Invalidated:      f.churnInvalidated.Load(),
			ShapesPurged:     f.shapesPurged.Load(),
			StaleRejected:    f.staleRejected.Load(),
			Reschedules:      f.reschedules.Load(),
			Downgrades:       f.downgrades.Load(),
			DeadlineExceeded: f.deadlineExceeded.Load(),
		},
	}
}

// shardFor hashes (tenant, app name) — FNV-1a, no allocation — onto a home
// shard. The same keys dominate the request fingerprint, so one tenant's hot
// shape keeps landing on one worker's home shard: its rebound plans and
// model-cache shard stay warm. The full app digest would be the exact
// affinity key, but for an app not yet digested it is a sha256 pass the
// submitter should not pay; the name is free and wrong only for same-named
// structurally distinct apps, where affinity is a performance hint, not a
// correctness input.
func (f *Fleet) shardFor(req *Request) int {
	n := len(f.queues)
	if n == 1 {
		return 0
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(req.Tenant); i++ {
		h = (h ^ uint64(req.Tenant[i])) * fnvPrime
	}
	h = (h ^ '/') * fnvPrime
	name := req.App.Name
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return int(h % uint64(n))
}

// tryEnqueue offers the job to its home shard, spilling over to siblings
// when it is full: a request is only rejected when every shard is at
// capacity, so the aggregate QueueDepth bound holds regardless of hash skew.
// Must be called under f.mu.RLock with f.closed already checked.
func (f *Fleet) tryEnqueue(j *job, home int) bool {
	qs := f.queues
	n := len(qs)
	for i := 0; i < n; i++ {
		select {
		case qs[(home+i)%n] <- j:
			f.queued.Add(j.weight())
			return true
		default:
		}
	}
	return false
}

// admit is the one admission path for single requests: validate, draw a
// pooled job, and enqueue it on its home shard (spilling to siblings). With
// block set a full queue waits on the home shard until space frees or ctx is
// cancelled; otherwise it rejects with ErrQueueFull. A non-nil ctx rides on
// the job, so a submitter that gives up while its request is still queued
// gets the context error back instead of paying for a schedule; block
// requires one.
func (f *Fleet) admit(ctx context.Context, req Request, block bool) (<-chan *Response, error) {
	if req.App == nil {
		return nil, fmt.Errorf("fleet: request without app")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	j := f.getJob()
	j.req = req
	j.enqueued = time.Now()
	j.ctx = ctx

	// The read lock lets many submitters race each other but excludes
	// Close, so a send can never hit a closed channel. Holding it across the
	// blocking send is deadlock-free: workers keep draining every shard until
	// Close closes them, and Close's write lock cannot be acquired until this
	// send (or cancellation) releases the read side. Blocking on the home
	// shard alone is enough: work stealing guarantees it drains.
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		f.putJob(j)
		f.rejected.Add(1)
		return nil, ErrClosed
	}
	home := f.shardFor(&j.req)
	if !f.tryEnqueue(j, home) {
		if !block {
			f.putJob(j)
			f.rejected.Add(1)
			return nil, ErrQueueFull
		}
		select {
		case f.queues[home] <- j:
			f.queued.Add(j.weight())
		case <-ctx.Done():
			f.putJob(j)
			f.rejected.Add(1)
			return nil, ctx.Err()
		}
	}
	f.submitted.Add(1)
	f.inFlight.Add(1)
	return j.done, nil
}

// Submit enqueues a request without blocking. The returned channel delivers
// exactly one Response when the request completes. A full queue rejects the
// request with ErrQueueFull; a closed fleet rejects with ErrClosed.
func (f *Fleet) Submit(req Request) (<-chan *Response, error) {
	return f.admit(nil, req, false)
}

// SubmitCtx enqueues a request, blocking on a full admission queue until
// space frees, the context is cancelled, or the fleet closes — the
// cooperative alternative to Submit's immediate ErrQueueFull. Cancellation
// while blocked returns ctx.Err() and counts as a rejection; once accepted,
// the request also remembers the context (see admit).
func (f *Fleet) SubmitCtx(ctx context.Context, req Request) (<-chan *Response, error) {
	return f.admit(ctx, req, true)
}

// TrySubmitCtx enqueues a request without blocking — Submit's immediate
// ErrQueueFull backpressure — while remembering the context the way
// SubmitCtx does. This is the serving front-end's admission call:
// reject-fast on overload, but never schedule for a caller that already hung
// up.
func (f *Fleet) TrySubmitCtx(ctx context.Context, req Request) (<-chan *Response, error) {
	return f.admit(ctx, req, false)
}

// SubmitBatch admits a batch of requests as one unit: one queue handoff, one
// enqueue timestamp, and one worker pass over the whole batch. The returned
// channel delivers exactly len(reqs) responses in submission order, each
// tagged with its Index; every response follows the Release contract.
// Admission is all-or-nothing and non-blocking: the batch occupies a single
// shard slot, and a fleet with no free slot rejects the whole batch with
// ErrQueueFull (counting len(reqs) rejections). The context, if non-nil,
// covers every item the way TrySubmitCtx's does. The reqs slice itself is
// not retained.
func (f *Fleet) SubmitBatch(ctx context.Context, reqs []Request) (<-chan *Response, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("fleet: empty batch")
	}
	for i := range reqs {
		if reqs[i].App == nil {
			return nil, fmt.Errorf("fleet: batch request %d without app", i)
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	items := make([]*job, len(reqs))
	for i, req := range reqs {
		if req.Tenant == "" {
			req.Tenant = "default"
		}
		it := f.getJob()
		it.req = req
		it.enqueued = now
		it.ctx = ctx
		items[i] = it
	}
	head := items[0]
	head.items = items
	head.bdone = make(chan *Response, len(reqs))

	n := int64(len(reqs))
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		f.recycleBatch(items)
		f.rejected.Add(n)
		return nil, ErrClosed
	}
	if !f.tryEnqueue(head, f.shardFor(&head.req)) {
		f.recycleBatch(items)
		f.rejected.Add(n)
		return nil, ErrQueueFull
	}
	f.submitted.Add(n)
	f.inFlight.Add(n)
	return head.bdone, nil
}

// recycleBatch returns a rejected batch's jobs to the pool (the head's batch
// plumbing is cleared by putJob).
func (f *Fleet) recycleBatch(items []*job) {
	for _, it := range items {
		f.putJob(it)
	}
}

// QueueLen returns the number of requests currently waiting in the admission
// queues (not yet picked up by a worker), summed across shards; each batch
// item counts as one request. Serving layers use it to derive Retry-After
// hints.
func (f *Fleet) QueueLen() int {
	if n := f.queued.Load(); n > 0 {
		return int(n)
	}
	// A worker's decrement can land between a submitter's send and its
	// increment; clamp the transient negative to empty.
	return 0
}

// QueueCap returns the aggregate admission capacity across all shards
// (QueueDepth rounded up to a multiple of QueueShards).
func (f *Fleet) QueueCap() int { return f.qcap }

// QueueShards returns the number of admission queue shards.
func (f *Fleet) QueueShards() int { return len(f.queues) }

// Workers returns the scheduler/simulator pool size.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Do submits a request (without blocking on a full queue) and blocks for its
// response or ctx cancellation; a request still queued when ctx is cancelled
// is never scheduled.
func (f *Fleet) Do(ctx context.Context, req Request) (*Response, error) {
	ch, err := f.admit(ctx, req, false)
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops admission and drains: every request already accepted is
// completed before Close returns. Safe to call more than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	for _, q := range f.queues {
		close(q)
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// workerState is the per-worker context: a private scheduler and cluster
// (simulation mutates device layer caches), the cluster digest computed
// once, the shared cluster table resolved once against that digest, a pooled
// simulator Exec, and one scheduler pass retargeted at each request's model.
// Compiled tables, models, and plans that are seen again live in the
// fleet-wide shared cache, not here: hot tenants compile once per fleet
// rather than once per worker. Only first sights compile here.
type workerState struct {
	scheduler     sched.Scheduler
	cluster       *sim.Cluster
	clusterDigest ClusterDigest
	// shard is this worker's obs shard index: each worker records its
	// counters and histogram observations on its own cache line.
	shard int
	// home is the admission queue shard this worker drains first; siblings
	// are stolen from only when it is empty, preserving the submit-side
	// tenant affinity. selCases is the prebuilt blocking-select set over
	// every shard (nil with one shard), used only when all shards are empty.
	home     int
	selCases []reflect.SelectCase
	// trace is the reusable per-request stage breakdown; process resets it
	// at the top of every request so failure short-circuits leave the
	// untouched stages at zero rather than at the prior request's values.
	trace obs.StageTrace
	// table is the cluster-side compiled substrate every app-side compile
	// for this worker builds on; workers with digest-identical clusters
	// (the normal case) share one, resolved through the fleet-wide cache.
	table *topo.ClusterTable
	exec  *sim.Exec

	// apps and shapes are the worker's own storage for shapes the fleet sees
	// for the first time (sharedModelCache's second-sight rule): the app
	// table, model and plan are compiled into them, used for that one
	// request, and overwritten by the next first sight. Nothing compiled
	// there enters the shared cache or plans, and nothing in a Response may
	// alias it.
	apps   appgraph.Scratch
	shapes costmodel.Scratch

	// pass is the worker's one scheduling pass, retargeted at whichever
	// model — shared or private — the current request schedules on
	// (passFor); it keeps nothing of a model between requests but its
	// scratch, game arena included.
	pass *sched.Pass
	// plans memoizes shared plans rebound to this worker's own cluster:
	// simulation drives (and on cold runs flushes) device layer caches, so
	// each worker must execute against its private devices even when the
	// compiled tables are shared fleet-wide.
	plans map[*sim.Plan]*sim.Plan

	// Churn adoption. churn is the last-adopted epoch state (one pointer
	// compare per request decides whether anything changed); ownDigest is
	// the private cluster's immutable digest, kept so adoption can check
	// compatibility with the fleet's base — when they differ (a
	// non-deterministic Config.NewCluster) the worker keeps its own
	// substrate and only the stale-placement gate protects it. effCluster
	// is the churn-filtered view of the private cluster handed to legacy
	// (non-model) schedulers; fallback is the lazily built best-response
	// scheduler for the degradation ladder; exactDur tracks the last exact
	// schedule's duration for deadline triage; rng seeds the retry backoff
	// jitter.
	churn      *churnState
	ownDigest  ClusterDigest
	effCluster *sim.Cluster
	fallback   sched.Scheduler
	exactDur   time.Duration
	rng        uint64
}

// adopt installs a published churn state on the worker: the patched cluster
// table, the effective digest every cache key folds in, and the filtered
// cluster view for legacy schedulers. Runs only when the epoch pointer
// changed, so the steady-state request path pays one atomic load and one
// compare. Reading the fleet's base fields here is safe without churnMu:
// they are written before the state pointer is published and read only
// after it is observed.
func (w *workerState) adopt(f *Fleet, st *churnState) {
	w.churn = st
	if st.table == nil {
		// The pristine epoch-0 state: the worker's own substrate is already
		// exactly right.
		return
	}
	if !bytes.Equal(w.ownDigest, f.baseDigest) {
		return
	}
	w.table = st.table
	w.clusterDigest = st.digest
	if len(st.downDevs) == 0 && len(st.downRegs) == 0 {
		w.effCluster = w.cluster
		return
	}
	// Filter the worker's own devices (the handles whose layer caches its
	// simulations drive). The topology is left as the private cluster's
	// base: only non-model custom schedulers read it, and link degradation
	// is advisory for them.
	eff := &sim.Cluster{
		Topology:   w.cluster.Topology,
		SourceNode: w.cluster.SourceNode,
		Layers:     w.cluster.Layers,
	}
	for _, d := range w.cluster.Devices {
		if !st.downDevs[d.Name] {
			eff.Devices = append(eff.Devices, d)
		}
	}
	for _, r := range w.cluster.Registries {
		if !st.downRegs[r.Name] {
			eff.Registries = append(eff.Registries, r)
		}
	}
	w.effCluster = eff
}

// fallbackScheduler returns the degraded-rung scheduler: DEEP with every
// pair game capped down to best-response dynamics — the cheap, always-fast
// approximation the paper's own large-stage path uses.
func (w *workerState) fallbackScheduler() sched.Scheduler {
	if w.fallback == nil {
		w.fallback = &sched.DEEP{MaxPairCells: 1}
	}
	return w.fallback
}

// modelCacheSize bounds the fleet-wide shared compiled-shape cache (cost
// model + simulator plan) in entries. Models and plans are a few dense arrays
// each; 256 covers the distinct shapes of a large multi-tenant mix without
// unbounded growth. Unlike the placement cache it is keyed by (app, cluster)
// only, so one compiled shape serves every scheduler and every worker on the
// same request shape.
const modelCacheSize = 256

// shapeFilterSlots is the size of the shape cache's second-sight filter, in
// key hashes across all shards. A key is admitted when it returns before
// ~this many other keys have missed, so the filter should remember somewhat
// more than the cache can hold (a key that returns later than that would be
// evicted before its third sight anyway) and no more.
const shapeFilterSlots = 4 * modelCacheSize

// planMemoCap bounds each worker's rebound-plan memo (workerState.plans). It
// is keyed by shared-plan identity, so it normally tracks the shared shape
// cache; the cap matters when that cache is churning (fresh identities per
// request): planFor then drops one arbitrary entry per insertion instead of
// growing without bound — hot entries survive and evicted shared-cache plans
// are not pinned indefinitely.
const planMemoCap = 64

// worker owns one scheduler and one cluster and processes jobs until the
// queue closes. The worker index doubles as the obs shard, so concurrent
// workers never contend on an instrument cache line.
func (f *Fleet) worker(i int) {
	defer f.wg.Done()
	cluster := f.cfg.NewCluster()
	w := &workerState{
		scheduler:     f.cfg.NewScheduler(),
		cluster:       cluster,
		clusterDigest: DigestCluster(cluster),
		shard:         i,
		exec:          sim.NewExec(),
		plans:         make(map[*sim.Plan]*sim.Plan),
		rng:           uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
	}
	// Resolve the cluster-side compiled substrate once per worker lifetime:
	// the first worker per cluster digest compiles it, the rest share it.
	// (With a deterministic Config.NewCluster this is the fleet's own base
	// table, pre-filled in New.)
	w.table = f.models.tableFor(w.clusterDigest, func() *topo.ClusterTable {
		return sim.CompileClusterTable(cluster)
	})
	w.ownDigest = w.clusterDigest
	w.effCluster = cluster
	w.adopt(f, f.churn.Load())
	w.home = i % len(f.queues)
	if len(f.queues) > 1 {
		w.selCases = make([]reflect.SelectCase, len(f.queues))
		for k, q := range f.queues {
			w.selCases[k] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(q)}
		}
	}
	for {
		j := f.dequeue(w)
		if j == nil {
			return
		}
		f.queued.Add(-j.weight())
		if j.items != nil {
			f.processBatch(w, j)
			continue
		}
		resp := f.process(w, j)
		f.deliver(w, j.done, resp)
	}
}

// dequeue returns the next job for the worker, or nil when the fleet is
// closed and fully drained. The worker scans its home shard first and then
// steals from siblings (non-blocking), so submit-side affinity holds under
// load but a single hot shard fans out across the whole pool. When every
// shard is empty it blocks on all of them at once — a reflect.Select on the
// idle path only, where its allocations cost nothing that matters.
func (f *Fleet) dequeue(w *workerState) *job {
	qs := f.queues
	n := len(qs)
	if n == 1 {
		j, ok := <-qs[0]
		if !ok {
			return nil
		}
		return j
	}
	for {
		sawClosed := false
		for i := 0; i < n; i++ {
			select {
			case j, ok := <-qs[(w.home+i)%n]:
				if ok {
					return j
				}
				sawClosed = true
			default:
			}
		}
		if sawClosed {
			// Channels close only in Close, after f.closed stopped all
			// admission — so every send happened before the close we just
			// observed, and a scan that found nothing means every shard is
			// drained for good.
			return nil
		}
		if _, recv, ok := reflect.Select(w.selCases); ok {
			return recv.Interface().(*job)
		}
		// A shard closed while we were blocked: rescan to drain stragglers
		// from the other shards before exiting.
	}
}

// deliver closes out one processed request: fleet counters, the per-stage
// and per-tenant telemetry, and the response send (done is the job's own
// channel, or the shared batch channel — both buffered, so the send never
// blocks a worker).
func (f *Fleet) deliver(w *workerState, done chan<- *Response, resp *Response) {
	f.inFlight.Add(-1)
	if resp.Err != nil {
		f.failed.Add(1)
	} else {
		f.completed.Add(1)
	}
	f.stages.RecordAt(w.shard, &w.trace)
	f.latency.ObserveAt(w.shard, resp.Latency.Seconds())
	f.slow.Observe(resp.Tenant, resp.App, resp.Latency, &w.trace, resp.CacheHit, resp.Err != nil)
	f.observe(w.shard, resp)
	done <- resp
}

// processBatch serves one batch head: every item processed back to back on
// this worker, responses streamed to the shared channel in submission order.
// The head's batch fields are copied out first — an early item's response
// can be Released (recycling its job, the head included) while later items
// are still in flight.
func (f *Fleet) processBatch(w *workerState, head *job) {
	items, bdone := head.items, head.bdone
	for idx, item := range items {
		resp := f.process(w, item)
		resp.Index = idx
		f.deliver(w, bdone, resp)
	}
}

// scheduleOn computes a placement for the job with the given scheduler on
// the compiled shape, into the job's (names, assigns) scratch. Schedulers
// that support reusable passes (sched.PassScheduler — DEEP) run on the
// worker's one Pass — it is scheduler-independent, so the exact scheduler and
// the degraded fallback share it — and write their result straight into the
// scratch; plain ModelSchedulers run on the model with
// fresh scratch, and everything else (for which shape compiles no model)
// falls back to the string-keyed Schedule path against the churn-filtered
// cluster view.
func (f *Fleet) scheduleOn(w *workerState, scheduler sched.Scheduler, j *job, shape compiledShape) error {
	var placement sim.Placement
	var err error
	switch s := scheduler.(type) {
	case sched.PassScheduler:
		p := w.passFor(shape)
		if err := s.ScheduleInto(p); err != nil {
			return err
		}
		f.recordSolver(w.shard, p.Solver())
		j.names, j.assigns = p.AppendPlacement(j.names[:0], j.assigns[:0])
		return nil
	case sched.ModelScheduler:
		placement, err = s.ScheduleModel(shape.model)
	default:
		placement, err = scheduler.Schedule(j.req.App, w.effCluster)
	}
	if err == nil {
		j.names, j.assigns = sortedPlacement(placement, j.names, j.assigns)
	}
	return err
}

// passFor retargets the worker's one reusable pass at the shape's model.
// Shared and private shapes take the same path: a Pass keeps no per-model
// memo, so retargeting costs two capacity checks on top of the Reset every
// ScheduleInto runs anyway.
func (w *workerState) passFor(shape compiledShape) *sched.Pass {
	if w.pass == nil {
		w.pass = sched.NewPass(shape.model)
	} else {
		w.pass.Retarget(shape.model)
	}
	return w.pass
}

// recordSolver folds one pass's per-path stage-game counts into the fleet's
// solver counters on the worker's shard; paths the pass never took cost
// nothing.
func (f *Fleet) recordSolver(shard int, st sched.SolverStats) {
	add := func(c *obs.Counter, n int) {
		if n > 0 {
			c.AddAt(shard, float64(n))
		}
	}
	add(f.solverExact, st.Exact)
	add(f.solverBestResponse, st.BestResponse)
	add(f.solverNonconverged, st.NonConverged)
}

// scheduleAttempt runs one rung of the degradation ladder: the exact
// scheduler normally, or the best-response fallback when this is a churn
// retry or when the deadline cannot absorb another exact game (estimated by
// the worker's last exact schedule duration). The fallback applies only to
// PassSchedulers (the exact DEEP family) — other schedulers have no cheaper
// rung to fall to. The placement lands in the job's scratch (scheduleOn);
// the result reports whether it is degraded.
func (f *Fleet) scheduleAttempt(w *workerState, j *job, shape compiledShape, attempt int, deadline time.Time) (bool, error) {
	if _, exact := w.scheduler.(sched.PassScheduler); exact {
		pressed := !deadline.IsZero() && w.exactDur > 0 && time.Until(deadline) < w.exactDur
		if attempt > 0 || pressed {
			err := f.scheduleOn(w, w.fallbackScheduler(), j, shape)
			return err == nil, err
		}
	}
	t0 := time.Now()
	err := f.scheduleOn(w, w.scheduler, j, shape)
	if err == nil {
		w.exactDur = time.Since(t0)
	}
	return false, err
}

// shape returns the request's compiled model and executor plan. The plan is
// always compiled, since every request simulates; the cost model only when
// the scheduler can read one (scheduleOn falls back to the string-keyed path
// otherwise). A shape the fleet has seen before comes from the fleet-wide
// cache, compiled fresh on its second sight and shared from then on: the key
// folds in the worker's own cluster digest, so workers with identical
// clusters (the normal case — every worker runs Config.NewCluster) share one
// compiled shape per app, and a reconfigured cluster can never alias
// another's shapes. A shape seen for the first time — at the edge the common
// request, and most never return — is compiled into the worker's recycled
// scratch instead, valid for this request only, so it allocates nothing and
// retains nothing.
func (f *Fleet) shape(w *workerState, app *dag.App, appDigest Fingerprint) compiledShape {
	s, seen := f.models.getOrCompile(fingerprint(w.clusterDigest, appDigest, ""), w.clusterDigest, func() compiledShape {
		at := f.models.appTableFor(appDigest, func() *appgraph.AppTable {
			return appgraph.Compile(app)
		})
		return w.compileOn(at, new(costmodel.Scratch))
	})
	if !seen {
		s = w.compileOn(w.apps.Compile(app), &w.shapes)
	}
	return s
}

// compileOn compiles the shape of (at, the worker's cluster) into the given
// storage — fresh for a shape to be shared, the worker's own for a private
// one. Cross-product passes only: the cluster-side tables come precompiled
// from the worker's shared cluster table and the app-side structure from
// the app table, so a cold shape pays neither the O(devices²) topology scans
// nor a second round of DAG walks — one fused pricing walk emits the model
// and the plan together.
func (w *workerState) compileOn(at *appgraph.AppTable, into *costmodel.Scratch) compiledShape {
	var s compiledShape
	if _, needModel := w.scheduler.(sched.ModelScheduler); needModel {
		s.model, s.plan = into.CompileShapeOn(at, w.cluster, w.table)
	} else {
		s.plan = into.Plan.Compile(at, w.cluster, w.table)
	}
	return s
}

// planFor resolves the shared plan against the worker's own cluster: the
// compiled tables stay shared, but the device handles (whose layer caches
// the Exec drives and flushes) must be the worker's private ones. The
// rebinding is memoized per shared plan; a plan already bound to this
// worker's cluster (this worker compiled it — every private plan is)
// passes through untouched and unmemoized.
func (w *workerState) planFor(app *dag.App, shared *sim.Plan) *sim.Plan {
	if bound, ok := w.plans[shared]; ok {
		return bound
	}
	bound, ok := shared.Rebind(w.cluster)
	if !ok {
		// Shape mismatch (cannot happen while keys fold the cluster digest
		// in): fall back to a private compilation.
		bound = sim.CompilePlan(app, w.cluster)
	}
	if bound == shared {
		return shared
	}
	if len(w.plans) >= planMemoCap {
		for k := range w.plans {
			delete(w.plans, k)
			break
		}
	}
	w.plans[shared] = bound
	return bound
}

// process runs the (possibly memoized) schedule-then-simulate pipeline for
// one job on the worker's private scheduler and cluster, stamping each
// stage's wall time into the worker's reusable trace as it goes. In steady
// state — shape cache hot, placement memoized or pass reused, layer caches
// warm, no churn in flight — the whole path allocates only the response
// plumbing and the caller-owned placement and result copies; the stamping
// itself is monotonic-clock reads into a fixed array, alloc-free, and churn
// awareness costs one atomic load and one pointer compare.
//
// Under churn the path loops: every computed or cached placement is
// re-validated against the latest published epoch before it is served, and a
// placement caught referencing crashed hardware is purged and re-scheduled
// (bounded retries, jittered backoff, degraded-scheduler rung on retry).
// Stage stamps accumulate across attempts.
func (f *Fleet) process(w *workerState, j *job) *Response {
	start := time.Now()
	w.trace.Reset()
	w.trace.D[obs.StageQueue] = start.Sub(j.enqueued)
	// The response is the job's pooled buffer: reset every public field a
	// prior life may have set (finish overwrites Latency and Stages on
	// every path), wire up the Release plumbing, and keep the buffers.
	resp := &j.resp
	resp.Tenant = j.req.Tenant
	resp.App = j.req.App.Name
	resp.Placement = PlacementView{}
	resp.Result = nil
	resp.CacheHit = false
	resp.Epoch = 0
	resp.Degraded = false
	resp.Index = 0
	resp.Err = nil
	resp.QueueWait = w.trace.D[obs.StageQueue]
	resp.owner = j
	resp.pooled = true

	// A submitter that gave up while the request sat in the queue gets its
	// context error back without paying for a schedule.
	if j.ctx != nil && j.ctx.Err() != nil {
		resp.Err = j.ctx.Err()
		return f.finish(w, resp, j)
	}
	var deadline time.Time
	if j.req.Deadline > 0 {
		deadline = j.enqueued.Add(j.req.Deadline)
	}

	if st := f.churn.Load(); st != w.churn {
		w.adopt(f, st)
	}

	// Memoized on the app: only the first request to carry this *dag.App
	// pays the sha256 pass over it.
	appDigest := Fingerprint(j.req.App.Digest())
	mark := time.Now()
	w.trace.D[obs.StageFingerprint] = mark.Sub(start)

	var shape compiledShape
	var view PlacementView
	var hit bool
	for attempt := 0; ; attempt++ {
		key := fingerprint(w.clusterDigest, appDigest, w.scheduler.Name())
		shape = f.shape(w, j.req.App, appDigest)
		now := time.Now()
		w.trace.D[obs.StageCompile] += now.Sub(mark)
		mark = now

		view, hit = f.cache.GetView(key)
		now = time.Now()
		w.trace.D[obs.StageCacheLookup] += now.Sub(mark)
		mark = now
		degraded := false
		if !hit {
			if !deadline.IsZero() && !now.Before(deadline) {
				f.deadlineExceeded.Add(1)
				resp.Err = fmt.Errorf("fleet: scheduling %s: %w", j.req.App.Name, ErrDeadline)
				return f.finish(w, resp, j)
			}
			var err error
			degraded, err = f.scheduleAttempt(w, j, shape, attempt, deadline)
			if err == nil {
				// The response serves the job's pooled scratch, never a map.
				view = PlacementView{names: j.names, assigns: j.assigns}
				if !degraded {
					// Degraded placements stay out of the memo: once the
					// pressure passes, the shape deserves its exact
					// placement. The memo copies the scratch.
					f.cache.PutView(key, view)
				}
			}
			now = time.Now()
			w.trace.D[obs.StageSchedule] += now.Sub(mark)
			mark = now
			if err != nil {
				resp.Err = fmt.Errorf("fleet: scheduling %s: %w", j.req.App.Name, err)
				return f.finish(w, resp, j)
			}
		}

		// Stale-placement gate: churn may have advanced since this worker
		// adopted its epoch (or since the placement was memoized), so
		// validate against the latest published state before serving.
		latest := f.churn.Load()
		if latest.staleAssigns(view.assigns) {
			f.staleRejected.Add(1)
			if hit {
				f.cache.Remove(key)
			}
			if attempt+1 >= churnMaxAttempts {
				resp.Err = fmt.Errorf("fleet: scheduling %s: placement stale after %d attempts under churn", j.req.App.Name, attempt+1)
				return f.finish(w, resp, j)
			}
			f.reschedules.Add(1)
			w.backoff(attempt)
			w.adopt(f, f.churn.Load())
			mark = time.Now()
			continue
		}
		resp.Epoch = latest.epoch
		resp.Degraded = degraded
		if degraded {
			f.downgrades.Add(1)
		}
		resp.CacheHit = hit
		resp.Placement = view
		break
	}

	if !deadline.IsZero() && !time.Now().Before(deadline) {
		f.deadlineExceeded.Add(1)
		resp.Err = fmt.Errorf("fleet: simulating %s: %w", j.req.App.Name, ErrDeadline)
		return f.finish(w, resp, j)
	}
	opts := f.cfg.SimOptions
	opts.Seed += j.req.Seed
	result, err := w.exec.RunIndexed(w.planFor(j.req.App, shape.plan), view.names, view.assigns, opts)
	w.trace.D[obs.StageSim] = time.Since(mark)
	if err != nil {
		resp.Err = fmt.Errorf("fleet: simulating %s: %w", j.req.App.Name, err)
		return f.finish(w, resp, j)
	}
	// The exec's result buffer is reused on the next request; the response
	// escapes to the submitter, so it gets a detached copy — into the job's
	// pooled buffer, whose slices and maps a warm pool reuses outright.
	result.CloneInto(&j.result)
	resp.Result = &j.result
	return f.finish(w, resp, j)
}

// finish closes out a response: end-to-end latency and the stage breakdown
// copied off the worker's reusable trace.
func (f *Fleet) finish(w *workerState, resp *Response, j *job) *Response {
	resp.Latency = time.Since(j.enqueued)
	resp.Stages = w.trace
	return resp
}

// tenantLabels caches one tenant's resolved instrument handles so the
// per-request observe path is a handful of sharded atomic writes — no label
// concatenation and no registry lookups after first sight of the tenant.
// The instrument names follow the monitor convention (name{tenant=...}), so
// the same aggregates are readable through Metrics().Counter and rendered
// as labeled Prometheus families.
type tenantLabels struct {
	failed    *obs.Counter
	completed *obs.Counter
	cacheHits *obs.Counter
	latency   *obs.Histogram
	queueWait *obs.Histogram
	makespan  *obs.Histogram
	energy    *obs.Histogram
}

// tenantLabelCap bounds the interned label set: past it, new tenants record
// under the shared tenant="other" instruments, so a submitter churning
// through unbounded tenant names cannot grow worker memory — or the backing
// registry, which interns instrument names forever — without bound.
const tenantLabelCap = 1024

// newTenantLabels interns one tenant's instrument set in the registry.
func newTenantLabels(reg *obs.Registry, tenant string) *tenantLabels {
	return &tenantLabels{
		failed:    reg.Counter("fleet_failed{tenant=" + tenant + "}"),
		completed: reg.Counter("fleet_completed{tenant=" + tenant + "}"),
		cacheHits: reg.Counter("fleet_cache_hits{tenant=" + tenant + "}"),
		latency:   reg.Histogram("fleet_latency_s{tenant=" + tenant + "}"),
		queueWait: reg.Histogram("fleet_queue_wait_s{tenant=" + tenant + "}"),
		makespan:  reg.Histogram("fleet_makespan_s{tenant=" + tenant + "}"),
		energy:    reg.Histogram("fleet_energy_j{tenant=" + tenant + "}"),
	}
}

// labelsFor returns the tenant's resolved instrument handles. The cap check
// precedes any registry interning: the registry has no eviction, so a
// not-yet-interned tenant past the cap must not mint new instrument names.
func (f *Fleet) labelsFor(tenant string) *tenantLabels {
	if v, ok := f.labels.Load(tenant); ok {
		return v.(*tenantLabels)
	}
	if f.labelCount.Load() >= tenantLabelCap {
		return f.overflowLabels
	}
	v, loaded := f.labels.LoadOrStore(tenant, newTenantLabels(f.cfg.Metrics.Obs(), tenant))
	if !loaded {
		f.labelCount.Add(1)
	}
	return v.(*tenantLabels)
}

// observe folds one response into the per-tenant aggregates on the worker's
// own shard.
func (f *Fleet) observe(shard int, resp *Response) {
	l := f.labelsFor(resp.Tenant)
	if resp.Err != nil {
		l.failed.AddAt(shard, 1)
		return
	}
	l.completed.AddAt(shard, 1)
	if resp.CacheHit {
		l.cacheHits.AddAt(shard, 1)
	}
	l.latency.ObserveAt(shard, resp.Latency.Seconds())
	l.queueWait.ObserveAt(shard, resp.QueueWait.Seconds())
	l.makespan.ObserveAt(shard, resp.Result.Makespan)
	l.energy.ObserveAt(shard, float64(resp.Result.TotalEnergy))
}
