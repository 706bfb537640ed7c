// Package fleet is DEEP's multi-tenant deployment service: it turns the
// single-shot Figure 1 pipeline (schedule one app, simulate it, report) into
// a throughput machine. A deployment request borrows one of a fixed pool of
// scheduler workers and runs on its caller's goroutine; only when every
// worker is busy does it wait, in one of a bounded number of waiter slots,
// and past them it is rejected. Placements are memoized in a
// concurrency-safe LRU keyed by (churn epoch's cluster, app digest) — a
// fleet runs one cluster and one scheduling method, and the Nash
// best-response iteration is deterministic, so repeated shapes skip the game
// entirely. A request that needs the compiled (app, cluster) shape — a
// placement miss, or an entry's first hit — compiles it in its worker's own
// recycled scratch.
// The package also ships an open-loop traffic driver (Poisson, bursty, and
// diurnal arrival processes over configurable application mixes) for
// scenario sweeps far beyond the paper's two case studies.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// ErrQueueFull is returned at admission when every worker is busy and
	// every waiter slot is taken; the request was rejected, not admitted.
	ErrQueueFull = errors.New("fleet: admission queue full")
	// ErrClosed is returned by Submit after Close began.
	ErrClosed = errors.New("fleet: closed")
	// ErrDeadline is wrapped into a Response.Err when the request's deadline
	// expired while it waited for a worker, or before its placement could be
	// scheduled or simulated.
	ErrDeadline = errors.New("fleet: deadline exceeded")
)

// Config tunes a Fleet.
type Config struct {
	// Workers is the scheduler/simulator pool size (default 1). Each worker
	// owns a private scheduler instance and simulator scratch; all of them
	// read the fleet's one cluster, which no request mutates.
	Workers int
	// QueueDepth bounds the callers waiting for a worker (default 64): a
	// caller that finds every worker busy takes one of QueueDepth waiter
	// slots — a whole batch takes one — and with none free it is rejected
	// with ErrQueueFull and counted. A caller that finds an idle worker takes
	// no slot.
	QueueDepth int
	// NewScheduler constructs one scheduler per worker (default
	// sched.NewDEEP). Any method from sched.All works: every scheduler runs
	// on the worker's compiled model, so under churn it sees only the live
	// devices and registries. Every call must return the same method: one
	// fleet runs one, and its cache keys do not name it.
	NewScheduler func() sched.Scheduler
	// NewCluster constructs the fleet's cluster (default workload.Testbed).
	// New calls it once; every worker schedules and simulates on that one
	// cluster, and churn epochs derive from it.
	NewCluster func() *sim.Cluster
	// CacheSize bounds the placement LRU in entries. Zero means
	// DefaultCacheSize; a negative value disables placement memoization.
	CacheSize int
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
	if c.NewScheduler == nil {
		c.NewScheduler = func() sched.Scheduler { return sched.NewDEEP() }
	}
	if c.NewCluster == nil {
		c.NewCluster = workload.Testbed
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Metrics == nil {
		c.Metrics = monitor.NewMetrics()
	}
	if c.SlowRingSize == 0 {
		c.SlowRingSize = defaultSlowRingSize
	}
	return c
}

// DefaultCacheSize is the placement cache's default bound in entries. The
// front door's spec table holds as many app specs (wire.SpecTableEntries),
// so both app-keyed tables at the door keep the same working set.
const DefaultCacheSize = 1024

// defaultSlowRingSize bounds the slow-request ring: enough tail outliers to
// explain an incident, small enough to be memory-irrelevant.
const defaultSlowRingSize = 64

// Request is one tenant's deployment request.
type Request struct {
	// Tenant labels the requester for per-tenant aggregation (default
	// "default").
	Tenant string
	// App is the application to deploy. The fleet only reads it and keys
	// every cache by its App.Digest, stored when the app was built; a built
	// app is read-only, so one *dag.App may be shared by any number of
	// concurrent requests (the serving layer interns apps by spec bytes and
	// submits the same pointer for every repeat).
	App *dag.App
	// Seed is the client's simulation seed. A fleet simulates with the zero
	// sim.Options — no jitter, empty layer caches, as core.System.Deploy
	// does — so Seed never changes an answer: an answer is a function of the
	// app and the epoch's cluster, and a placement entry stores it on its
	// first hit and serves it to every later one.
	Seed int64
	// Deadline bounds the request's total service time, measured from
	// admission. A request whose deadline expires while it waits for a
	// worker, or before scheduling or simulation, fails with ErrDeadline (a
	// waiting caller arms a timer for it; one that borrows a worker at once
	// arms none). The placement is always exact: a deadline never buys a
	// cheaper solver. Zero means no deadline.
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
	// Result is the simulated answer, valid until Release; nil when Err is
	// set. On a memoized hit it aliases the placement entry's immutable
	// result, shared by every response for that key: read-only, like
	// Placement. Otherwise it points at a pool-owned buffer. Clone it to keep
	// it past Release.
	Result *sim.Result
	// Encoded is the placement entry's slot for an encoding of the answer,
	// set exactly when Result is the entry's stored result: nil on a miss and
	// when Err is set. The fleet never fills it; a serving layer may, with
	// bytes that are a function of Placement and Result alone, and every
	// later response for the key carries them. Like Result, it is not to be touched after Release.
	Encoded *Encoded
	// CacheHit is true when the placement came from the memo instead of a
	// scheduling pass.
	CacheHit bool
	// QueueWait is the time spent waiting to borrow a worker: zero but for
	// the clock reads when one was idle at admission.
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
	// Degraded is always false: every placement is exact. It is kept
	// because benchmark/replay.go copies it and clients may read the
	// "degraded" field of a deploy answer.
	Degraded bool
	// Index is the request's position within its DoBatch or SubmitBatch
	// call; 0 for single-request submissions.
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
// serve with Do or DoBatch (or their channel-returning wrappers Submit and
// SubmitBatch), stop with Close.
type Fleet struct {
	cfg   Config
	cache *placementCache
	// idle is the worker pool: every workerState no caller is using, FIFO.
	// A caller borrows one, runs the pipeline on its own goroutine and puts
	// it back, so a deploy crosses no goroutine boundary. A caller that finds
	// it empty takes one of Config.QueueDepth waiter slots (waiting) and
	// blocks on it; a returned worker goes straight to a blocked waiter
	// before any newcomer can take it. queued counts the requests the
	// waiters carry (a batch counts each item), which is what serving layers
	// size Retry-After hints from.
	idle    chan *workerState
	waiting atomic.Int64
	queued  atomic.Int64
	// jobPool recycles the whole per-request chain — job, Response, Result
	// buffers, placement-view scratch, and the cap-1 done channel Submit
	// answers on — via the Response.Release contract. A job re-enters the
	// pool only after its response was released, which proves the done
	// channel was drained, so reusing the channel can never cross-deliver
	// between submitters.
	jobPool sync.Pool

	// Telemetry, interned in the Metrics' backing obs registry: per-stage
	// latency histograms, the end-to-end request-latency histogram the
	// rolling slow threshold reads, and the slow-request ring. A request is
	// recorded on its worker's own shard, so instrumentation adds no shared
	// cache lines (and no allocations) to the request path.
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

	// mu orders admission against Close; wg counts every admitted caller
	// until it has answered all its requests, plus the worker setups still
	// running, so Close returns only when all of them are done.
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

	// The cluster and churn machinery. base is the fleet's one cluster, made
	// by New's only Config.NewCluster call: every shape compiles on it, and
	// its device handles intern every churn epoch's patched table. baseTable
	// is its compiled substrate, which the epoch-0 state carries and a full
	// recovery restores; clusterCompiles counts the full table compiles
	// (New's one). All three are immutable after New. chaosTopo is a lazy
	// clone of the base topology that accumulates link degradations (mutated
	// only under churnMu; the base topology is never touched, so restores
	// read base bandwidths). churn is the published epoch state workers adopt
	// with one atomic load per request. compiles counts the shapes compiled.
	base            *sim.Cluster
	baseTable       *topo.ClusterTable
	clusterCompiles int64
	compiles        atomic.Int64
	churnMu         sync.Mutex
	chaosTopo       *netsim.Topology
	churn           atomic.Pointer[churnState]

	churnEpochs      atomic.Int64
	staleRejected    atomic.Int64
	reschedules      atomic.Int64
	deadlineExceeded atomic.Int64
}

type job struct {
	f        *Fleet
	req      Request
	enqueued time.Time
	// done is the channel Submit answers on, made by the first Submit to
	// draw the job; Do and DoBatch never touch it.
	done chan *Response

	// Pool-owned response buffers, recycled by Response.Release: the
	// response itself, the detached copy of the Exec's result, and the
	// scratch backing cache-miss placement views. In steady state a request
	// touches none of the allocator.
	resp    Response
	result  sim.Result
	names   []string
	assigns []sim.Assignment
}

// getJob draws a job from the pool (or mints one) for a request admitted at
// enqueued, filling in the default tenant.
func (f *Fleet) getJob(req Request, enqueued time.Time) *job {
	j := f.jobPool.Get().(*job)
	j.f = f
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	j.req = req
	j.enqueued = enqueued
	return j
}

// deadline is when the request's budget runs out; zero for none.
func (j *job) deadline() time.Time {
	if j.req.Deadline <= 0 {
		return time.Time{}
	}
	return j.enqueued.Add(j.req.Deadline)
}

// putJob clears a job's references and returns it to the pool. Buffers with
// reusable capacity — the result's slices and maps, the placement-view
// scratch, the done channel — are kept; everything that pins caller memory
// (the app, view aliases) is dropped.
func (f *Fleet) putJob(j *job) {
	j.req = Request{}
	j.enqueued = time.Time{}
	r := &j.resp
	r.Tenant, r.App = "", ""
	r.Placement = PlacementView{}
	r.Result = nil
	r.Encoded = nil
	r.Err = nil
	r.owner = nil
	f.jobPool.Put(j)
}

// New starts a fleet with the given config. It builds the fleet's cluster
// (Config.NewCluster, once) and its compiled table; each worker is then set
// up on its own goroutine and joins the pool when ready, so New does not wait
// for Config.NewScheduler, and a caller that arrives first waits for a worker
// like any other.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:   cfg,
		cache: newPlacementCache(cfg.CacheSize),
		idle:  make(chan *workerState, cfg.Workers),
	}
	f.jobPool.New = func() any { return new(job) }
	reg := cfg.Metrics.Obs()
	f.overflowLabels = newTenantLabels(reg, "other")
	f.stages = obs.NewStageSet(reg, "fleet_stage_seconds")
	f.latency = reg.Histogram("fleet_request_latency_s")
	f.slow = obs.NewSlowRing(cfg.SlowRingSize, cfg.SlowThreshold, f.latency)
	f.solverExact = reg.Counter("fleet_solver_path_total{path=exact}")
	f.solverBestResponse = reg.Counter("fleet_solver_path_total{path=best_response}")
	f.solverNonconverged = reg.Counter("fleet_solver_nonconverged_total")
	reg.OnCollect(f.collectGauges)
	f.base = cfg.NewCluster()
	f.baseTable = sim.CompileClusterTable(f.base)
	f.clusterCompiles++
	// Epoch 0 is the pristine pre-churn state: the base cluster exactly.
	f.churn.Store(&churnState{table: f.baseTable})
	f.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer f.wg.Done()
			// The worker index doubles as the obs shard, so concurrent
			// borrowers never contend on an instrument cache line.
			f.idle <- &workerState{scheduler: cfg.NewScheduler(), shard: i, exec: sim.NewExec()}
		}()
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
	reg.Gauge("fleet_shape_cache_compiles").Set(float64(s.ModelCache.Compiles))
	reg.Gauge("fleet_cluster_table_compiles").Set(float64(s.ModelCache.ClusterCompiles))
	reg.Gauge("fleet_app_table_compiles").Set(float64(s.ModelCache.AppCompiles))
	reg.Gauge("fleet_slow_requests_captured").Set(float64(f.slow.Captured()))
	reg.Gauge("fleet_slow_threshold_s").Set(f.slow.Threshold().Seconds())
	reg.Gauge("fleet_churn_epoch").Set(float64(s.Churn.Epoch))
	reg.Gauge("fleet_churn_down_devices").Set(float64(s.Churn.DownDevices))
	reg.Gauge("fleet_churn_down_registries").Set(float64(s.Churn.DownRegistries))
	reg.Gauge("fleet_churn_degraded_links").Set(float64(s.Churn.DegradedLinks))
	reg.Gauge("fleet_churn_epochs_applied").Set(float64(s.Churn.EpochsApplied))
	reg.Gauge("fleet_churn_stale_rejected").Set(float64(s.Churn.StaleRejected))
	reg.Gauge("fleet_churn_reschedules").Set(float64(s.Churn.Reschedules))
	reg.Gauge("fleet_churn_deadline_exceeded").Set(float64(s.Churn.DeadlineExceeded))
}

// SlowRequests returns the slow-request ring's current contents, oldest
// first: the full stage breakdown of every captured tail outlier.
func (f *Fleet) SlowRequests() []obs.SlowRequest { return f.slow.Snapshot() }

// Metrics returns the registry receiving per-tenant aggregates.
func (f *Fleet) Metrics() *monitor.Metrics { return f.cfg.Metrics }

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	st := f.churn.Load()
	compiles := f.compiles.Load()
	return Stats{
		Submitted:  f.submitted.Load(),
		Rejected:   f.rejected.Load(),
		Completed:  f.completed.Load(),
		Failed:     f.failed.Load(),
		InFlight:   f.inFlight.Load(),
		Cache:      f.cache.Stats(),
		ModelCache: ModelCacheStats{Compiles: compiles, ClusterCompiles: f.clusterCompiles, AppCompiles: compiles},
		Churn: ChurnStats{
			Epoch:            st.epoch,
			DownDevices:      len(st.downDevs),
			DownRegistries:   len(st.downRegs),
			DegradedLinks:    len(st.degraded),
			EpochsApplied:    f.churnEpochs.Load(),
			StaleRejected:    f.staleRejected.Load(),
			Reschedules:      f.reschedules.Load(),
			DeadlineExceeded: f.deadlineExceeded.Load(),
		},
	}
}

// check validates a single request before admission. An already-cancelled
// ctx turns it away uncounted, like a malformed request.
func check(ctx context.Context, req *Request) error {
	if req.App == nil {
		return fmt.Errorf("fleet: request without app")
	}
	return ctx.Err()
}

// checkBatch is check for a batch: it must be non-empty and every item must
// carry an app.
func checkBatch(ctx context.Context, reqs []Request) error {
	if len(reqs) == 0 {
		return fmt.Errorf("fleet: empty batch")
	}
	for i := range reqs {
		if reqs[i].App == nil {
			return fmt.Errorf("fleet: batch request %d without app", i)
		}
	}
	return ctx.Err()
}

// admit is the one admission path: it registers one caller carrying n
// requests (a single request, or a whole batch) and hands it an idle worker,
// or nil when every worker is busy and the caller has taken a waiter slot
// instead. A fleet that is closed, or whose QueueDepth waiter slots are all
// taken, rejects the caller and counts n rejections. On success the caller
// holds one wg count, which it releases once every request it carries has
// been answered.
func (f *Fleet) admit(n int64) (*workerState, error) {
	// The read lock lets callers race each other but excludes Close, so
	// every wg.Add happens before Close's wg.Wait.
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		f.rejected.Add(n)
		return nil, ErrClosed
	}
	f.wg.Add(1)
	f.mu.RUnlock()
	var w *workerState
	select {
	case w = <-f.idle:
	default:
		if f.waiting.Add(1) > int64(f.cfg.QueueDepth) {
			f.waiting.Add(-1)
			f.wg.Done()
			f.rejected.Add(n)
			return nil, ErrQueueFull
		}
		f.queued.Add(n)
	}
	f.submitted.Add(n)
	f.inFlight.Add(n)
	return w, nil
}

// await blocks an admitted caller in its waiter slot until a worker is
// returned to the pool, ctx is done, or the deadline passes. It is the only
// place a request arms a timer, and only when it has a deadline: a caller
// that borrowed a worker at admission never gets here. A wait that ends
// without a worker returns ctx.Err() or ErrDeadline. Either way the slot and
// the n queued requests are given back.
func (f *Fleet) await(ctx context.Context, deadline time.Time, n int64) (*workerState, error) {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	var w *workerState
	var err error
	select {
	case w = <-f.idle:
	case <-ctx.Done():
		err = ctx.Err()
	case <-expired:
		err = ErrDeadline
	}
	f.queued.Add(-n)
	f.waiting.Add(-1)
	return w, err
}

// Do serves one request on the caller's goroutine: it borrows an idle
// worker — or, when every worker is busy, waits for one in a waiter slot —
// runs the pipeline and puts the worker back. A full set of waiter slots
// rejects the request with ErrQueueFull, a closed fleet with ErrClosed. A
// caller whose ctx is done while it waits gets ctx.Err() and no response (the
// request counts as failed and is never scheduled); a request whose deadline
// passes while it waits is answered with a response failed with ErrDeadline.
func (f *Fleet) Do(ctx context.Context, req Request) (*Response, error) {
	if err := check(ctx, &req); err != nil {
		return nil, err
	}
	enqueued := time.Now()
	w, err := f.admit(1)
	if err != nil {
		return nil, err
	}
	defer f.wg.Done()
	return f.serve(ctx, w, f.getJob(req, enqueued))
}

// serve answers one admitted request: it waits for a worker when admission
// handed it none, runs the pipeline on it, and returns it to the pool. A
// wait cut short by ctx fails the request and returns ctx.Err() without a
// response.
func (f *Fleet) serve(ctx context.Context, w *workerState, j *job) (*Response, error) {
	if w == nil {
		var err error
		if w, err = f.await(ctx, j.deadline(), 1); err != nil {
			resp := f.fail(j, err)
			if errors.Is(err, ErrDeadline) {
				return resp, nil
			}
			resp.Release()
			return nil, err
		}
	}
	resp := f.process(w, j)
	f.deliver(w.shard, resp)
	f.idle <- w
	return resp, nil
}

// DoBatch serves a batch of requests as one unit on the caller's goroutine:
// one admission, one timestamp, and one borrowed worker runs every item back
// to back. each receives every item's response in submission order, tagged
// with its Index, and owns it under the Release contract. Admission is
// all-or-nothing: the batch takes a single waiter slot however many items it
// carries, and a fleet with no free slot rejects the whole batch with
// ErrQueueFull (counting len(reqs) rejections). A waiting batch arms one
// timer, at its latest item deadline, and only when every item has one. If
// its wait ends early — ctx done or that deadline passed — every item is
// answered through each with the error; so is every item not yet run when
// ctx is done. The error return is for admission only.
func (f *Fleet) DoBatch(ctx context.Context, reqs []Request, each func(*Response)) error {
	if err := checkBatch(ctx, reqs); err != nil {
		return err
	}
	enqueued := time.Now()
	w, err := f.admit(int64(len(reqs)))
	if err != nil {
		return err
	}
	defer f.wg.Done()
	f.serveBatch(ctx, w, reqs, enqueued, each)
	return nil
}

// serveBatch answers every request of one admitted batch, in order.
func (f *Fleet) serveBatch(ctx context.Context, w *workerState, reqs []Request, enqueued time.Time, each func(*Response)) {
	var err error
	if w == nil {
		w, err = f.await(ctx, waitDeadline(reqs, enqueued), int64(len(reqs)))
	}
	for i := range reqs {
		j := f.getJob(reqs[i], enqueued)
		if err == nil {
			err = ctx.Err()
		}
		var resp *Response
		if err != nil {
			resp = f.fail(j, err)
		} else {
			resp = f.process(w, j)
			f.deliver(w.shard, resp)
		}
		resp.Index = i
		each(resp)
	}
	if w != nil {
		f.idle <- w
	}
}

// waitDeadline is when a waiting batch gives up: its latest item deadline,
// or never when any item has none.
func waitDeadline(reqs []Request, enqueued time.Time) time.Time {
	var latest time.Duration
	for i := range reqs {
		if reqs[i].Deadline <= 0 {
			return time.Time{}
		}
		latest = max(latest, reqs[i].Deadline)
	}
	return enqueued.Add(latest)
}

// fail answers a request that is not run: its wait for a worker ended
// (ctx done, or ErrDeadline) or its batch's caller hung up before its turn.
// It is recorded like any failed request, its whole latency in the queue
// stage.
func (f *Fleet) fail(j *job, err error) *Response {
	if errors.Is(err, ErrDeadline) {
		f.deadlineExceeded.Add(1)
		err = fmt.Errorf("fleet: waiting for a worker for %s: %w", j.req.App.Name, err)
	}
	resp := j.reset()
	resp.Err = err
	resp.Latency = time.Since(j.enqueued)
	resp.QueueWait = resp.Latency
	resp.Stages = obs.StageTrace{}
	resp.Stages.D[obs.StageQueue] = resp.Latency
	f.deliver(0, resp)
	return resp
}

// Submit is Do without the wait: it admits the request at once — so
// ErrQueueFull and ErrClosed come back from the call — and serves it on a
// goroutine of its own, which delivers exactly one Response on the returned
// channel. There is at most one such goroutine per worker and waiter slot.
func (f *Fleet) Submit(req Request) (<-chan *Response, error) {
	if err := check(context.Background(), &req); err != nil {
		return nil, err
	}
	enqueued := time.Now()
	w, err := f.admit(1)
	if err != nil {
		return nil, err
	}
	j := f.getJob(req, enqueued)
	if j.done == nil {
		j.done = make(chan *Response, 1)
	}
	done := j.done
	go func() {
		defer f.wg.Done()
		resp, _ := f.serve(context.Background(), w, j)
		done <- resp
	}()
	return done, nil
}

// SubmitBatch is DoBatch without the wait: admission happens in the call,
// and the returned channel delivers exactly len(reqs) responses in
// submission order. The context, if non-nil, covers every item as DoBatch's
// does. The reqs slice itself is not retained.
func (f *Fleet) SubmitBatch(ctx context.Context, reqs []Request) (<-chan *Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(ctx, reqs); err != nil {
		return nil, err
	}
	enqueued := time.Now()
	w, err := f.admit(int64(len(reqs)))
	if err != nil {
		return nil, err
	}
	reqs = slices.Clone(reqs)
	done := make(chan *Response, len(reqs))
	go func() {
		defer f.wg.Done()
		f.serveBatch(ctx, w, reqs, enqueued, func(resp *Response) { done <- resp })
	}()
	return done, nil
}

// QueueLen returns the number of requests currently waiting for a worker;
// each batch item counts as one request. Serving layers use it to derive
// Retry-After hints.
func (f *Fleet) QueueLen() int { return int(f.queued.Load()) }

// Workers returns the scheduler/simulator pool size.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Close stops admission and drains: every caller already admitted — the
// waiting ones included, which receive workers as borrowers return them — is
// answered before Close returns. Safe to call more than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.wg.Wait()
}

// workerState is the per-worker context: a private scheduler, a pooled
// simulator Exec, the scratch every shape is compiled into, and one scheduler
// pass retargeted at each request's model. The cluster is the fleet's, read
// through the adopted churn state.
type workerState struct {
	scheduler sched.Scheduler
	// shard is this worker's obs shard index: whoever borrows the worker
	// records its counters and histogram observations on the worker's own
	// cache line.
	shard int
	// trace is the reusable per-request stage breakdown; process resets it
	// at the top of every request so failure short-circuits leave the
	// untouched stages at zero rather than at the prior request's values.
	trace obs.StageTrace
	exec  *sim.Exec

	// apps and shapes are the worker's storage for the request's shape: the
	// app table, model and plan are compiled into them, used for that one
	// request, and overwritten by the next compile. Nothing in a Response
	// may alias them.
	apps   appgraph.Scratch
	shapes costmodel.Scratch

	// pass is the worker's one scheduling pass, retargeted at the model the
	// current request schedules on (passFor); it keeps nothing of a model
	// between requests but its scratch, game arena included.
	pass *sched.Pass

	// churn is the epoch state the current request runs on: its patched
	// cluster table every model compiles on (so schedulers never see a down
	// device or registry) and its key, the cluster half of every cache key.
	churn *churnState
}

// deliver closes out one answered request: the fleet counters, and the
// per-stage and per-tenant telemetry on the given obs shard (the serving
// worker's, or shard 0 for a request no worker ran).
func (f *Fleet) deliver(shard int, resp *Response) {
	f.inFlight.Add(-1)
	if resp.Err != nil {
		f.failed.Add(1)
	} else {
		f.completed.Add(1)
	}
	f.stages.RecordAt(shard, &resp.Stages)
	f.latency.ObserveAt(shard, resp.Latency.Seconds())
	f.slow.Observe(resp.Tenant, resp.App, resp.Latency, &resp.Stages, resp.CacheHit, resp.Err != nil)
	f.observe(shard, resp)
}

// scheduleOn computes a placement for the job with the worker's scheduler on
// the compiled shape, into the job's (names, assigns) scratch. Schedulers
// that support reusable passes (sched.PassScheduler — DEEP) run on the
// worker's one Pass and write their result straight into the scratch; every
// other scheduler runs on the model with fresh scratch.
func (f *Fleet) scheduleOn(w *workerState, j *job, shape compiledShape) error {
	if s, ok := w.scheduler.(sched.PassScheduler); ok {
		p := w.passFor(shape)
		if err := s.ScheduleInto(p); err != nil {
			return err
		}
		f.recordSolver(w.shard, p.Solver())
		j.names, j.assigns = p.AppendPlacement(j.names[:0], j.assigns[:0])
		return nil
	}
	placement, err := w.scheduler.ScheduleModel(shape.model)
	if err == nil {
		j.names, j.assigns = sortedPlacement(placement, j.names, j.assigns)
	}
	return err
}

// passFor retargets the worker's one reusable pass at the shape's model. A
// Pass keeps no per-model memo, so retargeting costs two capacity checks on
// top of the Reset every ScheduleInto runs anyway.
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

// shape compiles the request's model and executor plan on the worker's
// epoch's cluster: the model a placement miss schedules on and the plan a
// simulated answer runs on. A memoized answer needs neither, so process calls
// shape only on a placement miss and on a hit whose entry holds no result
// yet. The shape is compiled into the worker's recycled scratch, valid for
// this request only, so it allocates nothing and retains nothing. Only the
// cross product is priced: the cluster-side tables come precompiled in the
// epoch's cluster table, and one fused walk over the app table emits the
// model and the plan together.
func (f *Fleet) shape(w *workerState, app *dag.App) compiledShape {
	f.compiles.Add(1)
	var s compiledShape
	s.model, s.plan = w.shapes.CompileShapeOn(w.apps.Compile(app), f.base, w.churn.table)
	return s
}

// process runs the (possibly memoized) lookup-schedule-simulate pipeline for
// one job on the worker's private scheduler, stamping each stage's wall time
// into the worker's reusable trace as it goes.
//
// The placement is looked up before the shape: a miss compiles the shape
// (Fleet.shape), schedules on it and memoizes the placement; a hit needs no
// shape to find its placement. A hit whose entry already holds its
// simulated answer serves it as it stands — no shape, no simulation — and
// hands out the entry's encoded slot beside it (Response.Encoded). Any
// other answer is simulated on the shape: a miss's, and a hit's on an entry
// whose result slot is still empty — the first hit fills it. A miss never
// fills the slot: storing every miss's result was measured to raise the
// resident set by 43 % (23.1 → 33.0 MB) on a stream of never-repeated apps,
// where no stored result is ever read, and to cost CPU there as well.
//
// In steady state — placement and answer memoized, no churn in flight — the
// whole path allocates nothing once the job pool is full; the stamping
// itself is monotonic-clock reads into a fixed array, and churn awareness
// costs one atomic load.
//
// Under churn the path loops: every computed or cached placement is
// re-validated against the latest published epoch before it is served. A
// placement caught referencing crashed hardware is not served: the request
// moves to the latest epoch's key and is answered from that key's entry or
// re-scheduled exactly on that epoch, and the new placement is memoized like
// any other (bounded retries). The rejected entry stays, valid for its own
// key. Stage stamps accumulate across attempts.
func (f *Fleet) process(w *workerState, j *job) *Response {
	start := time.Now()
	w.trace.Reset()
	w.trace.D[obs.StageQueue] = start.Sub(j.enqueued)
	resp := j.reset()
	resp.QueueWait = w.trace.D[obs.StageQueue]
	deadline := j.deadline()

	w.churn = f.churn.Load()

	// The app digest was stored when the app was built: reading it hashes
	// nothing.
	key := cacheKey{cluster: w.churn.key, app: j.req.App.Digest()}
	mark := time.Now()
	w.trace.D[obs.StageFingerprint] = mark.Sub(start)

	var shape compiledShape
	var view PlacementView
	var entry *cacheEntry
	for attempt := 0; ; attempt++ {
		entry = f.cache.Get(key)
		now := time.Now()
		w.trace.D[obs.StageCacheLookup] += now.Sub(mark)
		mark = now
		if entry != nil {
			view = entry.view()
		} else {
			shape = f.shape(w, j.req.App)
			now = time.Now()
			w.trace.D[obs.StageCompile] += now.Sub(mark)
			mark = now
			if !deadline.IsZero() && !now.Before(deadline) {
				f.deadlineExceeded.Add(1)
				resp.Err = fmt.Errorf("fleet: scheduling %s: %w", j.req.App.Name, ErrDeadline)
				return f.finish(w, resp, j)
			}
			err := f.scheduleOn(w, j, shape)
			if err == nil {
				// The response serves the job's pooled scratch, never a map;
				// the memo copies it.
				view = PlacementView{names: j.names, assigns: j.assigns}
				f.cache.PutView(key, view)
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
			if attempt+1 >= churnMaxAttempts {
				resp.Err = fmt.Errorf("fleet: scheduling %s: placement stale after %d attempts under churn", j.req.App.Name, attempt+1)
				return f.finish(w, resp, j)
			}
			f.reschedules.Add(1)
			w.churn = latest
			key.cluster = latest.key
			mark = time.Now()
			continue
		}
		resp.Epoch = latest.epoch
		resp.CacheHit = entry != nil
		resp.Placement = view
		break
	}

	if entry != nil {
		if r := entry.result.Load(); r != nil {
			resp.Result, resp.Encoded = r, &entry.encoded
			return f.finish(w, resp, j)
		}
		shape = f.shape(w, j.req.App)
		now := time.Now()
		w.trace.D[obs.StageCompile] += now.Sub(mark)
		mark = now
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		f.deadlineExceeded.Add(1)
		resp.Err = fmt.Errorf("fleet: simulating %s: %w", j.req.App.Name, ErrDeadline)
		return f.finish(w, resp, j)
	}
	result, err := w.exec.RunIndexed(shape.plan, view.names, view.assigns, sim.Options{})
	w.trace.D[obs.StageSim] = time.Since(mark)
	if err != nil {
		resp.Err = fmt.Errorf("fleet: simulating %s: %w", j.req.App.Name, err)
		return f.finish(w, resp, j)
	}
	if entry != nil {
		// The first hit stores a detached copy, which this and every later
		// response for the key share. Of racing first hits the first store
		// wins and every one serves it, so one key has one result pointer,
		// and the entry's encoded slot always describes the result served
		// beside it.
		stored := result.Clone()
		if !entry.result.CompareAndSwap(nil, stored) {
			stored = entry.result.Load()
		}
		resp.Result, resp.Encoded = stored, &entry.encoded
		return f.finish(w, resp, j)
	}
	// The exec's result buffer is reused on the next request; the response
	// escapes to the submitter, so it gets a detached copy — into the job's
	// pooled buffer, whose slices and maps a warm pool reuses outright.
	result.CloneInto(&j.result)
	resp.Result = &j.result
	return f.finish(w, resp, j)
}

// reset readies the job's pooled response for a new answer: every public
// field a prior life may have set is cleared (finish and fail overwrite
// Latency, QueueWait and Stages on every path), the Release plumbing is
// wired up, and the buffers are kept.
func (j *job) reset() *Response {
	resp := &j.resp
	resp.Tenant = j.req.Tenant
	resp.App = j.req.App.Name
	resp.Placement = PlacementView{}
	resp.Result = nil
	resp.Encoded = nil
	resp.CacheHit = false
	resp.Epoch = 0
	resp.Index = 0
	resp.Err = nil
	resp.owner = j
	resp.pooled = true
	return resp
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
