package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deep/internal/fleet"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/wire"
)

// Structured error codes. Every non-2xx response carries
// {"error":{"code":...,"message":...}} so clients can branch on code without
// parsing prose.
const (
	codeInvalidRequest = "invalid_request"
	codeBodyTooLarge   = "body_too_large"
	codeRateLimited    = "rate_limited"
	codeQuotaExceeded  = "quota_exceeded"
	codeQueueFull      = "queue_full"
	codeDraining       = "draining"
	codeDeadline       = "deadline_exceeded"
	codeScheduleFailed = "schedule_failed"
	codeInfeasible     = "infeasible"
	codeNotFound       = "not_found"
	codeMethod         = "method_not_allowed"
	// codeInternal is a 500 the server caused itself: a response it could
	// not encode (a NaN or ±Inf makespan or energy).
	codeInternal = "internal"
)

// defaultMaxBodyBytes bounds request bodies: app specs are a few KiB, so one
// MiB is generous without letting a hostile client buffer gigabytes.
const defaultMaxBodyBytes = 1 << 20

// maxTenantLen bounds tenant names at decode time. Tenant names become
// metric label values and tenant-table keys, so they must stay short: a
// megabyte-long name would otherwise ride into /metrics output and the
// table's keys verbatim.
const maxTenantLen = 128

// Config tunes a Server.
type Config struct {
	// Backend is the fleet (or a test stub). Required.
	Backend Backend
	// Registry receives the per-tenant HTTP counters and serves /metrics.
	// Point it at the fleet's own registry (Metrics().Obs()) so one scrape
	// exposes the whole process. Required.
	Registry *obs.Registry
	// Cluster, when set, is served as its wire spec on GET /v1/cluster —
	// clients can discover the infrastructure they are deploying onto.
	Cluster *sim.Cluster
	// RatePerSec is the per-tenant sustained deploy rate; Burst the bucket
	// size (default: max(RatePerSec, 1)). Zero RatePerSec disables rate
	// limiting.
	RatePerSec float64
	Burst      int
	// MaxInFlight bounds each tenant's concurrent deploys. Zero disables.
	MaxInFlight int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxDeadline caps client-requested deadlines (default 30s): a client
	// cannot pin a worker slot for minutes by asking politely.
	MaxDeadline time.Duration
	// ExpvarName, when non-empty, publishes the registry under this expvar
	// name and mounts /debug/vars. Publish panics on duplicate names, so
	// tests leave it empty.
	ExpvarName string
}

// Server is the HTTP front-end. Create with New, mount Handler, flip into
// drain with StartDrain.
type Server struct {
	cfg Config
	lim limiter
	// specs interns app specs by their body bytes: the envelope scanners
	// recognise a repeated spec where it starts, so it skips the walk, the
	// strict decode, the DAG build and the digest, and every request carrying
	// it shares one read-only *dag.App (the contract on fleet.Request.App).
	specs *wire.Interner
	// bodies pools request buffers: a deploy body is read once, scanned in
	// place, and everything that outlives the decode is copied out of it.
	bodies sync.Pool
	// decodeFast counts deploy requests decoded without encoding/json — the
	// envelope scanned, every spec interned or scanned; decodeFallback those
	// decoded successfully that needed the reference decoder for either. A
	// client whose encoder leaves the canonical subset shows up here.
	decodeFast     *obs.Counter
	decodeFallback *obs.Counter
	// encodeStored counts deploy answers whose tail (placement, makespan,
	// energy) was copied from the placement entry's stored bytes;
	// encodeFresh those whose tail was encoded, and stored if the response
	// carried an empty slot. Each handler adds to them once per request.
	encodeStored *obs.Counter
	encodeFresh  *obs.Counter

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	// ewmaNS tracks smoothed end-to-end service time in nanoseconds; the
	// Retry-After hints for queue-full and quota rejections derive from it.
	ewmaNS atomic.Int64

	// tenants is the one per-tenant table: name → *tenantRecord, the
	// tenant's admission gate and HTTP counters. A known tenant is a lock-free
	// load; tenantMu serializes only the interning of a new one, which stops
	// at tenantGateCap records. Past the cap, unseen tenants share overflow
	// (tenant "other"), so neither this table nor the registry grows with
	// tenant-name churn.
	tenants     sync.Map
	tenantMu    sync.Mutex
	tenantCount atomic.Int64
	overflow    *tenantRecord

	clusterJSON []byte
}

// New builds a server. It does not listen; mount Handler on an http.Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("fleetd: config without backend")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("fleetd: config without registry")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 30 * time.Second
	}
	s := &Server{cfg: cfg, drainCh: make(chan struct{})}
	s.lim = newLimiter(cfg.RatePerSec, cfg.Burst, cfg.MaxInFlight)
	s.specs = wire.NewInterner(cfg.Registry, "fleetd_spec_intern")
	s.bodies.New = func() any {
		b := &requestBody{data: make([]byte, 0, 4<<10)}
		b.one = func(resp *fleet.Response) { s.addDeploy(b, resp) }
		b.add = func(resp *fleet.Response) { s.addItem(b, resp) }
		return b
	}
	s.decodeFast = cfg.Registry.Counter("fleetd_decode_fast_total")
	s.decodeFallback = cfg.Registry.Counter("fleetd_decode_fallback_total")
	s.encodeStored = cfg.Registry.Counter("fleetd_encode_stored_total")
	s.encodeFresh = cfg.Registry.Counter("fleetd_encode_fresh_total")
	s.overflow = newTenantRecord(cfg.Registry, "other")
	if cfg.Cluster != nil {
		spec, err := wire.ClusterSpecOf(cfg.Cluster)
		if err != nil {
			return nil, fmt.Errorf("fleetd: encoding cluster spec: %w", err)
		}
		s.clusterJSON, err = json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("fleetd: encoding cluster spec: %w", err)
		}
	}
	if cfg.ExpvarName != "" {
		cfg.Registry.PublishExpvar(cfg.ExpvarName)
	}
	return s, nil
}

// StartDrain flips the server into drain: /readyz goes 503, new deploys are
// shed with 503 draining, and Draining() fires so the owner can begin
// shutdown. Idempotent.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining fires once StartDrain has been called (by signal handler or the
// /v1/drain endpoint).
func (s *Server) Draining() <-chan struct{} { return s.drainCh }

// Handler builds the public route table: deploy, read-only introspection,
// and probes. Mutating cluster state (/v1/churn, /v1/drain) and the debug
// surface (pprof exposes blocking profile/trace captures) live on
// AdminHandler — mounting them here would let any client fail devices,
// drain the daemon, or pin CPUs with profile requests.
//
// The fleet publishes its telemetry once per Backend.DoBatch call — a single
// deploy, or a whole batch — before the call's last answer is handed back,
// so /metrics and /v1/stats may lag the answers a worker is still serving
// by at most its batch: fleet_requests_in_flight drops, and the request
// counters and histograms rise, when the batch is published.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/deploy", s.handleDeploy)
	mux.HandleFunc("/v1/deploy:batch", s.handleDeployBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.cfg.Registry.MetricsHandler())
	return mux
}

// AdminHandler builds the operator route table: churn injection, drain, and
// the debug endpoints. Serve it on a loopback-only (or otherwise
// access-controlled) listener, never on the public address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/churn", s.handleChurn)
	mux.HandleFunc("/v1/drain", s.handleDrain)
	mux.Handle("/metrics", s.cfg.Registry.MetricsHandler())
	if s.cfg.ExpvarName != "" {
		mux.Handle("/debug/vars", expvar.Handler())
	}
	mux.HandleFunc("/debug/slow", s.handleSlow)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DeployRequest is the POST /v1/deploy envelope.
type DeployRequest struct {
	// Tenant labels the requester (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Seed perturbs the simulation jitter (fleet.Request.Seed). deepfleetd
	// simulates without jitter, so there seed never changes an answer.
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds total service time; 0 means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// App is the versioned application spec (wire.AppSpec).
	App json.RawMessage `json:"app"`
}

// DeployResponse is the POST /v1/deploy success body. Degraded is always
// false: every placement is exact. It is kept because benchmark/replay.go
// copies it and clients may read "degraded".
type DeployResponse struct {
	Tenant      string                    `json:"tenant"`
	App         string                    `json:"app"`
	Epoch       int64                     `json:"epoch"`
	CacheHit    bool                      `json:"cache_hit"`
	Degraded    bool                      `json:"degraded"`
	QueueWaitMS float64                   `json:"queue_wait_ms"`
	LatencyMS   float64                   `json:"latency_ms"`
	Placement   map[string]AssignmentSpec `json:"placement"`
	MakespanS   float64                   `json:"makespan_s"`
	EnergyJ     float64                   `json:"total_energy_j"`
}

// AssignmentSpec is one microservice's placement in a deploy response.
type AssignmentSpec struct {
	Device   string `json:"device"`
	Registry string `json:"registry"`
}

// maxBatchItems bounds one POST /v1/deploy:batch envelope. A batch holds one
// admission-queue slot however large it is, so an unbounded batch would let a
// single tenant turn the shared queue into a private backlog.
const maxBatchItems = 64

// DeployBatchRequest is the POST /v1/deploy:batch envelope: one tenant, many
// app deployments, admitted atomically (one queue slot, N rate-limit tokens).
type DeployBatchRequest struct {
	// Tenant labels the whole batch (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Items are the individual deployments, answered in order.
	Items []DeployBatchItem `json:"items"`
}

// DeployBatchItem is one deployment inside a batch envelope.
type DeployBatchItem struct {
	// Seed perturbs the simulation jitter for this item, as
	// DeployRequest.Seed does: under deepfleetd it never changes an answer.
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds this item's service time; 0 means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// App is the versioned application spec (wire.AppSpec).
	App json.RawMessage `json:"app"`
}

// DeployBatchResponse is the POST /v1/deploy:batch success body. The batch
// being admitted is what the 200 asserts; each item still succeeds or fails
// on its own, so Results carries either a deploy body or a structured error
// per item, in submission order.
type DeployBatchResponse struct {
	Tenant  string              `json:"tenant"`
	Results []DeployBatchResult `json:"results"`
}

// DeployBatchResult is one item's outcome: exactly one of Deploy or Error is
// set.
type DeployBatchResult struct {
	Index  int             `json:"index"`
	Deploy *DeployResponse `json:"deploy,omitempty"`
	Error  *BatchItemError `json:"error,omitempty"`
}

// BatchItemError mirrors the top-level error envelope for one batch item.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ChurnRequest is the POST /v1/churn envelope, mirroring fleet.ChurnDelta.
type ChurnRequest struct {
	FailDevices       []string         `json:"fail_devices,omitempty"`
	RecoverDevices    []string         `json:"recover_devices,omitempty"`
	FailRegistries    []string         `json:"fail_registries,omitempty"`
	RecoverRegistries []string         `json:"recover_registries,omitempty"`
	Links             []LinkChangeSpec `json:"links,omitempty"`
}

// LinkChangeSpec is one link bandwidth change in a churn request.
type LinkChangeSpec struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Factor float64 `json:"factor"`
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if !s.open(w, r) {
		return
	}
	tenant, req, ok := s.decodeDeploy(w, r)
	if !ok {
		return
	}
	t := s.tenant(tenant)
	// A single deploy is a one-item batch. Its slice and the callback that
	// encodes its answer live in a pooled buffer, which then carries the
	// answer, so handing them to the backend allocates nothing.
	answer := s.bodies.Get().(*requestBody)
	answer.reqs = append(answer.reqs[:0], req)
	answer.tenant, answer.encoded = t, false
	if !s.serve(w, r, t, answer.reqs, answer.one) {
		s.releaseBody(answer)
		return
	}
	if err := answer.err; err != nil {
		s.releaseBody(answer)
		status, code := answerError(err)
		writeError(w, status, code, err.Error(), 0)
		return
	}
	s.writeAnswer(w, answer, answer.encoded)
}

// addDeploy is a single deploy's callback: it appends the answer to the
// buffer, or keeps the error the deploy failed with.
func (s *Server) addDeploy(answer *requestBody, resp *fleet.Response) {
	s.answered(answer.tenant, resp)
	if resp.Err != nil {
		answer.err = resp.Err
		return
	}
	var stored bool
	answer.data, stored, answer.encoded = appendDeploy(answer.data[:0], resp)
	switch {
	case answer.encoded && stored:
		s.encodeStored.Add(1)
	case answer.encoded:
		s.encodeFresh.Add(1)
	}
}

// open answers what both deploy endpoints answer before reading a body: 405
// to anything but POST, 503 draining once drain began. The tenant is
// unknown before the body is read, so a shed request counts under the
// default tenant rather than paying a decode for a request that will not be
// served.
func (s *Server) open(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethod, "POST only", 0)
		return false
	}
	if s.draining.Load() {
		s.shed(w, s.tenant("default"), 1)
		return false
	}
	return true
}

// serve is the one deploy path after the envelope decode, for a single
// deploy (one request) and a batch alike. It charges the tenant's limiter
// for every request, then hands them to the backend's DoBatch, which
// admits all or none and passes every answer to each, in order, on this
// goroutine. It reports whether the fleet admitted them; if not, it has
// written the rejection and counted it. Every admitted request counts as
// accepted, whatever its answer — one whose client hung up while it waited
// included — so the door's accepted count is the fleet's submitted count.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, t *tenantRecord, reqs []fleet.Request, each func(*fleet.Response)) bool {
	n := len(reqs)
	release, code, retry := s.lim.admitN(&t.gate, time.Now(), n, s.serviceEstimate(n))
	if release == nil {
		t.rejected.Add(float64(n))
		msg := "per-tenant rate limit exceeded"
		if code == codeQuotaExceeded {
			msg = "per-tenant in-flight quota exceeded"
		}
		writeError(w, http.StatusTooManyRequests, code, msg, retry)
		return false
	}
	// The fleet enforces each request's deadline itself; r.Context()
	// carries client hang-up.
	err := s.cfg.Backend.DoBatch(r.Context(), reqs, each)
	release()
	if err != nil {
		s.refuse(w, t, n, err)
		return false
	}
	// An admitted request is always answered, even while draining
	// (Fleet.Close completes every admitted request) — that is what "drain
	// completes accepted requests" means at the HTTP layer.
	t.accepted.Add(float64(n))
	return true
}

// refuse answers n requests the backend did not admit, and counts them.
func (s *Server) refuse(w http.ResponseWriter, t *tenantRecord, n int, err error) {
	switch {
	case errors.Is(err, fleet.ErrQueueFull):
		t.rejected.Add(float64(n))
		// Retry-After: how long until the queue backlog ahead of these
		// requests has been served, at the smoothed service rate.
		writeError(w, http.StatusTooManyRequests, codeQueueFull, "admission queue full",
			s.serviceEstimate(s.cfg.Backend.QueueLen()+n))
	case errors.Is(err, fleet.ErrClosed):
		s.shed(w, t, n)
	default:
		// A deadline spent or a client gone before admission, or a backend
		// fault: the status and code an admitted request failing so gets.
		t.rejected.Add(float64(n))
		status, code := answerError(err)
		writeError(w, status, code, err.Error(), 0)
	}
}

// shed answers n requests turned away because the server is draining.
func (s *Server) shed(w http.ResponseWriter, t *tenantRecord, n int) {
	t.shed.Add(float64(n))
	writeError(w, http.StatusServiceUnavailable, codeDraining, "server is draining", 0)
}

// answered folds one admitted request's answer into the service-time EWMA
// and counts it as drained when it completes during drain.
func (s *Server) answered(t *tenantRecord, resp *fleet.Response) {
	s.observe(resp)
	if s.draining.Load() {
		t.drained.Add(1)
	}
}

// writeAnswer sends an appended deploy answer, newline-terminated like
// json.Encoder's and framed by Content-Length, then returns its buffer to
// the pool. ok false means a float would not encode: the 500 goes out
// instead, as writeJSON sends it.
func (s *Server) writeAnswer(w http.ResponseWriter, answer *requestBody, ok bool) {
	defer s.releaseBody(answer)
	if !ok {
		writeEncodeFailure(w)
		return
	}
	answer.data = append(answer.data, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(answer.data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(answer.data)
}

// requestBody is one pooled deploy-request buffer, with the batch scanner's
// item scratch beside it. As an answer buffer it also carries the deploy's
// requests (reqs) and the two callbacks, made once per buffer, that the
// backend hands their responses to: one (addDeploy) appends a single
// deploy's answer to data, add (addItem) each of a batch's. A response is
// read only inside its callback.
type requestBody struct {
	data  []byte
	items []wire.DeployItem
	reqs  []fleet.Request
	one   func(*fleet.Response)
	add   func(*fleet.Response)

	// The deploy's state while its callback runs: its tenant, whether its
	// answer encodes, a single deploy's error, and how many of a batch's
	// item tails were copied from an entry or encoded.
	tenant        *tenantRecord
	encoded       bool
	err           error
	stored, fresh int
}

// maxPooledBody is the largest buffer the pool keeps: a full 64-item batch of
// case-study specs is ~130 KiB, and one 1 MiB body must not pin a megabyte
// per pooled buffer afterwards.
const maxPooledBody = 256 << 10

// readBody reads the whole request body, bounded by MaxBytesReader exactly
// as a streaming decode would be, into a pooled buffer. The error the read
// ended on — io.EOF for a whole body; else a body over the limit, a client
// gone mid-body — comes back beside the bytes that arrived before it. The
// caller returns the buffer with releaseBody once nothing aliases it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*requestBody, error) {
	body := s.bodies.Get().(*requestBody)
	buf := body.data[:0]
	if hint := min(r.ContentLength, s.cfg.MaxBodyBytes); int(hint) >= cap(buf) {
		buf = make([]byte, 0, hint+1) // +1: the read that finds EOF needs room too
	}
	src := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			body.data = buf
			return body, err
		}
	}
}

func (s *Server) releaseBody(body *requestBody) {
	if cap(body.data) > maxPooledBody {
		return
	}
	// The item spans alias data, possibly an outgrown one; a declined scan
	// leaves some past len. A request holds its tenant and app.
	clear(body.items[:cap(body.items)])
	clear(body.reqs)
	body.tenant, body.err = nil, nil
	s.bodies.Put(body)
}

// replay is a request body already read: Read yields data and then the
// error the original read ended on, so the reference decoder sees exactly
// the stream a streaming decode would have.
type replay struct {
	data []byte
	err  error
}

func (b *replay) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// decodeReference strictly decodes a JSON envelope into v with the reference
// decoder, encoding/json. On failure it writes the error response — 413 for
// an oversized body, 400 for malformed JSON, an unknown field, or anything
// but whitespace after the envelope — and returns false. Every decode error
// a client can see is worded here, whichever path accepts requests.
func decodeReference(w http.ResponseWriter, body io.Reader, v any) bool {
	err := wire.DecodeStrict(body, v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), 0)
		return false
	}
	writeError(w, http.StatusBadRequest, codeInvalidRequest, "decoding request: "+err.Error(), 0)
	return false
}

// decodeDeploy reads one POST /v1/deploy body into the fleet request it asks
// for, or writes the 4xx and returns false. The envelope goes through the
// scanner; whatever the scanner declines goes through the reference decoder,
// which alone decides rejections.
func (s *Server) decodeDeploy(w http.ResponseWriter, r *http.Request) (tenant string, req fleet.Request, ok bool) {
	body, readErr := s.readBody(w, r)
	defer s.releaseBody(body)
	var item wire.DeployItem
	fast := false
	if readErr == io.EOF {
		tenant, item, fast = s.specs.ScanDeploy(body.data)
	}
	if !fast {
		var env DeployRequest
		if !decodeReference(w, &replay{body.data, readErr}, &env) {
			return "", fleet.Request{}, false
		}
		tenant, item = env.Tenant, wire.DeployItem{Seed: env.Seed, DeadlineMS: env.DeadlineMS, App: env.App}
	}
	if len(item.App) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "request without app spec", 0)
		return "", fleet.Request{}, false
	}
	if !checkTenant(w, &tenant) {
		return "", fleet.Request{}, false
	}
	req, specFast, err := s.requestOf(tenant, item)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error(), 0)
		return "", fleet.Request{}, false
	}
	s.countDecode(fast && specFast)
	return tenant, req, true
}

// decodeDeployBatch is decodeDeploy for POST /v1/deploy:batch, whose fleet
// requests it stores in answer.reqs. Every spec is decoded before the
// caller charges the limiter, so a malformed item rejects the batch without
// consuming tokens, and a charged batch is one the fleet will actually take.
func (s *Server) decodeDeployBatch(w http.ResponseWriter, r *http.Request, answer *requestBody) (tenant string, ok bool) {
	body, readErr := s.readBody(w, r)
	defer s.releaseBody(body)
	var items []wire.DeployItem
	fast := false
	if readErr == io.EOF {
		tenant, items, fast = s.specs.ScanDeployBatch(body.data, body.items[:0], maxBatchItems)
	}
	if fast {
		body.items = items
	} else {
		var env DeployBatchRequest
		if !decodeReference(w, &replay{body.data, readErr}, &env) {
			return "", false
		}
		tenant = env.Tenant
		items = make([]wire.DeployItem, len(env.Items))
		for i, it := range env.Items {
			items[i] = wire.DeployItem{Seed: it.Seed, DeadlineMS: it.DeadlineMS, App: it.App}
		}
	}
	if len(items) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "batch without items", 0)
		return "", false
	}
	if len(items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("batch exceeds %d items", maxBatchItems), 0)
		return "", false
	}
	if !checkTenant(w, &tenant) {
		return "", false
	}
	answer.reqs = slices.Grow(answer.reqs[:0], len(items))
	for i, item := range items {
		if len(item.App) == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Sprintf("items[%d] without app spec", i), 0)
			return "", false
		}
		req, specFast, err := s.requestOf(tenant, item)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Sprintf("items[%d]: %s", i, err), 0)
			return "", false
		}
		answer.reqs = append(answer.reqs, req)
		fast = fast && specFast
	}
	s.countDecode(fast)
	return tenant, true
}

// checkTenant bounds the tenant name (writing the 400 when it is too long)
// and fills in the default for an empty one.
func checkTenant(w http.ResponseWriter, tenant *string) bool {
	if len(*tenant) > maxTenantLen {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("tenant name exceeds %d bytes", maxTenantLen), 0)
		return false
	}
	if *tenant == "" {
		*tenant = "default"
	}
	return true
}

// requestOf resolves one decoded deployment into a fleet request: the spec
// through the spec table, the deadline clamped to MaxDeadline. fast reports
// that the spec did not need the reference decoder.
func (s *Server) requestOf(tenant string, item wire.DeployItem) (req fleet.Request, fast bool, err error) {
	app, fast, err := s.specs.ItemApp(item)
	if err != nil {
		return fleet.Request{}, false, err
	}
	// Clamp in milliseconds: converting first would wrap a huge deadline_ms
	// into a short, even sub-millisecond, budget.
	deadline := s.cfg.MaxDeadline
	if ms := item.DeadlineMS; ms > 0 && ms <= int64(s.cfg.MaxDeadline/time.Millisecond) {
		deadline = time.Duration(ms) * time.Millisecond
	}
	return fleet.Request{Tenant: tenant, App: app, Seed: item.Seed, Deadline: deadline}, fast, nil
}

func (s *Server) countDecode(fast bool) {
	if fast {
		s.decodeFast.Add(1)
	} else {
		s.decodeFallback.Add(1)
	}
}

func (s *Server) handleDeployBatch(w http.ResponseWriter, r *http.Request) {
	if !s.open(w, r) {
		return
	}
	// As for a single deploy, the batch's slice and the callback that
	// appends its responses live in the pooled answer buffer.
	answer := s.bodies.Get().(*requestBody)
	tenant, ok := s.decodeDeployBatch(w, r, answer)
	if !ok {
		s.releaseBody(answer)
		return
	}
	t := s.tenant(tenant)
	answer.data = appendBatchOpen(answer.data[:0], tenant)
	answer.tenant, answer.encoded, answer.stored, answer.fresh = t, true, 0, 0
	if !s.serve(w, r, t, answer.reqs, answer.add) {
		s.releaseBody(answer)
		return
	}
	if answer.encoded && answer.stored > 0 {
		s.encodeStored.Add(float64(answer.stored))
	}
	if answer.encoded && answer.fresh > 0 {
		s.encodeFresh.Add(float64(answer.fresh))
	}
	answer.data = append(answer.data, "]}"...)
	s.writeAnswer(w, answer, answer.encoded)
}

// addItem is a batch answer buffer's add: it appends one response to the
// answer as it arrives. A response that will not encode spoils the answer,
// but the rest are still received.
func (s *Server) addItem(answer *requestBody, resp *fleet.Response) {
	s.answered(answer.tenant, resp)
	if answer.encoded {
		if resp.Index > 0 {
			answer.data = append(answer.data, ',')
		}
		var fromSlot bool
		answer.data, fromSlot, answer.encoded = appendBatchResult(answer.data, resp)
		switch {
		case fromSlot:
			answer.stored++
		case resp.Err == nil:
			answer.fresh++
		}
	}
}

// answerError maps an answered deploy's error to the status a single deploy
// answers with and the code both a single deploy and a batch item carry.
func answerError(err error) (status int, code string) {
	switch {
	case errors.Is(err, fleet.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, context.Canceled):
		// Client went away; 499-style. The exact status is moot (nobody is
		// listening) but the connection teardown wants one.
		return http.StatusBadRequest, codeInvalidRequest
	case errors.Is(err, sched.ErrInfeasible):
		// The spec asks for something no device can run: the client's to
		// fix, not a server fault.
		return http.StatusUnprocessableEntity, codeInfeasible
	default:
		return http.StatusInternalServerError, codeScheduleFailed
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethod, "GET only", 0)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Backend.Stats())
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethod, "GET only", 0)
		return
	}
	if s.clusterJSON == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no cluster spec configured", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.clusterJSON)
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethod, "POST only", 0)
		return
	}
	var req ChurnRequest
	if !decodeReference(w, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req) {
		return
	}
	delta := fleet.ChurnDelta{
		FailDevices:       req.FailDevices,
		RecoverDevices:    req.RecoverDevices,
		FailRegistries:    req.FailRegistries,
		RecoverRegistries: req.RecoverRegistries,
	}
	for _, lc := range req.Links {
		delta.Links = append(delta.Links, fleet.LinkChange{A: lc.A, B: lc.B, Factor: lc.Factor})
	}
	epoch, _, err := s.cfg.Backend.ApplyChurn(delta)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"epoch": epoch})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethod, "POST only", 0)
		return
	}
	s.StartDrain()
	writeJSON(w, http.StatusAccepted, map[string]bool{"draining": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.cfg.Backend.SlowRequests())
}

// serviceEstimate predicts how long n request service times take across the
// worker pool — the Retry-After hint for backpressure rejections. Before any
// request completes the EWMA is zero and the floor of one second applies.
func (s *Server) serviceEstimate(n int) time.Duration {
	per := time.Duration(s.ewmaNS.Load())
	workers := s.cfg.Backend.Workers()
	if workers < 1 {
		workers = 1
	}
	est := per * time.Duration((n+workers-1)/workers)
	if est < time.Second {
		est = time.Second
	}
	return est
}

// observe folds one completed response into the service-time EWMA
// (alpha 0.2: smooth enough to ride out cache-hit/miss bimodality, fresh
// enough to track load shifts within tens of requests).
func (s *Server) observe(resp *fleet.Response) {
	lat := int64(resp.Latency)
	for {
		old := s.ewmaNS.Load()
		next := lat
		if old > 0 {
			next = old + (lat-old)/5
		}
		if s.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// tenantGateCap bounds the tenant table: past the cap, new tenant names
// share one overflow record, so a submitter churning through unbounded
// tenant names cannot grow server memory (it only throttles itself harder).
const tenantGateCap = 1024

// tenantRecord is one tenant at the door: its admission gate and its HTTP
// counters — accepted (admitted to the fleet, whatever the answer), rejected
// (429 rate, quota or queue; 504, 400 or 500 at admission), shed (503 while
// draining) and drained (admitted requests answered during drain).
type tenantRecord struct {
	gate     tenantGate
	accepted *obs.Counter
	rejected *obs.Counter
	shed     *obs.Counter
	drained  *obs.Counter
}

// newTenantRecord interns one tenant's counters in the registry.
func newTenantRecord(reg *obs.Registry, tenant string) *tenantRecord {
	return &tenantRecord{
		accepted: reg.Counter("fleetd_http_accepted{tenant=" + tenant + "}"),
		rejected: reg.Counter("fleetd_http_rejected{tenant=" + tenant + "}"),
		shed:     reg.Counter("fleetd_http_shed{tenant=" + tenant + "}"),
		drained:  reg.Counter("fleetd_http_drained{tenant=" + tenant + "}"),
	}
}

// tenant returns one tenant's record, interning up to tenantGateCap. The
// cap check precedes any Registry.Counter call: the registry interns forever
// (no eviction), so past the cap unseen tenants share the overflow record
// rather than minting four new registry entries per hostile tenant name.
func (s *Server) tenant(name string) *tenantRecord {
	if v, ok := s.tenants.Load(name); ok {
		return v.(*tenantRecord)
	}
	if s.tenantCount.Load() >= tenantGateCap {
		return s.overflow
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if v, ok := s.tenants.Load(name); ok {
		return v.(*tenantRecord)
	}
	if s.tenantCount.Load() >= tenantGateCap {
		return s.overflow
	}
	t := newTenantRecord(s.cfg.Registry, name)
	s.tenants.Store(name, t)
	s.tenantCount.Add(1)
	return t
}

// writeError renders the structured error envelope, with Retry-After (whole
// seconds, rounded up, floor 1) when the rejection is retryable.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	body.Error.Code = code
	body.Error.Message = msg
	writeJSON(w, status, body)
}

// writeEncodeFailure answers a response that would not encode (a NaN or ±Inf
// float) with the structured 500.
func writeEncodeFailure(w http.ResponseWriter) {
	writeError(w, http.StatusInternalServerError, codeInternal, "encoding response", 0)
}

// writeJSON renders a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// The error envelope is two strings, so this cannot recurse twice.
		writeEncodeFailure(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
