package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/core"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/wire"
	"deep/internal/workload"
)

// slowSched wraps the real scheduler with an artificial delay so tests can
// hold worker slots long enough to observe queue-full, quota, and drain
// behavior deterministically.
type slowSched struct {
	inner sched.Scheduler
	delay time.Duration
}

func (s *slowSched) Name() string { return "slow" }
func (s *slowSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	time.Sleep(s.delay)
	return s.inner.ScheduleModel(model)
}

type testEnv struct {
	f        *fleet.Fleet
	s        *Server
	ts       *httptest.Server
	url      string
	adminURL string
}

func newEnv(t *testing.T, fcfg fleet.Config, scfg Config) *testEnv {
	t.Helper()
	f := fleet.New(fcfg)
	t.Cleanup(f.Close)
	scfg.Backend = f
	scfg.Registry = f.Metrics().Obs()
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	admin := httptest.NewServer(s.AdminHandler())
	t.Cleanup(admin.Close)
	return &testEnv{f: f, s: s, ts: ts, url: ts.URL, adminURL: admin.URL}
}

func deployBody(t testing.TB, tenant string) []byte {
	t.Helper()
	app, err := json.Marshal(wire.AppSpecOf(workload.VideoProcessing()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"tenant": tenant, "app": json.RawMessage(app)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postDeploy(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/deploy", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("non-envelope error body %q: %v", data, err)
	}
	return body.Error.Code
}

// TestDeployHappyPath pins the end-to-end serving contract: a wire-encoded
// app comes back with a placement, simulation results, and the per-tenant
// accepted counter bumped.
func TestDeployHappyPath(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 2}, Config{})
	resp, data := postDeploy(t, env.url, deployBody(t, "acme"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out DeployResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "acme" || len(out.Placement) == 0 || out.MakespanS <= 0 || out.EnergyJ <= 0 {
		t.Fatalf("implausible deploy response: %+v", out)
	}
	if c, ok := env.s.cfg.Registry.LookupCounter("fleetd_http_accepted{tenant=acme}"); !ok || c.Value() != 1 {
		t.Fatalf("accepted counter not bumped (found=%v)", ok)
	}

	// Second identical deploy must hit the placement memo.
	resp, data = postDeploy(t, env.url, deployBody(t, "acme"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("second identical deploy missed the placement cache")
	}
}

// TestDeployRateLimit pins the token-bucket 429: with rate 1 burst 1, the
// second immediate request is rejected with Retry-After.
func TestDeployRateLimit(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{RatePerSec: 1, Burst: 1})
	body := deployBody(t, "limited")
	if resp, data := postDeploy(t, env.url, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first deploy: status %d: %s", resp.StatusCode, data)
	}
	resp, data := postDeploy(t, env.url, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second deploy: status %d, want 429", resp.StatusCode)
	}
	if code := errCode(t, data); code != codeRateLimited {
		t.Fatalf("error code %q, want %q", code, codeRateLimited)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	if c, ok := env.s.cfg.Registry.LookupCounter("fleetd_http_rejected{tenant=limited}"); !ok || c.Value() != 1 {
		t.Fatal("rejected counter not bumped")
	}
}

// TestDeployQuotaAndQueueFull pins the two load-shedding 429s: a tenant over
// its in-flight quota, and a full admission queue — both with Retry-After.
func TestDeployQuotaAndQueueFull(t *testing.T) {
	env := newEnv(t, fleet.Config{
		Workers:    1,
		QueueDepth: 1,
		NewScheduler: func() sched.Scheduler {
			return &slowSched{inner: sched.NewDEEP(), delay: 300 * time.Millisecond}
		},
		CacheSize: -1, // every request schedules: keeps the worker busy
	}, Config{MaxInFlight: 2})
	body := deployBody(t, "busy")

	var mu sync.Mutex
	codes := map[string]int{}
	statuses := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postDeploy(t, env.url, body)
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests {
				codes[errCode(t, data)]++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			}
		}()
	}
	wg.Wait()
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no request was shed: %v", statuses)
	}
	if codes[codeQuotaExceeded]+codes[codeQueueFull] != statuses[http.StatusTooManyRequests] {
		t.Fatalf("429s carried unexpected codes: %v", codes)
	}
}

// TestDeployDecodeLimits pins the body-size and strict-decode errors.
func TestDeployDecodeLimits(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{MaxBodyBytes: 256})

	big := append([]byte(`{"tenant":"`), bytes.Repeat([]byte("x"), 512)...)
	big = append(big, []byte(`"}`)...)
	resp, data := postDeploy(t, env.url, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, data) != codeBodyTooLarge {
		t.Fatalf("oversized body: status %d code %s", resp.StatusCode, data)
	}

	resp, data = postDeploy(t, env.url, []byte(`{"bogus":1}`))
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
		t.Fatalf("unknown field: status %d body %s", resp.StatusCode, data)
	}

	resp, data = postDeploy(t, env.url, []byte(`{"app":{"version":99,"name":"a"}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future version: status %d body %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "unsupported") {
		t.Fatalf("future version error does not mention the version gate: %s", data)
	}

	resp, data = postDeploy(t, env.url, []byte(`{"tenant":"a"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing app: status %d body %s", resp.StatusCode, data)
	}
}

// TestChurnEndpoint pins the churn route: a fail delta bumps the epoch, an
// unknown device is a 400, and recovery returns to epoch N+1.
func TestChurnEndpoint(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1, NewCluster: func() *sim.Cluster {
		return workload.ScaledTestbed(2)
	}}, Config{})
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(env.adminURL+"/v1/churn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	resp, data := post(`{"fail_devices":["medium-00"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn: status %d: %s", resp.StatusCode, data)
	}
	var out map[string]int64
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["epoch"] != 1 {
		t.Fatalf("epoch %d, want 1", out["epoch"])
	}
	if resp, data = post(`{"fail_devices":["no-such"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown device: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ = post(`{"recover_devices":["medium-00"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: status %d", resp.StatusCode)
	}
}

// TestStatsAndMetricsAndHealth pins the observability surface: /v1/stats
// decodes, /metrics carries the per-tenant HTTP counters, /healthz is always
// 200, /readyz flips to 503 under drain.
func TestStatsAndMetricsAndHealth(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	if resp, data := postDeploy(t, env.url, deployBody(t, "obs")); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: status %d: %s", resp.StatusCode, data)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(env.url + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	status, body := get("/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: %d", status)
	}
	var stats fleet.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 {
		t.Fatalf("stats completed %d, want 1", stats.Completed)
	}

	status, body = get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{"fleetd_http_accepted", "fleet_requests_completed"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	if status, _ = get("/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz: %d", status)
	}
	if status, _ = get("/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", status)
	}
	env.s.StartDrain()
	if status, _ = get("/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz during drain: %d", status)
	}
	if status, _ = get("/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", status)
	}
	if resp, data := postDeploy(t, env.url, deployBody(t, "obs")); resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != codeDraining {
		t.Fatalf("deploy during drain: status %d body %s", resp.StatusCode, data)
	}
}

// TestClusterEndpoint pins /v1/cluster: the body is the configured
// cluster's wire spec.
func TestClusterEndpoint(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{Cluster: workload.Testbed()})
	resp, err := http.Get(env.url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got wire.ClusterSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want, err := wire.ClusterSpecOf(workload.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("/v1/cluster = %+v, want %+v", got, *want)
	}
}

// TestDrainCompletesAcceptedRequests is the PR's headline robustness pin:
// requests accepted before drain all complete with 200 even though drain
// began while they were queued or in flight, new requests are shed with 503,
// and the whole shutdown sequence (server drain, fleet close) finishes well
// inside the hard deadline.
func TestDrainCompletesAcceptedRequests(t *testing.T) {
	const inflight = 4
	env := newEnv(t, fleet.Config{
		Workers:    2,
		QueueDepth: inflight,
		NewScheduler: func() sched.Scheduler {
			return &slowSched{inner: sched.NewDEEP(), delay: 150 * time.Millisecond}
		},
		CacheSize: -1,
	}, Config{})

	// Saturate: every request schedules slowly, so all of these are still in
	// the queue or on a worker when drain starts.
	results := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			resp, _ := postDeploy(t, env.url, deployBody(t, "drain"))
			results <- resp.StatusCode
		}()
	}
	// Wait until the fleet has actually accepted them.
	deadline := time.Now().Add(2 * time.Second)
	for env.f.Stats().Submitted < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("fleet accepted only %d/%d requests", env.f.Stats().Submitted, inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}

	env.s.StartDrain()
	shedResp, shedData := postDeploy(t, env.url, deployBody(t, "drain"))
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain deploy: status %d body %s", shedResp.StatusCode, shedData)
	}

	done := make(chan struct{})
	go func() {
		env.f.Close() // completes every accepted request
		close(done)
	}()
	for i := 0; i < inflight; i++ {
		select {
		case status := <-results:
			if status != http.StatusOK {
				t.Errorf("accepted request finished with status %d, want 200", status)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted request %d never completed under drain", i)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Fleet.Close hung after drain")
	}
	if c, ok := env.s.cfg.Registry.LookupCounter("fleetd_http_drained{tenant=drain}"); !ok || c.Value() < 1 {
		t.Error("drained counter not bumped")
	}
	if st := env.f.Stats(); st.Completed != inflight {
		t.Fatalf("fleet completed %d, want %d", st.Completed, inflight)
	}
}

// TestBackendStub pins the handler/backend seam itself: handlers speak only
// through the interface, so a stub can fake queue state and the Retry-After
// derivation is observable without a real fleet.
type stubBackend struct {
	submitErr error
	queueLen  int
	workers   int
	// result, when set, is the Result of every response; else a zero one.
	result *sim.Result
}

func (s *stubBackend) respond(req fleet.Request, index int) *fleet.Response {
	result := s.result
	if result == nil {
		result = &sim.Result{}
	}
	return &fleet.Response{Tenant: req.Tenant, App: req.App.Name, Index: index, Result: result}
}

func (s *stubBackend) DoBatch(ctx context.Context, reqs []fleet.Request, each func(*fleet.Response)) error {
	if s.submitErr != nil {
		return s.submitErr
	}
	for i, req := range reqs {
		each(s.respond(req, i))
	}
	return nil
}
func (s *stubBackend) ApplyChurn(fleet.ChurnDelta) (int64, int, error) {
	return 0, 0, fmt.Errorf("stub: no churn")
}
func (s *stubBackend) Stats() fleet.Stats              { return fleet.Stats{} }
func (s *stubBackend) SlowRequests() []obs.SlowRequest { return nil }
func (s *stubBackend) QueueLen() int                   { return s.queueLen }
func (s *stubBackend) Workers() int                    { return s.workers }

func TestBackendStub(t *testing.T) {
	stub := &stubBackend{submitErr: fleet.ErrQueueFull, queueLen: 8, workers: 2}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: stub, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postDeploy(t, ts.URL, deployBody(t, "stub"))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, data) != codeQueueFull {
		t.Fatalf("queue-full stub: status %d body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After")
	}

	stub.submitErr = nil
	if resp, data = postDeploy(t, ts.URL, deployBody(t, "stub")); resp.StatusCode != http.StatusOK {
		t.Fatalf("stub deploy: status %d body %s", resp.StatusCode, data)
	}
}

// TestAdminSplit pins the public/admin route separation: the operator
// surface (churn, drain, debug) is absent from the public handler, so an
// internet-facing listener cannot be drained, churned, or profile-pinned by
// its clients, while AdminHandler serves all of it.
func TestAdminSplit(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	do := func(base, method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	adminOnly := []struct{ method, path string }{
		{http.MethodPost, "/v1/churn"},
		{http.MethodPost, "/v1/drain"},
		{http.MethodGet, "/debug/slow"},
		{http.MethodGet, "/debug/pprof/"},
	}
	for _, p := range adminOnly {
		if status := do(env.url, p.method, p.path); status != http.StatusNotFound {
			t.Errorf("public %s %s: status %d, want 404", p.method, p.path, status)
		}
	}
	if status := do(env.adminURL, http.MethodGet, "/debug/slow"); status != http.StatusOK {
		t.Errorf("admin /debug/slow: status %d", status)
	}
	if status := do(env.adminURL, http.MethodGet, "/debug/pprof/"); status != http.StatusOK {
		t.Errorf("admin /debug/pprof/: status %d", status)
	}
	if status := do(env.adminURL, http.MethodPost, "/v1/drain"); status != http.StatusAccepted {
		t.Errorf("admin /v1/drain: status %d, want 202", status)
	}
	if !env.s.draining.Load() {
		t.Error("admin drain did not flip the server into draining")
	}
}

// TestTenantLabelOverflowBounded pins the bounded-memory guarantee of the
// per-tenant HTTP counters: the registry interns instrument names forever,
// so past tenantGateCap unseen tenants must share the fixed tenant="other"
// set instead of minting four new registry entries per hostile name.
func TestTenantLabelOverflowBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: &stubBackend{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// New interns the fixed instruments (the shared overflow set, the spec
	// table's counters); tenant churn adds 4 counters per interned tenant
	// on top and nothing more.
	fixed := len(reg.CounterNames())
	const extra = 256
	for i := 0; i < tenantGateCap+extra; i++ {
		s.tenant(fmt.Sprintf("tenant-%d", i)).accepted.Add(1)
	}
	want := fixed + 4*tenantGateCap
	if got := len(reg.CounterNames()); got != want {
		t.Fatalf("registry holds %d counters after tenant churn, want %d", got, want)
	}
	if l := s.tenant("one-more-fresh-tenant"); l != s.overflow {
		t.Fatal("past-cap tenant did not get the shared overflow record")
	}
	c, ok := reg.LookupCounter("fleetd_http_accepted{tenant=other}")
	if !ok || c.Value() != extra {
		v := -1.0
		if ok {
			v = c.Value()
		}
		t.Fatalf("overflow accepted counter = %v, want %d", v, extra)
	}
}

// TestTenantNameLengthCap pins the decode-time bound on tenant names:
// they become metric label values and limiter keys, so a near-MiB name is
// rejected as a 400 before touching either.
func TestTenantNameLengthCap(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	app, err := json.Marshal(wire.AppSpecOf(workload.VideoProcessing()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"tenant": strings.Repeat("x", maxTenantLen+1),
		"app":    json.RawMessage(app),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDeploy(t, env.url, body)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
		t.Fatalf("oversized tenant: status %d body %s", resp.StatusCode, data)
	}
}

// TestRejectionsConsumeNothing pins admitN's check order: a tenant at its
// in-flight quota is rejected before the token bucket is touched (no token
// burnt, so recovery matches the Retry-After hint), and a rate rejection
// returns the in-flight slot it optimistically took.
func TestRejectionsConsumeNothing(t *testing.T) {
	now := time.Unix(1000, 0)

	l, g := newLimiter(1, 2, 1), &tenantGate{} // 1 token/s, burst 2, 1 in flight
	release, code, _ := l.admitN(g, now, 1, time.Second)
	if release == nil {
		t.Fatalf("first admit rejected with %s", code)
	}
	if rel, code, _ := l.admitN(g, now, 1, time.Second); rel != nil || code != codeQuotaExceeded {
		t.Fatalf("admit at quota: rejected=%v code=%q, want quota_exceeded", rel == nil, code)
	}
	release()
	// Same instant, one token left: it must still be there — the quota
	// rejection above must not have burnt it.
	if rel, code, _ := l.admitN(g, now, 1, time.Second); rel == nil {
		t.Fatalf("admit after release rejected with %s: quota rejection burnt a token", code)
	}

	l2, g2 := newLimiter(1, 1, 1), &tenantGate{} // burst 1: drain the bucket with one admit
	rel, code, _ := l2.admitN(g2, now, 1, time.Second)
	if rel == nil {
		t.Fatalf("first admit rejected with %s", code)
	}
	rel()
	if rel, code, _ := l2.admitN(g2, now, 1, time.Second); rel != nil || code != codeRateLimited {
		t.Fatalf("admit on empty bucket: rejected=%v code=%q, want rate_limited", rel == nil, code)
	}
	// After refill the tenant must get back in: a leaked in-flight slot from
	// the rate rejection would trip the quota instead.
	if rel, code, _ := l2.admitN(g2, now.Add(2*time.Second), 1, time.Second); rel == nil {
		t.Fatalf("admit after refill rejected with %s: rate rejection leaked an in-flight slot", code)
	}
}

// TestSubmitErrorMapping pins the admission error translation: a deadline
// already spent at admission is a 504 timeout, not a 400 client fault, and
// an unknown backend error is a 500 — mirroring the post-response switch.
func TestSubmitErrorMapping(t *testing.T) {
	stub := &stubBackend{submitErr: context.DeadlineExceeded, workers: 1}
	s, err := New(Config{Backend: stub, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postDeploy(t, ts.URL, deployBody(t, "map"))
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, data) != codeDeadline {
		t.Fatalf("expired-deadline submit: status %d body %s, want 504 %s", resp.StatusCode, data, codeDeadline)
	}

	stub.submitErr = fmt.Errorf("backend exploded")
	resp, data = postDeploy(t, ts.URL, deployBody(t, "map"))
	if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != codeScheduleFailed {
		t.Fatalf("unknown submit error: status %d body %s, want 500 %s", resp.StatusCode, data, codeScheduleFailed)
	}
}

// gateSched records every app it is asked to place and parks on the one
// named "gate" until released.
type gateSched struct {
	mu      sync.Mutex
	seen    []string
	started chan struct{}
	release chan struct{}
}

func (s *gateSched) Name() string { return "gate" }
func (s *gateSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	s.mu.Lock()
	s.seen = append(s.seen, model.App.Name)
	s.mu.Unlock()
	if model.App.Name == "gate" {
		close(s.started)
		<-s.release
	}
	p := make(sim.Placement, model.NumMicroservices())
	for ms := range int32(model.NumMicroservices()) {
		p[model.MSName(ms)] = model.Assignment(model.Options(ms)[0])
	}
	return p, nil
}

// TestDeadlineWhileWaiting pins the deadline of a deploy that has to wait
// for a worker, end to end: with the only worker held, a deploy asking for
// 20 ms is answered 504 deadline_exceeded once those 20 ms are up — while
// the worker is still held, not when it frees — its app never reaches the
// scheduler, and the fleet counts one expired deadline.
func TestDeadlineWhileWaiting(t *testing.T) {
	gate := &gateSched{started: make(chan struct{}), release: make(chan struct{})}
	env := newEnv(t, fleet.Config{Workers: 1, CacheSize: -1,
		NewScheduler: func() sched.Scheduler { return gate }}, Config{})
	held := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) { s.Name = "gate" })
	ch, err := env.f.Submit(fleet.Request{App: held})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started

	app, err := json.Marshal(wire.AppSpecOf(workload.VideoProcessing()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"tenant": "late", "deadline_ms": 20, "app": json.RawMessage(app)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, data := postDeploy(t, env.url, body)
	elapsed := time.Since(start)
	close(gate.release)
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, data) != codeDeadline {
		t.Fatalf("deploy behind a held worker: status %d body %s, want 504 %s", resp.StatusCode, data, codeDeadline)
	}
	if elapsed < 20*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("answered after %s, want the 20 ms deadline plus slack", elapsed)
	}
	if r := <-ch; r.Err != nil {
		t.Fatal(r.Err)
	}
	gate.mu.Lock()
	seen := slices.Clone(gate.seen)
	gate.mu.Unlock()
	if len(seen) != 1 || seen[0] != "gate" {
		t.Errorf("scheduler saw %v, want only the held app", seen)
	}
	if got := env.f.Stats().Churn.DeadlineExceeded; got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
}

// TestHangUpsConserveAccepted pins the door's count of admitted deploys
// against the fleet's, with a real fleet whose one worker is held: single
// deploys whose clients hang up while they wait for a worker are answered
// 400 invalid_request, and a batch's items carry that code in its 200; each
// counts as accepted, since the fleet admitted it and fails it. A deploy
// that waits and is then served, and one refused queue_full, ride along.
// After it all, the door's accepted sum equals the fleet's submitted, which
// equals completed plus failed.
func TestHangUpsConserveAccepted(t *testing.T) {
	const singles, batches = 3, 2
	gate := &gateSched{started: make(chan struct{}), release: make(chan struct{})}
	env := newEnv(t, fleet.Config{Workers: 1, QueueDepth: singles + batches + 1, CacheSize: -1,
		NewScheduler: func() sched.Scheduler { return gate }}, Config{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release) // before the fleet's Close, which waits for the held deploy
	h := env.s.Handler()
	post := func(ctx context.Context, path string, body []byte) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
			done <- rec
		}()
		return done
	}
	held := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) { s.Name = "gate" })
	heldDone := post(context.Background(), deployURL,
		[]byte(`{"tenant":"held","app":`+string(appJSON(t, held))+`}`))
	<-gate.started

	video := appJSON(t, workload.VideoProcessing())
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	var gone []<-chan *httptest.ResponseRecorder
	for range singles {
		gone = append(gone, post(ctx, deployURL, []byte(`{"tenant":"gone","app":`+string(video)+`}`)))
	}
	for range batches {
		gone = append(gone, post(ctx, batchURL, batchBody(t, "gone-batch", video, video)))
	}
	waitDone := post(context.Background(), deployURL, []byte(`{"tenant":"waits","app":`+string(video)+`}`))
	queued := singles + 2*batches + 1
	deadline := time.Now().Add(5 * time.Second)
	for env.f.QueueLen() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued behind the held worker", env.f.QueueLen(), queued)
		}
		time.Sleep(time.Millisecond)
	}

	if rec := <-post(context.Background(), deployURL, deployBody(t, "full")); rec.Code != http.StatusTooManyRequests ||
		errCode(t, rec.Body.Bytes()) != codeQueueFull {
		t.Fatalf("deploy past every waiter slot: status %d body %s, want 429 %s", rec.Code, rec.Body, codeQueueFull)
	}
	hangUp()
	for i, done := range gone[:singles] {
		if rec := <-done; rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()) != codeInvalidRequest {
			t.Errorf("hung-up deploy %d: status %d body %s, want 400 %s", i, rec.Code, rec.Body, codeInvalidRequest)
		}
	}
	// An admitted batch is answered 200 whatever its items' fates; every
	// item of a hung-up one carries invalid_request.
	for i, done := range gone[singles:] {
		rec := <-done
		var out DeployBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || len(out.Results) != 2 {
			t.Fatalf("hung-up batch %d: status %d body %s, want 200 with 2 results", i, rec.Code, rec.Body)
		}
		for _, res := range out.Results {
			if res.Error == nil || res.Error.Code != codeInvalidRequest {
				t.Errorf("hung-up batch %d: item %+v, want error %s", i, res, codeInvalidRequest)
			}
		}
	}
	release()
	for name, done := range map[string]<-chan *httptest.ResponseRecorder{"held": heldDone, "waiting": waitDone} {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Errorf("%s deploy: status %d body %s, want 200", name, rec.Code, rec.Body)
		}
	}

	accepted := 0.0
	for _, name := range env.s.cfg.Registry.CounterNames() {
		if strings.HasPrefix(name, "fleetd_http_accepted{") {
			c, _ := env.s.cfg.Registry.LookupCounter(name)
			accepted += c.Value()
		}
	}
	st := env.f.Stats()
	if int64(accepted) != st.Submitted || st.Submitted != st.Completed+st.Failed {
		t.Fatalf("door accepted %v, fleet submitted %d, completed %d + failed %d",
			accepted, st.Submitted, st.Completed, st.Failed)
	}
	if want := int64(queued + 1); st.Submitted != want || st.Failed != int64(queued-1) {
		t.Fatalf("fleet submitted %d and failed %d, want %d and %d", st.Submitted, st.Failed, want, queued-1)
	}
}

// deadlineBackend records the deadline of every request it serves.
type deadlineBackend struct {
	Backend
	mu   sync.Mutex
	seen []time.Duration
}

func (b *deadlineBackend) DoBatch(ctx context.Context, reqs []fleet.Request, each func(*fleet.Response)) error {
	b.mu.Lock()
	for _, req := range reqs {
		b.seen = append(b.seen, req.Deadline)
	}
	b.mu.Unlock()
	return b.Backend.DoBatch(ctx, reqs, each)
}

// TestHugeDeadlineClampsToMax pins the deadline clamp against overflow: a
// deadline_ms whose nanoseconds wrap int64 (18446744073710 ms would become
// 448 µs) gets the MaxDeadline budget and is served, not answered 504 once
// a 2 ms schedule has spent the wrapped budget.
func TestHugeDeadlineClampsToMax(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 1, NewScheduler: func() sched.Scheduler {
		return &slowSched{inner: sched.NewDEEP(), delay: 2 * time.Millisecond}
	}})
	t.Cleanup(f.Close)
	backend := &deadlineBackend{Backend: f}
	s, err := New(Config{Backend: backend, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	app := appJSON(t, workload.VideoProcessing())
	body := []byte(`{"tenant":"far","deadline_ms":18446744073710,"app":` + string(app) + `}`)
	resp, data := postDeploy(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy with a huge deadline_ms: status %d body %s, want 200", resp.StatusCode, data)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if want := []time.Duration{s.cfg.MaxDeadline}; !reflect.DeepEqual(backend.seen, want) {
		t.Fatalf("fleet saw deadlines %v, want %v", backend.seen, want)
	}
}

// failSched fails any app named "boom" and delegates the rest — a per-item
// scheduler fault inside an otherwise healthy batch; the error must surface
// as that item's structured result.
type failSched struct{ inner sched.Scheduler }

func (s *failSched) Name() string { return "fail" }
func (s *failSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	if model.App.Name == "boom" {
		return nil, fmt.Errorf("synthetic scheduler failure")
	}
	return s.inner.ScheduleModel(model)
}

// rebuilt builds app again with edit applied to its spec: a built app is
// read-only.
func rebuilt(t testing.TB, app *dag.App, edit func(*wire.AppSpec)) *dag.App {
	t.Helper()
	spec := wire.AppSpecOf(app)
	edit(spec)
	out, err := spec.App()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func batchBody(t testing.TB, tenant string, apps ...[]byte) []byte {
	t.Helper()
	items := make([]map[string]any, len(apps))
	for i, app := range apps {
		items[i] = map[string]any{"seed": int64(i), "app": json.RawMessage(app)}
	}
	body, err := json.Marshal(map[string]any{"tenant": tenant, "items": items})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBatch(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/deploy:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func appJSON(t testing.TB, app *dag.App) []byte {
	t.Helper()
	data, err := json.Marshal(wire.AppSpecOf(app))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeployBatchHappyPath pins the batch serving contract end to end: one
// envelope, every item answered in submission order with its own placement
// and simulation results, and the accepted counter bumped once per item.
func TestDeployBatchHappyPath(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 2}, Config{})
	video := appJSON(t, workload.VideoProcessing())
	resp, data := postBatch(t, env.url, batchBody(t, "acme", video, video, video))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out DeployBatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "acme" || len(out.Results) != 3 {
		t.Fatalf("implausible batch response: %+v", out)
	}
	for i, res := range out.Results {
		if res.Index != i {
			t.Fatalf("results[%d] carries index %d, want %d", i, res.Index, i)
		}
		if res.Error != nil {
			t.Fatalf("results[%d] failed: %+v", i, res.Error)
		}
		if res.Deploy == nil || len(res.Deploy.Placement) == 0 || res.Deploy.MakespanS <= 0 {
			t.Fatalf("results[%d] implausible deploy: %+v", i, res.Deploy)
		}
	}
	if c, ok := env.s.cfg.Registry.LookupCounter("fleetd_http_accepted{tenant=acme}"); !ok || c.Value() != 3 {
		t.Errorf("accepted counter = %v, want 3 (one per batch item)", c)
	}
}

// TestDeployBatchPerItemError pins per-item isolation: a scheduler fault on
// one item yields a structured error in that slot while its siblings deploy,
// and the 200 status still reports the batch as admitted.
func TestDeployBatchPerItemError(t *testing.T) {
	env := newEnv(t, fleet.Config{
		Workers:      1,
		NewScheduler: func() sched.Scheduler { return &failSched{inner: sched.NewDEEP()} },
	}, Config{})
	boom := rebuilt(t, workload.VideoProcessing(), func(s *wire.AppSpec) { s.Name = "boom" })
	resp, data := postBatch(t, env.url,
		batchBody(t, "acme", appJSON(t, workload.VideoProcessing()), appJSON(t, boom), appJSON(t, workload.VideoProcessing())))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out DeployBatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Index != i {
			t.Fatalf("results[%d] carries index %d, want %d", i, res.Index, i)
		}
	}
	if out.Results[0].Error != nil || out.Results[2].Error != nil {
		t.Fatalf("healthy items failed: %+v / %+v", out.Results[0].Error, out.Results[2].Error)
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != codeScheduleFailed {
		t.Fatalf("boom item: %+v, want error code %s", out.Results[1], codeScheduleFailed)
	}
	if out.Results[1].Deploy != nil {
		t.Fatalf("boom item carries a deploy body: %+v", out.Results[1].Deploy)
	}
}

// TestInfeasibleAppIs422 pins the answer to an app no device can run: its
// spec, not the server, is at fault, so a single deploy answers 422
// infeasible, and in a batch that item carries the code while its
// neighbours are placed.
func TestInfeasibleAppIs422(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 2}, Config{})
	spec := wire.AppSpecOf(workload.VideoProcessing())
	for i := range spec.Microservices {
		if spec.Microservices[i].Name == "video/transcode" {
			spec.Microservices[i].MemoryBytes = 1 << 50
		}
	}
	huge, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"tenant": "acme", "app": json.RawMessage(huge)})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDeploy(t, env.url, body)
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, data) != codeInfeasible {
		t.Fatalf("single deploy: status %d body %s, want 422 %s", resp.StatusCode, data, codeInfeasible)
	}

	resp, data = postBatch(t, env.url, batchBody(t, "acme",
		appJSON(t, workload.VideoProcessing()), huge, appJSON(t, workload.TextProcessing())))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out DeployBatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for _, i := range []int{0, 2} {
		if res := out.Results[i]; res.Error != nil || res.Deploy == nil || len(res.Deploy.Placement) == 0 {
			t.Fatalf("results[%d] not placed: %+v", i, res)
		}
	}
	if res := out.Results[1]; res.Error == nil || res.Error.Code != codeInfeasible || res.Deploy != nil {
		t.Fatalf("infeasible item: %+v, want error code %s", res, codeInfeasible)
	}
}

// TestDeployBatchRateLimit pins the N-token charge: with burst 1, a 2-item
// batch can never clear the bucket (deterministically, not racily — the
// bucket holds at most one token), while a 1-item batch through the same
// gate succeeds.
func TestDeployBatchRateLimit(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{RatePerSec: 1000, Burst: 1})
	video := appJSON(t, workload.VideoProcessing())

	resp, data := postBatch(t, env.url, batchBody(t, "capped", video, video))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, data) != codeRateLimited {
		t.Fatalf("2-item batch vs burst 1: status %d body %s, want 429 %s", resp.StatusCode, data, codeRateLimited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited batch without Retry-After")
	}

	if resp, data = postBatch(t, env.url, batchBody(t, "capped", video)); resp.StatusCode != http.StatusOK {
		t.Fatalf("1-item batch: status %d body %s", resp.StatusCode, data)
	}
}

// TestDeployBatchValidation pins the envelope checks: empty batches,
// oversized batches, and malformed items reject the whole batch before any
// limiter charge.
func TestDeployBatchValidation(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{RatePerSec: 1000, Burst: 1})

	body, _ := json.Marshal(map[string]any{"tenant": "val", "items": []any{}})
	if resp, data := postBatch(t, env.url, body); resp.StatusCode != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
		t.Fatalf("empty batch: status %d body %s", resp.StatusCode, data)
	}

	video := appJSON(t, workload.VideoProcessing())
	apps := make([][]byte, maxBatchItems+1)
	for i := range apps {
		apps[i] = video
	}
	if resp, data := postBatch(t, env.url, batchBody(t, "val", apps...)); resp.StatusCode != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
		t.Fatalf("oversized batch: status %d body %s", resp.StatusCode, data)
	}

	if resp, data := postBatch(t, env.url, batchBody(t, "val", []byte(`{"nope":true}`))); resp.StatusCode != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
		t.Fatalf("malformed item: status %d body %s", resp.StatusCode, data)
	}

	// None of the rejections above may have burned the tenant's one token.
	if resp, data := postBatch(t, env.url, batchBody(t, "val", video)); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after rejections: status %d body %s", resp.StatusCode, data)
	}
}

// TestDeployBatchBackendErrors pins the whole-batch error mapping through
// the backend seam: queue-full and draining reject the envelope with the
// same codes and Retry-After derivation as single deploys.
func TestDeployBatchBackendErrors(t *testing.T) {
	stub := &stubBackend{submitErr: fleet.ErrQueueFull, queueLen: 8, workers: 2}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: stub, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	video := appJSON(t, workload.VideoProcessing())

	resp, data := postBatch(t, ts.URL, batchBody(t, "stub", video, video))
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, data) != codeQueueFull {
		t.Fatalf("queue-full batch: status %d body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After")
	}

	stub.submitErr = fleet.ErrClosed
	if resp, data = postBatch(t, ts.URL, batchBody(t, "stub", video)); resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != codeDraining {
		t.Fatalf("closed batch: status %d body %s", resp.StatusCode, data)
	}

	stub.submitErr = nil
	resp, data = postBatch(t, ts.URL, batchBody(t, "stub", video, video))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stub batch: status %d body %s", resp.StatusCode, data)
	}
	var out DeployBatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Index != 0 || out.Results[1].Index != 1 {
		t.Fatalf("stub batch results: %+v", out.Results)
	}
}

// TestEncodeFailureIsStructured500: a makespan or energy that encoding/json
// refuses (NaN, ±Inf) is answered on both deploy endpoints with a 500 that
// keeps the error contract — JSON content type, the structured envelope, a
// code from the declared table.
func TestEncodeFailureIsStructured500(t *testing.T) {
	video := appJSON(t, workload.VideoProcessing())
	for name, result := range map[string]*sim.Result{
		"NaN makespan": {Makespan: math.NaN(), TotalEnergy: 1},
		"+Inf energy":  {Makespan: 1, TotalEnergy: units.Joules(math.Inf(1))},
		"-Inf energy":  {Makespan: 1, TotalEnergy: units.Joules(math.Inf(-1))},
	} {
		s, err := New(Config{Backend: &stubBackend{workers: 1, result: result}, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		for path, body := range map[string][]byte{
			deployURL: deployBody(t, "acme"),
			batchURL:  batchBody(t, "acme", video, video),
		} {
			rec := serve(s.Handler(), path, body)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%s on %s: status %d, want 500", name, path, rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s on %s: Content-Type %q", name, path, ct)
			}
			want := `{"error":{"code":"internal","message":"encoding response"}}` + "\n"
			if got := rec.Body.String(); got != want {
				t.Errorf("%s on %s: body %q, want %q", name, path, got, want)
			}
		}
	}
}

// TestDeployAnswersAreFramed: deploy answers carry Content-Length, so a
// 16-item batch answer is one framed body, not a chunked stream.
func TestDeployAnswersAreFramed(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 2}, Config{})
	video := appJSON(t, workload.VideoProcessing())
	apps := make([][]byte, 16)
	for i := range apps {
		apps[i] = video
	}
	check := func(name string, resp *http.Response, data []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				name, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
	resp, data := postBatch(t, env.url, batchBody(t, "acme", apps...))
	check("16-item batch", resp, data)
	if len(data) < 4<<10 {
		t.Errorf("16-item batch answer is %d bytes: too small to have needed chunking", len(data))
	}
	resp, data = postDeploy(t, env.url, deployBody(t, "acme"))
	check("single deploy", resp, data)
}

// TestDeployAnswersMatchCore: through the front door, the makespan and
// energy of a deploy are what the library pipeline (core.System.Deploy, the
// one the paper's Fig. 3 runs) computes for the same app and cluster — on
// the first deploy and on every repeat, which hits the placement cache and
// runs on the same worker.
func TestDeployAnswersMatchCore(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	for _, app := range []*dag.App{workload.VideoProcessing(), workload.TextProcessing()} {
		dep, err := core.NewSystem(workload.Testbed()).Deploy(app)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"tenant": "acme", "app": json.RawMessage(appJSON(t, app))})
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			resp, data := postDeploy(t, env.url, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s deploy %d: status %d: %s", app.Name, call, resp.StatusCode, data)
			}
			var out DeployResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			if out.CacheHit != (call > 0) {
				t.Fatalf("%s deploy %d: cache_hit %v", app.Name, call, out.CacheHit)
			}
			if out.MakespanS != dep.Result.Makespan || out.EnergyJ != float64(dep.Result.TotalEnergy) {
				t.Errorf("%s deploy %d: answered %v s / %v J, core %v s / %v J", app.Name, call,
					out.MakespanS, out.EnergyJ, dep.Result.Makespan, float64(dep.Result.TotalEnergy))
			}
		}
	}
}

// TestEncodePathCounters pins what fleetd_encode_stored_total and
// fleetd_encode_fresh_total count: deploy answers, single or batch items,
// by whether their tail was copied from the placement entry's stored bytes.
// A miss and a first hit encode theirs (the first hit stores it), a later
// hit copies it, and an error item counts in neither. A stored tail is the
// one the first hit encoded.
func TestEncodePathCounters(t *testing.T) {
	env := newEnv(t, fleet.Config{
		Workers:      1,
		NewScheduler: func() sched.Scheduler { return &failSched{inner: sched.NewDEEP()} },
	}, Config{})
	counts := func(name string, stored, fresh int) {
		t.Helper()
		if gotStored, gotFresh := int(env.s.encodeStored.Value()), int(env.s.encodeFresh.Value()); gotStored != stored || gotFresh != fresh {
			t.Fatalf("%s: stored=%d fresh=%d, want %d and %d", name, gotStored, gotFresh, stored, fresh)
		}
	}
	var tails []string
	for call, want := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 2}} {
		resp, data := postDeploy(t, env.url, deployBody(t, "acme"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deploy %d: status %d: %s", call, resp.StatusCode, data)
		}
		counts(fmt.Sprintf("deploy %d", call), want[0], want[1])
		tails = append(tails, string(data[bytes.Index(data, []byte(`,"placement":`)):]))
		if tails[call] != tails[0] {
			t.Fatalf("deploy %d tail %s, deploy 0 tail %s", call, tails[call], tails[0])
		}
	}
	boom := rebuilt(t, workload.VideoProcessing(), func(s *wire.AppSpec) { s.Name = "boom" })
	video := appJSON(t, workload.VideoProcessing())
	resp, data := postBatch(t, env.url,
		batchBody(t, "acme", video, appJSON(t, boom), appJSON(t, workload.TextProcessing()), video))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	counts("batch of two stored hits, an error and a miss", 4, 3)
}
