package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestWarmRequestInstrumentationAllocationFree pins the warm request path's
// allocation budget with full instrumentation live: stage stamping, the
// per-stage histograms, the latency histogram, the slow ring, and the
// per-tenant aggregates together must not add a single allocation over the
// pre-observability baseline (14 allocs/request: response plumbing plus the
// caller-owned placement and result copies).
func TestWarmRequestInstrumentationAllocationFree(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, SlowThreshold: time.Hour})
	app := workload.VideoProcessing()
	ctx := context.Background()
	for i := 0; i < 10; i++ { // warm: shape compiled, placement memoized
		if resp, err := f.Do(ctx, Request{Tenant: "t", App: app}); err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		resp, err := f.Do(ctx, Request{Tenant: "t", App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	})
	// The uninstrumented warm path measures 14 allocs/request
	// (BENCH_fleet.json); a couple of slots of headroom absorb scheduler
	// noise without letting an instrumentation regression hide.
	if allocs > 16 {
		t.Fatalf("warm instrumented request = %v allocs, want <= 16", allocs)
	}
}

// TestTenantLabelOverflowBounded pins the bounded-memory guarantee of the
// per-tenant aggregates: the registry interns instrument names forever, so
// past tenantLabelCap unseen tenants must share the fixed tenant="other"
// instruments instead of minting seven new registry entries per name.
func TestTenantLabelOverflowBounded(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	reg := f.cfg.Metrics.Obs()
	baseCounters := len(reg.CounterNames())
	baseHists := len(reg.HistogramNames())
	const extra = 64
	for i := 0; i < tenantLabelCap+extra; i++ {
		f.labelsFor(fmt.Sprintf("tenant-%d", i)).completed.Add(1)
	}
	// 3 counters + 4 histograms per interned tenant; the overflow set was
	// already interned at construction, so nothing else may have grown.
	if got, want := len(reg.CounterNames()), baseCounters+3*tenantLabelCap; got != want {
		t.Fatalf("registry holds %d counters after tenant churn, want %d", got, want)
	}
	if got, want := len(reg.HistogramNames()), baseHists+4*tenantLabelCap; got != want {
		t.Fatalf("registry holds %d histograms after tenant churn, want %d", got, want)
	}
	if l := f.labelsFor("one-more-fresh-tenant"); l != f.overflowLabels {
		t.Fatal("past-cap tenant did not get the shared overflow labels")
	}
	c, ok := reg.LookupCounter("fleet_completed{tenant=other}")
	if !ok || c.Value() != extra {
		v := -1.0
		if ok {
			v = c.Value()
		}
		t.Fatalf("overflow completed counter = %v, want %d", v, extra)
	}
}

// TestStageTracingEndToEnd drives real requests and checks the stage
// breakdown everywhere it surfaces: the response trace, the registry's
// per-stage histograms, the Prometheus rendering, and the slow ring.
func TestStageTracingEndToEnd(t *testing.T) {
	// A 1ns fixed threshold captures every request in the slow ring.
	f := testFleet(t, Config{Workers: 2, SlowThreshold: time.Nanosecond})
	app := workload.TextProcessing()
	const n = 8
	for i := 0; i < n; i++ {
		resp, err := f.Do(context.Background(), Request{Tenant: "t", App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		if resp.Stages.D[obs.StageFingerprint] <= 0 || resp.Stages.D[obs.StageCacheLookup] <= 0 {
			t.Fatalf("stages not stamped: %+v", resp.Stages)
		}
		// The miss and the first hit simulate (the first hit stores the
		// answer in the placement entry); every later hit serves the stored
		// answer and neither compiles a shape nor simulates.
		if simulated, compiled := resp.Stages.D[obs.StageSim], resp.Stages.D[obs.StageCompile]; i < 2 && simulated <= 0 {
			t.Fatalf("request %d did not stamp its simulation: %+v", i, resp.Stages)
		} else if i >= 2 && (simulated != 0 || compiled != 0 || !resp.CacheHit) {
			t.Fatalf("request %d was not a memoized hit: cache_hit=%v %+v", i, resp.CacheHit, resp.Stages)
		}
		if resp.Stages.D[obs.StageQueue] != resp.QueueWait {
			t.Fatalf("queue stage %v != QueueWait %v", resp.Stages.D[obs.StageQueue], resp.QueueWait)
		}
		if i > 0 && resp.Stages.D[obs.StageSchedule] != 0 && !resp.CacheHit {
			t.Fatalf("request %d missed the placement cache", i)
		}
	}

	var snap obs.HistogramSnapshot
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		h, ok := f.Metrics().Obs().LookupHistogram("fleet_stage_seconds{stage=" + s.String() + "}")
		if !ok {
			t.Fatalf("stage %s histogram not interned", s)
		}
		h.Snapshot(&snap)
		if snap.Count != n {
			t.Fatalf("stage %s histogram count = %d, want %d", s, snap.Count, n)
		}
	}

	var b strings.Builder
	if err := f.Metrics().Obs().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`fleet_stage_seconds_count{stage="sim_exec"} 8`,
		`fleet_requests_completed 8`,
		`fleet_completed{tenant="t"} 8`,
		`fleet_request_latency_s_count 8`,
		`fleet_slow_requests_captured 8`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	slow := f.SlowRequests()
	if len(slow) != n {
		t.Fatalf("slow ring holds %d, want %d", len(slow), n)
	}
	for i, sr := range slow {
		if sr.Tenant != "t" || sr.App != app.Name || sr.Total <= 0 {
			t.Fatalf("slow entry malformed: %+v", sr)
		}
		if sr.Stages.D[obs.StageCacheLookup] <= 0 || (i < 2) != (sr.Stages.D[obs.StageSim] > 0) {
			t.Fatalf("slow entry %d lost its stage breakdown: %+v", i, sr)
		}
	}
}

// TestSolverPathCounters: every scheduling pass adds its stage games to the
// per-path counters, a placement-cache hit adds nothing, and a stage whose
// best-response dynamics cycle until the budget runs out is counted as
// non-converged instead of passing for a fixed point.
func TestSolverPathCounters(t *testing.T) {
	solver := func(f *Fleet) (exact, br, nonconverged float64) {
		return f.solverExact.Value(), f.solverBestResponse.Value(), f.solverNonconverged.Value()
	}
	do := func(f *Fleet, req Request) {
		t.Helper()
		if resp, err := f.Do(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	}

	// The text pipeline on the testbed: solo and pair stages, all exact.
	f := testFleet(t, Config{Workers: 1})
	app := workload.TextProcessing()
	stages := app.Stages()
	do(f, Request{Tenant: "t", App: app})
	if exact, br, bad := solver(f); exact != float64(len(stages)) || br != 0 || bad != 0 {
		t.Fatalf("after one cold text deploy: exact=%v best_response=%v nonconverged=%v, want %d exact games",
			exact, br, bad, len(stages))
	}
	do(f, Request{Tenant: "t", App: app}) // placement-cache hit: no games played
	if exact, _, _ := solver(f); exact != float64(len(stages)) {
		t.Fatalf("a placement-cache hit moved the exact counter to %v", exact)
	}

	// The cycling stage: one solo game, then three players who never settle.
	cyclingApp, _ := workload.CyclingStage()
	cf := testFleet(t, Config{Workers: 1, NewCluster: func() *sim.Cluster {
		_, cluster := workload.CyclingStage()
		return cluster
	}})
	do(cf, Request{Tenant: "t", App: cyclingApp})
	if exact, br, bad := solver(cf); exact != 1 || br != 1 || bad != 1 {
		t.Fatalf("after the cycling deploy: exact=%v best_response=%v nonconverged=%v, want 1/1/1",
			exact, br, bad)
	}
	var b strings.Builder
	if err := cf.Metrics().Obs().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleet_solver_path_total{path="exact"} 1`,
		`fleet_solver_path_total{path="best_response"} 1`,
		`fleet_solver_nonconverged_total 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, b.String())
		}
	}

	// Recording a pass's counts allocates nothing.
	st := sched.SolverStats{Exact: 3, BestResponse: 2, NonConverged: 1}
	if allocs := testing.AllocsPerRun(100, func() { f.recordSolver(0, st) }); allocs != 0 {
		t.Fatalf("recordSolver allocates %.1f objects per call", allocs)
	}
}
