package deep_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks for the core substrates. Each
// table/figure bench regenerates the corresponding experiment end to end;
// run with:
//
//	go test -bench=. -benchmem
//
// The printed rows/series (via -v or cmd/deepbench) mirror the paper's.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep"
	"deep/internal/appgraph"
	"deep/internal/bench"
	"deep/internal/costmodel"
	"deep/internal/energy"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/workload"
)

// BenchmarkTable1Catalog regenerates Table I (the image catalog).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) != 12 {
			b.Fatal("catalog incomplete")
		}
	}
}

// BenchmarkTable2Microservices regenerates Table II: every microservice
// benchmarked from both registries on both devices over jittered trials.
func BenchmarkTable2Microservices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("table incomplete")
		}
	}
}

// BenchmarkTable3Placement regenerates Table III: the DEEP Nash scheduler's
// deployment distribution on both case studies.
func BenchmarkTable3Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.MatchesPaper {
				b.Fatalf("%s deviates from the paper", r.App)
			}
		}
	}
}

// BenchmarkFig3aEnergyPerMicroservice regenerates Figure 3a.
func BenchmarkFig3aEnergyPerMicroservice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3a()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFig3bMethods regenerates Figure 3b: DEEP vs the two exclusive
// deployment methods on both applications.
func BenchmarkFig3bMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DeltaVsDEEP < 0 {
				b.Fatalf("%s/%s beat DEEP", r.App, r.Method)
			}
		}
	}
}

// Benchmark_AblationSchedulers compares every scheduling method.
func Benchmark_AblationSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.SchedulerComparison(1); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_AblationBandwidthSweep sweeps the regional registry bandwidth.
func Benchmark_AblationBandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.BandwidthSweep("text", []float64{0.5, 1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_AblationLayerCache measures warm-vs-cold deployments.
func Benchmark_AblationLayerCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.CacheAblation("video", 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_AblationContention measures the value of congestion-aware
// registry selection.
func Benchmark_AblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ContentionAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkSchedule times the DEEP scheduling hot path end to end: the
// paper's case-study applications on the calibrated testbed, plus a wider
// synthetic application (stages of up to four microservices exercise the
// best-response dynamics) on a 50-node scaled testbed. Each case runs both
// cold (Schedule: compile the cost model, then play the games) and warm
// (ScheduleModel on a precompiled model — the fleet workers' steady state,
// where compiled models are memoized per request fingerprint). Four more
// rows time the exact pair game at size, as warm passes on a reused Pass
// (the fleet's path, 0 allocs): scaled24 is the front-door benchmark's
// cold_unique shape — a 16-microservice generated app on 24 devices, whose
// pair stages are 48x48 = 2 304-cell games — scaled40 the same app on 40
// devices (80x80 = 6 400 cells) and scaled100 on 100 (200x200 = 40 000
// cells). scaled100/allties is the adversarial case: the same app and
// cluster with every power draw zeroed, so every price is 0, every pair cell
// ties, bestPure's row skip never fires and its sweep offers every cell.
// The CI bench smoke step runs this with -benchtime=10x; BENCH_sched.json
// records ns/op and allocs/op for the DEEP path.
func BenchmarkSchedule(b *testing.B) {
	cfg := workload.DefaultGeneratorConfig(12, 42)
	cfg.StageWidth = 4
	synth, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		app     *deep.App
		cluster *deep.Cluster
	}{
		{"deep/video/testbed", workload.VideoProcessing(), workload.Testbed()},
		{"deep/text/testbed", workload.TextProcessing(), workload.Testbed()},
		{"deep/synthetic12/scaled50", synth, workload.ScaledTestbed(25)},
	}
	for _, c := range cases {
		b.Run(c.name+"/cold", func(b *testing.B) {
			s := sched.NewDEEP()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Schedule(s, c.app, c.cluster); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/warm", func(b *testing.B) {
			s := sched.NewDEEP()
			model := costmodel.Compile(c.app, c.cluster)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleModel(model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	zeroPower := func(c *deep.Cluster) *deep.Cluster {
		for _, d := range c.Devices {
			d.Power = energy.LinearModel{}
		}
		return c
	}
	for _, c := range []struct {
		name    string
		cluster *deep.Cluster
	}{
		{"deep/synthetic16/scaled24/warm", workload.ScaledTestbed(12)},
		{"deep/synthetic16/scaled40/warm", workload.ScaledTestbed(20)},
		{"deep/synthetic16/scaled100/warm", workload.ScaledTestbed(50)},
		{"deep/synthetic16/scaled100/allties/warm", zeroPower(workload.ScaledTestbed(50))},
	} {
		b.Run(c.name, func(b *testing.B) {
			app, err := workload.Generate(workload.DefaultGeneratorConfig(16, 1))
			if err != nil {
				b.Fatal(err)
			}
			s := sched.NewDEEP()
			p := sched.NewPass(costmodel.Compile(app, c.cluster))
			if err := s.ScheduleInto(p); err != nil { // grow the arena
				b.Fatal(err)
			}
			if st := p.Solver(); st.BestResponse != 0 {
				b.Fatalf("%d stages left the exact path", st.BestResponse)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ScheduleInto(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorRun times one dataflow-processing simulation.
func BenchmarkSimulatorRun(b *testing.B) {
	cluster := workload.Testbed()
	app := workload.TextProcessing()
	p := workload.PaperPlacement("text")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(app, cluster, p, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun times the compiled simulator under the fleet request
// path: the paper's case-study applications on the calibrated testbed plus
// a wider synthetic app on a 50-node scaled testbed, each placed by DEEP.
// cold runs sim.Run end to end (compile the plan, fresh Exec, empty layer
// caches — the one-shot path); exec_cold runs a reusable Exec over a
// precompiled Plan from empty caches — what a fleet worker runs for every
// request; warm runs it with the cluster's warm caches. Both Exec rows
// allocate nothing (pinned by TestColdExecAllocationFree,
// TestWarmExecAllocationFree and the BENCH_sim.json baseline gated in CI).
func BenchmarkSimRun(b *testing.B) {
	cfg := workload.DefaultGeneratorConfig(12, 42)
	cfg.StageWidth = 4
	synth, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		app     *deep.App
		cluster *deep.Cluster
	}{
		{"sim/video/testbed", workload.VideoProcessing(), workload.Testbed()},
		{"sim/text/testbed", workload.TextProcessing(), workload.Testbed()},
		{"sim/synthetic12/scaled50", synth, workload.ScaledTestbed(25)},
	}
	for _, c := range cases {
		placement, err := sched.Schedule(sched.NewDEEP(), c.app, c.cluster)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(c.app, c.cluster, placement, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, warm := range []bool{false, true} {
			name := c.name + "/exec_cold"
			if warm {
				name = c.name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				plan := sim.CompilePlan(c.app, c.cluster)
				exec := sim.NewExec()
				opts := sim.Options{WarmCaches: warm}
				// Prime: size the Exec scratch (and fill the layer caches).
				if _, err := exec.Run(plan, placement, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(plan, placement, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompileShape times the cold (app, cluster) compile path, over a
// warm topo.ClusterTable. fused compiles one appgraph.AppTable and then
// emits the model and plan in a single walk (costmodel.CompileShapeOn), into
// fresh storage a library caller can share. fused_warmapp starts from a
// cached AppTable — a known app arriving on a new cluster. fused_reuse is
// fused into a warm appgraph.Scratch + costmodel.Scratch — what a fleet
// worker pays for every shape it compiles. BENCH_compile.json records ns/op
// and allocs/op; CI's allocguard gates the alloc counts.
func BenchmarkCompileShape(b *testing.B) {
	cfg := workload.DefaultGeneratorConfig(12, 42)
	cfg.StageWidth = 4
	synth, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The front-door benchmark's cold_unique shape: 16 microservices from
	// the default generator on 24 devices in two classes.
	cold, err := workload.Generate(workload.DefaultGeneratorConfig(16, 42))
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		app     *deep.App
		cluster *deep.Cluster
	}{
		{"compile/video/testbed", workload.VideoProcessing(), workload.Testbed()},
		{"compile/synthetic12/scaled50", synth, workload.ScaledTestbed(25)},
		{"compile/synthetic16/scaled24", cold, workload.ScaledTestbed(12)},
	}
	for _, c := range cases {
		b.Run(c.name+"/fused", func(b *testing.B) {
			table := sim.CompileClusterTable(c.cluster)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := appgraph.Compile(c.app)
				model, plan := costmodel.CompileShapeOn(at, c.cluster, table)
				if model == nil || plan == nil {
					b.Fatal("compile failed")
				}
			}
		})
		b.Run(c.name+"/fused_warmapp", func(b *testing.B) {
			table := sim.CompileClusterTable(c.cluster)
			at := appgraph.Compile(c.app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model, plan := costmodel.CompileShapeOn(at, c.cluster, table)
				if model == nil || plan == nil {
					b.Fatal("compile failed")
				}
			}
		})
		b.Run(c.name+"/fused_reuse", func(b *testing.B) {
			table := sim.CompileClusterTable(c.cluster)
			var apps appgraph.Scratch
			var shapes costmodel.Scratch
			shapes.CompileShapeOn(apps.Compile(c.app), c.cluster, table)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model, plan := shapes.CompileShapeOn(apps.Compile(c.app), c.cluster, table)
				if model == nil || plan == nil {
					b.Fatal("compile failed")
				}
			}
		})
	}
}

// BenchmarkCompileAppTable times appgraph.Compile on the paper's video case
// study: the one-time per-app-digest cost the fleet pays before every
// per-cluster fused compile becomes a cache hit. The app is rebuilt each
// iteration, so the row also pays the build: the dag.Builder's validation
// walks and digest, which the table compile reads.
func BenchmarkCompileAppTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app := workload.VideoProcessing()
		if at := appgraph.Compile(app); at.NumMicroservices() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFullPipeline times the complete Figure 1 pipeline (analysis,
// scheduling, simulation) for the text application.
func BenchmarkFullPipeline(b *testing.B) {
	cluster := deep.Testbed()
	for i := 0; i < b.N; i++ {
		sys := deep.NewSystem(cluster)
		if _, err := sys.Deploy(deep.TextProcessing()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterPatch measures incremental recompilation under churn on
// the scaled50 testbed (100 devices): compiling the post-crash cluster table
// from scratch versus patching the pre-crash table for a single-device
// removal. Patch recompiles only the crashed device's incident link rows
// (O(Δ·devices)) and copies everything else, so it must beat the full
// O(devices²) topology scan by a wide margin — the property that makes live
// churn affordable (BENCH_churn.json records the ratio).
func BenchmarkClusterPatch(b *testing.B) {
	cluster := workload.ScaledTestbed(50)
	base := sim.CompileClusterTable(cluster)
	regs := make([]topo.Registry, len(cluster.Registries))
	for i, r := range cluster.Registries {
		regs[i] = topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared}
	}
	// The post-crash view: the first device removed, everything else as-is.
	after := topo.View{
		Devices:    cluster.Devices[1:],
		Registries: regs,
		Topology:   cluster.Topology,
		SourceNode: cluster.SourceNode,
	}
	b.Run("full-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if topo.Compile(after) == nil {
				b.Fatal("nil table")
			}
		}
	})
	b.Run("patch-single-device", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if base.Patch(after, topo.Delta{}) == nil {
				b.Fatal("nil table")
			}
		}
	})
}

// BenchmarkFleetChurn measures the request path with churn machinery live,
// as the front door serves a single deploy: one-item DoBatch calls from as
// many callers as workers. The steady row is the warm cached path on a
// quiet cluster (it must stay at the BENCH_fleet.json warm-path baseline —
// churn awareness is one atomic load and one pointer compare); the churning
// row runs the same callers while a background goroutine crashes and
// recovers devices continuously, forcing epoch adoptions and re-schedules on
// each new epoch's key.
func BenchmarkFleetChurn(b *testing.B) {
	apps := []*deep.App{deep.VideoProcessing(), deep.TextProcessing()}
	for _, churning := range []bool{false, true} {
		name := "steady"
		if churning {
			name = "churning"
		}
		b.Run(name, func(b *testing.B) {
			const workers = 4
			f := deep.NewFleet(deep.FleetConfig{
				Workers:    workers,
				QueueDepth: 256,
				NewCluster: func() *deep.Cluster { return deep.ScaledTestbed(4) },
			})
			defer f.Close()
			// The caller that claims every churnEvery-th request applies the
			// next churn step before serving it, so a run applies b.N /
			// churnEvery steps at any core count: even steps fail a device,
			// odd ones recover it, cycling the four. Steps are applied in
			// order under mu, a later claim catching up on any not yet
			// applied.
			const churnEvery = 100
			devs := []string{"medium-01", "small-01", "medium-02", "small-02"}
			var mu sync.Mutex
			applied := 0
			churnTo := func(step int) error {
				mu.Lock()
				defer mu.Unlock()
				for ; applied <= step; applied++ {
					d := devs[applied/2%len(devs)]
					delta := deep.ChurnDelta{FailDevices: []string{d}}
					if applied%2 == 1 {
						delta = deep.ChurnDelta{RecoverDevices: []string{d}}
					}
					if _, _, err := f.ApplyChurn(delta); err != nil {
						return err
					}
				}
				return nil
			}
			var failed atomic.Int64
			count := func(resp *deep.FleetResponse) {
				if resp.Err != nil {
					failed.Add(1)
				}
			}
			ctx := context.Background()
			b.ResetTimer()
			driveConcurrently(b, workers, 1, func(_, i int) error {
				if churning && i%churnEvery == 0 {
					if err := churnTo(i / churnEvery); err != nil {
						return err
					}
				}
				return f.DoBatch(ctx, []deep.FleetRequest{{App: apps[i%len(apps)], Seed: int64(i)}}, count)
			})
			b.StopTimer()
			if n := failed.Load(); !churning && n > 0 {
				b.Fatalf("%d requests failed on a quiet cluster", n)
			} else if n*100 > int64(b.N) {
				// Bounded-retry exhaustion under saturation churn is legal
				// but must stay rare.
				b.Fatalf("%d of %d requests failed under churn", n, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			st := f.Stats().Churn
			b.ReportMetric(float64(st.EpochsApplied), "epochs")
			b.ReportMetric(float64(st.Reschedules), "reschedules")
		})
	}
}

// driveConcurrently serves b.N requests through the fleet from `callers`
// goroutines: caller c repeatedly claims the next step request numbers,
// from i on, and calls serve(c, i), until b.N are claimed. Any error fails
// the benchmark.
func driveConcurrently(b *testing.B, callers, step int, serve func(c, i int) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(int64(step))) - step
				if i >= b.N {
					return
				}
				if err := serve(c, i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFleetThroughput measures sustained deployment throughput through
// the fleet service across worker-pool sizes with the placement cache on
// and off. As many callers as there are workers each serve requests as
// one-item Fleet.DoBatch calls back to back — how the HTTP front door serves
// a single deploy — so every worker stays borrowed and none waits long. The req/s metric (and the
// BENCH_fleet.json baseline — see README) comes from b.N over wall time.
func BenchmarkFleetThroughput(b *testing.B) {
	apps := []*deep.App{deep.VideoProcessing(), deep.TextProcessing()}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cached := range []bool{false, true} {
			cacheSize := -1
			if cached {
				cacheSize = 1024
			}
			b.Run(fmt.Sprintf("workers=%d/cache=%v", workers, cached), func(b *testing.B) {
				f := deep.NewFleet(deep.FleetConfig{
					Workers:    workers,
					QueueDepth: 256,
					CacheSize:  cacheSize,
				})
				defer f.Close()
				ctx := context.Background()
				b.ResetTimer()
				driveConcurrently(b, workers, 1, func(_, i int) error {
					var failed error
					err := f.DoBatch(ctx, []deep.FleetRequest{{App: apps[i%len(apps)], Seed: int64(i)}}, func(resp *deep.FleetResponse) {
						failed = resp.Err
					})
					if err != nil {
						return err
					}
					return failed
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
}

// BenchmarkSubmitBatch measures the amortized admission path: requests enter
// 16 at a time through Fleet.DoBatch, which charges one admission, one
// time.Now(), and one borrowed worker per batch instead of per request, from
// as many callers as there are workers. b.N counts requests, so allocs/op
// here is allocs *per request* and is directly comparable to the
// single-request rows — the BENCH_fleet.json baseline pins it at the
// amortized level.
func BenchmarkSubmitBatch(b *testing.B) {
	const batchSize = 16
	apps := []*deep.App{deep.VideoProcessing(), deep.TextProcessing()}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batchSize), func(b *testing.B) {
			f := deep.NewFleet(deep.FleetConfig{
				Workers:    workers,
				QueueDepth: 64,
				CacheSize:  1024,
			})
			defer f.Close()
			ctx := context.Background()
			batches := make([][]deep.FleetRequest, workers)
			for c := range batches {
				batches[c] = make([]deep.FleetRequest, batchSize)
			}
			b.ResetTimer()
			driveConcurrently(b, workers, batchSize, func(c, first int) error {
				reqs := batches[c]
				n := min(batchSize, b.N-first)
				for i := 0; i < n; i++ {
					reqs[i] = deep.FleetRequest{App: apps[(first+i)%len(apps)], Seed: int64(first + i)}
				}
				var failed error
				err := f.DoBatch(ctx, reqs[:n], func(resp *deep.FleetResponse) {
					if resp.Err != nil && failed == nil {
						failed = resp.Err
					}
				})
				if err != nil {
					return err
				}
				return failed
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkStageRecord isolates the fleet's per-request instrumentation
// cost: noting a full stage trace into the six per-stage histogram batches,
// the end-to-end latency and the tenant's four histograms into theirs, the
// slow ring's fast path, and — what a placement-cache miss adds on top — the
// three solver-path counters; then publishing what was noted, one FlushAt
// per histogram, the slow ring's count and one add per tenant counter (a
// warm hit's completed and cache-hit counts). That is everything a fleet
// worker records for a request. trace notes one trace per flush (a single
// deploy); batch16 notes 16 and flushes once (a 16-item DoBatch), so its
// ns/op is per batch. The allocguard baselines pin both at zero allocations.
func BenchmarkStageRecord(b *testing.B) {
	reg := obs.NewRegistry()
	stages := obs.NewStageSet(reg, "fleet_stage_seconds")
	latency := reg.Histogram("fleet_request_latency_s")
	ring := obs.NewSlowRing(64, time.Hour, latency) // fixed bar nothing reaches
	solver := [...]*obs.Counter{
		reg.Counter("fleet_solver_path_total{path=exact}"),
		reg.Counter("fleet_solver_path_total{path=best_response}"),
		reg.Counter("fleet_solver_nonconverged_total"),
	}
	tenantCounters := [...]*obs.Counter{
		reg.Counter("fleet_completed{tenant=t}"),
		reg.Counter("fleet_cache_hits{tenant=t}"),
	}
	tenantHists := [...]*obs.Histogram{
		reg.Histogram("fleet_latency_s{tenant=t}"),
		reg.Histogram("fleet_queue_wait_s{tenant=t}"),
		reg.Histogram("fleet_makespan_s{tenant=t}"),
		reg.Histogram("fleet_energy_j{tenant=t}"),
	}
	var tr obs.StageTrace
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		tr.D[s] = time.Duration(s+1) * time.Microsecond
	}
	var (
		stageBatch  obs.StageBatch
		latBatch    obs.HistogramBatch
		tenantBatch [len(tenantHists)]obs.HistogramBatch
	)
	for _, c := range []struct {
		name  string
		notes int
	}{{"trace", 1}, {"batch16", 16}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shard := i & (obs.NumShards - 1)
				for range c.notes {
					stageBatch.Observe(&tr)
					latBatch.Observe(1e-4)
					for k := range tenantBatch {
						tenantBatch[k].Observe(1e-4)
					}
					ring.Observe("tenant", "app", 100*time.Microsecond, &tr, true, false)
					for _, s := range solver {
						s.AddAt(shard, 1)
					}
				}
				stages.FlushAt(shard, &stageBatch)
				latency.FlushAt(shard, &latBatch)
				ring.Count(c.notes)
				for k, h := range tenantHists {
					h.FlushAt(shard, &tenantBatch[k])
				}
				for _, tc := range tenantCounters {
					tc.AddAt(shard, float64(c.notes))
				}
			}
		})
	}
}
