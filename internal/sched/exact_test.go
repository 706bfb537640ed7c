package sched

import (
	"fmt"
	"strings"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestUncappedDEEPMatchesLegacy pins that NewDEEP reproduces the historical
// placements byte-for-byte on the whole equivalence corpus and on the
// pair-game corpus's island cases, whose unreachable upstreams price options
// at +Inf — the batch-priced, arena-backed game layer changed the
// mechanics, not the math.
func TestUncappedDEEPMatchesLegacy(t *testing.T) {
	cases := equivalenceCorpus(t)
	for _, c := range pairGameCorpus(t) {
		if strings.HasSuffix(c.name, "/island2") {
			cases = append(cases, c)
		}
	}
	for _, c := range cases {
		want, wantErr := legacyDEEP(t, c.app, c.cluster)
		got, gotErr := Schedule(NewDEEP(), c.app, c.cluster)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: legacy=%v deep=%v", c.name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: placement size %d, legacy %d", c.name, len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; g != w {
				t.Errorf("%s: %s placed on %s/%s, legacy %s/%s",
					c.name, name, g.Device, g.Registry, w.Device, w.Registry)
			}
		}
	}
}

// certifyAtScale schedules seeded 16-microservice apps on
// ScaledTestbed(lo…hi) with NewDEEP and pins that the pass is exact there:
// no stage is counted under BestResponse, every pair placement the pass
// makes is the one that carries the regret certificate, and a warm pass on
// the reused Pass allocates nothing. visit gets each case's name and the
// cell count of its largest pair game.
func certifyAtScale(t *testing.T, lo, hi int, visit func(name string, largest int)) {
	t.Helper()
	for scale := lo; scale <= hi; scale++ {
		cluster := workload.ScaledTestbed(scale)
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("synthetic16-%d/scaled%d", seed, 2*scale)
			app, err := workload.Generate(workload.DefaultGeneratorConfig(16, seed))
			if err != nil {
				t.Fatal(err)
			}
			model := costmodel.Compile(app, cluster)
			stages := model.Stages()

			s, p := NewDEEP(), NewPass(model)
			if err := s.ScheduleInto(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := p.Solver(); got != (SolverStats{Exact: len(stages)}) {
				t.Errorf("%s: solver stats %+v, want all %d stages exact", name, got, len(stages))
			}

			largest := 0
			walkPairStages(t, name, model, func(st *costmodel.State, m1, m2 int32) {
				largest = max(largest, certifyPairStage(t, name, model, st, m1, m2))
				o1, o2, err := schedulePair(model, st, m1, m2, model.Options(m1), model.Options(m2))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if p.placed[m1] != o1 || p.placed[m2] != o2 {
					t.Errorf("%s: stage (%s, %s) placed at (%v, %v), certified (%v, %v)", name,
						model.MSName(m1), model.MSName(m2), model.Assignment(p.placed[m1]),
						model.Assignment(p.placed[m2]), model.Assignment(o1), model.Assignment(o2))
				}
			})
			visit(name, largest)

			if allocs := testing.AllocsPerRun(10, func() {
				if err := s.ScheduleInto(p); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s: warm pass allocates %.1f objects per run", name, allocs)
			}
		}
	}
}

// TestDefaultCapKeepsMidScaleExact walks the upper half of what the former
// default pair-game cap (8 192 cells) kept exact — ScaledTestbed(17…22),
// pair games of 68x68 to 88x88 options, 4 624 to 7 744 cells — and pins
// that NewDEEP is still exact and certified there.
func TestDefaultCapKeepsMidScaleExact(t *testing.T) {
	certifyAtScale(t, 17, 22, func(name string, largest int) {
		if largest <= 4096 || largest > 8192 {
			t.Errorf("%s: largest pair game has %d cells, want one between 4096 and 8192", name, largest)
		}
	})
}

// TestEveryPairStageCertifiedAtScale pins that there is one DEEP and it is
// exact at any size: above the former cap, ScaledTestbed(23…50), pair games
// of 92x92 up to 200x200 options (8 464 to 40 000 cells) are solved and
// certified like the small ones.
func TestEveryPairStageCertifiedAtScale(t *testing.T) {
	overall := 0
	certifyAtScale(t, 23, 50, func(name string, largest int) {
		if largest <= 8192 {
			t.Errorf("%s: largest pair game has %d cells, want one above 8192", name, largest)
		}
		overall = max(overall, largest)
	})
	if want := 200 * 200; overall != want {
		t.Errorf("largest certified pair game has %d cells, want %d", overall, want)
	}
}

// TestDefaultCapLeavesTestbedExact: on the paper's testbed NewDEEP solves
// every solo and pair stage of the case-study apps exactly, sends only the
// stages of three or more to the dynamics, and places every microservice
// where the legacy scheduler does.
func TestDefaultCapLeavesTestbedExact(t *testing.T) {
	cluster := workload.Testbed()
	for _, app := range workload.Apps() {
		model := costmodel.Compile(app, cluster)
		stages := model.Stages()
		var want SolverStats
		for _, stage := range stages {
			if len(stage) <= 2 {
				want.Exact++
			} else {
				want.BestResponse++
			}
		}
		p := NewPass(model)
		if err := NewDEEP().ScheduleInto(p); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if got := p.Solver(); got.Exact != want.Exact || got.BestResponse != want.BestResponse {
			t.Errorf("%s: solver stats %+v, want %d exact and %d best-response stages",
				app.Name, got, want.Exact, want.BestResponse)
		}
		legacy, err := legacyDEEP(t, app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Placement()
		for name, w := range legacy {
			if got[name] != w {
				t.Errorf("%s: %s placed at %v, legacy %v", app.Name, name, got[name], w)
			}
		}
	}
}

// pairCapCorpus generates seeded synthetic apps whose stages are at most
// pairs, on a scaled cluster with 16 options a side per pair game.
func pairCapCorpus(t *testing.T) ([]*dag.App, *sim.Cluster) {
	t.Helper()
	var apps []*dag.App
	for _, size := range []int{6, 9, 13} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.DefaultGeneratorConfig(size, seed)
			cfg.StageWidth = 2 // force solo and pair stages only
			app, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("generate size=%d seed=%d: %v", size, seed, err)
			}
			apps = append(apps, app)
		}
	}
	return apps, workload.ScaledTestbed(4)
}

// dynamicsPlacement schedules model like DEEP but hands every stage of two
// or more, pairs included, to best-response dynamics — what the removed
// pair-game cap fell back to, and what wide stages still get.
func dynamicsPlacement(t *testing.T, model *costmodel.Model) sim.Placement {
	t.Helper()
	stages := model.Stages()
	st := model.NewState()
	placement := make(sim.Placement, model.NumMicroservices())
	for _, stage := range stages {
		assigned := make([]costmodel.Option, len(stage))
		if len(stage) == 1 {
			var err error
			if assigned[0], err = scheduleSolo(model, st, stage[0], model.Options(stage[0])); err != nil {
				t.Fatal(err)
			}
		} else {
			opts := make([][]costmodel.Option, len(stage))
			for k, ms := range stage {
				opts[k] = model.Options(ms)
				assigned[k] = opts[k][0]
			}
			bestResponse(st, stage, opts, assigned)
		}
		for k, ms := range stage {
			st.Commit(ms, assigned[k])
			placement[model.MSName(ms)] = model.Assignment(assigned[k])
		}
	}
	return placement
}

// TestPairCapFallbackFeasibleAndBounded pins the quality of best-response
// dynamics against the exact pair game: on a pair-only corpus NewDEEP plays
// every pair stage exactly, and the dynamics run on the same pair stages
// still give placements that validate against the cluster and land within a
// bounded simulated-energy ratio of the exact game's.
func TestPairCapFallbackFeasibleAndBounded(t *testing.T) {
	apps, cluster := pairCapCorpus(t)
	pairs := 0
	for _, app := range apps {
		model := costmodel.Compile(app, cluster)
		stages := model.Stages()
		for _, stage := range stages {
			if len(stage) == 2 {
				pairs++
			}
		}

		p := NewPass(model)
		if err := NewDEEP().ScheduleInto(p); err != nil {
			t.Fatalf("%s: exact: %v", app.Name, err)
		}
		if got := p.Solver(); got != (SolverStats{Exact: len(stages)}) {
			t.Errorf("%s: solver stats %+v, want all %d stages exact", app.Name, got, len(stages))
		}
		want := p.Placement()

		got := dynamicsPlacement(t, model)
		if err := deployable(app, cluster, got); err != nil {
			t.Errorf("%s: dynamics placement infeasible: %v", app.Name, err)
			continue
		}

		gotRes, err := sim.Run(app, cluster, got, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating dynamics placement: %v", app.Name, err)
		}
		wantRes, err := sim.Run(app, cluster, want, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating exact placement: %v", app.Name, err)
		}
		ratio := float64(gotRes.TotalEnergy) / float64(wantRes.TotalEnergy)
		if ratio > 1.10 {
			t.Errorf("%s: dynamics energy %.1fJ is %.3fx the exact game's %.1fJ",
				app.Name, float64(gotRes.TotalEnergy), ratio, float64(wantRes.TotalEnergy))
		}
	}
	if pairs == 0 {
		t.Fatal("corpus has no pair stage; test is vacuous")
	}
}

// TestWarmPassAllocationFree extends the costmodel steady-state guarantee
// to a full DEEP warm pass — solo games, pair games, and best-response
// dynamics included: scheduling the case-study apps (and a wide synthetic
// one) on a reused Pass allocates nothing.
func TestWarmPassAllocationFree(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig(12, 42)
	cfg.StageWidth = 4
	synth, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		app     *dag.App
		cluster *sim.Cluster
	}{
		{"video/testbed", workload.VideoProcessing(), workload.Testbed()},
		{"text/testbed", workload.TextProcessing(), workload.Testbed()},
		{"synthetic12/scaled4", synth, workload.ScaledTestbed(4)},
	}
	for _, c := range cases {
		s := NewDEEP()
		model := costmodel.Compile(c.app, c.cluster)
		p := NewPass(model)
		if err := s.ScheduleInto(p); err != nil { // warm up arena and scratch
			t.Fatalf("%s: %v", c.name, err)
		}
		want := p.Placement()
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.ScheduleInto(p); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm pass allocates %.1f objects per run", c.name, allocs)
		}
		for name, w := range want {
			if got := p.Placement()[name]; got != w {
				t.Errorf("%s: repeated pass moved %s", c.name, name)
			}
		}
	}
}
