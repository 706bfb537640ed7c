package sched

import (
	"fmt"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestUncappedDEEPMatchesLegacy pins that MaxPairCells=0 (uncapped)
// reproduces the historical placements byte-for-byte on the whole
// equivalence corpus — the batch-priced, arena-backed game layer changed
// the mechanics, not the math.
func TestUncappedDEEPMatchesLegacy(t *testing.T) {
	for _, c := range equivalenceCorpus(t) {
		want, wantErr := legacyDEEP(t, c.app, c.cluster)
		got, gotErr := Schedule(NewDEEPUncapped(), c.app, c.cluster)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: legacy=%v uncapped=%v", c.name, wantErr, gotErr)
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

// pairCapCorpus generates seeded synthetic apps whose stages are at most
// pairs, on a scaled cluster big enough that a small cap forces the
// fallback.
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

// TestPairCapFallbackFeasibleAndBounded: with the cap forcing every pair
// stage onto best-response dynamics, placements must still validate against
// the cluster and land within a bounded simulated-energy ratio of the exact
// pair game's placements.
func TestPairCapFallbackFeasibleAndBounded(t *testing.T) {
	apps, cluster := pairCapCorpus(t)
	const cap = 32 // scaled4 pair games are 16×16 = 256 cells, so this trips
	capped := &DEEP{MaxPairCells: cap}
	exact := NewDEEPUncapped()

	tripped := false
	for _, app := range apps {
		model := costmodel.Compile(app, cluster)
		stages, err := model.Stages()
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range stages {
			if len(stage) == 2 &&
				len(model.Options(stage[0]))*len(model.Options(stage[1])) > cap {
				tripped = true
			}
		}

		got, err := capped.ScheduleModel(model)
		if err != nil {
			t.Fatalf("%s: capped: %v", app.Name, err)
		}
		if err := cluster.Validate(app, got); err != nil {
			t.Errorf("%s: capped placement infeasible: %v", app.Name, err)
			continue
		}
		want, err := exact.ScheduleModel(model)
		if err != nil {
			t.Fatalf("%s: uncapped: %v", app.Name, err)
		}

		gotRes, err := sim.Run(app, cluster, got, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating capped placement: %v", app.Name, err)
		}
		wantRes, err := sim.Run(app, cluster, want, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating exact placement: %v", app.Name, err)
		}
		ratio := float64(gotRes.TotalEnergy) / float64(wantRes.TotalEnergy)
		if ratio > 1.10 {
			t.Errorf("%s: capped fallback energy %.1fJ is %.3fx the exact game's %.1fJ",
				app.Name, float64(gotRes.TotalEnergy), ratio, float64(wantRes.TotalEnergy))
		}
	}
	if !tripped {
		t.Fatal("corpus never exceeded the pair-game cap; test is vacuous")
	}
}

// TestDefaultCapLeavesTestbedExact: on the paper's testbed the default cap
// never trips, so NewDEEP and NewDEEPUncapped agree exactly.
func TestDefaultCapLeavesTestbedExact(t *testing.T) {
	cluster := workload.Testbed()
	for _, app := range workload.Apps() {
		want, err := Schedule(NewDEEPUncapped(), app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Schedule(NewDEEP(), app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: %s differs under default cap", app.Name, name)
			}
		}
	}
}

// TestDefaultCapKeepsMidScaleExact walks the upper half of what the default
// cap keeps exact — seeded 16-microservice apps on ScaledTestbed(17…22), pair
// games of 68x68 to 88x88 options, 4 624 to 7 744 cells — and pins that it
// is exact there: NewDEEP places every microservice where NewDEEPUncapped
// does, no stage is counted under BestResponse, every pair placement carries
// the regret certificate, and a warm pass on the reused Pass allocates
// nothing.
func TestDefaultCapKeepsMidScaleExact(t *testing.T) {
	const lo = DefaultMaxPairCells / 2 // each case must play a game above this
	for scale := 17; scale <= 22; scale++ {
		cluster := workload.ScaledTestbed(scale)
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("synthetic16-%d/scaled%d", seed, 2*scale)
			app, err := workload.Generate(workload.DefaultGeneratorConfig(16, seed))
			if err != nil {
				t.Fatal(err)
			}
			model := costmodel.Compile(app, cluster)
			stages, err := model.Stages()
			if err != nil {
				t.Fatal(err)
			}

			want := NewPass(model)
			if err := NewDEEPUncapped().ScheduleInto(want); err != nil {
				t.Fatalf("%s: uncapped: %v", name, err)
			}
			s, p := NewDEEP(), NewPass(model)
			if err := s.ScheduleInto(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := p.Solver(); got != (SolverStats{Exact: len(stages)}) {
				t.Errorf("%s: solver stats %+v, want all %d stages exact", name, got, len(stages))
			}
			for _, stage := range stages {
				for _, ms := range stage {
					if p.placed[ms] != want.placed[ms] {
						t.Errorf("%s: stage %v: %s placed at %v under the default cap, %v uncapped", name, stage,
							model.MSName(ms), model.Assignment(p.placed[ms]), model.Assignment(want.placed[ms]))
					}
				}
			}

			inRange := 0
			walkPairStages(t, name, model, func(st *costmodel.State, m1, m2 int32) {
				if cells := certifyPairStage(t, name, model, st, m1, m2); cells > lo && cells <= DefaultMaxPairCells {
					inRange++
				}
			})
			if inRange == 0 {
				t.Errorf("%s: no pair game between %d and %d cells; the case is vacuous", name, lo, DefaultMaxPairCells)
			}

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
