package sched

import (
	"testing"

	"deep/internal/costmodel"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestDominanceWindowMatchesExactPerStage walks the pair-cap corpus stage by
// stage (committing the exact scheduler's choices so both paths see the same
// upstream contention) and checks the IESDS contract at every over-cap pair
// stage: whenever schedulePairReduced reports solved, its assignment must be
// exactly the full game's — dominance elimination never removes a Nash
// equilibrium and the compaction preserves the welfare-max scan order.
func TestDominanceWindowMatchesExactPerStage(t *testing.T) {
	apps, cluster := pairCapCorpus(t)
	const cap = 32 // scaled4 pair games are 16x16 = 256 cells, so this trips
	solved, fellBack := 0, 0
	for _, app := range apps {
		model := costmodel.Compile(app, cluster)
		stages, err := model.Stages()
		if err != nil {
			t.Fatal(err)
		}
		st := model.NewState()
		st.Reset()
		for _, stage := range stages {
			assigned := make([]costmodel.Option, len(stage))
			opts := make([][]costmodel.Option, len(stage))
			for k, ms := range stage {
				opts[k] = model.Options(ms)
			}
			switch {
			case len(stage) == 1:
				if assigned[0], err = scheduleSolo(model, st, stage[0]); err != nil {
					t.Fatalf("%s: solo: %v", app.Name, err)
				}
			case len(stage) == 2:
				if len(opts[0])*len(opts[1]) > cap {
					r1, r2, ok, err := schedulePairReduced(model, st, stage[0], stage[1], cap)
					if err != nil {
						t.Fatalf("%s: reduced pair: %v", app.Name, err)
					}
					e1, e2, err := schedulePair(model, st, stage[0], stage[1])
					if err != nil {
						t.Fatalf("%s: exact pair: %v", app.Name, err)
					}
					if ok {
						solved++
						if r1 != e1 || r2 != e2 {
							t.Errorf("%s: stage (%s, %s): reduced game picked (%v, %v), exact game (%v, %v)",
								app.Name, model.MSName(stage[0]), model.MSName(stage[1]), r1, r2, e1, e2)
						}
					} else {
						fellBack++
					}
					assigned[0], assigned[1] = e1, e2
				} else if assigned[0], assigned[1], err = schedulePair(model, st, stage[0], stage[1]); err != nil {
					t.Fatalf("%s: pair: %v", app.Name, err)
				}
			default:
				for k := range stage {
					assigned[k] = opts[k][0]
				}
				bestResponse(st, stage, opts, assigned)
			}
			for k, ms := range stage {
				st.Commit(ms, assigned[k])
			}
		}
	}
	if solved == 0 {
		t.Fatalf("no over-cap pair stage reduced under the cap (%d fell back); test is vacuous", fellBack)
	}
	t.Logf("dominance window solved %d over-cap pair stages exactly, %d fell back to dynamics", solved, fellBack)
}

// TestDominanceWindowFeasibleAndBounded runs the full scheduler with a tiny
// cap and the window open over it: placements must validate against the
// cluster and stay within the same simulated-energy envelope the pure
// best-response fallback is held to — the window can only replace fallback
// answers with exact ones, never worse.
func TestDominanceWindowFeasibleAndBounded(t *testing.T) {
	apps, cluster := pairCapCorpus(t)
	windowed := &DEEP{MaxPairCells: 32, DominancePairCells: 4096}
	exact := NewDEEPUncapped()
	for _, app := range apps {
		model := costmodel.Compile(app, cluster)
		got, err := windowed.ScheduleModel(model)
		if err != nil {
			t.Fatalf("%s: windowed: %v", app.Name, err)
		}
		if err := cluster.Validate(app, got); err != nil {
			t.Errorf("%s: windowed placement infeasible: %v", app.Name, err)
			continue
		}
		want, err := exact.ScheduleModel(model)
		if err != nil {
			t.Fatalf("%s: uncapped: %v", app.Name, err)
		}
		gotRes, err := sim.Run(app, cluster, got, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating windowed placement: %v", app.Name, err)
		}
		wantRes, err := sim.Run(app, cluster, want, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating exact placement: %v", app.Name, err)
		}
		ratio := float64(gotRes.TotalEnergy) / float64(wantRes.TotalEnergy)
		if ratio > 1.10 {
			t.Errorf("%s: windowed energy %.1fJ is %.3fx the exact game's %.1fJ",
				app.Name, float64(gotRes.TotalEnergy), ratio, float64(wantRes.TotalEnergy))
		}
	}
}

// TestDominanceWindowWarmPassAllocationFree extends the zero-alloc warm-pass
// guarantee to the IESDS rescue path: pricing the full bimatrix, reducing it
// in place, and solving the survivors all run on arena scratch.
func TestDominanceWindowWarmPassAllocationFree(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig(9, 7)
	cfg.StageWidth = 2
	app, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &DEEP{MaxPairCells: 32, DominancePairCells: 4096}
	model := costmodel.Compile(app, workload.ScaledTestbed(4))
	p := NewPass(model, nil)
	if err := s.ScheduleInto(p); err != nil { // warm up arena and scratch
		t.Fatal(err)
	}
	want := p.Placement()
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.ScheduleInto(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm windowed pass allocates %.1f objects per run", allocs)
	}
	for name, w := range want {
		if got := p.Placement()[name]; got != w {
			t.Errorf("repeated windowed pass moved %s", name)
		}
	}
}
