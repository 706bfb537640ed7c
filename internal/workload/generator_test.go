package workload

import (
	"testing"

	"deep/internal/sched"
	"deep/internal/sim"
)

func TestGenerateValidApps(t *testing.T) {
	for _, n := range []int{1, 2, 6, 12, 30} {
		for seed := int64(0); seed < 5; seed++ {
			app, err := Generate(DefaultGeneratorConfig(n, seed))
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if len(app.Microservices) != n {
				t.Errorf("n=%d: got %d microservices", n, len(app.Microservices))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a1, err := Generate(DefaultGeneratorConfig(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Generate(DefaultGeneratorConfig(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Dataflows) != len(a2.Dataflows) {
		t.Fatal("edge counts differ")
	}
	for i := range a1.Dataflows {
		if a1.Dataflows[i] != a2.Dataflows[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range a1.Microservices {
		if a1.Microservices[i].ImageSize != a2.Microservices[i].ImageSize {
			t.Fatalf("microservice %d size differs", i)
		}
	}
}

func TestGenerateBoundsRespected(t *testing.T) {
	cfg := DefaultGeneratorConfig(20, 7)
	app, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range app.Microservices {
		if m.ImageSize < cfg.ImageSizeMin || m.ImageSize > cfg.ImageSizeMax {
			t.Errorf("%s: image size %v out of bounds", m.Name, m.ImageSize)
		}
		if m.Req.CPU < cfg.CPUMin || m.Req.CPU > cfg.CPUMax {
			t.Errorf("%s: CPU %v out of bounds", m.Name, m.Req.CPU)
		}
	}
	for _, e := range app.Dataflows {
		if e.Size < cfg.DataflowMin || e.Size > cfg.DataflowMax {
			t.Errorf("%s->%s: size %v out of bounds", e.From, e.To, e.Size)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GeneratorConfig{Microservices: 0}); err == nil {
		t.Error("zero microservices accepted")
	}
	bad := DefaultGeneratorConfig(3, 0)
	bad.ImageSizeMax = bad.ImageSizeMin - 1
	if _, err := Generate(bad); err == nil {
		t.Error("inverted bounds accepted")
	}
}

// Generated applications must be schedulable and runnable on the testbed —
// the integration property the sweeps rely on.
func TestGeneratedAppsScheduleAndRun(t *testing.T) {
	cluster := Testbed()
	for seed := int64(0); seed < 5; seed++ {
		app, err := Generate(DefaultGeneratorConfig(8, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []sched.Scheduler{sched.NewDEEP(), sched.NewGreedyEnergy()} {
			p, err := sched.Schedule(s, app, cluster)
			if err != nil {
				t.Fatalf("seed=%d %s: %v", seed, s.Name(), err)
			}
			res, err := sim.Run(app, cluster, p, sim.Options{})
			if err != nil {
				t.Fatalf("seed=%d %s: %v", seed, s.Name(), err)
			}
			if res.TotalEnergy <= 0 || res.Makespan <= 0 {
				t.Errorf("seed=%d %s: degenerate result", seed, s.Name())
			}
		}
	}
}

// DEEP must never lose to greedy on synthetic workloads either.
func TestDEEPRobustOnSyntheticWorkloads(t *testing.T) {
	cluster := Testbed()
	for seed := int64(0); seed < 10; seed++ {
		app, err := Generate(DefaultGeneratorConfig(10, seed))
		if err != nil {
			t.Fatal(err)
		}
		pDeep, err := sched.Schedule(sched.NewDEEP(), app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		rDeep, err := sim.Run(app, cluster, pDeep, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pGreedy, err := sched.Schedule(sched.NewGreedyEnergy(), app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		rGreedy, err := sim.Run(app, cluster, pGreedy, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(rDeep.TotalEnergy) > float64(rGreedy.TotalEnergy)*1.02 {
			t.Errorf("seed=%d: deep %.0fJ much worse than greedy %.0fJ",
				seed, float64(rDeep.TotalEnergy), float64(rGreedy.TotalEnergy))
		}
	}
}
