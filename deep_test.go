package deep_test

import (
	"context"
	"math"
	"testing"

	"deep"
)

func TestPublicQuickstart(t *testing.T) {
	sys := deep.NewSystem(deep.Testbed())
	dep, err := sys.Deploy(deep.TextProcessing())
	if err != nil {
		t.Fatal(err)
	}
	if dep.Result.TotalEnergy <= 0 {
		t.Error("no energy")
	}
}

// TestPublicFleet runs the README's fleet snippet: the first Do misses the
// placement cache and the second hits it, and both answer what the one-shot
// pipeline answers, bit for bit.
func TestPublicFleet(t *testing.T) {
	dep, err := deep.NewSystem(deep.Testbed()).Deploy(deep.TextProcessing())
	if err != nil {
		t.Fatal(err)
	}
	want := dep.Result.TotalEnergy

	f := deep.NewFleet(deep.FleetConfig{Workers: 8, QueueDepth: 256})
	defer f.Close()
	app := deep.TextProcessing()
	for i, hit := range []bool{false, true} {
		resp, err := f.Do(context.Background(), deep.FleetRequest{Tenant: "text", App: app})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != nil {
			t.Fatalf("deploy %d: %v", i, resp.Err)
		}
		if resp.CacheHit != hit {
			t.Errorf("deploy %d: cache hit %v, want %v", i, resp.CacheHit, hit)
		}
		if got := resp.Result.TotalEnergy; math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Errorf("deploy %d: total energy %v, want the pipeline's %v", i, got, want)
		}
	}
	if c := f.Stats().Cache; c.Hits != 1 || c.Misses != 1 {
		t.Errorf("placement cache %d hits, %d misses; want 1, 1", c.Hits, c.Misses)
	}
}

func TestPublicCustomApp(t *testing.T) {
	b := deep.AppBuilder{Name: "custom"}
	if err := b.Microservice(deep.Microservice{
		Name:      "stage1",
		ImageSize: 100 * deep.MB,
		Req:       deep.Requirements{Cores: 1, CPU: 30000, Memory: deep.GB},
		Arches:    []deep.Arch{deep.AMD64, deep.ARM64},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Microservice(deep.Microservice{
		Name:      "stage2",
		ImageSize: 200 * deep.MB,
		Req:       deep.Requirements{Cores: 1, CPU: 60000, Memory: deep.GB},
		Arches:    []deep.Arch{deep.AMD64, deep.ARM64},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Dataflow("stage1", "stage2", 50*deep.MB); err != nil {
		t.Fatal(err)
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	cluster := deep.Testbed()
	p, err := deep.Schedule(deep.NewDEEPScheduler(), app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := deep.Run(app, cluster, p, deep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Microservices) != 2 {
		t.Errorf("results = %d", len(res.Microservices))
	}
}

func TestPublicSchedulers(t *testing.T) {
	if got := len(deep.AllSchedulers(0)); got != 7 {
		t.Errorf("schedulers = %d", got)
	}
	if deep.NewExclusiveScheduler("hub").Name() != "exclusive-hub" {
		t.Error("wrong exclusive scheduler")
	}
}

func TestPublicMethodsComparison(t *testing.T) {
	sys := deep.NewSystem(deep.Testbed())
	out, err := sys.Compare(deep.VideoProcessing(), deep.AllSchedulers(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Result.TotalEnergy > out[len(out)-1].Result.TotalEnergy {
		t.Error("not sorted")
	}
}
