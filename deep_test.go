package deep_test

import (
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
