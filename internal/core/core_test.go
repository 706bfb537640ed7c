package core

import (
	"math"
	"testing"

	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

func TestDeployPipeline(t *testing.T) {
	sys := NewSystem(workload.Testbed())
	dep, err := sys.Deploy(workload.TextProcessing())
	if err != nil {
		t.Fatal(err)
	}
	if dep.App != "text" || len(dep.Placement) != 6 {
		t.Errorf("deployment = %+v", dep)
	}
	if dep.Result.TotalEnergy <= 0 {
		t.Error("no energy recorded")
	}
	// The pipeline logs scheduling decisions.
	if got := len(sys.Metrics.EventsOfKind("scheduled")); got != 6 {
		t.Errorf("scheduled events = %d", got)
	}
	if _, ok := sys.Metrics.Gauge("stages_text"); !ok {
		t.Error("stage gauge missing")
	}
	if h, ok := sys.Metrics.Histogram("ct_s"); !ok || h.Count != 6 {
		t.Errorf("ct histogram = %+v %v", h, ok)
	}
}

func TestCompareSortsByEnergy(t *testing.T) {
	sys := NewSystem(workload.Testbed())
	out, err := sys.Compare(workload.VideoProcessing(), sched.All(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("methods = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Result.TotalEnergy < out[i-1].Result.TotalEnergy {
			t.Error("compare output not sorted by energy")
		}
	}
	if out[0].Method != "deep" && out[0].Result.TotalEnergy > out[1].Result.TotalEnergy {
		t.Errorf("best method = %s", out[0].Method)
	}
}

func TestDistributionOf(t *testing.T) {
	p := sim.Placement{
		"a": {Device: "medium", Registry: "hub"},
		"b": {Device: "medium", Registry: "hub"},
		"c": {Device: "small", Registry: "regional"},
	}
	d := DistributionOf(p)
	if math.Abs(d["medium"]["hub"]-2.0/3) > 1e-9 {
		t.Errorf("medium/hub = %v", d["medium"]["hub"])
	}
	if math.Abs(d["small"]["regional"]-1.0/3) > 1e-9 {
		t.Errorf("small/regional = %v", d["small"]["regional"])
	}
	if len(DistributionOf(nil)) != 0 {
		t.Error("empty placement should give empty distribution")
	}
}
