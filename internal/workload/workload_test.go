package workload

import (
	"math"
	"testing"

	"deep/internal/sim"
)

func TestTableIIComplete(t *testing.T) {
	if len(TableII) != 12 {
		t.Fatalf("Table II should have 12 rows, has %d", len(TableII))
	}
	for _, r := range TableII {
		if r.TpMin > r.TpMax || r.CTMin > r.CTMax || r.ECMedMin > r.ECMedMax || r.ECSmallMin > r.ECSmallMax {
			t.Errorf("%s/%s: inverted range", r.App, r.Name)
		}
		if r.SizeGB <= 0 {
			t.Errorf("%s/%s: non-positive size", r.App, r.Name)
		}
		if r.CTMid() < r.TpMid() {
			t.Errorf("%s/%s: CT midpoint below Tp midpoint", r.App, r.Name)
		}
	}
}

func TestRowLookup(t *testing.T) {
	if _, ok := Row("video", "transcode"); !ok {
		t.Error("missing video/transcode")
	}
	if _, ok := Row("video", "nope"); ok {
		t.Error("bogus row found")
	}
	if got := len(Rows("video")); got != 6 {
		t.Errorf("video rows = %d", got)
	}
	if got := len(Rows("text")); got != 6 {
		t.Errorf("text rows = %d", got)
	}
}

func TestCatalogComplete(t *testing.T) {
	if len(TableI) != 12 {
		t.Fatalf("Table I should have 12 entries, has %d", len(TableI))
	}
	for _, r := range TableII {
		ref, ok := CatalogRef(r.App, r.Name)
		if !ok {
			t.Errorf("no catalog entry for %s/%s", r.App, r.Name)
			continue
		}
		if ref.Hub == "" || ref.Regional == "" {
			t.Errorf("incomplete refs for %s/%s: %+v", r.App, r.Name, ref)
		}
	}
}

func TestDerivePositivity(t *testing.T) {
	for _, r := range TableII {
		d := Derive(r)
		if d.CPU <= 0 {
			t.Errorf("%s/%s: CPU = %v", r.App, r.Name, d.CPU)
		}
		if d.InputSize < 0 {
			t.Errorf("%s/%s: negative input size", r.App, r.Name)
		}
		if d.ProcWMedium <= 0 {
			t.Errorf("%s/%s: medium processing power %v not positive", r.App, r.Name, d.ProcWMedium)
		}
		if d.ProcWSmall <= 0 {
			t.Errorf("%s/%s: small processing power %v not positive", r.App, r.Name, d.ProcWSmall)
		}
		// Wall power of the Pi should stay physically plausible (< 10 W).
		if d.ProcWSmall > 10 {
			t.Errorf("%s/%s: small power %v implausibly high", r.App, r.Name, d.ProcWSmall)
		}
	}
}

func TestAppsValidate(t *testing.T) {
	for _, app := range Apps() {
		if len(app.Microservices) != 6 {
			t.Errorf("%s: %d microservices, want 6", app.Name, len(app.Microservices))
		}
		stages := app.Stages()
		// Both pipelines have 4 levels: source, prep, train pair, final pair
		// (the paper's two synchronization barriers sit between the last
		// three levels).
		if len(stages) != 4 {
			t.Errorf("%s: %d stages, want 4", app.Name, len(stages))
		}
	}
}

func TestTestbedShape(t *testing.T) {
	c := Testbed()
	if len(c.Devices) != 2 || len(c.Registries) != 2 {
		t.Fatalf("testbed: %d devices, %d registries", len(c.Devices), len(c.Registries))
	}
	if c.Device("medium") == nil || c.Device("small") == nil {
		t.Fatal("missing devices")
	}
	reg, ok := c.Registry("regional")
	if !ok || !reg.Shared {
		t.Error("regional registry must be shared-capacity")
	}
	hub, ok := c.Registry("hub")
	if !ok || hub.Shared {
		t.Error("hub must not be shared-capacity")
	}
	// Every registry must reach every device.
	for _, r := range c.Registries {
		for _, d := range c.Devices {
			if _, ok := c.Topology.LinkBetween(r.Node, d.Name); !ok {
				t.Errorf("no link %s -> %s", r.Name, d.Name)
			}
		}
	}
}

// The heart of the calibration: simulating each microservice standalone
// (deployed from Docker Hub) must land on the Table II midpoints for Tp and
// EC on both devices, and the completion time on the medium device must
// match by construction.
func TestCalibrationReproducesTableII(t *testing.T) {
	for _, r := range TableII {
		// Medium device.
		res, err := BenchmarkRun(r.App, r.Name, "medium", "hub", 0, 0)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.App, r.Name, err)
		}
		mr := res.Microservices[0]
		if math.Abs(mr.ProcessTime-r.TpMid()) > 0.5 {
			t.Errorf("%s/%s: Tp %v, want %v", r.App, r.Name, mr.ProcessTime, r.TpMid())
		}
		if math.Abs(mr.CT-r.CTMid()) > 0.02*r.CTMid()+1.5 {
			t.Errorf("%s/%s: CT %v, want ≈%v", r.App, r.Name, mr.CT, r.CTMid())
		}
		if got := float64(mr.TotalEnergy()); math.Abs(got-r.ECMedMid()) > 0.03*r.ECMedMid()+2 {
			t.Errorf("%s/%s: EC medium %v, want ≈%v", r.App, r.Name, got, r.ECMedMid())
		}
		// Small device.
		res, err = BenchmarkRun(r.App, r.Name, "small", "hub", 0, 0)
		if err != nil {
			t.Fatalf("%s/%s small: %v", r.App, r.Name, err)
		}
		sr := res.Microservices[0]
		if got := float64(sr.TotalEnergy()); math.Abs(got-r.ECSmallMid()) > 0.03*r.ECSmallMid()+2 {
			t.Errorf("%s/%s: EC small %v, want ≈%v", r.App, r.Name, got, r.ECSmallMid())
		}
		if sr.ProcessTime <= mr.ProcessTime {
			t.Errorf("%s/%s: small Tp %v should exceed medium Tp %v", r.App, r.Name, sr.ProcessTime, mr.ProcessTime)
		}
	}
}

// Deploying from the regional registry must be competitive with Docker Hub —
// within a few percent on energy — which is the paper's core observation.
func TestRegistriesCompetitive(t *testing.T) {
	for _, r := range TableII {
		for _, dev := range []string{"medium", "small"} {
			hub, err := BenchmarkRun(r.App, r.Name, dev, "hub", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := BenchmarkRun(r.App, r.Name, dev, "regional", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := float64(hub.TotalEnergy)
			g := float64(reg.TotalEnergy)
			if diff := math.Abs(h-g) / h; diff > 0.10 {
				t.Errorf("%s/%s on %s: hub %v vs regional %v differ %.1f%%",
					r.App, r.Name, dev, hub.TotalEnergy, reg.TotalEnergy, 100*diff)
			}
		}
	}
}

func TestPaperPlacementRunnable(t *testing.T) {
	cluster := Testbed()
	for _, app := range Apps() {
		p := PaperPlacement(app.Name)
		if len(p) != 6 {
			t.Fatalf("%s: placement has %d entries", app.Name, len(p))
		}
		res, err := sim.Run(app, cluster, p, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.TotalEnergy <= 0 {
			t.Errorf("%s: non-positive energy", app.Name)
		}
	}
}

// Training microservices must dominate per-microservice energy in the DEEP
// placement — the Figure 3a shape.
func TestTrainingDominatesEnergy(t *testing.T) {
	cluster := Testbed()
	for _, app := range Apps() {
		res, err := sim.Run(app, cluster, PaperPlacement(app.Name), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var maxName string
		var maxE float64
		for _, m := range res.Microservices {
			if e := float64(m.TotalEnergy()); e > maxE {
				maxE, maxName = e, m.Name
			}
		}
		if maxName != app.Name+"/ha-train" {
			t.Errorf("%s: max-energy microservice = %s, want ha-train", app.Name, maxName)
		}
	}
}
