package sim

import (
	"math"
	"math/rand"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
)

// Simulation invariants checked over randomized placements of randomized
// applications on the test cluster:
//
//  1. CT = Td + Tc + Tp for every microservice.
//  2. All phase times and energies are non-negative and finite.
//  3. The result's total equals the sum of per-microservice totals.
//  4. Makespan is at least the largest per-microservice finish time.
//  5. Bytes pulled never exceed the total image bytes.
func TestSimulatorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		app := randomApp(t, rng, 2+rng.Intn(6))
		cluster := testCluster()
		placement := Placement{}
		for _, m := range app.Microservices {
			dev := "devA"
			if rng.Intn(2) == 1 {
				dev = "devB"
			}
			reg := "hub"
			if rng.Intn(2) == 1 {
				reg = "regional"
			}
			placement[m.Name] = Assignment{Device: dev, Registry: reg}
		}
		res, err := Run(app, cluster, placement, Options{Seed: int64(trial), Jitter: 0.02})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var sum units.Joules
		var maxFinish float64
		var totalPulled, totalImages units.Bytes
		for _, m := range res.Microservices {
			if got := m.DeployTime + m.TransferTime + m.ProcessTime; math.Abs(got-m.CT) > 1e-9 {
				t.Errorf("trial %d %s: CT %v != Td+Tc+Tp %v", trial, m.Name, m.CT, got)
			}
			for _, v := range []float64{m.DeployTime, m.TransferTime, m.ProcessTime, m.WaitTime, m.CT, float64(m.Energy), float64(m.StaticShare)} {
				if v < -1e-9 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("trial %d %s: bad value %v in %+v", trial, m.Name, v, m)
				}
			}
			sum += m.TotalEnergy()
			if m.Finish > maxFinish {
				maxFinish = m.Finish
			}
			totalPulled += m.BytesPulled
		}
		for _, m := range app.Microservices {
			totalImages += m.ImageSize
		}
		if math.Abs(float64(sum-res.TotalEnergy)) > 1e-6 {
			t.Errorf("trial %d: sum %v != total %v", trial, sum, res.TotalEnergy)
		}
		if res.Makespan < maxFinish-1e-9 {
			t.Errorf("trial %d: makespan %v < max finish %v", trial, res.Makespan, maxFinish)
		}
		if totalPulled > totalImages {
			t.Errorf("trial %d: pulled %v > images %v", trial, totalPulled, totalImages)
		}
	}
}

// randomApp builds a random layered DAG compatible with testCluster.
func randomApp(t *testing.T, rng *rand.Rand, n int) *dag.App {
	t.Helper()
	names := make([]string, n)
	ms := make([]dag.Microservice, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		ms[i] = dag.Microservice{
			Name:      names[i],
			ImageSize: units.Bytes(1+rng.Intn(500)) * units.MB,
			Req:       dag.Requirements{CPU: units.MI(100 + rng.Intn(5000))},
		}
	}
	// Chain backbone keeps the DAG connected; extra forward edges add
	// fan-out.
	var edges []dag.Dataflow
	for i := 1; i < n; i++ {
		edges = append(edges, dag.Dataflow{From: names[i-1], To: names[i], Size: units.Bytes(rng.Intn(100)) * units.MB})
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if rng.Float64() < 0.15 {
				edges = append(edges, dag.Dataflow{From: names[i], To: names[j], Size: units.Bytes(rng.Intn(50)) * units.MB})
			}
		}
	}
	return buildApp(t, "rand", ms, edges)
}

// Energy is monotone in registry link speed: slowing every registry link
// down can only increase total energy (longer pulls at transfer power).
func TestSimulatorEnergyMonotoneInBandwidth(t *testing.T) {
	app := chainApp(t)
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	fast := testCluster()
	resFast, err := Run(app, fast, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow := testCluster()
	for _, pair := range [][2]string{{"hubNode", "devA"}, {"hubNode", "devB"}, {"regNode", "devA"}, {"regNode", "devB"}} {
		bw := slow.Topology.Bandwidth(pair[0], pair[1])
		if err := slow.Topology.SetBandwidth(pair[0], pair[1], bw/4); err != nil {
			t.Fatal(err)
		}
	}
	resSlow, err := Run(app, slow, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resSlow.TotalEnergy <= resFast.TotalEnergy {
		t.Errorf("slower links should cost more energy: %v vs %v", resSlow.TotalEnergy, resFast.TotalEnergy)
	}
	if resSlow.Makespan <= resFast.Makespan {
		t.Errorf("slower links should lengthen the makespan: %v vs %v", resSlow.Makespan, resFast.Makespan)
	}
}
