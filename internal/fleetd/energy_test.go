package fleetd

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/wire"
	"deep/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/energy_constants.golden from the library pipeline")

const energyGolden = "testdata/energy_constants.golden"

// exactFloats says whether energies compare bit for bit. amd64 never fuses a
// multiply and an add; on arm64, ppc64le, s390x (and other targets with
// fused multiply-add instructions) Go may fuse them, so the same expression
// compiled at two call sites — sim.Run's path and the fleet's compiled plan —
// may round differently. There energies agree within 1e-12 relative.
var exactFloats = runtime.GOARCH == "amd64"

func sameEnergy(a, b float64) bool {
	if exactFloats {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// probeSet is one benchmark workload's placement-energy probe set, rebuilt
// the way benchmark/workloads.go's buildInputs builds it: the apps deployed
// after the measured phase, the scaled testbed they deploy on, and the mean
// energy the benchmark reports as placement_energy_j.
type probeSet struct {
	name  string
	scale int
	apps  []*dag.App
	mean  float64
}

func probeSets(t *testing.T) []probeSet {
	t.Helper()
	synthetic := func(microservices int) []*dag.App {
		apps := make([]*dag.App, 64)
		for i := range apps {
			app, err := workload.Generate(workload.DefaultGeneratorConfig(microservices, -int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			apps[i] = app
		}
		return apps
	}
	return []probeSet{
		{name: "warm", scale: 1, apps: workload.Apps(), mean: 5559.948241106719},
		{name: "cold_unique", scale: 12, apps: synthetic(16), mean: 22756.939166395558},
		{name: "churn_zipf", scale: 4, apps: synthetic(9), mean: 12582.492822758682},
	}
}

// formatPlacement renders a placement in name order: ms=device@registry,...
func formatPlacement(p sim.Placement) string {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s@%s", name, p[name].Device, p[name].Registry)
	}
	return b.String()
}

// probeAnswer is one probe's library answer: DEEP's placement and the energy
// of simulating it cold.
type probeAnswer struct {
	placement sim.Placement
	energy    float64
}

// TestEnergyConstants pins the numbers every change is gated on: the mean
// placement energy of each benchmark workload's probe set, bit-exact, and
// each probe's placement and energy against a golden file (one line per
// app, so two changes that cancel in a mean still show). Regenerate the
// file with -update; a change to it is a change to the answers.
//
// The service half sends every probe three times through fleet.Fleet.Do and
// three times through the deploy handler over HTTP, each on a fleet of its
// own: a miss, the first hit (which simulates and stores the answer in the
// placement entry) and a memoized hit (which serves the stored answer).
// Every answer must carry the library's placement and energy bits.
func TestEnergyConstants(t *testing.T) {
	var lines []string
	for _, set := range probeSets(t) {
		cluster := workload.ScaledTestbed(set.scale)
		answers := make([]probeAnswer, len(set.apps))
		var sum float64
		for i, app := range set.apps {
			placement, err := sched.Schedule(sched.NewDEEP(), app, cluster)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(app, cluster, placement, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			energy := float64(res.TotalEnergy)
			answers[i] = probeAnswer{placement, energy}
			sum += energy
			lines = append(lines, fmt.Sprintf("%s %s %s %016x", set.name, app.Name, formatPlacement(placement), math.Float64bits(energy)))
		}
		if mean := sum / float64(len(set.apps)); !sameEnergy(mean, set.mean) {
			t.Errorf("%s: mean probe energy %.17g J, want %.17g J", set.name, mean, set.mean)
		}
		t.Run(set.name+"/fleet", func(t *testing.T) { checkFleetAnswers(t, set, answers) })
		t.Run(set.name+"/fleetd", func(t *testing.T) { checkHandlerAnswers(t, set, answers) })
	}

	if *update {
		if err := os.WriteFile(energyGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(energyGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(golden) != len(lines) {
		t.Fatalf("%s has %d lines, the probe sets %d (run with -update?)", energyGolden, len(golden), len(lines))
	}
	for i, line := range lines {
		if !sameGoldenLine(line, golden[i]) {
			t.Errorf("%s line %d:\n got  %s\n want %s", energyGolden, i+1, line, golden[i])
		}
	}
}

// sameGoldenLine compares set, app and placement exactly and the energy bits
// through sameEnergy.
func sameGoldenLine(got, want string) bool {
	if got == want {
		return true
	}
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != 4 || len(w) != 4 || !slices.Equal(g[:3], w[:3]) {
		return false
	}
	gb, err1 := strconv.ParseUint(g[3], 16, 64)
	wb, err2 := strconv.ParseUint(w[3], 16, 64)
	return err1 == nil && err2 == nil && sameEnergy(math.Float64frombits(gb), math.Float64frombits(wb))
}

func probeCluster(set probeSet) func() *sim.Cluster {
	return func() *sim.Cluster { return workload.ScaledTestbed(set.scale) }
}

// checkAnswer compares one service answer with the library's.
func checkAnswer(t *testing.T, where string, round int, hit, wantHit bool, placement sim.Placement, energy float64, want probeAnswer) {
	t.Helper()
	if hit != wantHit {
		t.Errorf("%s round %d: cache_hit=%v, want %v", where, round, hit, wantHit)
	}
	if got, w := formatPlacement(placement), formatPlacement(want.placement); got != w {
		t.Errorf("%s round %d: placed %s, the library %s", where, round, got, w)
	}
	if !sameEnergy(energy, want.energy) {
		t.Errorf("%s round %d: %.17g J (%016x), the library %.17g J (%016x)",
			where, round, energy, math.Float64bits(energy), want.energy, math.Float64bits(want.energy))
	}
}

func checkFleetAnswers(t *testing.T, set probeSet, answers []probeAnswer) {
	f := fleet.New(fleet.Config{Workers: 2, NewCluster: probeCluster(set)})
	defer f.Close()
	for round := 0; round < 3; round++ {
		for i, app := range set.apps {
			resp, err := f.Do(context.Background(), fleet.Request{App: app})
			if err != nil || resp.Err != nil {
				t.Fatal(err, resp.Err)
			}
			checkAnswer(t, app.Name, round, resp.CacheHit, round > 0,
				resp.Placement.Materialize(), float64(resp.Result.TotalEnergy), answers[i])
		}
	}
}

func checkHandlerAnswers(t *testing.T, set probeSet, answers []probeAnswer) {
	env := newEnv(t, fleet.Config{Workers: 2, NewCluster: probeCluster(set)}, Config{})
	bodies := make([][]byte, len(set.apps))
	for i, app := range set.apps {
		spec, err := json.Marshal(wire.AppSpecOf(app))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(DeployRequest{Tenant: "probe", App: spec})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	for round := 0; round < 3; round++ {
		for i, app := range set.apps {
			resp, data := postDeploy(t, env.url, bodies[i])
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", app.Name, round, resp.StatusCode, data)
			}
			var out DeployResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			placement := make(sim.Placement, len(out.Placement))
			for ms, a := range out.Placement {
				placement[ms] = sim.Assignment{Device: a.Device, Registry: a.Registry}
			}
			checkAnswer(t, app.Name, round, out.CacheHit, round > 0, placement, out.EnergyJ, answers[i])
		}
	}
}
