package sim

import (
	"testing"

	"deep/internal/device"
	"deep/internal/units"
)

// TestCompilePlanDuplicateNames: duplicate device, registry, or
// microservice names (possible through the exported Cluster fields) must
// not crash the compiled path — first occurrence wins, as it always did in
// Cluster.Device / Cluster.Registry.
func TestCompilePlanDuplicateNames(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	// Duplicate the first device and registry under their existing names.
	d0 := cluster.Devices[0]
	cluster.Devices = append(cluster.Devices,
		device.New(d0.Name, d0.Arch, d0.Cores, d0.Speed, d0.Memory, d0.Storage, d0.Power))
	cluster.Registries = append(cluster.Registries, cluster.Registries[0])

	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	res, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Microservices) != 2 || res.Makespan <= 0 {
		t.Fatalf("degenerate result on duplicate names: %+v", res)
	}
	if _, ok := res.EnergyByDevice["devA"]; !ok {
		t.Fatal("duplicate-named device missing from energy accounting")
	}
}

// TestWarmExecAllocationFree pins the compiled simulator's steady state at
// zero allocations: once the plan is compiled, the Exec scratch is sized,
// and the device layer caches are warm, repeated Exec.Run calls — jitter
// included — allocate nothing. This is the simulator-side counterpart of
// the scheduler's TestWarmPassAllocationFree.
func TestWarmExecAllocationFree(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	plan := CompilePlan(app, cluster)
	exec := NewExec()

	// Prime: one warm run fills the layer caches and sizes the scratch.
	if _, err := exec.Run(plan, placement, Options{WarmCaches: true}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{WarmCaches: true},
		{WarmCaches: true, Jitter: 0.05, Seed: 42},
	} {
		opts := opts
		if _, err := exec.Run(plan, placement, opts); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := exec.Run(plan, placement, opts); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm Exec.Run (jitter=%v) allocates %v times per call, want 0", opts.Jitter, allocs)
		}
	}
}

// TestColdExecAllocationFree: a cold run keeps its layer caches in the Exec,
// emptied and refilled on every run without reallocating, so once the plan
// is compiled and the scratch sized, a cold Exec.Run allocates nothing
// either — jitter included, and with images split into shared layers.
func TestColdExecAllocationFree(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	cluster.Layers = map[string][]Layer{
		"a": {{Digest: "base", Size: 80 * units.MB}, {Digest: "a-top", Size: 20 * units.MB}},
		"b": {{Digest: "base", Size: 80 * units.MB}, {Digest: "b-top", Size: 120 * units.MB}},
	}
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	plan := CompilePlan(app, cluster)
	exec := NewExec()
	for _, opts := range []Options{{}, {Jitter: 0.05, Seed: 42}} {
		first, err := exec.Run(plan, placement, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first.Microservices[0].BytesPulled == 0 {
			t.Fatal("a cold run pulled nothing")
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := exec.Run(plan, placement, opts); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("cold Exec.Run (jitter=%v) allocates %v times per call, want 0", opts.Jitter, allocs)
		}
	}
}
