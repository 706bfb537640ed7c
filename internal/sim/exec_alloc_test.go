package sim

import (
	"fmt"
	"reflect"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/dag"
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

// TestScratchRecompileReusesDigests: a scratch that recompiles images it has
// priced before, in any order, takes their synthetic layer digests from its
// memo and allocates nothing; every layer still reads as defaultLayer's. An
// app with more images than planDigestCap starts the memo over, and still
// compiles the right layers.
func TestScratchRecompileReusesDigests(t *testing.T) {
	cluster := testCluster()
	tab := CompileClusterTable(cluster)
	chain := appgraph.Compile(chainApp(t))
	other := appgraph.Compile(buildApp(t, "other", []dag.Microservice{
		{Name: "x", ImageSize: 30 * units.MB, Req: dag.Requirements{CPU: 500}},
		{Name: "y", ImageSize: 40 * units.MB, Req: dag.Requirements{CPU: 700}},
	}, []dag.Dataflow{{From: "x", To: "y", Size: units.MB}}))
	ms := make([]dag.Microservice, planDigestCap+1)
	edges := make([]dag.Dataflow, len(ms)-1)
	for i := range ms {
		ms[i] = dag.Microservice{Name: fmt.Sprintf("m%03d", i), ImageSize: units.MB, Req: dag.Requirements{CPU: 100}}
		if i > 0 {
			edges[i-1] = dag.Dataflow{From: ms[i-1].Name, To: ms[i].Name, Size: units.MB}
		}
	}
	wide := appgraph.Compile(buildApp(t, "wide", ms, edges))

	var s PlanScratch
	compile := func(at *appgraph.AppTable) {
		t.Helper()
		p := s.Compile(at, cluster, tab)
		for i, m := range p.ms {
			if want := []Layer{defaultLayer(m)}; !reflect.DeepEqual(p.layers[i], want) {
				t.Fatalf("%s: layers %v, want %v", m.Name, p.layers[i], want)
			}
		}
	}
	for _, at := range []*appgraph.AppTable{chain, other, chain, wide, other, wide, chain} {
		compile(at)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		s.Compile(chain, cluster, tab)
		s.Compile(other, cluster, tab)
	}); allocs != 0 {
		t.Errorf("recompiling two known apps allocates %v times, want 0", allocs)
	}
}
