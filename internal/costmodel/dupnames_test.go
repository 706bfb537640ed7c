package costmodel_test

// Duplicate-name corpus: clusters and apps with duplicate device, registry,
// and microservice names. Before the shared topo.ClusterTable refactor the
// two compilers handled duplicates with different table layouts (costmodel
// kept dead slots, sim.CompilePlan compacted) but converged on the same
// observable semantics: the first occurrence, in declaration order, wins
// everywhere. This test pins that contract on the unified table — duplicate
// entries must be invisible next to a cluster with the duplicates removed —
// for every scheduler's placements, the cost model's option enumeration and
// estimates, and the simulator's results. (Microservice names cannot
// repeat: dag.Builder refuses a duplicate.)

import (
	"reflect"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
)

// dupTopology wires regnode/hubnode/src to three device nodes, plus a
// ghostnode with no links (the duplicate registry claims to live there — if
// the duplicate ever won, every hub option would vanish).
func dupTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	topo := netsim.NewTopology()
	for _, n := range []string{"regnode", "hubnode", "ghostnode", "src", "d1", "d2", "d3"} {
		topo.AddNode(n)
	}
	devs := []string{"d1", "d2", "d3"}
	for _, d := range devs {
		for _, l := range []netsim.Link{
			{From: "regnode", To: d, BW: 100 * units.MBps, RTT: 0.5, SharedCapacity: true},
			{From: "hubnode", To: d, BW: 50 * units.MBps, RTT: 1.0},
			{From: "src", To: d, BW: 200 * units.MBps},
		} {
			if err := topo.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			if err := topo.AddDuplex(devs[i], devs[j], 200*units.MBps); err != nil {
				t.Fatal(err)
			}
		}
	}
	return topo
}

// dupClusters returns the same cluster twice: once with duplicate device and
// registry names appended (each duplicate carrying a spec that would visibly
// change placements, options, or contention if it ever won) and once with
// only the first occurrences. Device objects are fresh per cluster so layer
// caches never alias across the comparison.
func dupClusters(t *testing.T) (dup, dedup *sim.Cluster) {
	t.Helper()
	pm := energy.LinearModel{StaticW: 2, PullW: 3, ReceiveW: 4, ProcessingW: 10}
	build := func(withDups bool) *sim.Cluster {
		devices := []*device.Device{
			device.New("d1", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm),
			device.New("d2", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm),
			device.New("d3", dag.ARM64, 4, 5000, 4*units.GB, 32*units.GB, pm),
		}
		registries := []sim.RegistryInfo{
			{Name: "hub", Node: "hubnode"},
			{Name: "shared", Node: "regnode", Shared: true},
		}
		if withDups {
			// A duplicate d1 that is ARM-only and slower (would change
			// feasibility and estimates), a duplicate hub on an unlinked
			// node (would erase every hub option), and a duplicate shared
			// registry without the shared flag (would erase contention).
			devices = append(devices,
				device.New("d1", dag.ARM64, 2, 1000, units.GB, 8*units.GB, pm))
			registries = append(registries,
				sim.RegistryInfo{Name: "hub", Node: "ghostnode"},
				sim.RegistryInfo{Name: "shared", Node: "regnode", Shared: false})
		}
		return &sim.Cluster{
			Devices:    devices,
			Registries: registries,
			Topology:   dupTopology(t),
			SourceNode: "src",
		}
	}
	return build(true), build(false)
}

// dupApp is a two-stage pipeline: a contended three-wide stage (shared
// registry pulls, an amd64-only member) feeding a sink, with an external
// input — enough to exercise deployment, transfer, contention, and source
// links.
func dupApp(t *testing.T) *dag.App {
	t.Helper()
	b := dag.Builder{Name: "dupcorpus"}
	for _, m := range []dag.Microservice{
		{Name: "a", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 50_000, Memory: units.GB}, ExternalInput: 100 * units.MB},
		{Name: "b", ImageSize: 2 * units.GB, Req: dag.Requirements{Cores: 1, CPU: 30_000, Memory: units.GB}},
		{Name: "c", ImageSize: units.GB, Req: dag.Requirements{Cores: 1, CPU: 20_000, Memory: units.GB}, Arches: []dag.Arch{dag.AMD64}},
		{Name: "sink", ImageSize: 500 * units.MB, Req: dag.Requirements{Cores: 1, CPU: 10_000, Memory: units.GB}},
	} {
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []string{"a", "b", "c"} {
		if err := b.Dataflow(from, "sink", 200*units.MB); err != nil {
			t.Fatal(err)
		}
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestDuplicateNamesFirstOccurrenceWins pins the duplicate-name contract on
// the shared cluster table: a cluster with duplicate device and registry
// names behaves exactly — placements from all seven schedulers, option
// tables, energy estimates, simulated results — like the same cluster with
// the duplicates dropped.
func TestDuplicateNamesFirstOccurrenceWins(t *testing.T) {
	app := dupApp(t)
	dup, dedup := dupClusters(t)

	// Both compilers build on one shared table, and the compacted name
	// tables collapse the duplicates.
	tab := sim.CompileClusterTable(dup)
	if got, want := tab.NumDevices(), 3; got != want {
		t.Fatalf("table compiled %d devices, want %d (duplicates compacted)", got, want)
	}
	if got, want := tab.NumRegistries(), 2; got != want {
		t.Fatalf("table compiled %d registries, want %d (duplicates compacted)", got, want)
	}
	mDup, pDup := costmodel.CompileShapeOn(appgraph.Compile(app), dup, tab)
	if mDup.Table() != tab || pDup.Table() != tab {
		t.Fatal("compilers did not retain the shared cluster table")
	}
	mDedup := costmodel.Compile(app, dedup)

	// Option enumeration: identical per-microservice assignment lists.
	for _, name := range []string{"a", "b", "c", "sink"} {
		id1, ok1 := mDup.MSID(name)
		id2, ok2 := mDedup.MSID(name)
		if !ok1 || !ok2 {
			t.Fatalf("microservice %q missing from a model", name)
		}
		a1, a2 := assignments(mDup, id1), assignments(mDedup, id2)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: options diverge:\ndup:   %v\ndedup: %v", name, a1, a2)
		}
		// Estimates: every option priced identically (exact float equality)
		// with no co-assignments committed.
		st1, st2 := mDup.NewState(), mDedup.NewState()
		o1, o2 := mDup.Options(id1), mDedup.Options(id2)
		for k := range o1 {
			e1 := st1.Energy(id1, o1[k], nil, nil)
			e2 := st2.Energy(id2, o2[k], nil, nil)
			if e1 != e2 {
				t.Errorf("%s option %d: energy %v vs %v", name, k, e1, e2)
			}
			c1 := st1.CompletionTime(id1, o1[k], nil, nil)
			c2 := st2.CompletionTime(id2, o2[k], nil, nil)
			if c1 != c2 {
				t.Errorf("%s option %d: completion %v vs %v", name, k, c1, c2)
			}
		}
	}

	// Placements: every scheduler, byte-identical across dup and dedup.
	for _, s := range sched.All(7) {
		got, errGot := sched.Schedule(s, app, dup)
		want, errWant := sched.Schedule(s, app, dedup)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: error divergence: %v vs %v", s.Name(), errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: placement diverges:\ndup:   %v\ndedup: %v", s.Name(), got, want)
		}
	}

	// Simulation: bit-identical results (jitter on — it hashes app and
	// microservice names, which duplicates must not perturb).
	placement, err := sched.Schedule(sched.NewDEEP(), app, dedup)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sim.Options{{}, {Seed: 11, Jitter: 0.02}, {WarmCaches: true}} {
		got, errGot := sim.Run(app, dup, placement, opts)
		want, errWant := sim.Run(app, dedup, placement, opts)
		if errGot != nil || errWant != nil {
			t.Fatalf("sim run failed: %v / %v", errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sim results diverge under %+v:\ndup:   %+v\ndedup: %+v", opts, got, want)
		}
	}
}

// assignments is the microservice's option table in string form.
func assignments(m *costmodel.Model, ms int32) []sim.Assignment {
	var out []sim.Assignment
	for _, o := range m.Options(ms) {
		out = append(out, m.Assignment(o))
	}
	return out
}
