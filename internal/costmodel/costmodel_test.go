package costmodel

import (
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
)

const (
	sharedBW  = 100 * units.MBps
	sharedRTT = 0.5
	hubBW     = 50 * units.MBps
	hubRTT    = 1.0
	interBW   = 200 * units.MBps
)

// contentionFixture builds a three-device cluster with one shared-capacity
// registry and one unshared registry, plus a three-microservice stage a, b, c
// with the given dataflows among them. Each of a, b, c also feeds an empty
// dataflow to a sink z, which joins the graph without giving any of the
// three an input.
func contentionFixture(t *testing.T, flows ...dag.Dataflow) (*dag.App, *sim.Cluster) {
	t.Helper()
	pm := energy.LinearModel{StaticW: 2, PullW: 3, ReceiveW: 4, ProcessingW: 10}
	topo := netsim.NewTopology()
	for _, n := range []string{"regnode", "hubnode", "src", "d1", "d2", "d3"} {
		topo.AddNode(n)
	}
	devs := []string{"d1", "d2", "d3"}
	for _, d := range devs {
		mustLink(t, topo, netsim.Link{From: "regnode", To: d, BW: sharedBW, RTT: sharedRTT, SharedCapacity: true})
		mustLink(t, topo, netsim.Link{From: "hubnode", To: d, BW: hubBW, RTT: hubRTT})
		mustLink(t, topo, netsim.Link{From: "src", To: d, BW: interBW})
	}
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			if err := topo.AddDuplex(devs[i], devs[j], interBW); err != nil {
				t.Fatal(err)
			}
		}
	}
	cluster := &sim.Cluster{
		Devices: []*device.Device{
			device.New("d1", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm),
			device.New("d2", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm),
			device.New("d3", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm),
		},
		Registries: []sim.RegistryInfo{
			{Name: "hub", Node: "hubnode"},
			{Name: "shared", Node: "regnode", Shared: true},
		},
		Topology:   topo,
		SourceNode: "src",
	}

	b := dag.Builder{Name: "contention"}
	for _, name := range []string{"a", "b", "c", "z"} {
		if err := b.Microservice(dag.Microservice{
			Name:      name,
			ImageSize: units.GB,
			Req:       dag.Requirements{Cores: 1, CPU: 50_000, Memory: units.GB},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range append(flows, dag.Dataflow{From: "a", To: "z"}, dag.Dataflow{From: "b", To: "z"}, dag.Dataflow{From: "c", To: "z"}) {
		if err := b.Dataflow(e.From, e.To, e.Size); err != nil {
			t.Fatal(err)
		}
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return app, cluster
}

func mustLink(t *testing.T, topo *netsim.Topology, l netsim.Link) {
	t.Helper()
	if err := topo.AddLink(l); err != nil {
		t.Fatal(err)
	}
}

func ids(t *testing.T, m *Model, names ...string) []int32 {
	t.Helper()
	out := make([]int32, len(names))
	for i, n := range names {
		id, ok := m.MSID(n)
		if !ok {
			t.Fatalf("unknown microservice %q", n)
		}
		out[i] = id
	}
	return out
}

func opt(t *testing.T, m *Model, dev, reg string) Option {
	t.Helper()
	o, ok := m.Intern(sim.Assignment{Device: dev, Registry: reg})
	if !ok {
		t.Fatalf("cannot intern %s/%s", dev, reg)
	}
	return o
}

// completion with an empty transfer phase isolates Td: CT = Td + Tp here
// because the fixture's a, b and c have no incoming dataflow or external
// input.
func deployTime(t *testing.T, st *State, ms int32, o Option, coMS []int32, coOpt []Option) float64 {
	t.Helper()
	tp := 50_000.0 / 10_000.0 // CPU / speed
	return st.CompletionTime(ms, o, coMS, coOpt) - tp
}

// TestSharedContentionSplitsBandwidth: pulls from a shared registry to n
// distinct devices divide its uplink capacity n ways — Td grows from
// RTT + size/BW to RTT + size/(BW/n).
func TestSharedContentionSplitsBandwidth(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")
	a := opt(t, m, "d1", "shared")

	size := units.GB
	alone := sharedRTT + sharedBW.Seconds(size)
	if got := deployTime(t, st, msIDs[0], a, nil, nil); !approxEqual(got, alone) {
		t.Fatalf("self-only Td = %v, want %v", got, alone)
	}

	// One other distinct device pulling the same registry: capacity halves.
	co2 := []Option{a, opt(t, m, "d2", "shared")}
	two := sharedRTT + (sharedBW / 2).Seconds(size)
	if got := deployTime(t, st, msIDs[0], a, msIDs[:2], co2); !approxEqual(got, two) {
		t.Fatalf("two-device Td = %v, want %v", got, two)
	}

	// Three distinct devices: a third of the capacity each.
	co3 := []Option{a, opt(t, m, "d2", "shared"), opt(t, m, "d3", "shared")}
	three := sharedRTT + (sharedBW / 3).Seconds(size)
	if got := deployTime(t, st, msIDs[0], a, msIDs, co3); !approxEqual(got, three) {
		t.Fatalf("three-device Td = %v, want %v", got, three)
	}
}

// TestSharedContentionSameDevice: co-pulls on the same device serialize
// rather than split the uplink, and a co-assignment entry for the deciding
// microservice itself is ignored.
func TestSharedContentionSameDevice(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")
	a := opt(t, m, "d1", "shared")
	alone := sharedRTT + sharedBW.Seconds(units.GB)

	// b pulls the same registry onto the same device: no split.
	coSame := []Option{a, opt(t, m, "d1", "shared")}
	if got := deployTime(t, st, msIDs[0], a, msIDs[:2], coSame); !approxEqual(got, alone) {
		t.Fatalf("same-device Td = %v, want %v (no split)", got, alone)
	}

	// The deciding microservice's own entry never counts, whatever it says.
	coSelf := []Option{opt(t, m, "d3", "shared")}
	if got := deployTime(t, st, msIDs[0], a, msIDs[:1], coSelf); !approxEqual(got, alone) {
		t.Fatalf("self-entry Td = %v, want %v (own entry skipped)", got, alone)
	}

	// Duplicate devices among the co-pullers count once: b on d2, c on d2.
	coDup := []Option{a, opt(t, m, "d2", "shared"), opt(t, m, "d2", "shared")}
	two := sharedRTT + (sharedBW / 2).Seconds(units.GB)
	if got := deployTime(t, st, msIDs[0], a, msIDs, coDup); !approxEqual(got, two) {
		t.Fatalf("duplicate-device Td = %v, want %v", got, two)
	}
}

// TestContentionScopedToRegistry: pulls from other registries, and pulls
// from an unshared registry, never split capacity.
func TestContentionScopedToRegistry(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b")

	// b pulls from hub while a pulls from shared: no contention for a.
	a := opt(t, m, "d1", "shared")
	co := []Option{a, opt(t, m, "d2", "hub")}
	alone := sharedRTT + sharedBW.Seconds(units.GB)
	if got := deployTime(t, st, msIDs[0], a, msIDs, co); !approxEqual(got, alone) {
		t.Fatalf("cross-registry Td = %v, want %v", got, alone)
	}

	// The hub is not SharedCapacity: concurrent pulls keep full bandwidth.
	h := opt(t, m, "d1", "hub")
	coHub := []Option{h, opt(t, m, "d2", "hub")}
	hubAlone := hubRTT + hubBW.Seconds(units.GB)
	if got := deployTime(t, st, msIDs[0], h, msIDs, coHub); !approxEqual(got, hubAlone) {
		t.Fatalf("unshared Td = %v, want %v", got, hubAlone)
	}
}

// TestEnergyPricesPhases: Energy = pullW·Td + recvW·Tc + procW·Tp with the
// fixture's linear power model.
func TestEnergyPricesPhases(t *testing.T) {
	app, cluster := contentionFixture(t, dag.Dataflow{From: "a", To: "b", Size: 500 * units.MB})
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b")
	st.Commit(msIDs[0], opt(t, m, "d2", "hub"))

	b := opt(t, m, "d1", "shared")
	td := sharedRTT + sharedBW.Seconds(units.GB)
	tc := interBW.Seconds(500 * units.MB) // d2 -> d1 dataflow
	tp := 50_000.0 / 10_000.0
	want := (2+3)*td + (2+4)*tc + (2+10)*tp
	if got := st.Energy(msIDs[1], b, nil, nil); !approxEqual(got, want) {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	if got := st.CompletionTime(msIDs[1], b, nil, nil); !approxEqual(got, td+tc+tp) {
		t.Fatalf("CT = %v, want %v", got, td+tc+tp)
	}
}

// TestSteadyStateAllocationFree: Energy and CompletionTime on a compiled
// model allocate nothing, even under stage co-assignments.
func TestSteadyStateAllocationFree(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")
	co := []Option{
		opt(t, m, "d1", "shared"),
		opt(t, m, "d2", "shared"),
		opt(t, m, "d3", "shared"),
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += st.Energy(msIDs[0], co[0], msIDs, co)
		sink += st.CompletionTime(msIDs[1], co[1], msIDs, co)
	})
	if allocs != 0 {
		t.Fatalf("steady-state estimator allocates %.1f objects per run", allocs)
	}
	_ = sink
}

// TestOptionsCanonicalOrder: options are enumerated once at compile in
// (device name, registry name) order and shared thereafter.
func TestOptionsCanonicalOrder(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	id := ids(t, m, "a")[0]
	opts := m.Options(id)
	if len(opts) != 6 { // 3 devices × 2 registries
		t.Fatalf("got %d options, want 6", len(opts))
	}
	assigns := make([]sim.Assignment, len(opts))
	for i, o := range opts {
		assigns[i] = m.Assignment(o)
		if i == 0 {
			continue
		}
		prev, cur := assigns[i-1], assigns[i]
		if prev.Device > cur.Device || (prev.Device == cur.Device && prev.Registry >= cur.Registry) {
			t.Fatalf("options out of order at %d: %v then %v", i, prev, cur)
		}
	}
	if &opts[0] != &m.Options(id)[0] {
		t.Fatal("options re-enumerated instead of cached")
	}
}

// TestEnergyRowMatchesEnergy: batch pricing must be bit-identical to
// per-option Energy, solo, under stage co-assignments, and with earlier
// stages committed (the device-run memoization must not change a bit).
func TestEnergyRowMatchesEnergy(t *testing.T) {
	app, cluster := contentionFixture(t, dag.Dataflow{From: "a", To: "b", Size: 500 * units.MB})
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")

	check := func(name string, ms int32, coMS []int32, coOpt []Option) {
		t.Helper()
		opts := m.Options(ms)
		dst := make([]float64, len(opts))
		st.EnergyRow(ms, opts, coMS, coOpt, dst)
		for k, o := range opts {
			if want := st.Energy(ms, o, coMS, coOpt); dst[k] != want {
				t.Errorf("%s: option %d (%v): EnergyRow %v, Energy %v", name, k, m.Assignment(o), dst[k], want)
			}
		}
	}

	co := []Option{
		opt(t, m, "d1", "shared"),
		opt(t, m, "d2", "shared"),
		opt(t, m, "d3", "hub"),
	}
	for _, ms := range msIDs {
		check("solo", ms, nil, nil)
		check("staged", ms, msIDs, co)
	}
	st.Commit(msIDs[0], opt(t, m, "d3", "hub"))
	check("committed-upstream", msIDs[1], msIDs[1:], co[1:])
}

// TestEnergyRowAllocationFree: batch pricing allocates nothing.
func TestEnergyRowAllocationFree(t *testing.T) {
	app, cluster := contentionFixture(t)
	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")
	co := []Option{
		opt(t, m, "d1", "shared"),
		opt(t, m, "d2", "shared"),
		opt(t, m, "d3", "shared"),
	}
	opts := m.Options(msIDs[0])
	dst := make([]float64, len(opts))
	allocs := testing.AllocsPerRun(100, func() {
		st.EnergyRow(msIDs[0], opts, msIDs, co, dst)
	})
	if allocs != 0 {
		t.Fatalf("EnergyRow allocates %.1f objects per run", allocs)
	}
}

// TestEnergyRowPairMatchesEnergy: the two-level batch must be bit-identical
// to per-option Energy against one opponent — solo[k] under every opponent
// option that does not Contend with opts[k], shared[k] under every one that
// does — with and without a committed upstream, on shared, unshared, and
// unrouted (registry, device) pairs. A third stage member can push the
// contention count past two, which is exactly what the pair batch does not
// price: the test pins that limit too.
func TestEnergyRowPairMatchesEnergy(t *testing.T) {
	app, cluster := contentionFixture(t, dag.Dataflow{From: "a", To: "b", Size: 500 * units.MB})
	// A second shared registry that routes to d1 alone: (d2, far) and
	// (d3, far) are not feasible options, but they can still be priced.
	cluster.Topology.AddNode("farnode")
	mustLink(t, cluster.Topology, netsim.Link{From: "farnode", To: "d1", BW: sharedBW, RTT: sharedRTT, SharedCapacity: true})
	cluster.Registries = append(cluster.Registries, sim.RegistryInfo{Name: "far", Node: "farnode", Shared: true})

	m := Compile(app, cluster)
	st := m.NewState()
	msIDs := ids(t, m, "a", "b", "c")
	var every []Option
	for _, d := range []string{"d1", "d2", "d3"} {
		for _, r := range []string{"far", "hub", "shared"} {
			every = append(every, opt(t, m, d, r))
		}
	}
	if m.LinkOK(every[3].Registry, every[3].Device) {
		t.Fatalf("fixture: %v should be unrouted", m.Assignment(every[3]))
	}

	check := func(name string, ms, other int32) {
		t.Helper()
		solo := make([]float64, len(every))
		shared := make([]float64, len(every))
		st.EnergyRowPair(ms, every, solo, shared)
		coMS := []int32{ms, other}
		sawShared := false
		for k, x := range every {
			for _, y := range every {
				want := st.Energy(ms, x, coMS, []Option{x, y})
				got := solo[k]
				if m.Contend(x, y) {
					got, sawShared = shared[k], true
				}
				if got != want {
					t.Errorf("%s: %v against %v: EnergyRowPair %v, Energy %v", name, m.Assignment(x), m.Assignment(y), got, want)
				}
			}
			if shared[k] != solo[k] && (!m.regShared[x.Registry] || !m.LinkOK(x.Registry, x.Device)) {
				t.Errorf("%s: %v has a second price but nothing to share", name, m.Assignment(x))
			}
		}
		if !sawShared {
			t.Errorf("%s: no contended pair priced", name)
		}
	}
	check("uncommitted", msIDs[1], msIDs[2])
	st.Commit(msIDs[0], opt(t, m, "d3", "hub"))
	check("committed-upstream", msIDs[1], msIDs[2])

	// Three pullers on one shared registry: n = 3, outside both prices.
	x := opt(t, m, "d1", "shared")
	three := st.Energy(msIDs[0], x, msIDs, []Option{x, opt(t, m, "d2", "shared"), opt(t, m, "d3", "shared")})
	solo, shared := make([]float64, 1), make([]float64, 1)
	st.EnergyRowPair(msIDs[0], []Option{x}, solo, shared)
	if !(solo[0] < shared[0] && shared[0] < three) {
		t.Errorf("contention levels out of order: n=1 %v, n=2 %v, n=3 %v", solo[0], shared[0], three)
	}

	allocs := testing.AllocsPerRun(100, func() {
		st.EnergyRowPair(msIDs[1], every[:1], solo, shared)
	})
	if allocs != 0 {
		t.Errorf("EnergyRowPair allocates %.1f objects per run", allocs)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestArenaGrantsAreZeroedAndDisjoint(t *testing.T) {
	a := new(GameArena)
	f1 := a.Floats(8)
	f2 := a.Floats(8)
	for i := range f1 {
		f1[i] = 1
		f2[i] = 2
	}
	if f1[0] != 1 || f2[0] != 2 {
		t.Fatal("grants alias each other")
	}
	i1 := a.Ints(4)
	i1[0] = 7

	a.Reset()
	g1 := a.Floats(8)
	for i, v := range g1 {
		if v != 0 {
			t.Fatalf("recycled float grant not zeroed at %d: %v", i, v)
		}
	}
	j1 := a.Ints(4)
	if j1[0] != 0 {
		t.Fatal("recycled int grant not zeroed")
	}
}

// TestArenaSteadyStateAllocationFree: after warm-up, a grab/reset cycle of
// floats and ints allocates nothing.
func TestArenaSteadyStateAllocationFree(t *testing.T) {
	a := new(GameArena)
	cycle := func() {
		a.Reset()
		row := a.Floats(42)
		buf := a.Floats(12)
		idx := a.Ints(6)
		row[0], buf[0], idx[0] = 1, 1, 1
	}
	cycle() // warm up backing buffers
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %.1f objects", allocs)
	}
}
