package sim

import (
	"math"
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/units"
)

// testCluster builds a two-device, two-registry cluster with simple numbers:
// hub link 10 MB/s, regional link 20 MB/s (shared), device interconnect
// 5 MB/s, devices at 1000 and 500 MI/s.
func testCluster() *Cluster {
	pmA := energy.LinearModel{StaticW: 2, PullW: 3, ReceiveW: 1, ProcessingW: 18}
	pmB := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 1, ProcessingW: 6}
	devA := device.New("devA", dag.AMD64, 8, 1000, 16*units.GB, 64*units.GB, pmA)
	devB := device.New("devB", dag.ARM64, 4, 500, 8*units.GB, 32*units.GB, pmB)

	topo := netsim.NewTopology()
	for _, n := range []string{"hubNode", "regNode", "devA", "devB"} {
		topo.AddNode(n)
	}
	mustLink := func(l netsim.Link) {
		if err := topo.AddLink(l); err != nil {
			panic(err)
		}
	}
	mustLink(netsim.Link{From: "hubNode", To: "devA", BW: 10 * units.MBps})
	mustLink(netsim.Link{From: "hubNode", To: "devB", BW: 10 * units.MBps})
	mustLink(netsim.Link{From: "regNode", To: "devA", BW: 20 * units.MBps, SharedCapacity: true})
	mustLink(netsim.Link{From: "regNode", To: "devB", BW: 20 * units.MBps, SharedCapacity: true})
	if err := topo.AddDuplex("devA", "devB", 5*units.MBps); err != nil {
		panic(err)
	}

	return &Cluster{
		Devices: []*device.Device{devA, devB},
		Registries: []RegistryInfo{
			{Name: "hub", Node: "hubNode"},
			{Name: "regional", Node: "regNode", Shared: true},
		},
		Topology: topo,
	}
}

// buildApp builds an app from its vertices and edges through a Builder.
func buildApp(t testing.TB, name string, ms []dag.Microservice, edges []dag.Dataflow) *dag.App {
	t.Helper()
	b := dag.Builder{Name: name}
	for _, m := range ms {
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := b.Dataflow(e.From, e.To, e.Size); err != nil {
			t.Fatal(err)
		}
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// chainApp builds a -> b with the given sizes.
func chainApp(t *testing.T) *dag.App {
	t.Helper()
	return buildApp(t, "chain", []dag.Microservice{
		{Name: "a", ImageSize: 100 * units.MB, Req: dag.Requirements{CPU: 2000}},
		{Name: "b", ImageSize: 200 * units.MB, Req: dag.Requirements{CPU: 1000}},
	}, []dag.Dataflow{{From: "a", To: "b", Size: 50 * units.MB}})
}

func TestRunChainTimings(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	res, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := res.ByName("a")
	// a: pull 100MB at 10MB/s = 10s; no inputs; 2000MI at 1000MI/s = 2s.
	if math.Abs(ra.DeployTime-10) > 1e-9 || ra.TransferTime != 0 || math.Abs(ra.ProcessTime-2) > 1e-9 {
		t.Errorf("a = %+v", ra)
	}
	if math.Abs(ra.CT-12) > 1e-9 {
		t.Errorf("a.CT = %v", ra.CT)
	}
	rb, _ := res.ByName("b")
	// b (stage 1, barrier at 12): pull 200MB at 20MB/s = 10s (alone on the
	// shared link); dataflow 50MB from devA at 5MB/s = 10s; 1000MI at
	// 500MI/s = 2s.
	if math.Abs(rb.DeployTime-10) > 1e-9 || math.Abs(rb.TransferTime-10) > 1e-9 || math.Abs(rb.ProcessTime-2) > 1e-9 {
		t.Errorf("b = %+v", rb)
	}
	if math.Abs(rb.Start-12) > 1e-9 {
		t.Errorf("b.Start = %v, want barrier at 12", rb.Start)
	}
	if math.Abs(res.Makespan-34) > 1e-9 {
		t.Errorf("makespan = %v, want 34", res.Makespan)
	}
}

func TestRunEnergyAccounting(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	res, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := res.ByName("a")
	// a on devA: pull 10s at (2+3)W, process 2s at (2+18)W.
	// active (above idle): 10*3 + 2*18 = 66 J; static: 12s * 2W = 24 J.
	if math.Abs(float64(ra.Energy)-66) > 1e-6 {
		t.Errorf("a active energy = %v, want 66", ra.Energy)
	}
	if math.Abs(float64(ra.StaticShare)-24) > 1e-6 {
		t.Errorf("a static share = %v, want 24", ra.StaticShare)
	}
	if math.Abs(float64(ra.TotalEnergy())-90) > 1e-6 {
		t.Errorf("a total = %v, want 90", ra.TotalEnergy())
	}
	// Device meter must agree with the per-microservice totals.
	if math.Abs(float64(res.EnergyByDevice["devA"]-ra.TotalEnergy())) > 1e-6 {
		t.Errorf("device meter %v != ms energy %v", res.EnergyByDevice["devA"], ra.TotalEnergy())
	}
	rb, _ := res.ByName("b")
	wantTotal := ra.TotalEnergy() + rb.TotalEnergy()
	if math.Abs(float64(res.TotalEnergy-wantTotal)) > 1e-6 {
		t.Errorf("total = %v, want %v", res.TotalEnergy, wantTotal)
	}
}

func TestRunSharedRegistryContention(t *testing.T) {
	// Two microservices in the same stage pulling from the shared regional
	// registry must split its capacity; from the hub they would not.
	var ms []dag.Microservice
	for _, n := range []string{"src", "x", "y"} {
		ms = append(ms, dag.Microservice{Name: n, ImageSize: 100 * units.MB, Req: dag.Requirements{CPU: 500}})
	}
	app := buildApp(t, "par", ms, []dag.Dataflow{{From: "src", To: "x"}, {From: "src", To: "y"}})

	cluster := testCluster()
	regional := Placement{
		"src": {Device: "devA", Registry: "hub"},
		"x":   {Device: "devA", Registry: "regional"},
		"y":   {Device: "devB", Registry: "regional"},
	}
	res, err := Run(app, cluster, regional, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, _ := res.ByName("x")
	ry, _ := res.ByName("y")
	// Both pull 100MB concurrently over a 20MB/s shared uplink: 10s each.
	if math.Abs(rx.DeployTime-10) > 1e-9 || math.Abs(ry.DeployTime-10) > 1e-9 {
		t.Errorf("shared pulls: x=%v y=%v, want 10 each", rx.DeployTime, ry.DeployTime)
	}

	hub := Placement{
		"src": {Device: "devA", Registry: "hub"},
		"x":   {Device: "devA", Registry: "hub"},
		"y":   {Device: "devB", Registry: "hub"},
	}
	res2, err := Run(app, cluster, hub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hx, _ := res2.ByName("x")
	hy, _ := res2.ByName("y")
	// Hub links are independent CDN paths: 100MB at 10MB/s = 10s each too,
	// but without contention scaling; compare against a single regional pull
	// (5s at full 20MB/s) to see the game's tension.
	if math.Abs(hx.DeployTime-10) > 1e-9 || math.Abs(hy.DeployTime-10) > 1e-9 {
		t.Errorf("hub pulls: x=%v y=%v", hx.DeployTime, hy.DeployTime)
	}
	solo := Placement{
		"src": {Device: "devA", Registry: "hub"},
		"x":   {Device: "devA", Registry: "regional"},
		"y":   {Device: "devB", Registry: "hub"},
	}
	res3, err := Run(app, cluster, solo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sx, _ := res3.ByName("x")
	if math.Abs(sx.DeployTime-5) > 1e-9 {
		t.Errorf("solo regional pull = %v, want 5", sx.DeployTime)
	}
}

func TestRunLayerCacheSkipsPull(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	// Both microservices share a base layer.
	cluster.Layers = map[string][]Layer{
		"a": {{Digest: "base", Size: 80 * units.MB}, {Digest: "a-top", Size: 20 * units.MB}},
		"b": {{Digest: "base", Size: 80 * units.MB}, {Digest: "b-top", Size: 120 * units.MB}},
	}
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devA", Registry: "hub"},
	}
	res, err := Run(app, cluster, placement, Options{WarmCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := res.ByName("b")
	// b shares the 80MB base with a (same device): pulls only 120MB.
	if rb.BytesPulled != 120*units.MB {
		t.Errorf("b pulled %v, want 120MB", rb.BytesPulled)
	}
	if math.Abs(rb.DeployTime-12) > 1e-9 {
		t.Errorf("b deploy = %v, want 12", rb.DeployTime)
	}

	// A second warm run should pull nothing at all.
	res2, err := Run(app, cluster, placement, Options{WarmCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2.Microservices {
		if !r.CacheHit || r.BytesPulled != 0 || r.DeployTime != 0 {
			t.Errorf("warm run should be fully cached: %+v", r)
		}
	}
}

func TestRunDeviceSerialization(t *testing.T) {
	// Two same-stage microservices on one device execute one after another.
	app := buildApp(t, "par", []dag.Microservice{
		{Name: "x", ImageSize: 10 * units.MB, Req: dag.Requirements{CPU: 1000}},
		{Name: "y", ImageSize: 10 * units.MB, Req: dag.Requirements{CPU: 1000}},
	}, []dag.Dataflow{{From: "x", To: "y"}}) // chain to keep the graph connected
	cluster := testCluster()
	placement := Placement{
		"x": {Device: "devA", Registry: "hub"},
		"y": {Device: "devA", Registry: "hub"},
	}
	res, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, _ := res.ByName("x")
	ry, _ := res.ByName("y")
	if ry.Start < rx.Finish-1e-9 && ry.WaitTime == 0 {
		t.Errorf("expected serialization between x and y: %+v %+v", rx, ry)
	}
	// WaitTime never counts into CT (the paper's CT is Td+Tc+Tp).
	if math.Abs(ry.CT-(ry.DeployTime+ry.TransferTime+ry.ProcessTime)) > 1e-9 {
		t.Errorf("CT must be Td+Tc+Tp: %+v", ry)
	}
}

func TestRunValidatesPlacement(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	cases := []Placement{
		{"a": {Device: "devA", Registry: "hub"}}, // missing b
		{"a": {Device: "nope", Registry: "hub"}, "b": {Device: "devB", Registry: "regional"}},
		{"a": {Device: "devA", Registry: "nope"}, "b": {Device: "devB", Registry: "regional"}},
	}
	for i, p := range cases {
		if _, err := Run(app, cluster, p, Options{}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunArchConstraint(t *testing.T) {
	app := buildApp(t, "archy", []dag.Microservice{{
		Name: "amdonly", ImageSize: units.MB,
		Arches: []dag.Arch{dag.AMD64},
	}}, nil)
	cluster := testCluster()
	p := Placement{"amdonly": {Device: "devB", Registry: "hub"}} // devB is arm64
	if _, err := Run(app, cluster, p, Options{}); err == nil {
		t.Error("arm64 device must reject amd64-only image")
	}
}

func TestRunDeterminism(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	r1, err := Run(app, cluster, placement, Options{Seed: 42, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(app, cluster, placement, Options{Seed: 42, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalEnergy != r2.TotalEnergy || r1.Makespan != r2.Makespan {
		t.Errorf("same seed must reproduce: %v/%v vs %v/%v", r1.TotalEnergy, r1.Makespan, r2.TotalEnergy, r2.Makespan)
	}
	r3, err := Run(app, cluster, placement, Options{Seed: 43, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalEnergy == r3.TotalEnergy {
		t.Error("different seeds should perturb results")
	}
}

func TestRunJitterBounded(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	base, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		r, err := Run(app, cluster, placement, Options{Seed: seed, Jitter: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range r.Microservices {
			b := base.Microservices[i]
			if m.ProcessTime < b.ProcessTime*0.98-1e-9 || m.ProcessTime > b.ProcessTime*1.02+1e-9 {
				t.Errorf("seed %d: %s Tp %v outside ±2%% of %v", seed, m.Name, m.ProcessTime, b.ProcessTime)
			}
		}
	}
}

func TestResultSortedAndLookup(t *testing.T) {
	app := chainApp(t)
	cluster := testCluster()
	placement := Placement{
		"a": {Device: "devA", Registry: "hub"},
		"b": {Device: "devB", Registry: "regional"},
	}
	res, err := Run(app, cluster, placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sorted()
	if s[0].Name != "a" || s[1].Name != "b" {
		t.Errorf("sorted = %v", s)
	}
	if _, ok := res.ByName("nope"); ok {
		t.Error("unknown lookup should fail")
	}
	if got := res.BytesFromRegistry["hub"]; got != 100*units.MB {
		t.Errorf("hub bytes = %v", got)
	}
}

// TestClusterLookupSeesEdits: Device and Registry answer from the slices as
// they are now, so an element replaced in place after a lookup is found under
// its new name and no longer under its old one, and where two elements share
// a name the first one wins.
func TestClusterLookupSeesEdits(t *testing.T) {
	c := testCluster()
	devA, devB := c.Devices[0], c.Devices[1]
	if c.Device("devA") != devA || c.Device("devB") != devB {
		t.Fatal("lookup of the built devices failed")
	}
	if _, ok := c.Registry("hub"); !ok {
		t.Fatal("lookup of the built registry failed")
	}

	renamed := devA.WithName("renamed")
	c.Devices[0] = renamed
	if got := c.Device("renamed"); got != renamed {
		t.Errorf("Device(renamed) = %v after an in-place replace, want the new device", got)
	}
	if got := c.Device("devA"); got != nil {
		t.Errorf("Device(devA) = %v after devA was replaced, want nil", got)
	}
	c.Registries[0] = RegistryInfo{Name: "mirror", Node: "hubNode"}
	if r, ok := c.Registry("mirror"); !ok || r.Node != "hubNode" {
		t.Errorf("Registry(mirror) = %+v, %v after an in-place replace", r, ok)
	}
	if _, ok := c.Registry("hub"); ok {
		t.Error("Registry(hub) still found after hub was replaced")
	}

	twin := devA.WithName("devB")
	c.Devices[0] = twin
	if got := c.Device("devB"); got != twin {
		t.Errorf("Device(devB) = %v with two devices named devB, want the first", got)
	}
	c.Registries = append(c.Registries, RegistryInfo{Name: "mirror", Node: "regNode"})
	if r, _ := c.Registry("mirror"); r.Node != "hubNode" {
		t.Errorf("Registry(mirror) = %+v with two registries named mirror, want the first", r)
	}
}
