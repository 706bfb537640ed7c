package sim_test

// The plan prices each microservice once per device class and keeps one row
// per class, which each device reads through its class id. perDeviceRows is
// the definition it is held to: the straightforward per-(microservice,
// device) loop, pricing every cell on its own device handle.

import (
	"fmt"
	"reflect"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// planRows are a plan's per-(microservice, device) tables, indexed
// ms*numDev+dev: its class rows expanded through the device classes.
type planRows struct {
	Feasible                  []bool
	Tp                        []float64
	PullW, RecvW, ProcW       []units.Watts
	ActPullW, ActRecvW, ActPW []units.Watts
}

func rowsOf(p *sim.Plan) planRows {
	devClass, feasible, tp, pullW, recvW, procW := p.MSRows()
	nd, nc := p.NumDevices(), len(p.Table().ClassReps())
	nm := len(feasible) / nc
	r := planRows{
		Feasible: make([]bool, nm*nd), Tp: make([]float64, nm*nd),
		PullW: make([]units.Watts, nm*nd), RecvW: make([]units.Watts, nm*nd), ProcW: make([]units.Watts, nm*nd),
	}
	for i := 0; i < nm; i++ {
		for d, c := range devClass {
			k, at := i*nc+int(c), i*nd+d
			r.Feasible[at], r.Tp[at] = feasible[k], tp[k]
			r.PullW[at], r.RecvW[at], r.ProcW[at] = pullW[k], recvW[k], procW[k]
		}
	}
	r.ActPullW, r.ActRecvW, r.ActPW = p.ActRows()
	return r
}

// feasibleOn reports whether the plan lets microservice i run on device d.
func feasibleOn(p *sim.Plan, i, d int) bool {
	devClass, feasible, _, _, _, _ := p.MSRows()
	return feasible[i*len(p.Table().ClassReps())+int(devClass[d])]
}

// perDeviceRows prices every (microservice, device) cell on its own device:
// the reference the class-based compile must match exactly.
func perDeviceRows(app *dag.App, cluster *sim.Cluster) planRows {
	at := appgraph.Compile(app)
	tab := sim.CompileClusterTable(cluster)
	ms, names := at.Microservices(), tab.DevNames()
	n := len(ms) * len(names)
	r := planRows{
		Feasible: make([]bool, n), Tp: make([]float64, n),
		PullW: make([]units.Watts, n), RecvW: make([]units.Watts, n), ProcW: make([]units.Watts, n),
		ActPullW: make([]units.Watts, n), ActRecvW: make([]units.Watts, n), ActPW: make([]units.Watts, n),
	}
	for i, m := range ms {
		for d, name := range names {
			dev := cluster.Device(name)
			idle := dev.Power.Power(energy.Idle, "")
			k := i*len(names) + d
			r.Feasible[k] = dev.CanRun(m) == nil
			r.Tp[k] = dev.ProcessingTime(m.Req.CPU)
			r.PullW[k] = dev.Power.Power(energy.Pulling, m.Name)
			r.RecvW[k] = dev.Power.Power(energy.Receiving, m.Name)
			r.ProcW[k] = dev.Power.Power(energy.Processing, m.Name)
			r.ActPullW[k] = r.PullW[k] - idle
			r.ActRecvW[k] = r.RecvW[k] - idle
			r.ActPW[k] = r.ProcW[k] - idle
		}
	}
	return r
}

// checkClassRows compiles the plan fresh and into a scratch dirtied by an
// unrelated compile, and requires both to equal the per-device reference.
func checkClassRows(t *testing.T, app *dag.App, cluster *sim.Cluster) {
	t.Helper()
	want := perDeviceRows(app, cluster)
	if got := rowsOf(sim.CompilePlan(app, cluster)); !reflect.DeepEqual(got, want) {
		t.Fatalf("class-priced plan rows != per-device reference\ngot:  %+v\nwant: %+v", got, want)
	}
	var s sim.PlanScratch
	s.Compile(appgraph.Compile(workload.VideoProcessing()), workload.ScaledTestbed(3),
		sim.CompileClusterTable(workload.ScaledTestbed(3)))
	got := rowsOf(s.Compile(appgraph.Compile(app), cluster, sim.CompileClusterTable(cluster)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused-scratch plan rows != per-device reference\ngot:  %+v\nwant: %+v", got, want)
	}
}

func generated(t testing.TB, n int, seed int64) *dag.App {
	t.Helper()
	app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// withArches builds a second app like app but with the named
// microservice's Arches replaced: a built app is read-only.
func withArches(t testing.TB, app *dag.App, name string, arches []dag.Arch) *dag.App {
	t.Helper()
	b := dag.Builder{Name: app.Name}
	for _, m := range app.Microservices {
		m := *m
		if m.Name == name {
			m.Arches = arches
		}
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range app.Dataflows {
		if err := b.Dataflow(e.From, e.To, e.Size); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanClassesMatchPerDevice(t *testing.T) {
	ownClasses := workload.ScaledTestbed(4)
	for i, d := range ownClasses.Devices {
		d.Speed += units.MIPS(i) * 0.25 // every device its own class
	}

	// Two same-spec medium devices whose table models differ in one
	// microservice's processing draw.
	splitPower := workload.ScaledTestbed(2)
	med := splitPower.Devices[2].Power.(energy.TableModel)
	procW := make(map[string]units.Watts, len(med.ProcessW)+1)
	for k, v := range med.ProcessW {
		procW[k] = v
	}
	procW["ms-03"] = 99
	med.ProcessW = procW
	splitPower.Devices[2].Power = med

	amdOnly := withArches(t, generated(t, 16, 5), "ms-02", []dag.Arch{dag.AMD64})

	cases := []struct {
		name    string
		app     *dag.App
		cluster *sim.Cluster
		classes int
	}{
		{"paper testbed/video", workload.VideoProcessing(), workload.Testbed(), 2},
		{"paper testbed/text", workload.TextProcessing(), workload.Testbed(), 2},
		{"scaled1", generated(t, 16, 1), workload.ScaledTestbed(1), 2},
		{"scaled4", generated(t, 16, 2), workload.ScaledTestbed(4), 2},
		{"scaled12", generated(t, 16, 3), workload.ScaledTestbed(12), 2},
		{"scaled25", generated(t, 12, 4), workload.ScaledTestbed(25), 2},
		{"every device its own class", generated(t, 16, 6), ownClasses, 8},
		{"same spec, different power maps", generated(t, 8, 7), splitPower, 3},
		{"infeasible on ARM", amdOnly, workload.ScaledTestbed(12), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(sim.CompileClusterTable(tc.cluster).ClassReps()); got != tc.classes {
				t.Fatalf("classes = %d, want %d", got, tc.classes)
			}
			checkClassRows(t, tc.app, tc.cluster)
		})
	}

	// The infeasible cells are really there: ms-02 runs on no small device.
	p := sim.CompilePlan(amdOnly, workload.ScaledTestbed(12))
	i, _ := appgraph.Compile(amdOnly).MSID("ms-02")
	for d, name := range p.Table().DevNames() {
		if arm := p.Table().Devices()[d].Arch == dag.ARM64; feasibleOn(p, int(i), d) == arm {
			t.Fatalf("ms-02 on %s: feasible = %v", name, !arm)
		}
	}
}

// TestPlanFeasibleFirstOccurrence: the plan's feasibility rows describe the
// first-declared device of a duplicated name, never the loser's spec.
func TestPlanFeasibleFirstOccurrence(t *testing.T) {
	pm := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	top := netsim.NewTopology()
	for _, n := range []string{"hub", "a", "b"} {
		top.AddNode(n)
	}
	cluster := &sim.Cluster{
		Devices: []*device.Device{
			device.New("b", dag.AMD64, 4, 1000, units.GB, 8*units.GB, pm),
			device.New("a", dag.AMD64, 2, 500, units.GB, 8*units.GB, pm),
			device.New("a", dag.AMD64, 8, 9000, 4*units.GB, 32*units.GB, pm), // duplicate: loses
		},
		Registries: []sim.RegistryInfo{{Name: "hub", Node: "hub"}},
		Topology:   top,
	}
	b := dag.Builder{Name: "one"}
	if err := b.Microservice(dag.Microservice{Name: "m", ImageSize: units.MB, Req: dag.Requirements{Cores: 4, CPU: 100}}); err != nil {
		t.Fatal(err)
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	p := sim.CompilePlan(app, cluster)
	aID, _ := p.Table().DevID("a")
	bID, _ := p.Table().DevID("b")
	if feasibleOn(p, 0, int(aID)) {
		t.Fatal("4-core microservice should not fit the 2-core first device a")
	}
	if !feasibleOn(p, 0, int(bID)) {
		t.Fatal("4-core microservice should fit device b")
	}
}

// FuzzPlanClassesMatchPerDevice draws clusters whose device specs and power
// maps come from a few values each, so classes collide often, and requires
// the class-priced plan to equal the per-device reference. Each spec byte is
// one device: bit 0 architecture, bit 1 cores, bit 2 a fractional speed
// step, bit 3 memory, bits 4-5 the power model.
func FuzzPlanClassesMatchPerDevice(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 1})
	f.Add(int64(2), []byte{0x00, 0x04, 0x10, 0x20, 0x30, 0x3f, 0x08, 0x01})
	f.Add(int64(3), []byte{0x11, 0x11, 0x11, 0x22, 0x2a, 0x07})
	f.Fuzz(func(t *testing.T, seed int64, spec []byte) {
		if len(spec) == 0 || len(spec) > 12 {
			return
		}
		app := generated(t, 1+int(uint64(seed)%6), seed)
		if len(app.Microservices) > 1 {
			app = withArches(t, app, app.Microservices[1].Name, []dag.Arch{dag.AMD64})
		}
		table := func(idle units.Watts, proc units.Watts) energy.TableModel {
			return energy.TableModel{
				Fallback:  energy.LinearModel{StaticW: idle, PullW: 1, ReceiveW: 2, ProcessingW: 3},
				ProcessW:  map[string]units.Watts{"ms-00": proc, "ms-02": 5},
				TransferW: map[string]units.Watts{"ms-01": 4},
			}
		}
		top := netsim.NewTopology()
		top.AddNode("hub")
		cluster := &sim.Cluster{
			Registries: []sim.RegistryInfo{{Name: "hub", Node: "hub"}},
			Topology:   top,
		}
		for i, b := range spec {
			arch := dag.AMD64
			if b&1 != 0 {
				arch = dag.ARM64
			}
			cores := 2 + 2*int(b>>1&1)
			speed := 1000 + 0.25*units.MIPS(b>>2&1)
			mem := units.GB / 2 * units.Bytes(1+2*(b>>3&1))
			var pm energy.PowerModel
			switch b >> 4 & 3 {
			case 0:
				pm = energy.LinearModel{StaticW: 1, PullW: 1, ReceiveW: 2, ProcessingW: 3}
			case 1:
				pm = table(1, 9)
			case 2:
				pm = table(1, 9.001) // prints as 9W under %v
			default:
				pm = table(2, 9)
			}
			name := fmt.Sprintf("dev-%02d", i)
			top.AddNode(name)
			cluster.Devices = append(cluster.Devices, device.New(name, arch, cores, speed, mem, 8*units.GB, pm))
		}
		checkClassRows(t, app, cluster)
	})
}
