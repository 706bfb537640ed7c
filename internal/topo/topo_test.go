package topo

import (
	"reflect"
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/units"
)

func fixture(t *testing.T) View {
	t.Helper()
	top := netsim.NewTopology()
	for _, n := range []string{"regnode", "src", "a", "b"} {
		top.AddNode(n)
	}
	for _, l := range []netsim.Link{
		{From: "regnode", To: "a", BW: 10 * units.MBps, RTT: 0.5, SharedCapacity: true},
		{From: "regnode", To: "b", BW: 20 * units.MBps, RTT: 0.25},
		{From: "src", To: "a", BW: 5 * units.MBps},
	} {
		if err := top.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.AddDuplex("a", "b", 50*units.MBps); err != nil {
		t.Fatal(err)
	}
	pmA := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	pmB := energy.LinearModel{StaticW: 2, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	return View{
		Devices: []*device.Device{
			device.New("b", dag.AMD64, 4, 1000, units.GB, 8*units.GB, pmB),
			device.New("a", dag.ARM64, 2, 500, units.GB, 8*units.GB, pmA),
			// Duplicate of "a" with a different spec: must lose to the
			// first occurrence.
			device.New("a", dag.AMD64, 8, 9000, 4*units.GB, 32*units.GB, pmB),
		},
		Registries: []Registry{
			{Name: "reg", Node: "regnode", Shared: true},
			{Name: "reg", Node: "src"}, // duplicate: must lose
		},
		Topology:   top,
		SourceNode: "src",
	}
}

func TestCompileTable(t *testing.T) {
	v := fixture(t)
	tab := Compile(v)

	if got := tab.NumDevices(); got != 2 {
		t.Fatalf("NumDevices = %d, want 2 (duplicates compacted)", got)
	}
	if got := tab.NumRegistries(); got != 1 {
		t.Fatalf("NumRegistries = %d, want 1 (duplicates compacted)", got)
	}
	// Sorted name order: a < b.
	if names := tab.DevNames(); names[0] != "a" || names[1] != "b" {
		t.Fatalf("DevNames = %v, want [a b]", names)
	}
	aID, ok := tab.DevID("a")
	if !ok || aID != 0 {
		t.Fatalf("DevID(a) = %d,%v", aID, ok)
	}
	// First occurrence wins: device "a" is the ARM one, and the duplicate
	// registry's src node lost to regnode.
	if dev := tab.Devices()[aID]; dev.Arch != dag.ARM64 || dev != v.Devices[1] {
		t.Fatalf("interned device a = %v, want the first occurrence", dev)
	}
	if !tab.RegShared()[0] {
		t.Fatal("registry lost its Shared flag to the duplicate")
	}

	nd := tab.NumDevices()
	regA := tab.RegLinks()[0*nd+int(aID)]
	if !regA.OK || regA.BW != 10*units.MBps || regA.RTT != 0.5 {
		t.Fatalf("reg->a link = %+v", regA)
	}
	// Loopback device link exists with infinite effective bandwidth
	// semantics (netsim reports it OK).
	if loop := tab.DevLinks()[int(aID)*nd+int(aID)]; !loop.OK {
		t.Fatalf("missing loopback link: %+v", loop)
	}
	if !tab.HasSource() {
		t.Fatal("source node lost")
	}
	if src := tab.SrcLinks()[aID]; !src.OK || src.BW != 5*units.MBps {
		t.Fatalf("src->a link = %+v", src)
	}
	bID, _ := tab.DevID("b")
	if src := tab.SrcLinks()[bID]; src.OK {
		t.Fatalf("src->b should be unroutable, got %+v", src)
	}

	// Idle power comes from the interned (first) device's model.
	if w := tab.IdleW()[aID]; w != 1 {
		t.Fatalf("idle power of a = %v, want 1 (first occurrence's model)", w)
	}

	// a and b differ in spec, so each is its own class; the losing
	// duplicate "a" founds none.
	if got := len(tab.ClassReps()); got != 2 {
		t.Fatalf("classes = %d, want 2", got)
	}
	if cls := tab.DevClasses(); cls[aID] == cls[bID] {
		t.Fatalf("distinct specs a and b share class %d", cls[aID])
	}
}

// TestDeviceClasses pins the class table: devices share a class exactly
// when their class keys (digest records minus the name) agree, classes are
// numbered by first appearance over device ids, and each class's
// representative is its first device.
func TestDeviceClasses(t *testing.T) {
	pm := func(idle units.Watts) energy.TableModel {
		return energy.TableModel{
			Fallback: energy.LinearModel{StaticW: idle, PullW: 1, ReceiveW: 1, ProcessingW: 1},
			ProcessW: map[string]units.Watts{"m": 7},
		}
	}
	top := netsim.NewTopology()
	mk := func(name string, speed units.MIPS, model energy.PowerModel) *device.Device {
		top.AddNode(name)
		return device.New(name, dag.AMD64, 4, speed, units.GB, 8*units.GB, model)
	}
	v := View{Topology: top, Devices: []*device.Device{
		mk("d0", 1000, pm(1)),
		mk("d1", 1000, pm(1)),   // equal maps, distinct values: same class as d0
		mk("d2", 1000.5, pm(1)), // fractional speed difference: own class
		mk("d3", 1000, pm(2)),   // different power map: own class
		mk("d4", 1000.5, pm(1)), // joins d2's class
		mk("d5", 1000, pm(1)),   // joins d0's class
		mk("d6", 1000, energy.LinearModel{StaticW: 1, PullW: 1, ReceiveW: 1, ProcessingW: 1}),
	}}
	tab := Compile(v)
	if want := []int32{0, 0, 1, 2, 1, 0, 3}; !reflect.DeepEqual(tab.DevClasses(), want) {
		t.Fatalf("DevClasses = %v, want %v", tab.DevClasses(), want)
	}
	if want := []int32{0, 2, 3, 6}; !reflect.DeepEqual(tab.ClassReps(), want) {
		t.Fatalf("ClassReps = %v, want %v", tab.ClassReps(), want)
	}
}

// TestTwinsNeedEveryLink pins the twin relation link by link on three
// identical devices a, b and c in a mesh: two are twins only while the
// links between them agree both ways and their rows and columns agree
// against the third (a slower a→c also parts b from c, whose columns
// differ at a).
func TestTwinsNeedEveryLink(t *testing.T) {
	pm := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	build := func(set func(top *netsim.Topology)) *ClusterTable {
		top := netsim.NewTopology()
		top.AddNode("reg")
		var devices []*device.Device
		for _, n := range []string{"a", "b", "c"} {
			top.AddNode(n)
			devices = append(devices, device.New(n, dag.AMD64, 4, 1000, units.GB, 8*units.GB, pm))
			if err := top.AddLink(netsim.Link{From: "reg", To: n, BW: 10 * units.MBps}); err != nil {
				t.Fatal(err)
			}
		}
		for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
			if err := top.AddDuplex(pair[0], pair[1], 20*units.MBps); err != nil {
				t.Fatal(err)
			}
		}
		set(top)
		return Compile(View{Devices: devices, Registries: []Registry{{Name: "reg", Node: "reg"}}, Topology: top})
	}
	for _, tc := range []struct {
		name string
		set  func(top *netsim.Topology) error
		want []int32
	}{
		{"full symmetric mesh", func(*netsim.Topology) error { return nil }, []int32{0, 0, 0}},
		{"a to b differs from b to a", func(top *netsim.Topology) error { return top.SetBandwidth("a", "b", 5*units.MBps) }, []int32{0, 1, 2}},
		{"a to c differs from b to c", func(top *netsim.Topology) error { return top.SetBandwidth("a", "c", 5*units.MBps) }, []int32{0, 1, 2}},
		{"c to a differs from c to b", func(top *netsim.Topology) error { return top.SetBandwidth("c", "a", 5*units.MBps) }, []int32{0, 1, 2}},
		{"registry link to c differs", func(top *netsim.Topology) error { return top.SetBandwidth("reg", "c", 5*units.MBps) }, []int32{0, 0, 1}},
	} {
		tab := build(func(top *netsim.Topology) {
			if err := tc.set(top); err != nil {
				t.Fatal(err)
			}
		})
		if got := tab.Twins(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: twins %v, want %v", tc.name, got, tc.want)
		}
	}
}
