package topo

import (
	"fmt"
	"reflect"
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/units"
)

// churnFixture builds an n-device, two-registry view with a full device mesh
// — big enough that every Patch copy path (registry rows, device rows,
// source rows, idle power) carries real data.
func churnFixture(t *testing.T, n int) View {
	t.Helper()
	top := netsim.NewTopology()
	for _, node := range []string{"hub", "regional", "src"} {
		top.AddNode(node)
	}
	pm := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	var devices []*device.Device
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dev-%02d", i)
		devices = append(devices, device.New(name, dag.AMD64, 4, 1000, units.GB, 8*units.GB, pm))
		top.AddNode(name)
		mustAdd(t, top, netsim.Link{From: "hub", To: name, BW: units.Bandwidth(10+i) * units.MBps})
		mustAdd(t, top, netsim.Link{From: "regional", To: name, BW: units.Bandwidth(20+i) * units.MBps, SharedCapacity: true})
		mustAdd(t, top, netsim.Link{From: "src", To: name, BW: 5 * units.MBps})
		for j := 0; j < i; j++ {
			other := fmt.Sprintf("dev-%02d", j)
			if err := top.AddDuplex(name, other, units.Bandwidth(50+i+j)*units.MBps); err != nil {
				t.Fatal(err)
			}
		}
	}
	return View{
		Devices: devices,
		Registries: []Registry{
			{Name: "hub", Node: "hub"},
			{Name: "regional", Node: "regional", Shared: true},
		},
		Topology:   top,
		SourceNode: "src",
	}
}

func mustAdd(t *testing.T, top *netsim.Topology, l netsim.Link) {
	t.Helper()
	if err := top.AddLink(l); err != nil {
		t.Fatal(err)
	}
}

// without filters a view down to the devices and registries not named.
func without(v View, devNames, regNames []string) View {
	drop := make(map[string]bool)
	for _, n := range devNames {
		drop[n] = true
	}
	rdrop := make(map[string]bool)
	for _, n := range regNames {
		rdrop[n] = true
	}
	out := v
	out.Devices = nil
	for _, d := range v.Devices {
		if !drop[d.Name] {
			out.Devices = append(out.Devices, d)
		}
	}
	out.Registries = nil
	for _, r := range v.Registries {
		if !rdrop[r.Name] {
			out.Registries = append(out.Registries, r)
		}
	}
	return out
}

// TestPatchEquivalence pins the delta-patch contract: a table patched to a
// mutated view is reflect.DeepEqual to a from-scratch Compile of that view,
// across device and registry add/remove/fail in every combination (a crash
// and a removal are the same table-level operation: the device leaves the
// compiled view). Interned device handles come from the shared view, so
// DeepEqual compares them by pointer identity — pointer-distinct but
// value-equal handles would still fail, which is exactly the sharing
// contract the fleet relies on.
func TestPatchEquivalence(t *testing.T) {
	base := churnFixture(t, 8)
	baseTab := Compile(base)

	cases := []struct {
		name string
		view func() View
	}{
		{"fail one device", func() View { return without(base, []string{"dev-03"}, nil) }},
		{"fail several devices", func() View { return without(base, []string{"dev-00", "dev-05", "dev-07"}, nil) }},
		{"fail a registry", func() View { return without(base, nil, []string{"regional"}) }},
		{"fail devices and a registry", func() View { return without(base, []string{"dev-02"}, []string{"hub"}) }},
		{"identity", func() View { return base }},
		{"add a device", func() View {
			v := base
			pm := energy.LinearModel{StaticW: 9, PullW: 2, ReceiveW: 3, ProcessingW: 4}
			joined := device.New("dev-99", dag.ARM64, 2, 500, units.GB, 4*units.GB, pm)
			top := v.Topology.Clone()
			top.AddNode("dev-99")
			mustAdd(t, top, netsim.Link{From: "hub", To: "dev-99", BW: 7 * units.MBps})
			mustAdd(t, top, netsim.Link{From: "dev-99", To: "dev-01", BW: 3 * units.MBps})
			v.Topology = top
			v.Devices = append(append([]*device.Device{}, v.Devices...), joined)
			return v
		}},
		{"add a registry", func() View {
			v := base
			top := v.Topology.Clone()
			top.AddNode("mirror")
			mustAdd(t, top, netsim.Link{From: "mirror", To: "dev-04", BW: 11 * units.MBps})
			v.Topology = top
			v.Registries = append(append([]Registry{}, v.Registries...), Registry{Name: "mirror", Node: "mirror"})
			return v
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := tc.view()
			patched := baseTab.Patch(v, Delta{})
			full := Compile(v)
			// Joiners and leavers reshape the class table too.
			if !reflect.DeepEqual(patched.DevClasses(), full.DevClasses()) ||
				!reflect.DeepEqual(patched.ClassReps(), full.ClassReps()) {
				t.Fatalf("class table: patched %v / %v, full %v / %v",
					patched.DevClasses(), patched.ClassReps(), full.DevClasses(), full.ClassReps())
			}
			if !reflect.DeepEqual(patched, full) {
				t.Fatalf("patched table != full compile\npatched: %+v\nfull:    %+v", patched, full)
			}
		})
	}
}

// TestPatchChained pins that patches compose: crash, then crash again, then
// recover both — each step patched from the previous table — lands exactly
// where a cold Compile of the final view lands, including the round trip
// back to the original view.
func TestPatchChained(t *testing.T) {
	base := churnFixture(t, 6)
	tab := Compile(base)

	step1 := without(base, []string{"dev-01"}, nil)
	tab1 := tab.Patch(step1, Delta{})
	if !reflect.DeepEqual(tab1, Compile(step1)) {
		t.Fatal("step 1 diverged from full compile")
	}
	step2 := without(base, []string{"dev-01", "dev-04"}, []string{"regional"})
	tab2 := tab1.Patch(step2, Delta{})
	if !reflect.DeepEqual(tab2, Compile(step2)) {
		t.Fatal("step 2 diverged from full compile")
	}
	// Full recovery: patching back to the base view must reproduce the
	// original table exactly.
	tab3 := tab2.Patch(base, Delta{})
	if !reflect.DeepEqual(tab3, Compile(base)) {
		t.Fatal("recovery diverged from full compile")
	}
	if !reflect.DeepEqual(tab3, tab) {
		t.Fatal("recovery diverged from the original table")
	}
}

// TestPatchTouchedNodes pins the in-place link-change contract: bandwidth
// degradation is invisible to the name-set diff, so the patched table serves
// stale rows unless the delta names the touched node — and recompiles
// exactly the incident rows when it does.
func TestPatchTouchedNodes(t *testing.T) {
	base := churnFixture(t, 5)
	tab := Compile(base)

	v := base
	v.Topology = base.Topology.Clone()
	if err := v.Topology.SetBandwidth("regional", "dev-02", 1*units.MBps); err != nil {
		t.Fatal(err)
	}
	if err := v.Topology.SetBandwidth("dev-02", "dev-03", 2*units.MBps); err != nil {
		t.Fatal(err)
	}

	full := Compile(v)
	stale := tab.Patch(v, Delta{})
	if reflect.DeepEqual(stale, full) {
		t.Fatal("degradation without TouchedNodes should serve stale link rows (negative control)")
	}
	patched := tab.Patch(v, Delta{TouchedNodes: []string{"dev-02"}})
	if !reflect.DeepEqual(patched, full) {
		t.Fatal("degradation with TouchedNodes diverged from full compile")
	}
}

// TestPatchReplacedDeviceHandle pins that swapping a device's handle (same
// name, new object — a reprovisioned node) re-derives that device's idle
// power instead of serving the old handle's.
func TestPatchReplacedDeviceHandle(t *testing.T) {
	base := churnFixture(t, 3)
	tab := Compile(base)

	v := base
	pm := energy.LinearModel{StaticW: 42, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	v.Devices = append([]*device.Device{}, base.Devices...)
	v.Devices[1] = device.New("dev-01", dag.AMD64, 8, 2000, units.GB, 8*units.GB, pm)

	patched := tab.Patch(v, Delta{})
	full := Compile(v)
	if !reflect.DeepEqual(patched, full) {
		t.Fatal("replaced handle diverged from full compile")
	}
	id, _ := patched.DevID("dev-01")
	if patched.IdleW()[id] != 42 {
		t.Fatalf("idle power not re-derived for replaced handle: %v", patched.IdleW()[id])
	}
	// The replacement's spec differs, so it must leave the shared class
	// rather than inherit the old handle's key.
	if got := len(patched.ClassReps()); got != 2 || patched.DevClasses()[id] == patched.DevClasses()[0] {
		t.Fatalf("replaced handle not reclassified: classes %v", patched.DevClasses())
	}
}
