package topo_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/units"
	"deep/internal/workload"
)

// twinGroups lists each twin class's device names, first device first,
// walking the TwinReps / TwinNext chains, and checks that the chains and
// Twins agree: every device on exactly one chain, in ascending id order,
// on the chain of its own class.
func twinGroups(t *testing.T, tab *topo.ClusterTable) [][]string {
	t.Helper()
	names, twin, next := tab.DevNames(), tab.Twins(), tab.TwinNext()
	seen := make([]bool, len(names))
	var groups [][]string
	for c, d := range tab.TwinReps() {
		var group []string
		for last := int32(-1); d >= 0; last, d = d, next[d] {
			if d <= last || seen[d] || twin[d] != int32(c) {
				t.Fatalf("twin chain of class %d broken at device %d (twins %v, next %v)", c, d, twin, next)
			}
			seen[d] = true
			group = append(group, names[d])
		}
		groups = append(groups, group)
	}
	for d, ok := range seen {
		if !ok {
			t.Fatalf("device %s on no twin chain", names[d])
		}
	}
	return groups
}

// viewOf is the topo view of a cluster, optionally without one device.
func viewOf(c *sim.Cluster, down string) topo.View {
	v := topo.View{Topology: c.Topology, SourceNode: c.SourceNode}
	for _, d := range c.Devices {
		if d.Name != down {
			v.Devices = append(v.Devices, d)
		}
	}
	for _, r := range c.Registries {
		v.Registries = append(v.Registries, topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared})
	}
	return v
}

// TestScaledTestbedHasTwoTwinClasses: ScaledTestbed's boxes of one spec
// share every link, so its twin classes are exactly medium-* and small-*.
func TestScaledTestbedHasTwoTwinClasses(t *testing.T) {
	for _, n := range []int{1, 2, 4, 12} {
		groups := twinGroups(t, sim.CompileClusterTable(workload.ScaledTestbed(n)))
		if len(groups) != 2 {
			t.Fatalf("ScaledTestbed(%d): twin classes %v, want two", n, groups)
		}
		for i, prefix := range []string{workload.MediumNode + "-", workload.SmallNode + "-"} {
			if len(groups[i]) != n {
				t.Errorf("ScaledTestbed(%d): class %v, want the %d %s devices", n, groups[i], n, prefix)
			}
			for _, name := range groups[i] {
				if !strings.HasPrefix(name, prefix) {
					t.Errorf("ScaledTestbed(%d): %s in the %s class %v", n, name, prefix, groups[i])
				}
			}
		}
	}
}

// TestTestbedHasNoTwins: the paper's testbed has one device of each spec.
func TestTestbedHasNoTwins(t *testing.T) {
	tab := sim.CompileClusterTable(workload.Testbed())
	if got := len(tab.TwinReps()); got != tab.NumDevices() {
		t.Fatalf("testbed: %d twin classes over %d devices, want singletons: %v", got, tab.NumDevices(), twinGroups(t, tab))
	}
}

// TestPerturbedLinkSplitsOneTwin: halving one device's hub link splits off
// that device and nothing else, wherever it sits in its class.
func TestPerturbedLinkSplitsOneTwin(t *testing.T) {
	for _, i := range []int{0, 2, 3} {
		c := workload.ScaledTestbed(4)
		dev := fmt.Sprintf("%s-%02d", workload.MediumNode, i)
		if err := c.Topology.SetBandwidth(workload.HubNode, dev, workload.HubMediumBW/2); err != nil {
			t.Fatal(err)
		}
		groups := twinGroups(t, sim.CompileClusterTable(c))
		var alone []string
		for _, g := range groups {
			if len(g) == 1 {
				alone = append(alone, g[0])
			}
		}
		if len(groups) != 3 || !reflect.DeepEqual(alone, []string{dev}) {
			t.Errorf("hub link of %s halved: twin classes %v, want %s alone beside the other three mediums and the smalls", dev, groups, dev)
		}
	}
}

// TestPatchRecomputesTwins: a churn epoch's table carries its own twin
// classes. A degraded link pair splits off both its ends; a device going
// down shrinks its class; each patched table equals a cold compile of its
// view, twin tables included.
func TestPatchRecomputesTwins(t *testing.T) {
	c := workload.ScaledTestbed(4)
	base := sim.CompileClusterTable(c)
	med, small := workload.MediumNode+"-01", workload.SmallNode+"-03"

	degraded := viewOf(c, "")
	degraded.Topology = c.Topology.Clone()
	for _, pair := range [][2]string{{med, small}, {small, med}} {
		if err := degraded.Topology.SetBandwidth(pair[0], pair[1], 1*units.MBps); err != nil {
			t.Fatal(err)
		}
	}
	tab := base.Patch(degraded, topo.Delta{TouchedNodes: []string{med, small}})
	if full := topo.Compile(degraded); !reflect.DeepEqual(tab, full) {
		t.Fatal("patched table with a degraded link pair differs from a cold compile")
	}
	want := [][]string{
		{"medium-00", "medium-02", "medium-03"}, {"medium-01"},
		{"small-00", "small-01", "small-02"}, {"small-03"},
	}
	if got := twinGroups(t, tab); !reflect.DeepEqual(got, want) {
		t.Errorf("degraded link pair: twin classes %v, want %v", got, want)
	}

	down := viewOf(c, workload.MediumNode+"-00")
	tab = base.Patch(down, topo.Delta{})
	if full := topo.Compile(down); !reflect.DeepEqual(tab, full) {
		t.Fatal("patched table with a device down differs from a cold compile")
	}
	want = [][]string{{"medium-01", "medium-02", "medium-03"}, {"small-00", "small-01", "small-02", "small-03"}}
	if got := twinGroups(t, tab); !reflect.DeepEqual(got, want) {
		t.Errorf("medium-00 down: twin classes %v, want %v", got, want)
	}
}
