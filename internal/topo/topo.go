// Package topo is the compiled cluster-side substrate shared by every
// per-application compiler in the system. The DEEP pipeline prices
// (costmodel.Compile) and simulates (sim.CompilePlan) every (app, cluster)
// pair over the same cluster topology; before this package each compiler
// rebuilt identical sorted name tables, dense link tables, device interning,
// and idle-power rows from scratch on every cold (app, cluster) shape. A
// ClusterTable is everything in those compilers that depends only on the
// cluster — compiled once per cluster (the fleet compiles its one cluster's
// in New) and shared across applications and across both compilers.
//
// A ClusterTable is immutable after Compile and safe for any number of
// concurrent readers. It snapshots the topology's routes and the devices'
// idle power; mutating the cluster afterwards is not supported (the same
// contract as costmodel.Model and sim.Plan). Accessors returning slices
// return the table's own backing arrays — callers must treat them as
// read-only.
//
// Duplicate names: the name tables are sorted and compacted, and on
// duplicate device or registry names the first occurrence (in the cluster's
// declaration order) wins everywhere — the semantics sim.Cluster's interning
// and both legacy compilers converged on, pinned by the duplicate-name
// corpus test in internal/costmodel.
package topo

import (
	"slices"
	"sort"

	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/units"
)

// Link is a precomputed topology route: OK is false when no route exists.
// The zero value is "no route".
type Link struct {
	BW  units.Bandwidth
	RTT float64
	OK  bool
}

// Registry is the cluster-side view of one image registry (the fields of
// sim.RegistryInfo, redeclared here so the sim package can build on this one
// without an import cycle).
type Registry struct {
	Name   string
	Node   string
	Shared bool
}

// View is the cluster-shaped input Compile consumes. sim.CompileClusterTable
// adapts a *sim.Cluster into one; anything else with devices, registries,
// and a topology can compile a table directly.
type View struct {
	Devices    []*device.Device
	Registries []Registry
	Topology   *netsim.Topology
	// SourceNode is the node external inputs arrive from; empty disables
	// the source link table.
	SourceNode string
}

// ClusterTable is the compiled cluster-side substrate: sorted + compacted
// name tables and index maps, interned device handles, the device class
// table, the dense registry→device / device→device / source→device link
// tables, per-registry shared-uplink flags, and per-device idle power.
// Application-side compilers (costmodel.CompileShapeOn,
// sim.CompilePlanOnTables) layer their per-microservice tables on top of it.
//
// A device class is the set of devices that agree on everything a plan
// prices: arch, cores, exact speed, memory, storage and power model. Its key
// is device.ClassKey, the device's cluster-digest record minus its name, so
// class and digest equality never disagree: a power model whose %#v hides
// behaviour breaks both alike.
type ClusterTable struct {
	devNames []string
	regNames []string
	devIndex map[string]int32
	regIndex map[string]int32

	// devices[d] is the interned device handle for devNames[d] (first
	// occurrence wins on duplicate names). Device handles carry the
	// feasibility predicate (device.CanRun: architecture + static
	// resources) and the layer cache the simulator drives.
	devices []*device.Device

	// devClass[d] is device d's class, numbered in order of first
	// appearance over device ids; classRep[c] is class c's first device.
	devClass []int32
	classRep []int32

	regShared []bool

	// regLink[r*numDev+d] is the route from registry r's node to device d;
	// devLink[f*numDev+t] between devices (including netsim's implicit
	// infinite-bandwidth loopback for f == t); srcLink[d] from the
	// external-input source node (unused when HasSource is false).
	regLink   []Link
	devLink   []Link
	srcLink   []Link
	hasSource bool

	idleW []units.Watts

	// regNodes[r] is registry r's topology node and srcNode the compiled
	// source node — recorded so Patch can tell which of this table's link
	// rows are still valid for an incrementally changed cluster view.
	regNodes []string
	srcNode  string
}

// Compile builds the cluster table. It performs the full topology scan —
// O(numReg·numDev + numDev²) LinkBetween lookups — which is exactly the work
// sharing the table avoids repeating per application.
func Compile(v View) *ClusterTable {
	t := newTable(v)
	nd, nr := len(t.devNames), len(t.regNames)

	t.regLink = make([]Link, nr*nd)
	for r := 0; r < nr; r++ {
		for d := 0; d < nd; d++ {
			t.regLink[r*nd+d] = compileLink(v.Topology, t.regNodes[r], t.devNames[d])
		}
	}
	t.devLink = make([]Link, nd*nd)
	for f := 0; f < nd; f++ {
		for d := 0; d < nd; d++ {
			t.devLink[f*nd+d] = compileLink(v.Topology, t.devNames[f], t.devNames[d])
		}
	}
	t.hasSource = v.SourceNode != ""
	t.srcNode = v.SourceNode
	t.srcLink = make([]Link, nd)
	if t.hasSource {
		for d := 0; d < nd; d++ {
			t.srcLink[d] = compileLink(v.Topology, v.SourceNode, t.devNames[d])
		}
	}

	t.idleW = make([]units.Watts, nd)
	for d := 0; d < nd; d++ {
		t.idleW[d] = t.devices[d].Power.Power(energy.Idle, "")
	}
	return t
}

// classify numbers the device classes in order of first appearance.
func classify(devices []*device.Device) (devClass, classRep []int32) {
	n := len(devices)
	ids := make([]int32, 2*n) // one backing: never more classes than devices
	devClass, classRep = ids[:n:n], ids[n:n]
	for d, dev := range devices {
		c := 0
		for c < len(classRep) && !dev.SameClass(devices[classRep[c]]) {
			c++
		}
		if c == len(classRep) {
			classRep = append(classRep, int32(d))
		}
		devClass[d] = int32(c)
	}
	return devClass, classRep
}

// newTable builds what Compile and Patch both derive from the view alone:
// the name tables, interned devices, device classes, and registry flags and
// nodes. First occurrence wins on duplicate names, matching
// sim.Cluster.Device/Registry and both legacy compilers.
func newTable(v View) *ClusterTable {
	t := &ClusterTable{}

	t.devNames = make([]string, 0, len(v.Devices))
	for _, d := range v.Devices {
		t.devNames = append(t.devNames, d.Name)
	}
	sort.Strings(t.devNames)
	t.devNames = slices.Compact(t.devNames)
	t.devIndex = indexOf(t.devNames)

	t.regNames = make([]string, 0, len(v.Registries))
	for _, r := range v.Registries {
		t.regNames = append(t.regNames, r.Name)
	}
	sort.Strings(t.regNames)
	t.regNames = slices.Compact(t.regNames)
	t.regIndex = indexOf(t.regNames)

	t.devices = make([]*device.Device, len(t.devNames))
	for _, d := range v.Devices {
		if i, ok := t.devIndex[d.Name]; ok && t.devices[i] == nil {
			t.devices[i] = d
		}
	}
	t.devClass, t.classRep = classify(t.devices)

	nr := len(t.regNames)
	t.regShared, t.regNodes = make([]bool, nr), make([]string, nr)
	regSet := make([]bool, nr)
	for _, r := range v.Registries {
		if i, ok := t.regIndex[r.Name]; ok && !regSet[i] {
			regSet[i] = true
			t.regShared[i], t.regNodes[i] = r.Shared, r.Node
		}
	}
	return t
}

// compileLink snapshots the route from node a to node b, including netsim's
// implicit infinite-bandwidth loopback for a == b.
func compileLink(top *netsim.Topology, a, b string) Link {
	l, ok := top.LinkBetween(a, b)
	if !ok {
		return Link{}
	}
	return Link{BW: l.BW, RTT: l.RTT, OK: true}
}

func indexOf(names []string) map[string]int32 {
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	return idx
}

// NumDevices returns the number of compiled (distinct) devices.
func (t *ClusterTable) NumDevices() int { return len(t.devNames) }

// NumRegistries returns the number of compiled (distinct) registries.
func (t *ClusterTable) NumRegistries() int { return len(t.regNames) }

// DevNames returns the sorted, compacted device name table (shared slice;
// positions are device ids).
func (t *ClusterTable) DevNames() []string { return t.devNames }

// RegNames returns the sorted, compacted registry name table (shared slice).
func (t *ClusterTable) RegNames() []string { return t.regNames }

// DevIndex returns the device name→id map (shared; read-only).
func (t *ClusterTable) DevIndex() map[string]int32 { return t.devIndex }

// RegIndex returns the registry name→id map (shared; read-only).
func (t *ClusterTable) RegIndex() map[string]int32 { return t.regIndex }

// DevID returns the id of a device name.
func (t *ClusterTable) DevID(name string) (int32, bool) {
	id, ok := t.devIndex[name]
	return id, ok
}

// RegID returns the id of a registry name.
func (t *ClusterTable) RegID(name string) (int32, bool) {
	id, ok := t.regIndex[name]
	return id, ok
}

// Devices returns the interned handles, indexed by device id (shared slice).
func (t *ClusterTable) Devices() []*device.Device { return t.devices }

// DevClasses returns each device's class id (shared slice).
func (t *ClusterTable) DevClasses() []int32 { return t.devClass }

// ClassReps returns each class's first device id (shared slice).
func (t *ClusterTable) ClassReps() []int32 { return t.classRep }

// RegShared returns the per-registry shared-uplink flags (shared slice).
func (t *ClusterTable) RegShared() []bool { return t.regShared }

// RegLinks returns the dense registry→device link table, indexed
// r*NumDevices()+d (shared slice).
func (t *ClusterTable) RegLinks() []Link { return t.regLink }

// DevLinks returns the dense device→device link table, indexed
// f*NumDevices()+d (shared slice).
func (t *ClusterTable) DevLinks() []Link { return t.devLink }

// SrcLinks returns the source→device link table (shared slice; meaningful
// only when HasSource reports true).
func (t *ClusterTable) SrcLinks() []Link { return t.srcLink }

// HasSource reports whether the cluster has an external-input source node.
func (t *ClusterTable) HasSource() bool { return t.hasSource }

// IdleW returns the per-device idle power draws (shared slice).
func (t *ClusterTable) IdleW() []units.Watts { return t.idleW }
