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
	"math"
	"slices"
	"sort"

	"deep/internal/device"
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
//
// A twin class is finer: the devices that also agree on every link the cost
// model reads, so that swapping two of them leaves every table unchanged.
// Devices d and e are twins when they share a device class, a registry-link
// column, a source link and a loopback, devLink[d][e] == devLink[e][d], and
// their device-link rows and columns agree against every third device (links
// compared bit for bit). Swapping twins is a relabelling that preserves every
// table, so twinhood is an equivalence: the classes are numbered in order of
// first appearance over device ids, each device compared only with each
// class's first device. ScaledTestbed's identical boxes form one twin class
// per spec; a device whose hub link degrades leaves its class. The scheduler
// plays each stage game over a few kept twins of each class rather than
// over every device (sched.DEEP).
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

	// twin[d] is device d's twin class, numbered like devClass; twinRep[c]
	// is twin class c's first device and twinNext[d] the next device of d's
	// twin class in device order, -1 after the last.
	twin     []int32
	twinRep  []int32
	twinNext []int32

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
// sharing the table avoids repeating per application. It is Patch against
// the empty table, which has no link row to copy: one build makes every
// table, so a churn epoch's patched table and a cold compile of the same
// view are the same value, twin classes included.
func Compile(v View) *ClusterTable { return new(ClusterTable).Patch(v, Delta{}) }

// classify numbers the device classes in order of first appearance,
// filling devClass and appending each class's first device to classRep.
func classify(devices []*device.Device, devClass, classRep []int32) []int32 {
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
	return classRep
}

// findTwins fills the twin tables newTable carved, once the link tables are
// built: classes numbered in order of first appearance, each device compared
// with the first device of each class found so far, then each class's
// devices chained in device order.
func (t *ClusterTable) findTwins() {
	for d := range t.twin {
		c := 0
		for c < len(t.twinRep) && !t.twinOf(d, int(t.twinRep[c])) {
			c++
		}
		if c == len(t.twinRep) {
			t.twinRep = append(t.twinRep, int32(d))
		}
		t.twin[d] = int32(c)
	}
	// Chain from the last device down; each class's head ends at its first
	// device, which is what twinRep held.
	for c := range t.twinRep {
		t.twinRep[c] = -1
	}
	for d := len(t.twin) - 1; d >= 0; d-- {
		c := t.twin[d]
		t.twinNext[d], t.twinRep[c] = t.twinRep[c], int32(d)
	}
}

// twinOf reports whether swapping devices d and e leaves every table the
// cost model reads unchanged: the class rows, the registry, source and
// loopback links, and the device links between them and to every third
// device.
func (t *ClusterTable) twinOf(d, e int) bool {
	nd := len(t.devNames)
	dl := t.devLink
	if t.devClass[d] != t.devClass[e] || !sameLink(t.srcLink[d], t.srcLink[e]) ||
		!sameLink(dl[d*nd+d], dl[e*nd+e]) || !sameLink(dl[d*nd+e], dl[e*nd+d]) {
		return false
	}
	for r := range t.regNames {
		if !sameLink(t.regLink[r*nd+d], t.regLink[r*nd+e]) {
			return false
		}
	}
	rowD, rowE := dl[d*nd:(d+1)*nd], dl[e*nd:(e+1)*nd]
	for f := range rowD {
		if f != d && f != e && !sameLink(rowD[f], rowE[f]) {
			return false
		}
	}
	for f := range nd {
		if col := dl[f*nd : (f+1)*nd]; f != d && f != e && !sameLink(col[d], col[e]) {
			return false
		}
	}
	return true
}

// sameLink compares two links bit for bit, so a twin never differs from
// its class's first device by a zero's sign or a NaN.
func sameLink(a, b Link) bool {
	return a.OK == b.OK && math.Float64bits(float64(a.BW)) == math.Float64bits(float64(b.BW)) &&
		math.Float64bits(a.RTT) == math.Float64bits(b.RTT)
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
	// One backing holds the class and twin tables: never more classes than
	// devices. The twin tables are filled once the links are built.
	n := len(t.devices)
	ids := make([]int32, 5*n)
	t.devClass, t.twin, t.twinNext = ids[:n:n], ids[n:2*n:2*n], ids[2*n:3*n:3*n]
	t.classRep = classify(t.devices, t.devClass, ids[3*n:3*n:4*n])
	t.twinRep = ids[4*n : 4*n : 5*n]

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

// Twins returns each device's twin class id (shared slice).
func (t *ClusterTable) Twins() []int32 { return t.twin }

// TwinReps returns each twin class's first device id (shared slice); there
// are as many twin classes as devices when no two devices are twins.
func (t *ClusterTable) TwinReps() []int32 { return t.twinRep }

// TwinNext returns, per device, the next device of its twin class in device
// order, -1 after the last (shared slice): a class's devices are its
// TwinReps entry and the chain from there.
func (t *ClusterTable) TwinNext() []int32 { return t.twinNext }

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
