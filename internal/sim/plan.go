package sim

import (
	"fmt"

	"deep/internal/appgraph"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/slab"
	"deep/internal/topo"
	"deep/internal/units"
)

// Plan is the compiled form of one (application, cluster) pair for the
// executor: integer-indexed barrier stages in canonical order, pre-resolved
// registry→device and inter-device routes, interned image layers, per-phase
// power draws, and precomputed jitter hash tags. Compiling once and
// executing many times removes every string-keyed map, sort, and fmt call
// from the simulation hot path; an Exec replays a Plan under any placement
// with zero steady-state allocations.
//
// The cluster-side tables (name tables, device classes, link tables, idle
// power) live in a topo.ClusterTable and the application-side structure in an
// appgraph.AppTable; CompilePlanOnTables layers the cross-product pass over
// caller-supplied tables so N applications on one cluster share one topology
// scan, and CompilePlan compiles private tables on the fly.
// The cross product is priced once per device class (topo.ClusterTable: the
// devices whose digest records differ only in the name) and broadcast to the
// class's devices; only the draws above idle are per device. Since the class
// key is the digest record minus the name, a power model whose %#v rendering
// hides behaviour breaks the plan and the fleet's caches alike.
//
// A Plan from CompilePlan or CompilePlanOnTables is immutable and safe for
// concurrent Exec.Run calls on separate Execs — the form the fleet shares.
// One compiled into a caller's PlanScratch is private to that caller and
// overwritten by its next compile. It snapshots the cluster's topology, power
// models, and layer decomposition; mutating the cluster afterwards is not
// supported (the same contract as costmodel.Model). A cold run keeps its
// layer caches in the Exec and touches no device; only a WarmCaches run
// drives the cluster's real per-device layer caches, so warm-cache state
// flows between warm compiled runs, legacy sim.Run calls, and any other
// observer of device.LayerCache.
type Plan struct {
	app *dag.App
	tab *topo.ClusterTable

	// Application-side name table; ids are positions, sorted and compacted
	// so ascending id order is ascending name order (the executor's
	// canonical stage order). Device and registry tables are the cluster
	// table's, referenced here for the executor's hot path.
	msNames  []string
	devNames []string
	regNames []string
	msIndex  map[string]int32
	devIndex map[string]int32
	regIndex map[string]int32

	// ms[i] is the microservice with id i (first occurrence on duplicate
	// names, matching the name-table compaction); devices[d] the cluster
	// table's interned handle for device d.
	ms      []*dag.Microservice
	devices []*device.Device

	regShared []bool

	// Cluster-side dense link tables, shared with the topo.ClusterTable:
	// regLink[r*numDev+d], devLink[f*numDev+t] (loopback when f == t),
	// srcLink[d] from the external-input source node.
	regLink   []topo.Link
	devLink   []topo.Link
	srcLink   []topo.Link
	hasSource bool

	// feasible[i*numDev+d] reports device d can run microservice i
	// (architecture + static resources), precomputed so per-run placement
	// validation is allocation-free.
	feasible []bool

	layers   [][]Layer         // per ms: interned image layers (LayersOf order)
	inputs   [][]appgraph.Edge // per ms: incoming dataflows in DAG order
	extInput []units.Bytes     // per ms

	// Per-(microservice, device) tables, indexed ms*numDev+dev. The act*
	// tables hold the draw above idle, precomputed so the executor prices
	// active energy without per-run subtractions.
	tp       []float64
	pullW    []units.Watts
	recvW    []units.Watts
	procW    []units.Watts
	actPullW []units.Watts
	actRecvW []units.Watts
	actProcW []units.Watts
	idleW    []units.Watts // per device (the cluster table's)

	// Barrier stages (each ascending = lexicographic name order, the order
	// the legacy executor sorted into per call) and topological order, with
	// the structural validation errors captured at compile time.
	stages    [][]int32
	topo      []int32
	appErr    error
	stagesErr error

	// jitterTag[phase][ms] is the byte suffix "|app|ms|phase" the jitter
	// hashes after the run seed; precomputing it makes the per-phase factor
	// a pure FNV-1a continuation.
	jitterTag [3][][]byte
}

// Jitter phase indices into Plan.jitterTag (the app table's layout).
const (
	phaseDeploy   = appgraph.PhaseDeploy
	phaseTransfer = appgraph.PhaseTransfer
	phaseProcess  = appgraph.PhaseProcess
)

// CompileClusterTable compiles the cluster-side substrate shared by this
// package's CompilePlanOnTables and costmodel.CompileShapeOn: name tables,
// interned devices, device classes, dense link tables, and idle power.
// Compile it once per cluster (the fleet caches one per cluster digest) and
// feed it to every application-side compile against that cluster.
func CompileClusterTable(cluster *Cluster) *topo.ClusterTable {
	regs := make([]topo.Registry, len(cluster.Registries))
	for i, r := range cluster.Registries {
		regs[i] = topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared}
	}
	return topo.Compile(topo.View{
		Devices:    cluster.Devices,
		Registries: regs,
		Topology:   cluster.Topology,
		SourceNode: cluster.SourceNode,
	})
}

// CompilePlan builds the compiled executor plan, compiling a private app
// table and cluster table on the fly. It never fails: structural problems in
// the DAG (cycles, disconnection) are captured and surface from Exec.Run
// exactly where the legacy executor reported them. Callers compiling several
// applications against one cluster should CompileClusterTable once and use
// CompilePlanOnTables.
func CompilePlan(app *dag.App, cluster *Cluster) *Plan {
	return CompilePlanOnTables(appgraph.Compile(app), cluster, CompileClusterTable(cluster))
}

// CompilePlanOnTables is the real compile: a thin per-(microservice, device
// class) pricing pass over the app-side substrate (at) and the cluster-side
// substrate (tab). Everything app-only — name table, edge rows, stages,
// topological order, validation errors, jitter tags — is referenced from the
// app table; everything cluster-only from the cluster table; only the cross
// product is computed here. tab must be compiled from cluster, or patched
// from such a table (a churn epoch's view of it): the plan takes its device
// handles, whose layer caches warm runs drive, from the table.
func CompilePlanOnTables(at *appgraph.AppTable, cluster *Cluster, tab *topo.ClusterTable) *Plan {
	return new(PlanScratch).Compile(at, cluster, tab)
}

// PlanScratch is recycled storage for one Plan: the plan and a backing slice
// per element type, sized once per compile from (microservices, devices) and
// carved into the plan's columns. Compile overwrites the previous plan in
// place, so a PlanScratch has a single owner and its plan is valid only
// until the next Compile; a plan that is to be shared comes from
// CompilePlanOnTables, which is this same compile on a scratch of its own.
type PlanScratch struct {
	p         Plan
	feasible  slab.Slab[bool]
	layers    slab.Slab[Layer] // the synthetic single layers of images the cluster does not decompose
	layerRows slab.Slab[[]Layer]
	tp        slab.Slab[float64]
	watts     slab.Slab[units.Watts] // pull, receive, process, the three draws above idle, then per-class rows
}

// Compile builds the plan in the scratch, replacing the one it held.
func (s *PlanScratch) Compile(at *appgraph.AppTable, cluster *Cluster, tab *topo.ClusterTable) *Plan {
	p := &s.p
	*p = Plan{app: at.App(), tab: tab}

	p.msNames = at.MSNames()
	p.msIndex = at.MSIndex()
	p.devNames = tab.DevNames()
	p.devIndex = tab.DevIndex()
	p.regNames = tab.RegNames()
	p.regIndex = tab.RegIndex()

	nm, nd := len(p.msNames), len(p.devNames)

	p.ms = at.Microservices()
	p.devices = tab.Devices()

	p.regShared = tab.RegShared()
	p.regLink = tab.RegLinks()
	p.devLink = tab.DevLinks()
	p.srcLink = tab.SrcLinks()
	p.hasSource = tab.HasSource()
	p.idleW = tab.IdleW()

	p.inputs = at.Inputs()
	p.extInput = at.ExtInputs()
	p.jitterTag = at.PhaseTags()

	// Price each class's representative into the class rows, then broadcast.
	devClass, classRep := tab.DevClasses(), tab.ClassReps()
	nc := len(classRep)
	s.feasible.Reset(nm*nd + nc)
	s.tp.Reset(nm*nd + nc)
	s.watts.Reset(6*nm*nd + 3*nc)
	s.layers.Reset(nm)
	s.layerRows.Reset(nm)
	p.feasible = s.feasible.Cut(nm * nd)
	p.tp = s.tp.Cut(nm * nd)
	p.pullW, p.recvW, p.procW = s.watts.Cut(nm*nd), s.watts.Cut(nm*nd), s.watts.Cut(nm*nd)
	p.actPullW, p.actRecvW, p.actProcW = s.watts.Cut(nm*nd), s.watts.Cut(nm*nd), s.watts.Cut(nm*nd)
	p.layers = s.layerRows.Cut(nm)
	cFeasible, cTp := s.feasible.Cut(nc), s.tp.Cut(nc)
	cPullW, cRecvW, cProcW := s.watts.Cut(nc), s.watts.Cut(nc), s.watts.Cut(nc)

	for i := 0; i < nm; i++ {
		m := p.ms[i]
		if ls, ok := cluster.Layers[m.Name]; ok {
			p.layers[i] = ls
		} else {
			p.layers[i] = s.layers.Cut(1)
			p.layers[i][0] = defaultLayer(m)
		}
		for c, d := range classRep {
			dev := p.devices[d]
			cFeasible[c] = dev.CanRun(m) == nil
			cTp[c] = dev.ProcessingTime(m.Req.CPU)
			cPullW[c] = dev.Power.Power(energy.Pulling, m.Name)
			cRecvW[c] = dev.Power.Power(energy.Receiving, m.Name)
			cProcW[c] = dev.Power.Power(energy.Processing, m.Name)
		}
		for d, c := range devClass {
			base := i*nd + d
			p.feasible[base] = cFeasible[c]
			p.tp[base] = cTp[c]
			p.pullW[base], p.recvW[base], p.procW[base] = cPullW[c], cRecvW[c], cProcW[c]
			p.actPullW[base] = cPullW[c] - p.idleW[d]
			p.actRecvW[base] = cRecvW[c] - p.idleW[d]
			p.actProcW[base] = cProcW[c] - p.idleW[d]
		}
	}

	// Structural validation was captured when the app table compiled, so
	// runs never re-walk the DAG. The errors surface from Exec.Run in the
	// same order the legacy executor reported them: app validation,
	// placement checks, then stages.
	p.appErr = at.ValidateErr()
	p.stages, p.stagesErr = at.Stages()
	if order, err := at.Topo(); err == nil {
		p.topo = order
	}
	return p
}

// NumDevices returns the number of compiled devices.
func (p *Plan) NumDevices() int { return len(p.devNames) }

// Table returns the cluster-side table the plan was compiled on.
func (p *Plan) Table() *topo.ClusterTable { return p.tab }

// MSRows exposes the plan's per-(microservice, device) base tables —
// feasibility, processing time, and the three phase power draws, all
// indexed ms*NumDevices()+dev — so the fused cost-model compile can layer
// the scheduler's option tables over the same rows instead of re-pricing
// the identical pure-function lookups. Shared slices; read-only.
func (p *Plan) MSRows() (feasible []bool, tp []float64, pullW, recvW, procW []units.Watts) {
	return p.feasible, p.tp, p.pullW, p.recvW, p.procW
}

// validate checks the placement the way the legacy executor's
// cluster.Validate did — same walk order, same errors — but against the
// precomputed feasibility table, so a valid placement validates with zero
// allocations.
func (p *Plan) validate(placement Placement) error {
	if p.appErr != nil {
		return p.appErr
	}
	nd := len(p.devNames)
	for _, m := range p.app.Microservices {
		a, ok := placement[m.Name]
		if !ok {
			return fmt.Errorf("sim: placement missing microservice %q", m.Name)
		}
		d, okD := p.devIndex[a.Device]
		if !okD {
			return fmt.Errorf("sim: placement of %q names unknown device %q", m.Name, a.Device)
		}
		if _, okR := p.regIndex[a.Registry]; !okR {
			return fmt.Errorf("sim: placement of %q names unknown registry %q", m.Name, a.Registry)
		}
		if i, okM := p.msIndex[m.Name]; okM && !p.feasible[int(i)*nd+int(d)] {
			return fmt.Errorf("sim: infeasible placement: %w", p.devices[d].CanRun(m))
		}
	}
	return nil
}

// validateIndexed is validate against a placement already in compiled
// parallel-slice form (names sorted ascending, assigns parallel): same walk
// order, same errors, but lookups are binary searches instead of map hits,
// so no placement map ever has to exist.
func (p *Plan) validateIndexed(names []string, assigns []Assignment) error {
	if p.appErr != nil {
		return p.appErr
	}
	nd := len(p.devNames)
	for _, m := range p.app.Microservices {
		k := searchSortedNames(names, m.Name)
		if k < 0 {
			return fmt.Errorf("sim: placement missing microservice %q", m.Name)
		}
		a := assigns[k]
		d, okD := p.devIndex[a.Device]
		if !okD {
			return fmt.Errorf("sim: placement of %q names unknown device %q", m.Name, a.Device)
		}
		if _, okR := p.regIndex[a.Registry]; !okR {
			return fmt.Errorf("sim: placement of %q names unknown registry %q", m.Name, a.Registry)
		}
		if i, okM := p.msIndex[m.Name]; okM && !p.feasible[int(i)*nd+int(d)] {
			return fmt.Errorf("sim: infeasible placement: %w", p.devices[d].CanRun(m))
		}
	}
	return nil
}

// searchSortedNames binary-searches a sorted name slice, returning the index
// of name or -1. Hand-rolled so the hot path pays no closure allocation.
func searchSortedNames(names []string, name string) int {
	lo, hi := 0, len(names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(names) && names[lo] == name {
		return lo
	}
	return -1
}
