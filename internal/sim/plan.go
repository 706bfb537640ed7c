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
// devices whose digest records differ only in the name) and kept as one row
// per (microservice, class), which every device of the class reads through
// its class id, as a strided view reads a flat tensor; the draw above idle,
// the one per-device term, is taken at read. Since the class key is the
// digest record minus the name, a power model whose %#v rendering hides
// behaviour breaks the plan and the fleet's caches alike.
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

	layers   [][]Layer         // per ms: interned image layers (LayersOf order)
	inputs   [][]appgraph.Edge // per ms: incoming dataflows in DAG order
	extInput []units.Bytes     // per ms

	// Per-(microservice, device class) tables, indexed ms*numClass+class;
	// devClass[d] is device d's class (the cluster table's), so device d
	// reads row cell(ms, d). feasible reports the class can run the
	// microservice (architecture + static resources), tp its processing
	// time, and the watts the three phase draws. The executor takes a draw
	// above idle as (w - idleW[d]) at read.
	devClass []int32
	numClass int
	feasible []bool
	tp       []float64
	pullW    []units.Watts
	recvW    []units.Watts
	procW    []units.Watts
	idleW    []units.Watts // per device (the cluster table's)

	// Barrier stages (each ascending = lexicographic name order, the order
	// the legacy executor sorted into per call) and topological order.
	stages [][]int32
	topo   []int32

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
// Compile it once per cluster (the fleet compiles its one cluster's) and
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
// table and cluster table on the fly. It never fails: a built dag.App is
// valid (acyclic and connected), so there is nothing left to reject. Callers
// compiling several applications against one cluster should
// CompileClusterTable once and use CompilePlanOnTables.
func CompilePlan(app *dag.App, cluster *Cluster) *Plan {
	return CompilePlanOnTables(appgraph.Compile(app), cluster, CompileClusterTable(cluster))
}

// CompilePlanOnTables is the real compile: a thin per-(microservice, device
// class) pricing pass over the app-side substrate (at) and the cluster-side
// substrate (tab). Everything app-only — name table, edge rows, stages,
// topological order, jitter tags — is referenced from the app table;
// everything cluster-only from the cluster table; only the cross product is
// computed here. tab must be compiled from cluster, or patched from such a
// table (a churn epoch's view of it): the plan takes its device handles,
// whose layer caches warm runs drive, from the table.
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
	watts     slab.Slab[units.Watts] // pull, receive, process

	// digests maps an image name to its synthetic layer digest, so a scratch
	// that recompiles an image it priced before allocates no new string. A
	// scratch starts it on its second compile (a fresh, shared plan never
	// needs it) and clears it at planDigestCap names. Each key is a slice of
	// its own digest, never the app's string.
	digests map[string]string
}

// planDigestCap bounds PlanScratch.digests: more image names than a hot
// tenant mix has, few enough to stay a few kilobytes.
const planDigestCap = 256

// Compile builds the plan in the scratch, replacing the one it held.
func (s *PlanScratch) Compile(at *appgraph.AppTable, cluster *Cluster, tab *topo.ClusterTable) *Plan {
	p := &s.p
	if p.app != nil && s.digests == nil {
		s.digests = make(map[string]string)
	}
	*p = Plan{app: at.App(), tab: tab}

	p.msNames = at.MSNames()
	p.msIndex = at.MSIndex()
	p.devNames = tab.DevNames()
	p.devIndex = tab.DevIndex()
	p.regNames = tab.RegNames()
	p.regIndex = tab.RegIndex()

	nm := len(p.msNames)

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

	// Price each class's representative into the class rows.
	classRep := tab.ClassReps()
	nc := len(classRep)
	p.devClass, p.numClass = tab.DevClasses(), nc
	s.feasible.Reset(nm * nc)
	s.tp.Reset(nm * nc)
	s.watts.Reset(3 * nm * nc)
	s.layers.Reset(nm)
	s.layerRows.Reset(nm)
	p.feasible = s.feasible.Cut(nm * nc)
	p.tp = s.tp.Cut(nm * nc)
	p.pullW, p.recvW, p.procW = s.watts.Cut(nm*nc), s.watts.Cut(nm*nc), s.watts.Cut(nm*nc)
	p.layers = s.layerRows.Cut(nm)

	for i := 0; i < nm; i++ {
		m := p.ms[i]
		if ls, ok := cluster.Layers[m.Name]; ok {
			p.layers[i] = ls
		} else {
			p.layers[i] = s.layers.Cut(1)
			p.layers[i][0] = Layer{Digest: s.layerDigest(m), Size: m.ImageSize}
		}
		for c, d := range classRep {
			dev, k := p.devices[d], i*nc+c
			p.feasible[k] = dev.CanRun(m) == nil
			p.tp[k] = dev.ProcessingTime(m.Req.CPU)
			p.pullW[k] = dev.Power.Power(energy.Pulling, m.Name)
			p.recvW[k] = dev.Power.Power(energy.Receiving, m.Name)
			p.procW[k] = dev.Power.Power(energy.Processing, m.Name)
		}
	}

	p.stages, p.topo = at.Stages(), at.Topo()
	return p
}

// layerDigest is defaultLayer(m).Digest, taken from the scratch's digests
// when it holds one for the image.
func (s *PlanScratch) layerDigest(m *dag.Microservice) string {
	if d, ok := s.digests[m.Name]; ok {
		return d
	}
	d := defaultLayer(m).Digest
	if s.digests != nil {
		if len(s.digests) >= planDigestCap {
			clear(s.digests)
		}
		s.digests[d[len(d)-len(m.Name):]] = d
	}
	return d
}

// NumDevices returns the number of compiled devices.
func (p *Plan) NumDevices() int { return len(p.devNames) }

// Table returns the cluster-side table the plan was compiled on.
func (p *Plan) Table() *topo.ClusterTable { return p.tab }

// cell is the index of device d's class row for microservice ms.
func (p *Plan) cell(ms, d int32) int { return int(ms)*p.numClass + int(p.devClass[d]) }

// MSRows exposes the plan's per-(microservice, device class) base tables —
// feasibility, processing time, and the three phase power draws, all indexed
// ms*nc+devClass[dev], where nc is the number of the cluster table's classes
// (len(ClassReps())) and devClass its DevClasses — so the fused cost-model
// compile can layer the scheduler's option tables over the same rows instead
// of re-pricing the identical pure-function lookups. Shared slices; read-only.
func (p *Plan) MSRows() (devClass []int32, feasible []bool, tp []float64, pullW, recvW, procW []units.Watts) {
	return p.devClass, p.feasible, p.tp, p.pullW, p.recvW, p.procW
}

// checkChoice is the one placement check: microservice i's choice c names
// a device and a registry of the plan, and the device's class can run it.
// Every form of placement reaches it: an id-form one as it stands, a named
// one once interned (Exec.runNamed), whose names always intern in range.
func (p *Plan) checkChoice(i int32, c Choice) error {
	m := p.ms[i]
	if uint(c.Device) >= uint(len(p.devNames)) {
		return fmt.Errorf("sim: placement of %q names unknown device #%d", m.Name, c.Device)
	}
	if uint(c.Registry) >= uint(len(p.regNames)) {
		return fmt.Errorf("sim: placement of %q names unknown registry #%d", m.Name, c.Registry)
	}
	if !p.feasible[p.cell(i, c.Device)] {
		return fmt.Errorf("sim: infeasible placement: %w", p.devices[c.Device].CanRun(m))
	}
	return nil
}

// checkChoices checks an id-form placement: one choice per microservice,
// each passing checkChoice. The walk is in id order, with no name lookup;
// only a faulty placement walks again, in the app's declaration order, so
// that its error is the first fault in the order a named placement reports
// faults (Exec.runNamed).
func (p *Plan) checkChoices(choices []Choice) error {
	if len(choices) != len(p.msNames) {
		return fmt.Errorf("sim: placement has %d choices for %d microservices", len(choices), len(p.msNames))
	}
	for i, c := range choices {
		if p.checkChoice(int32(i), c) == nil {
			continue
		}
		for _, m := range p.app.Microservices {
			id := p.msIndex[m.Name]
			if err := p.checkChoice(id, choices[id]); err != nil {
				return err
			}
		}
	}
	return nil
}
