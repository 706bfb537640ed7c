// Package costmodel is the scheduling core's compiled cost model: it
// compiles an (application, cluster) pair once into dense integer-indexed
// arrays — microservices, devices, registries, and feasible options as ints;
// per-(registry, device) deployment links, per-device-pair transfer links,
// and per-(microservice, device class) processing times and power draws all
// precomputed — so the estimator queries that dominate the Nash scheduler's
// best-response sweeps (Energy, CompletionTime) run with zero allocations
// and no string comparisons in steady state.
//
// The model prices assignments with exactly the same floating-point
// operations, in the same order, as the string-keyed estimator it replaced,
// so every scheduler built on it emits byte-identical placements (the
// equivalence corpus in internal/sched pins this). Compiling assumes the
// cluster's power models are pure functions of (state, microservice); all
// shipped models are.
//
// A Model from Compile or the package-level CompileShapeOn is immutable and
// safe for concurrent readers — the form the fleet caches per request shape
// and shares between workers. One compiled into a caller's Scratch is the
// other kind: private to that caller, recycled, and overwritten by its next
// compile (a fleet worker keeps one Scratch for shapes it sees for the first
// time). Either way the mutable pass state lives in State (one per
// scheduling pass, arena-style, not goroutine-safe).
//
// The cluster-side tables (device/registry names, dense link tables,
// shared-uplink flags) live in a topo.ClusterTable and the application-side
// structure in an appgraph.AppTable; CompileShapeOn layers the cross-product
// pass over caller-supplied tables so N applications on one cluster (or one
// application on N clusters) share the substrates, and Compile builds
// private tables on the fly. There is one compile body, Scratch's: it sizes
// the option table with a counting pass and carves one row per distinct
// feasibility pattern from one backing slice, which every microservice with
// that pattern shares, and the fresh entry points run it on a zero Scratch.
package costmodel

import (
	"math"
	"slices"

	"deep/internal/appgraph"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/slab"
	"deep/internal/topo"
	"deep/internal/units"
)

// Option is one feasible (device, registry) assignment in compiled form.
// The fields index the model's device and registry tables, which are the
// plan's: an Option is the simulator's Choice, so a pass's placement runs on
// the plan as it stands (sim.Exec.RunChoices).
type Option = sim.Choice

// Model is the compiled cost model for one (application, cluster) pair.
type Model struct {
	App *dag.App

	tab *topo.ClusterTable

	// Name tables; ids are positions in these slices, which are sorted and
	// compacted so ascending id order is ascending name order. The device
	// and registry tables are the cluster table's, referenced here for the
	// estimator's hot path.
	msNames  []string
	devNames []string
	regNames []string
	devIndex map[string]int32
	regIndex map[string]int32

	regShared []bool // per registry (the cluster table's)

	// Cluster-side dense link tables, shared with the topo.ClusterTable:
	// regLink[r*numDev+d] is the route from registry r's node to device d;
	// devLink[f*numDev+t] from device f to device t (loopback when f == t,
	// mirroring netsim's implicit infinite-bandwidth loopback); srcLink[d]
	// from the external-input source node (unused without a source node).
	regLink   []topo.Link
	devLink   []topo.Link
	srcLink   []topo.Link
	hasSource bool

	imageSize []units.Bytes     // per microservice (the app table's)
	extInput  []units.Bytes     // per microservice (the app table's)
	inputs    [][]appgraph.Edge // per microservice, in dataflow order (the app table's)

	// Per-(microservice, device class) tables, the plan's, indexed
	// ms*numClass+devClass[dev] (cell): every device of a class prices alike.
	devClass []int32
	numClass int
	tp       []float64
	pullW    []units.Watts
	recvW    []units.Watts
	procW    []units.Watts

	// opts holds each microservice's feasible options in canonical order
	// (device name, then registry name) — enumerated once at compile, so
	// Options never re-sorts. Microservices that can run on the same devices
	// share one row.
	opts [][]Option

	// Barrier stages and topological order (the app table's).
	stages [][]int32
	topo   []int32
}

// Compile builds the indexed model alone, compiling a private app table and
// cluster table on the fly. Callers that hold the substrates, or that also
// simulate, use CompileShapeOn.
func Compile(app *dag.App, cluster *sim.Cluster) *Model {
	m, _ := CompileShapeOn(appgraph.Compile(app), cluster, sim.CompileClusterTable(cluster))
	return m
}

// CompileShapeOn fuses the cost-model and simulator compiles into a single
// walk over (at, tab): the simulator plan prices every (microservice,
// device class) pair once, and the model layers its option tables over those
// same rows instead of re-querying the pure per-pair functions (ProcessingTime,
// the three phase power draws, feasibility). This is the fleet's cold path.
// tab must describe cluster's shape (same devices, registries, topology
// routes — the fleet guarantees this by keying tables on the cluster
// digest).
func CompileShapeOn(at *appgraph.AppTable, cluster *sim.Cluster, tab *topo.ClusterTable) (*Model, *sim.Plan) {
	return new(Scratch).CompileShapeOn(at, cluster, tab)
}

// Scratch is recycled storage for one compiled shape — a Model and the Plan
// it is layered over: the two values and the backing slices of the option
// table, sized once per compile by a counting pass and carved into rows.
// CompileShapeOn overwrites the previous shape in place, so a Scratch has a
// single owner (a fleet worker keeps one for shapes it sees for the first
// time) and its shape is valid only until the next compile; a shape that is
// to be shared comes from the package-level CompileShapeOn, which is this
// same compile on a Scratch of its own.
type Scratch struct {
	plan sim.PlanScratch

	m       Model
	opts    slab.Slab[Option]
	optRows slab.Slab[[]Option]
}

// CompileShapeOn builds the shape in the scratch, replacing the one it held.
func (s *Scratch) CompileShapeOn(at *appgraph.AppTable, cluster *sim.Cluster, tab *topo.ClusterTable) (*Model, *sim.Plan) {
	plan := s.plan.Compile(at, cluster, tab)
	m := &s.m
	*m = Model{App: at.App(), tab: tab}

	m.msNames = at.MSNames()
	m.devNames = tab.DevNames()
	m.devIndex = tab.DevIndex()
	m.regNames = tab.RegNames()
	m.regIndex = tab.RegIndex()

	nm, nd, nr := len(m.msNames), len(m.devNames), len(m.regNames)

	m.regShared = tab.RegShared()
	m.regLink = tab.RegLinks()
	m.devLink = tab.DevLinks()
	m.srcLink = tab.SrcLinks()
	m.hasSource = tab.HasSource()

	m.imageSize = at.ImageSizes()
	m.extInput = at.ExtInputs()
	m.inputs = at.Inputs()

	// The per-(microservice, device class) rows are the plan's, priced over
	// the same tables. The plan prices infeasible pairs too; that is
	// unobservable, because options only ever name feasible devices.
	var feasible []bool
	m.devClass, feasible, m.tp, m.pullW, m.recvW, m.procW = plan.MSRows()
	nc := len(tab.ClassReps())
	m.numClass = nc

	// A row is a function of the microservice's feasibility pattern (which
	// devices can run it), so microservices with one pattern share one row:
	// the first of them, in id order, builds it. Every class has a device,
	// so two patterns are equal over devices exactly when they are equal
	// over classes. A device contributes one option per registry that
	// routes to it, to every row whose pattern holds it: count before
	// carving.
	numOpts := 0
	for mi := 0; mi < nm; mi++ {
		if samePattern(feasible, nc, mi) < mi {
			continue
		}
		for d := 0; d < nd; d++ {
			if !feasible[mi*nc+int(m.devClass[d])] {
				continue
			}
			for r := 0; r < nr; r++ {
				if m.regLink[r*nd+d].OK {
					numOpts++
				}
			}
		}
	}
	s.opts.Reset(numOpts)
	s.optRows.Reset(nm)
	m.opts = s.optRows.Cut(nm)
	for mi := 0; mi < nm; mi++ {
		if first := samePattern(feasible, nc, mi); first < mi {
			m.opts[mi] = m.opts[first]
			continue
		}
		// Options iterate devices, then registries, both ascending: the
		// canonical order.
		row := s.opts.Rest()[:0]
		for d := 0; d < nd; d++ {
			if !feasible[mi*nc+int(m.devClass[d])] {
				continue
			}
			for r := 0; r < nr; r++ {
				if m.regLink[r*nd+d].OK {
					row = append(row, Option{Device: int32(d), Registry: int32(r)})
				}
			}
		}
		m.opts[mi] = s.opts.Cut(len(row))
	}

	m.stages, m.topo = at.Stages(), at.Topo()
	return m, plan
}

// samePattern returns the first microservice, in id order, whose row of
// the nm×nc feasibility table equals mi's: mi itself when none before it
// does.
func samePattern(feasible []bool, nc, mi int) int {
	row := feasible[mi*nc : (mi+1)*nc]
	for j := 0; j < mi; j++ {
		if slices.Equal(feasible[j*nc:(j+1)*nc], row) {
			return j
		}
	}
	return mi
}

// NumMicroservices returns the number of compiled microservices.
func (m *Model) NumMicroservices() int { return len(m.msNames) }

// NumDevices returns the number of compiled devices.
func (m *Model) NumDevices() int { return len(m.devNames) }

// NumRegistries returns the number of compiled registries.
func (m *Model) NumRegistries() int { return len(m.regNames) }

// MSName returns the microservice name for an id.
func (m *Model) MSName(ms int32) string { return m.msNames[ms] }

// MSID returns the id of a microservice name.
func (m *Model) MSID(name string) (int32, bool) {
	return appgraph.MSID(m.msNames, name)
}

// RegistryID returns the id of a registry name.
func (m *Model) RegistryID(name string) (int32, bool) {
	id, ok := m.regIndex[name]
	return id, ok
}

// Options returns the microservice's feasible options in canonical order
// (device name, then registry name). The slice is shared — by every
// microservice that can run on the same devices, among others — so callers
// must not mutate it.
func (m *Model) Options(ms int32) []Option { return m.opts[ms] }

// Assignment converts a compiled option back to its string form.
func (m *Model) Assignment(o Option) sim.Assignment {
	return sim.Assignment{Device: m.devNames[o.Device], Registry: m.regNames[o.Registry]}
}

// Intern converts a string assignment to compiled form.
func (m *Model) Intern(a sim.Assignment) (Option, bool) {
	d, okD := m.devIndex[a.Device]
	r, okR := m.regIndex[a.Registry]
	return Option{Device: d, Registry: r}, okD && okR
}

// cell is the index of device dev's class row for microservice ms.
func (m *Model) cell(ms, dev int32) int { return int(ms)*m.numClass + int(m.devClass[dev]) }

// LinkOK reports whether the registry's node routes to the device.
func (m *Model) LinkOK(reg, dev int32) bool {
	return m.regLink[int(reg)*len(m.devNames)+int(dev)].OK
}

// Table returns the cluster-side table the model was compiled on.
func (m *Model) Table() *topo.ClusterTable { return m.tab }

// Stages returns the barrier stages as microservice ids, each stage
// ascending (= lexicographic name order, the order the schedulers visit).
func (m *Model) Stages() [][]int32 { return m.stages }

// Topo returns the deterministic topological order as microservice ids.
func (m *Model) Topo() []int32 { return m.topo }

// MaxStageWidth returns the widest barrier stage, for sizing per-stage
// scratch once.
func (m *Model) MaxStageWidth() int {
	w := 0
	for _, s := range m.stages {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// GameArena is a bump allocator for the scratch the stage solvers burn
// through while solving one stage game after another: price rows,
// per-device and per-registry tables, and index buffers — no stage builds a
// payoff matrix. Grab what a stage needs, Reset, repeat: in steady state
// nothing escapes to the garbage collector. It is owned by a State (one per
// scheduling pass) and reset per stage. Reset recycles every outstanding
// grant, so callers must not hold arena memory across a Reset. The zero
// value is an empty arena whose backing buffers grow on demand and are kept
// across Reset.
type GameArena struct {
	floats []float64
	nf     int
	ints   []int
	ni     int
}

// Reset recycles all grants. Previously returned slices must no longer be
// used.
func (a *GameArena) Reset() { a.nf, a.ni = 0, 0 }

// Floats grants a zeroed float buffer of length n.
func (a *GameArena) Floats(n int) []float64 {
	if a.nf+n > len(a.floats) {
		// Grow to fresh backing; grants from the old array stay valid until
		// the next Reset, they just aren't recycled this cycle.
		a.floats = make([]float64, growArena(len(a.floats), n))
		a.nf = 0
	}
	out := a.floats[a.nf : a.nf+n]
	a.nf += n
	clear(out)
	return out
}

// Ints grants a zeroed int buffer of length n.
func (a *GameArena) Ints(n int) []int {
	if a.ni+n > len(a.ints) {
		a.ints = make([]int, growArena(len(a.ints), n))
		a.ni = 0
	}
	out := a.ints[a.ni : a.ni+n]
	a.ni += n
	clear(out)
	return out
}

func growArena(cur, need int) int {
	return max(2*cur, need, 64)
}

// State is the arena-style scratch for one scheduling pass: the devices of
// microservices committed in earlier stages, an epoch-marked device set (for
// counting shared-registry contention, and for the devices StageRows keeps),
// and a lazily created GameArena for the stage solvers' price rows and
// tables. Energy, CompletionTime, EnergyRow, EnergyRowPair and StageRows do
// not allocate. Not safe for concurrent use; allocate one per pass (or
// Reset).
type State struct {
	m      *Model
	placed []int32 // device id per microservice, -1 = unplaced
	seen   []uint64
	epoch  uint64
	arena  *GameArena
}

// Arena returns the pass's game scratch arena, creating it on first use.
// Grants are recycled by arena Reset (per stage), not by State.Reset.
func (s *State) Arena() *GameArena {
	if s.arena == nil {
		s.arena = new(GameArena)
	}
	return s.arena
}

// NewState returns scratch sized for the model, with nothing placed.
func (m *Model) NewState() *State {
	s := new(State)
	s.Retarget(m)
	return s
}

// Retarget points the scratch at another model, growing it where that model
// is larger, and forgets all commitments. The arena is kept.
func (s *State) Retarget(m *Model) {
	s.m = m
	s.placed = slab.Grow(s.placed, len(m.msNames))
	// Stale marks are harmless: they are all below the next epoch.
	s.seen = slab.Grow(s.seen, len(m.devNames))
	s.Reset()
}

// Reset forgets all commitments, recycling the scratch for another pass.
func (s *State) Reset() {
	for i := range s.placed {
		s.placed[i] = -1
	}
}

// Commit fixes a microservice's assignment for later stages.
func (s *State) Commit(ms int32, o Option) { s.placed[ms] = o.Device }

// StageRows writes into rows[k] the reduced option row of stage[k]: its
// canonical row (Options) restricted to the devices the stage keeps, in the
// same order. A stage keeps every device that hosts a committed upstream of
// one of its members and, of each twin class (topo.ClusterTable.Twins), the
// first len(stage) other devices in device order. Rows that lose nothing
// are the model's own; the others are cut from buf, which must hold the
// stage's canonical rows end to end. Why a stage game over these rows has
// the answer it has over the canonical ones is sched.DEEP's argument.
func (s *State) StageRows(stage []int32, rows [][]Option, buf []Option) {
	m := s.m
	reps, next := m.tab.TwinReps(), m.tab.TwinNext()
	dropped := false
	s.epoch++
	keep := s.epoch
	if len(reps) < len(next) { // some device has a twin
		for _, ms := range stage {
			for _, in := range m.inputs[ms] {
				if pd := s.placed[in.MS]; pd >= 0 {
					s.seen[pd] = keep
				}
			}
		}
		for _, d := range reps {
			kept := 0
			for ; d >= 0; d = next[d] {
				switch {
				case s.seen[d] == keep:
				case kept < len(stage):
					kept++
					s.seen[d] = keep
				default:
					dropped = true
				}
			}
		}
	}
	for k, ms := range stage {
		row := m.opts[ms]
		if dropped {
			n := 0
			for _, o := range row {
				if s.seen[o.Device] == keep {
					buf[n] = o
					n++
				}
			}
			row, buf = buf[:n:n], buf[n:]
		}
		rows[k] = row
	}
}

// phases computes the deployment, transfer, and processing times for ms
// under option o. coMS/coOpt list the same-stage co-assignments (parallel
// slices; an entry for ms itself is ignored), used for shared-registry
// contention: pulls from a shared registry to n distinct devices divide its
// uplink capacity. The arithmetic mirrors the string-keyed estimator
// operation for operation.
func (s *State) phases(ms int32, o Option, coMS []int32, coOpt []Option) (td, tc, tp float64) {
	td = s.deployTime(ms, o, coMS, coOpt)
	tc = s.transferTime(ms, o.Device)
	tp = s.m.tp[s.m.cell(ms, o.Device)]
	return td, tc, tp
}

// deployTime computes Td: the registry link's RTT plus the image pull at
// the link bandwidth, divided among the distinct same-stage devices pulling
// from the same shared registry. Zero when the registry does not route to
// the device.
func (s *State) deployTime(ms int32, o Option, coMS []int32, coOpt []Option) float64 {
	m := s.m
	l := m.regLink[int(o.Registry)*len(m.devNames)+int(o.Device)]
	if !l.OK {
		return 0
	}
	n := 1
	if m.regShared[o.Registry] {
		s.epoch++
		s.seen[o.Device] = s.epoch
		for k := range coMS {
			if coMS[k] == ms {
				continue
			}
			co := coOpt[k]
			if co.Registry != o.Registry {
				continue
			}
			if s.seen[co.Device] != s.epoch {
				s.seen[co.Device] = s.epoch
				n++
			}
		}
	}
	return m.pullTime(l, ms, n)
}

// pullTime is Td over an OK registry link whose uplink is divided among n
// distinct pulling devices. Every deployment price goes through this one
// expression, so the per-option and batch paths cannot drift apart.
func (m *Model) pullTime(l topo.Link, ms int32, n int) float64 {
	bw := l.BW
	if n > 1 {
		bw = l.BW / units.Bandwidth(n)
	}
	return l.RTT + bw.Seconds(m.imageSize[ms])
}

// Contend reports whether two same-stage options divide a registry uplink
// between them: both pull from the same shared registry onto different
// devices. It is deployTime's contention scan for a single co-assignment,
// and symmetric in its arguments.
func (m *Model) Contend(x, y Option) bool { return Contend(m.regShared, x, y) }

// Contend is Model.Contend over bare per-registry shared-uplink flags (a
// cluster table's RegShared), for callers that hold the flags but no model.
func Contend(regShared []bool, x, y Option) bool {
	return regShared[x.Registry] && y.Registry == x.Registry && y.Device != x.Device
}

// transferTime computes Tc onto the device: every incoming dataflow from
// its upstream's committed device (co-location when unplaced) plus the
// external input from the source node, infinite when a route is missing.
// It depends only on (ms, device) — not the registry — which is what lets
// EnergyRow hoist it out of the per-option loop.
func (s *State) transferTime(ms int32, dev int32) float64 {
	m := s.m
	nd := len(m.devNames)
	tc := 0.0
	for _, in := range m.inputs[ms] {
		from := dev // unplaced upstream defaults to co-location
		if pd := s.placed[in.MS]; pd >= 0 {
			from = pd
		}
		dl := m.devLink[int(from)*nd+int(dev)]
		if dl.OK {
			tc += dl.RTT + dl.BW.Seconds(in.Size)
		} else {
			tc += math.Inf(1)
		}
	}
	if m.extInput[ms] > 0 && m.hasSource {
		sl := m.srcLink[dev]
		if sl.OK {
			tc += sl.RTT + sl.BW.Seconds(m.extInput[ms])
		} else {
			tc += math.Inf(1)
		}
	}
	return tc
}

// Energy estimates EC(m_i, r_g, d_j): the device's total draw across the
// deployment, transfer, and processing phases, in joules.
func (s *State) Energy(ms int32, o Option, coMS []int32, coOpt []Option) float64 {
	td, tc, tp := s.phases(ms, o, coMS, coOpt)
	k := s.m.cell(ms, o.Device)
	return float64(s.m.pullW[k].Over(td) + s.m.recvW[k].Over(tc) + s.m.procW[k].Over(tp))
}

// CompletionTime estimates CT(m_i, r_g, d_j) = Td + Tc + Tp in seconds.
func (s *State) CompletionTime(ms int32, o Option, coMS []int32, coOpt []Option) float64 {
	td, tc, tp := s.phases(ms, o, coMS, coOpt)
	return td + tc + tp
}

// EnergyRow batch-prices a whole option row: dst[k] receives exactly
// Energy(ms, opts[k], coMS, coOpt) for every k, in one call with one
// bounds-checked inner loop and no per-option dispatch. Because options are
// canonically ordered (device, then registry), the transfer time, processing
// time, and power draws — all functions of the device alone — are computed
// once per device run instead of once per option; only the deployment phase
// (registry link and shared-registry contention) is per-option. A
// co-assignment entry for ms itself is ignored, so the row may be priced
// under any placeholder assignment for ms in coOpt. dst must have length
// len(opts). Allocation-free.
func (s *State) EnergyRow(ms int32, opts []Option, coMS []int32, coOpt []Option, dst []float64) {
	lastDev := int32(-1)
	var tc, tp float64
	var pullW, recvW, procW units.Watts
	for k, o := range opts {
		if o.Device != lastDev {
			lastDev = o.Device
			tc, tp, pullW, recvW, procW = s.deviceTerms(ms, o.Device)
		}
		td := s.deployTime(ms, o, coMS, coOpt)
		dst[k] = float64(pullW.Over(td) + recvW.Over(tc) + procW.Over(tp))
	}
}

// deviceTerms returns everything an option's price takes from its device
// alone — transfer time, processing time, and the three phase power draws —
// which the batch pricers compute once per device run of a canonically
// ordered option row.
func (s *State) deviceTerms(ms, dev int32) (tc, tp float64, pullW, recvW, procW units.Watts) {
	m := s.m
	k := m.cell(ms, dev)
	return s.transferTime(ms, dev), m.tp[k], m.pullW[k], m.recvW[k], m.procW[k]
}

// EnergyRowPair batch-prices an option row at both contention levels a
// two-microservice stage can produce. The only coupling between same-stage
// options is deployTime's count n of distinct devices pulling from one
// shared registry; against a single opponent that count is 1 or 2, so each
// option has exactly two prices: solo[k] is Energy(ms, opts[k], ...) under
// any co-assignment that does not Contend with opts[k] (n = 1), shared[k]
// under any that does (n = 2) — bit for bit, because both go through
// pullTime and the same hoisted per-device terms as EnergyRow. Where the
// registry is not shared, or does not route to the device, there is no
// second price and shared[k] == solo[k]. Stages of three or more can reach
// n > 2 and must stay on EnergyRow. solo and shared must have length
// len(opts). Allocation-free.
func (s *State) EnergyRowPair(ms int32, opts []Option, solo, shared []float64) {
	m := s.m
	nd := len(m.devNames)
	lastDev := int32(-1)
	var tc, tp float64
	var pullW, recvW, procW units.Watts
	for k, o := range opts {
		if o.Device != lastDev {
			lastDev = o.Device
			tc, tp, pullW, recvW, procW = s.deviceTerms(ms, o.Device)
		}
		var td1, td2 float64
		if l := m.regLink[int(o.Registry)*nd+int(o.Device)]; l.OK {
			td1 = m.pullTime(l, ms, 1)
			td2 = td1
			if m.regShared[o.Registry] {
				td2 = m.pullTime(l, ms, 2)
			}
		}
		solo[k] = float64(pullW.Over(td1) + recvW.Over(tc) + procW.Over(tp))
		shared[k] = float64(pullW.Over(td2) + recvW.Over(tc) + procW.Over(tp))
	}
}
