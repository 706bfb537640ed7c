// Package appgraph is the compiled application-side substrate shared by
// every per-cluster compiler in the system — the app-side mirror of
// internal/topo. The DEEP pipeline prices (costmodel.CompileShapeOn) and
// simulates (sim.CompilePlanOnTables) every (app, cluster) pair; before this
// package each compiler independently re-ran the DAG's structural
// validation, topological ordering, and barrier-stage partition
// (map-allocating graph walks) and rebuilt identical sorted name tables and
// dataflow rows for the same application. An AppTable is everything in those
// compilers that depends only on the application — compiled once per app
// and shared across clusters and across both compilers.
//
// An AppTable from the package-level Compile is immutable and safe for any
// number of concurrent readers. One compiled into a caller's Scratch — the
// form the fleet compiles every request's table in — is private to that
// caller and overwritten by its next compile. Accessors returning slices return the table's own backing
// arrays — callers must treat them as read-only.
//
// A dag.App is valid by construction, so a table never carries a structural
// error: its names are unique, its edges resolved, and the ordering walk the
// App stores gives the ids, the topological order and the stages.
package appgraph

import (
	"slices"

	"deep/internal/dag"
	"deep/internal/slab"
	"deep/internal/units"
)

// Edge is one compiled incoming dataflow: MS is the source microservice id.
// Rows preserve the DAG's declaration order — the order the estimator
// accumulates transfer times in.
type Edge struct {
	MS   int32
	Size units.Bytes
}

// Phase indices into PhaseTags, matching the simulator's jitter phases.
const (
	PhaseDeploy = iota
	PhaseTransfer
	PhaseProcess
	numPhases
)

// AppTable is the compiled application-side substrate: sorted microservice
// name table, interned microservice handles, dense
// topological-order and barrier-stage rows, in-edge dataflow rows,
// per-microservice image sizes and external inputs, and the simulator's
// per-phase jitter tags.
// Per-cluster compilers (costmodel.CompileShapeOn, sim.CompilePlanOnTables)
// layer their per-(microservice, device class) tables on top of it.
type AppTable struct {
	app *dag.App

	// Name table; ids are positions, sorted so ascending id order is
	// ascending name order (the compilers' canonical order): a name's id is
	// its rank in the app's ordering walk, and MSID finds it by binary
	// search.
	msNames []string

	// ms[i] is the microservice with id i.
	ms []*dag.Microservice

	imageSize []units.Bytes // per microservice
	extInput  []units.Bytes // per microservice

	inputs [][]Edge // per microservice: incoming dataflows, DAG order

	// The app's barrier stages and topological order as id rows.
	stages [][]int32
	topo   []int32

	// jitterTag[phase][ms] is the byte suffix "|app|ms|phase" the
	// simulator's jitter hashes after the run seed.
	jitterTag [numPhases][][]byte
}

// Compile builds the app table: the rows every per-cluster compiler would
// otherwise rebuild from the app, translated once from its ordering walk.
func Compile(app *dag.App) *AppTable { return new(Scratch).Compile(app) }

// Scratch is recycled storage for one AppTable: the table and a backing
// slice per element type, each sized once per compile and carved into the
// table's columns and rows. Compile overwrites the previous table in place,
// so a Scratch has a single owner (a fleet worker keeps one for shapes it
// sees for the first time) and its table is valid only until the next
// Compile; a table that is to be shared comes from the package-level Compile,
// which is this same compile on a Scratch of its own.
type Scratch struct {
	t        AppTable
	names    slab.Slab[string]
	ms       slab.Slab[*dag.Microservice]
	sizes    slab.Slab[units.Bytes] // image sizes, external inputs
	edges    slab.Slab[Edge]        // in-edge rows
	edgeRows slab.Slab[[]Edge]      // inputs
	ids      slab.Slab[int32]       // in-degrees and stage widths (compile-time only), topo, stages
	idRows   slab.Slab[[]int32]
	tags     slab.Slab[byte]
	tagRows  slab.Slab[[]byte]
}

var phaseNames = [numPhases]string{PhaseDeploy: "deploy", PhaseTransfer: "transfer", PhaseProcess: "process"}

// Compile builds app's table in the scratch, replacing the one it held.
func (s *Scratch) Compile(app *dag.App) *AppTable {
	t := &s.t
	*t = AppTable{app: app}

	ord := app.Order()
	nm, numStages := len(ord.ByName), ord.Stages

	// The name table and its handles. Names are unique and edges resolved,
	// so the walk has numbered both already and ids are ranks.
	s.names.Reset(nm)
	s.ms.Reset(nm)
	t.msNames, t.ms = s.names.Cut(nm), s.ms.Cut(nm)
	for r, v := range ord.ByName {
		t.ms[r] = app.Microservices[v]
		t.msNames[r] = t.ms[r].Name
	}

	s.sizes.Reset(2 * nm)
	t.imageSize, t.extInput = s.sizes.Cut(nm), s.sizes.Cut(nm)
	for i, m := range t.ms {
		t.imageSize[i] = m.ImageSize
		t.extInput[i] = m.ExternalInput
	}

	// Count in-degrees, then cut each row at its final size and fill in
	// declaration order.
	s.ids.Reset(3*nm + numStages)
	inDeg := s.ids.Cut(nm)
	clear(inDeg)
	for _, to := range ord.To {
		inDeg[to]++
	}
	s.edges.Reset(len(app.Dataflows))
	s.edgeRows.Reset(nm)
	t.inputs = s.edgeRows.Cut(nm)
	for i := range t.inputs {
		t.inputs[i] = s.edges.Cut(int(inDeg[i]))[:0]
	}
	for i, e := range app.Dataflows {
		dst := ord.To[i]
		t.inputs[dst] = append(t.inputs[dst], Edge{MS: ord.From[i], Size: e.Size})
	}

	// Filling the stages in name order leaves each one ascending, the order
	// the schedulers and the executor visit.
	t.topo = s.ids.Cut(nm)
	for i, v := range ord.Topo {
		t.topo[i] = ord.Rank[v]
	}
	width := s.ids.Cut(numStages)
	clear(width)
	for _, l := range ord.Level {
		width[l]++
	}
	s.idRows.Reset(numStages)
	t.stages = s.idRows.Cut(numStages)
	for l := range t.stages {
		t.stages[l] = s.ids.Cut(int(width[l]))[:0]
	}
	for _, v := range ord.ByName {
		l := ord.Level[v]
		t.stages[l] = append(t.stages[l], ord.Rank[v])
	}

	// Every tag is "|app|ms|phase"; size the byte slab for all of them first,
	// so appending never moves the rows already cut from it.
	size := 0
	for _, tag := range phaseNames {
		size += nm * (3 + len(app.Name) + len(tag))
		for _, name := range t.msNames {
			size += len(name)
		}
	}
	s.tags.Reset(size)
	s.tagRows.Reset(numPhases * nm)
	for phase, tag := range phaseNames {
		t.jitterTag[phase] = s.tagRows.Cut(nm)
		for i, name := range t.msNames {
			b := s.tags.Rest()[:0]
			b = append(b, '|')
			b = append(b, app.Name...)
			b = append(b, '|')
			b = append(b, name...)
			b = append(b, '|')
			b = append(b, tag...)
			t.jitterTag[phase][i] = s.tags.Cut(len(b))
		}
	}
	return t
}

// App returns the application the table was compiled from.
func (t *AppTable) App() *dag.App { return t.app }

// NumMicroservices returns the number of compiled microservices.
func (t *AppTable) NumMicroservices() int { return len(t.msNames) }

// MSNames returns the sorted microservice name table (shared slice;
// positions are microservice ids).
func (t *AppTable) MSNames() []string { return t.msNames }

// MSID returns the id of a microservice name.
func (t *AppTable) MSID(name string) (int32, bool) { return MSID(t.msNames, name) }

// MSID returns the id of a microservice name in a sorted name table.
func MSID(names []string, name string) (int32, bool) {
	id, ok := slices.BinarySearch(names, name)
	return int32(id), ok
}

// Microservices returns the interned handles (shared slice, parallel to
// MSNames).
func (t *AppTable) Microservices() []*dag.Microservice { return t.ms }

// ImageSizes returns the per-microservice image sizes (shared slice).
func (t *AppTable) ImageSizes() []units.Bytes { return t.imageSize }

// ExtInputs returns the per-microservice external inputs (shared slice).
func (t *AppTable) ExtInputs() []units.Bytes { return t.extInput }

// Inputs returns the per-microservice in-edge rows (shared slices, DAG
// declaration order).
func (t *AppTable) Inputs() [][]Edge { return t.inputs }

// Stages returns the barrier stages as microservice ids (each stage
// ascending = lexicographic name order).
func (t *AppTable) Stages() [][]int32 { return t.stages }

// Topo returns the deterministic topological order as microservice ids.
func (t *AppTable) Topo() []int32 { return t.topo }

// PhaseTags returns the simulator's jitter-hash byte suffixes, indexed
// [Phase*][ms id] (shared slices): "|app|ms|deploy" and friends, hashed
// after the run seed.
func (t *AppTable) PhaseTags() [3][][]byte { return t.jitterTag }
