// Package appgraph is the compiled application-side substrate shared by
// every per-cluster compiler in the system — the app-side mirror of
// internal/topo. The DEEP pipeline prices (costmodel.CompileShapeOn) and
// simulates (sim.CompilePlanOnTables) every (app, cluster) pair; before this
// package each compiler independently re-ran the DAG's structural
// validation, topological ordering, and barrier-stage partition
// (map-allocating graph walks) and rebuilt identical sorted name tables and
// dataflow rows for the same application. An AppTable is everything in those
// compilers that depends only on the application — compiled once per app
// (the fleet keys it by app digest) and shared across clusters and across
// both compilers.
//
// An AppTable from the package-level Compile is immutable and safe for any
// number of concurrent readers — the form the fleet shares. One compiled
// into a caller's Scratch is private to that caller and overwritten by its
// next compile. Either snapshots the application's structure; mutating the
// app afterwards is not supported (the same contract as topo.ClusterTable).
// Accessors returning slices return the table's own backing arrays — callers
// must treat them as read-only.
//
// Duplicate names: the name table is sorted and compacted, and on duplicate
// microservice names the first occurrence (in the app's declaration order)
// wins everywhere — matching both compilers' historical interning. (A
// duplicate name still fails Validate, and that error is preserved verbatim
// in ValidateErr; the table's rows exist so the compilers can keep reporting
// the error exactly where the legacy paths did.)
package appgraph

import (
	"slices"
	"sort"

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

// AppTable is the compiled application-side substrate: sorted + compacted
// microservice name table and index map, interned microservice handles,
// dense topological-order and barrier-stage rows, in-edge dataflow rows,
// per-microservice image sizes and external inputs, the
// structural-validation results both compilers previously re-derived, and
// the simulator's per-phase jitter tags.
// Per-cluster compilers (costmodel.CompileShapeOn, sim.CompilePlanOnTables)
// layer their per-(microservice, device) tables on top of it.
type AppTable struct {
	app *dag.App

	// Name table; ids are positions, sorted and compacted so ascending id
	// order is ascending name order (the compilers' canonical order).
	msNames []string
	msIndex map[string]int32

	// ms[i] is the microservice with id i (first occurrence on duplicate
	// names, matching the name-table compaction).
	ms []*dag.Microservice

	imageSize []units.Bytes // per microservice
	extInput  []units.Bytes // per microservice

	inputs [][]Edge // per microservice: incoming dataflows, DAG order

	// Structural validation, captured once at compile time. validErr is
	// App.Validate's result verbatim; stages/topo carry App.Stages and
	// App.TopoOrder translated to dense id rows with their own errors, so
	// each consumer can keep surfacing exactly the error its legacy path
	// reported.
	validErr  error
	stages    [][]int32
	stagesErr error
	topo      []int32
	topoErr   error

	// jitterTag[phase][ms] is the byte suffix "|app|ms|phase" the
	// simulator's jitter hashes after the run seed.
	jitterTag [numPhases][][]byte
}

// Compile builds the app table. It performs the full set of DAG graph walks
// — validation, topological order, barrier stages — which is exactly the
// work sharing the table avoids repeating per cluster and per compiler. It
// never fails: structural problems are captured (errors verbatim) and
// surface from the consumers exactly where they always did.
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
	ids      slab.Slab[int32]       // edge endpoints and in-degrees (compile-time only), topo, stages
	idRows   slab.Slab[[]int32]
	tags     slab.Slab[byte]
	tagRows  slab.Slab[[]byte]
}

var phaseNames = [numPhases]string{PhaseDeploy: "deploy", PhaseTransfer: "transfer", PhaseProcess: "process"}

// Compile builds app's table in the scratch, replacing the one it held.
func (s *Scratch) Compile(app *dag.App) *AppTable {
	t := &s.t
	*t = AppTable{app: app, msIndex: t.msIndex}

	t.validErr = app.Validate()
	// One round of graph walks for the app's lifetime: Validate left the
	// ordering walk in the dag memo, so Order is a read.
	ord, err := app.Order()
	t.stagesErr, t.topoErr = err, err
	numStages := 0
	if err == nil {
		numStages = ord.Stages
	}

	// The name table, its handles, and every edge's endpoints as ids (a
	// dangling edge's source is -1).
	s.ids.Reset(2*len(app.Dataflows) + 3*len(app.Microservices) + numStages)
	var from, to []int32
	if err == nil {
		from, to = s.rankedNames(app, ord)
	} else {
		from, to = s.sortedNames(app)
	}
	nm := len(t.msNames)

	s.sizes.Reset(2 * nm)
	t.imageSize, t.extInput = s.sizes.Cut(nm), s.sizes.Cut(nm)
	for i, m := range t.ms {
		t.imageSize[i] = m.ImageSize
		t.extInput[i] = m.ExternalInput
	}

	// Count in-degrees, then cut each row at its final size and fill in
	// declaration order.
	inDeg := s.ids.Cut(nm)
	clear(inDeg)
	kept := 0
	for i := range app.Dataflows {
		if from[i] < 0 {
			continue
		}
		inDeg[to[i]]++
		kept++
	}
	s.edges.Reset(kept)
	s.edgeRows.Reset(nm)
	t.inputs = s.edgeRows.Cut(nm)
	for i := range t.inputs {
		t.inputs[i] = s.edges.Cut(int(inDeg[i]))[:0]
	}
	for i, e := range app.Dataflows {
		if src, dst := from[i], to[i]; src >= 0 {
			t.inputs[dst] = append(t.inputs[dst], Edge{MS: src, Size: e.Size})
		}
	}

	if err == nil {
		// The graph resolved, so names are unique and a vertex's rank by
		// name is its id. Filling the stages in name order leaves each one
		// ascending, the order the schedulers and the executor visit.
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

// rankedNames fills the name table and its handles for an app whose
// ordering walk stands, and returns the edges' endpoints: its names are
// unique and its edges resolved, so the walk has numbered both already and
// ids are ranks.
func (s *Scratch) rankedNames(app *dag.App, ord *dag.Order) (from, to []int32) {
	t, nm := &s.t, len(ord.ByName)
	s.names.Reset(nm)
	s.ms.Reset(nm)
	t.msNames, t.ms = s.names.Cut(nm), s.ms.Cut(nm)
	for r, v := range ord.ByName {
		t.ms[r] = app.Microservices[v]
		t.msNames[r] = t.ms[r].Name
	}
	t.indexNames()
	return ord.From, ord.To
}

// sortedNames is rankedNames for an app whose walk failed (duplicate names,
// dangling edges, a cycle): the names are sorted and compacted, the first
// vertex under a name is its handle, and a dangling edge's source is -1.
func (s *Scratch) sortedNames(app *dag.App) (from, to []int32) {
	t := &s.t
	s.names.Reset(len(app.Microservices))
	names := s.names.Rest()
	for i, m := range app.Microservices {
		names[i] = m.Name
	}
	sort.Strings(names)
	nm := len(slices.Compact(names))
	t.msNames = s.names.Cut(nm)
	t.indexNames()
	s.ms.Reset(nm)
	t.ms = s.ms.Cut(nm)
	clear(t.ms)
	for _, m := range app.Microservices {
		if i := t.msIndex[m.Name]; t.ms[i] == nil {
			t.ms[i] = m
		}
	}
	from, to = s.ids.Cut(len(app.Dataflows)), s.ids.Cut(len(app.Dataflows))
	for i, e := range app.Dataflows {
		var okFrom, okTo bool
		from[i], okFrom = t.msIndex[e.From]
		to[i], okTo = t.msIndex[e.To]
		if !okFrom || !okTo {
			// A dangling edge cannot alter costs: the legacy compilers
			// skipped it identically.
			from[i] = -1
		}
	}
	return from, to
}

// indexNames rebuilds the name -> id map from the name table.
func (t *AppTable) indexNames() {
	if t.msIndex == nil {
		t.msIndex = make(map[string]int32, len(t.msNames))
	} else {
		clear(t.msIndex)
	}
	for i, n := range t.msNames {
		t.msIndex[n] = int32(i)
	}
}

// App returns the application the table was compiled from.
func (t *AppTable) App() *dag.App { return t.app }

// NumMicroservices returns the number of compiled (distinct) microservices.
func (t *AppTable) NumMicroservices() int { return len(t.msNames) }

// MSNames returns the sorted, compacted microservice name table (shared
// slice; positions are microservice ids).
func (t *AppTable) MSNames() []string { return t.msNames }

// MSIndex returns the microservice name→id map (shared; read-only).
func (t *AppTable) MSIndex() map[string]int32 { return t.msIndex }

// MSID returns the id of a microservice name.
func (t *AppTable) MSID(name string) (int32, bool) {
	id, ok := t.msIndex[name]
	return id, ok
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

// ValidateErr returns App.Validate's result, captured verbatim at compile
// time (nil for a structurally valid app).
func (t *AppTable) ValidateErr() error { return t.validErr }

// Stages returns the barrier stages as microservice ids (each stage
// ascending = lexicographic name order) with App.Stages' own error.
func (t *AppTable) Stages() ([][]int32, error) { return t.stages, t.stagesErr }

// Topo returns the deterministic topological order as microservice ids with
// App.TopoOrder's own error.
func (t *AppTable) Topo() ([]int32, error) { return t.topo, t.topoErr }

// PhaseTags returns the simulator's jitter-hash byte suffixes, indexed
// [Phase*][ms id] (shared slices): "|app|ms|deploy" and friends, hashed
// after the run seed.
func (t *AppTable) PhaseTags() [3][][]byte { return t.jitterTag }
