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
// An AppTable is immutable after Compile and safe for any number of
// concurrent readers. It snapshots the application's structure; mutating the
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
	"deep/internal/units"
)

// Arch-support bitmask bits, one per architecture the testbed ships.
const (
	ArchBitAMD64 uint8 = 1 << iota
	ArchBitARM64
)

// Edge is one compiled dataflow endpoint: for in-edge rows MS is the source
// microservice id, for out-edge rows the sink id. Rows preserve the DAG's
// declaration order — the order the estimator accumulates transfer times in.
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
// dense topological-order and barrier-stage rows, in-edge and out-edge
// dataflow rows, per-microservice image sizes, external inputs, and
// arch-support bitmasks, the structural-validation results both compilers
// previously re-derived, and the simulator's per-phase jitter tags.
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
	archMask  []uint8       // per microservice (bits over the shipped arches)

	inputs  [][]Edge // per microservice: incoming dataflows, DAG order
	outputs [][]Edge // per microservice: outgoing dataflows, DAG order

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
	// simulator's jitterer hashes after the run seed.
	jitterTag [numPhases][][]byte
}

// Compile builds the app table. It performs the full set of DAG graph walks
// — validation, topological order, barrier stages — which is exactly the
// work sharing the table avoids repeating per cluster and per compiler. It
// never fails: structural problems are captured (errors verbatim) and
// surface from the consumers exactly where they always did.
func Compile(app *dag.App) *AppTable {
	t := &AppTable{app: app}

	t.msNames = make([]string, 0, len(app.Microservices))
	for _, m := range app.Microservices {
		t.msNames = append(t.msNames, m.Name)
	}
	sort.Strings(t.msNames)
	t.msNames = slices.Compact(t.msNames)
	t.msIndex = indexOf(t.msNames)

	nm := len(t.msNames)
	t.ms = make([]*dag.Microservice, nm)
	for _, m := range app.Microservices {
		if i, ok := t.msIndex[m.Name]; ok && t.ms[i] == nil {
			t.ms[i] = m
		}
	}

	t.imageSize = make([]units.Bytes, nm)
	t.extInput = make([]units.Bytes, nm)
	t.archMask = make([]uint8, nm)
	for i, m := range t.ms {
		t.imageSize[i] = m.ImageSize
		t.extInput[i] = m.ExternalInput
		var mask uint8
		if m.SupportsArch(dag.AMD64) {
			mask |= ArchBitAMD64
		}
		if m.SupportsArch(dag.ARM64) {
			mask |= ArchBitARM64
		}
		t.archMask[i] = mask
	}

	t.inputs = make([][]Edge, nm)
	t.outputs = make([][]Edge, nm)
	for _, e := range app.Dataflows {
		to, okTo := t.msIndex[e.To]
		from, okFrom := t.msIndex[e.From]
		if !okTo || !okFrom {
			// A dangling edge cannot alter costs: the legacy compilers
			// skipped it identically.
			continue
		}
		t.inputs[to] = append(t.inputs[to], Edge{MS: from, Size: e.Size})
		t.outputs[from] = append(t.outputs[from], Edge{MS: to, Size: e.Size})
	}

	// One round of graph walks for the whole table's lifetime. The dag-level
	// memo makes the nested TopoOrder calls inside Validate and Stages hit
	// the same computation, so this is ~one walk per distinct result.
	t.validErr = app.Validate()
	if stages, err := app.Stages(); err != nil {
		t.stagesErr = err
	} else {
		t.stages = make([][]int32, len(stages))
		for i, stage := range stages {
			ids := make([]int32, len(stage))
			for k, n := range stage {
				ids[k] = t.msIndex[n]
			}
			// Stage names are sorted lexicographically and ids ascend in
			// name order, so ids are already ascending; the sort is a cheap
			// invariant guard.
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			t.stages[i] = ids
		}
	}
	if order, err := app.TopoOrder(); err != nil {
		t.topoErr = err
	} else {
		t.topo = make([]int32, len(order))
		for i, n := range order {
			t.topo[i] = t.msIndex[n]
		}
	}

	for phase, tag := range []string{"deploy", "transfer", "process"} {
		t.jitterTag[phase] = make([][]byte, nm)
		for i, name := range t.msNames {
			t.jitterTag[phase][i] = []byte("|" + app.Name + "|" + name + "|" + tag)
		}
	}
	return t
}

func indexOf(names []string) map[string]int32 {
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	return idx
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

// MS returns the interned microservice handle for an id.
func (t *AppTable) MS(i int32) *dag.Microservice { return t.ms[i] }

// Microservices returns the interned handles (shared slice, parallel to
// MSNames).
func (t *AppTable) Microservices() []*dag.Microservice { return t.ms }

// ImageSizes returns the per-microservice image sizes (shared slice).
func (t *AppTable) ImageSizes() []units.Bytes { return t.imageSize }

// ExtInputs returns the per-microservice external inputs (shared slice).
func (t *AppTable) ExtInputs() []units.Bytes { return t.extInput }

// ArchMasks returns the per-microservice arch-support bitmasks (shared
// slice; bits are the ArchBit* constants).
func (t *AppTable) ArchMasks() []uint8 { return t.archMask }

// SupportsArch reports whether microservice i has an image for the
// architecture — the bitmask fast path for the shipped arches, falling back
// to the handle for anything else.
func (t *AppTable) SupportsArch(i int32, a dag.Arch) bool {
	switch a {
	case dag.AMD64:
		return t.archMask[i]&ArchBitAMD64 != 0
	case dag.ARM64:
		return t.archMask[i]&ArchBitARM64 != 0
	default:
		return t.ms[i].SupportsArch(a)
	}
}

// Inputs returns the per-microservice in-edge rows (shared slices, DAG
// declaration order).
func (t *AppTable) Inputs() [][]Edge { return t.inputs }

// Outputs returns the per-microservice out-edge rows (shared slices, DAG
// declaration order).
func (t *AppTable) Outputs() [][]Edge { return t.outputs }

// ValidateErr returns App.Validate's result, captured verbatim at compile
// time (nil for a structurally valid app).
func (t *AppTable) ValidateErr() error { return t.validErr }

// Stages returns the barrier stages as microservice ids (each stage
// ascending = lexicographic name order) with App.Stages' own error.
func (t *AppTable) Stages() ([][]int32, error) { return t.stages, t.stagesErr }

// Topo returns the deterministic topological order as microservice ids with
// App.TopoOrder's own error.
func (t *AppTable) Topo() ([]int32, error) { return t.topo, t.topoErr }

// MaxStageWidth returns the widest barrier stage (0 when stages are
// unavailable), for sizing per-stage scratch once.
func (t *AppTable) MaxStageWidth() int {
	if t.stagesErr != nil {
		return 0
	}
	w := 0
	for _, s := range t.stages {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// PhaseTags returns the simulator's jitter-hash byte suffixes, indexed
// [Phase*][ms id] (shared slices): "|app|ms|deploy" and friends, hashed
// after the run seed.
func (t *AppTable) PhaseTags() [3][][]byte { return t.jitterTag }
