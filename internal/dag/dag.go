// Package dag models DEEP's dataflow processing applications: directed
// acyclic graphs of containerized microservices interconnected by dataflows,
// following Section III-A of the paper. It provides validation, topological
// ordering, synchronization-barrier stages, and critical-path analysis.
//
// An App is built one of two ways. NewApp plus AddMicroservice and
// AddDataflow grow it incrementally, each mutation dropping the memoized
// graph walks. A Builder takes a whole graph in one pass — the form a decoded
// spec arrives in — and hands back an App at its final size whose memo is
// born filled: the resolved graph and the validation walks are already
// there. Both make the same checks with the same messages, and both leave
// the same App; a later AddMicroservice or AddDataflow on a built App drops
// the prefilled memo like any other.
package dag

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"deep/internal/units"
)

// Arch identifies a CPU architecture an image is built for.
type Arch string

// Supported architectures, matching the paper's amd64/arm64 image tags.
const (
	AMD64 Arch = "amd64"
	ARM64 Arch = "arm64"
)

// Requirements is the paper's req(m_i) tuple: the minimum cores, processing
// load, memory, and storage a microservice needs.
type Requirements struct {
	Cores   int         // CORE(m_i): minimum number of cores
	CPU     units.MI    // CPU(m_i): processing load in millions of instructions
	Memory  units.Bytes // MEM(m_i)
	Storage units.Bytes // STOR(m_i)
}

// Microservice is one vertex of the application DAG: a containerized
// processing stage with an image of a given size available from one or more
// registries.
type Microservice struct {
	Name string
	// ImageSize is Size_{m_i}: the containerized image size.
	ImageSize units.Bytes
	// Images maps a registry name to the image reference there, e.g.
	// "hub" -> "sina88/vp-transcode:amd64".
	Images map[string]string
	// Req is the paper's resource-requirement tuple.
	Req Requirements
	// Arches lists the architectures the image is published for. Empty
	// means all architectures.
	Arches []Arch
	// ExternalInput is data the microservice ingests from outside the
	// application DAG — the camera feed of the video pipeline or the AWS S3
	// dataset of the text pipeline. It is transferred from the cluster's
	// source node before processing.
	ExternalInput units.Bytes
}

// SupportsArch reports whether the microservice has an image for the
// architecture.
func (m *Microservice) SupportsArch(a Arch) bool {
	if len(m.Arches) == 0 {
		return true
	}
	for _, x := range m.Arches {
		if x == a {
			return true
		}
	}
	return false
}

// Dataflow is one edge of the DAG: df_{ui} transferring Size bytes from the
// upstage microservice From to the downstage microservice To.
type Dataflow struct {
	From, To string
	Size     units.Bytes
}

// App is a dataflow processing application A = (M, E).
//
// Validate, TopoOrder, Stages, and Digest are memoized: the first call after
// a mutation walks the graph, later calls return the cached result (TopoOrder
// and Stages return shared slices — callers must not modify them). The memo
// is invalidated by the mutation methods (AddMicroservice, AddDataflow) and,
// as a safety net for code that writes the exported slices directly, by a
// length check on Microservices/Dataflows at each read. Mutations that keep
// both lengths (renaming the app, editing a vertex or edge in place) bypass
// the memo and are not supported once any of the four has been called. The
// memo is mutex-guarded, so concurrent Validate/TopoOrder/Stages/Digest calls
// on one App are safe.
type App struct {
	Name          string
	Microservices []*Microservice
	Dataflows     []Dataflow

	// byName maps a microservice's name to its index in Microservices.
	byName map[string]int32

	mu   sync.Mutex
	memo appMemo
}

// appMemo caches the graph-walk results between mutations. The done flags
// (not nil-ness) record completion, so error results memoize too. numMS and
// numDF record the graph shape the memo was computed against; a mismatch at
// read time means the exported slices were reassigned directly, and the
// memo self-invalidates.
type appMemo struct {
	numMS int
	numDF int

	graphDone bool
	graph     *graph
	graphErr  error

	validDone bool
	validErr  error

	// order is the one ordering walk; topo and stages are its name forms,
	// built on first request and sharing its error.
	orderDone bool
	order     *Order
	orderErr  error

	topo   []string
	stages [][]string

	digestDone bool
	digest     [sha256.Size]byte
}

// NewApp constructs an empty application.
func NewApp(name string) *App {
	return &App{Name: name, byName: make(map[string]int32)}
}

// AddMicroservice appends a microservice. It returns an error when the name
// is empty or already taken, when a size or requirement is negative (the
// cost model turns those into negative transfer and compute times, which
// would lower the reported makespan and energy), or when the CPU load is
// not below 2^63 instructions (see checkVertex).
func (a *App) AddMicroservice(m *Microservice) error {
	_, dup := a.byName[m.Name]
	if err := checkVertex(a.Name, m, dup); err != nil {
		return err
	}
	a.byName[m.Name] = int32(len(a.Microservices))
	a.Microservices = append(a.Microservices, m)
	a.invalidate()
	return nil
}

// AddDataflow appends an edge. Both endpoints must already exist.
func (a *App) AddDataflow(from, to string, size units.Bytes) error {
	_, fromOK := a.byName[from]
	_, toOK := a.byName[to]
	if err := checkEdge(a.Name, from, to, fromOK, toOK, size); err != nil {
		return err
	}
	a.Dataflows = append(a.Dataflows, Dataflow{From: from, To: to, Size: size})
	a.invalidate()
	return nil
}

// checkVertex is the vertex check AddMicroservice and Builder.Microservice
// share; dup reports that the name is already taken. The CPU load must stay
// below 2^63 instructions because the digest records it as an int64 count of
// instructions, and Go's conversion of a float past that range (or of NaN)
// is implementation-specific: on amd64 every such load records the same
// value, so two apps differing only there would share one digest.
func checkVertex(app string, m *Microservice, dup bool) error {
	if m.Name == "" {
		return fmt.Errorf("dag: %s: microservice with empty name", app)
	}
	if dup {
		return fmt.Errorf("dag: %s: duplicate microservice %q", app, m.Name)
	}
	var negative string
	switch {
	case m.ImageSize < 0:
		negative = "image size"
	case m.Req.Cores < 0:
		negative = "cores"
	case m.Req.CPU < 0:
		negative = "CPU load"
	case m.Req.Memory < 0:
		negative = "memory"
	case m.Req.Storage < 0:
		negative = "storage"
	case m.ExternalInput < 0:
		negative = "external input"
	}
	if negative != "" {
		return fmt.Errorf("dag: %s: microservice %q has negative %s", app, m.Name, negative)
	}
	if !(float64(m.Req.CPU)*1e6 < 0x1p63) {
		return fmt.Errorf("dag: %s: microservice %q has CPU load %g MI, not below 2^63 instructions", app, m.Name, float64(m.Req.CPU))
	}
	return nil
}

// checkEdge is the edge check AddDataflow and Builder.Dataflow share;
// fromOK and toOK report that the endpoints name existing microservices.
func checkEdge(app, from, to string, fromOK, toOK bool, size units.Bytes) error {
	switch {
	case !fromOK:
		return fmt.Errorf("dag: %s: dataflow from unknown microservice %q", app, from)
	case !toOK:
		return fmt.Errorf("dag: %s: dataflow to unknown microservice %q", app, to)
	case from == to:
		return fmt.Errorf("dag: %s: self-loop on %q", app, from)
	case size < 0:
		return fmt.Errorf("dag: %s: negative dataflow size %s->%s", app, from, to)
	}
	return nil
}

// invalidate drops the memoized graph walks after a mutation.
func (a *App) invalidate() {
	a.mu.Lock()
	a.memo = appMemo{}
	a.mu.Unlock()
}

// memoFreshLocked drops the memo when the graph shape no longer matches the
// one it was computed against — the safety net for callers that reassign
// the exported Microservices/Dataflows slices without going through the
// mutation methods — and stamps the shape the next fills are valid for.
func (a *App) memoFreshLocked() {
	if a.memo.numMS != len(a.Microservices) || a.memo.numDF != len(a.Dataflows) {
		a.memo = appMemo{numMS: len(a.Microservices), numDF: len(a.Dataflows)}
	}
}

// Microservice returns the named microservice, or nil.
func (a *App) Microservice(name string) *Microservice {
	if i, ok := a.byName[name]; ok && int(i) < len(a.Microservices) && a.Microservices[i].Name == name {
		return a.Microservices[i]
	}
	return nil
}

// Inputs returns the dataflows entering the named microservice.
func (a *App) Inputs(name string) []Dataflow {
	var in []Dataflow
	for _, e := range a.Dataflows {
		if e.To == name {
			in = append(in, e)
		}
	}
	return in
}

// Outputs returns the dataflows leaving the named microservice.
func (a *App) Outputs(name string) []Dataflow {
	var out []Dataflow
	for _, e := range a.Dataflows {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural invariants: at least one microservice, no
// duplicate edges, acyclicity, and (for multi-vertex apps) weak
// connectivity. The result is memoized until the next mutation.
func (a *App) Validate() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.memoFreshLocked()
	if !a.memo.validDone {
		a.memo.validErr = a.validateLocked()
		a.memo.validDone = true
	}
	return a.memo.validErr
}

func (a *App) validateLocked() error {
	if len(a.Microservices) == 0 {
		return fmt.Errorf("dag: %s: no microservices", a.Name)
	}
	g, err := a.graphLocked()
	if err != nil {
		return err
	}
	if i := g.duplicateEdge(); i >= 0 {
		e := a.Dataflows[i]
		return fmt.Errorf("dag: %s: duplicate dataflow %s->%s", a.Name, e.From, e.To)
	}
	if _, err := a.orderLocked(); err != nil {
		return err
	}
	if !g.weaklyConnected() {
		return fmt.Errorf("dag: %s: application graph is not connected", a.Name)
	}
	return nil
}

// graph is the application resolved to vertex indices: every dataflow
// endpoint goes through byName once, after which Validate's walks touch
// slices only. It lives in the memo, so it is rebuilt after any mutation.
type graph struct {
	n        int     // vertices
	from, to []int32 // endpoints of Dataflows[i], as indices into Microservices
	// out lists dataflow positions grouped by source vertex, declaration
	// order within a group: vertex v's are out[start[v]:start[v+1]].
	start, out []int32
}

func (a *App) graphLocked() (*graph, error) {
	if !a.memo.graphDone {
		a.memo.graph, a.memo.graphErr = a.resolve()
		a.memo.graphDone = true
	}
	return a.memo.graph, a.memo.graphErr
}

// resolve builds the index form of the graph. AddMicroservice and
// AddDataflow keep names unique and endpoints known; an app whose exported
// slices were written directly gets the same two checks here, against an
// index rebuilt from the slices, with the mutation methods' messages.
func (a *App) resolve() (*graph, error) {
	n := len(a.Microservices)
	index := a.byName
	fresh := len(index) == n
	for i := 0; fresh && i < n; i++ {
		at, ok := index[a.Microservices[i].Name]
		fresh = ok && int(at) == i
	}
	if !fresh {
		index = make(map[string]int32, n)
		for i, m := range a.Microservices {
			if _, dup := index[m.Name]; dup {
				return nil, fmt.Errorf("dag: %s: duplicate microservice %q", a.Name, m.Name)
			}
			index[m.Name] = int32(i)
		}
	}
	g := newGraph(n, len(a.Dataflows))
	for i, e := range a.Dataflows {
		from, ok := index[e.From]
		if !ok {
			return nil, fmt.Errorf("dag: %s: dataflow from unknown microservice %q", a.Name, e.From)
		}
		to, ok := index[e.To]
		if !ok {
			return nil, fmt.Errorf("dag: %s: dataflow to unknown microservice %q", a.Name, e.To)
		}
		g.from[i], g.to[i] = from, to
	}
	g.link()
	return g, nil
}

// newGraph allocates a graph of n vertices and the given number of edges in
// one slice; the caller fills from and to, then calls link.
func newGraph(n, edges int) *graph {
	buf := make([]int32, 3*edges+n+2)
	return &graph{n: n, from: buf[:edges], to: buf[edges : 2*edges], out: buf[2*edges : 3*edges], start: buf[3*edges:]}
}

// link groups the edges by source. It is a counting sort, stable so each
// group keeps declaration order: count into next[v+2], prefix-sum so
// next[v+1] is where v's group begins, then let filling advance it to where
// the group ends — which is where v+1's begins, leaving next[:n+1] the group
// starts.
func (g *graph) link() {
	next := g.start
	for _, from := range g.from {
		next[from+2]++
	}
	for v := 2; v < len(next); v++ {
		next[v] += next[v-1]
	}
	for i, from := range g.from {
		g.out[next[from+1]] = int32(i)
		next[from+1]++
	}
	g.start = next[:g.n+1]
}

// duplicateEdge returns the position of the first dataflow that repeats the
// endpoints of an earlier one, or -1.
func (g *graph) duplicateEdge() int {
	first := -1
	seenFrom := make([]int32, g.n) // seenFrom[t] == v+1: an edge v->t was seen
	for v := 0; v < g.n; v++ {
		for _, i := range g.out[g.start[v]:g.start[v+1]] {
			if t := g.to[i]; seenFrom[t] != int32(v)+1 {
				seenFrom[t] = int32(v) + 1
				continue
			}
			// Positions ascend within a group, so this is v's earliest.
			if first < 0 || int(i) < first {
				first = int(i)
			}
			break
		}
	}
	return first
}

// weaklyConnected reports whether the dataflows, read as undirected, join
// every vertex into one component (union-find with path halving).
func (g *graph) weaklyConnected() bool {
	parent := make([]int32, g.n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	components := g.n
	for i := range g.from {
		if x, y := find(g.from[i]), find(g.to[i]); x != y {
			parent[x] = y
			components--
		}
	}
	return components <= 1
}

// Order is the application's ordering walk in index form, a vertex being a
// position in Microservices: what TopoOrder and Stages report by name,
// without the names. Shared and read-only, like their results.
type Order struct {
	ByName []int32 // vertices in ascending name order
	Rank   []int32 // Rank[v] is v's position in ByName
	Topo   []int32 // vertices in TopoOrder's order
	Level  []int32 // Level[v] is v's barrier stage: its longest path from a source
	Stages int     // number of barrier stages (1 for an empty app, as Stages reports)
	// From[i] and To[i] are the ranks of Dataflows[i]'s endpoints: each
	// edge resolved once, in the name-order numbering.
	From, To []int32
}

// Order returns the memoized ordering walk, or TopoOrder's error (the same
// value) when the graph does not resolve or has a cycle.
func (a *App) Order() (*Order, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.orderLocked()
}

func (a *App) orderLocked() (*Order, error) {
	a.memoFreshLocked()
	if !a.memo.orderDone {
		a.memo.order, a.memo.orderErr = a.computeOrder()
		a.memo.orderDone = true
	}
	return a.memo.order, a.memo.orderErr
}

// TopoOrder returns a deterministic topological order of the microservice
// names (Kahn's algorithm with lexicographic tie-breaking), or an error when
// the graph has a cycle. The returned slice is memoized until the next
// mutation and shared between callers — treat it as read-only.
func (a *App) TopoOrder() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ord, err := a.orderLocked()
	if err != nil {
		return nil, err
	}
	if a.memo.topo == nil {
		a.memo.topo = make([]string, len(ord.Topo))
		for i, v := range ord.Topo {
			a.memo.topo[i] = a.Microservices[v].Name
		}
	}
	return a.memo.topo, nil
}

// computeOrder is Kahn's algorithm always taking the ready vertex whose name
// sorts first: vertices are ranked by name once, and the ready set is a
// binary min-heap of ranks. Levels fall out of the same pass — every
// predecessor of a vertex is emitted before it, so pushing level+1 along the
// out-edges of each emitted vertex leaves the longest path from a source.
func (a *App) computeOrder() (*Order, error) {
	g, err := a.graphLocked()
	if err != nil {
		return nil, err
	}
	n, edges := g.n, len(g.from)
	buf := make([]int32, 6*n+2*edges)
	ord := &Order{ByName: buf[:n], Rank: buf[n : 2*n], Topo: buf[2*n : 2*n : 3*n], Level: buf[3*n : 4*n], Stages: 1,
		From: buf[6*n : 6*n+edges], To: buf[6*n+edges:]}
	byRank, rank, indeg, ready := ord.ByName, ord.Rank, buf[4*n:5*n], buf[5*n:5*n]
	for v := range byRank {
		byRank[v] = int32(v)
	}
	slices.SortFunc(byRank, func(x, y int32) int {
		return strings.Compare(a.Microservices[x].Name, a.Microservices[y].Name)
	})
	for r, v := range byRank {
		rank[v] = int32(r)
	}
	for i, t := range g.to {
		indeg[t]++
		ord.From[i], ord.To[i] = rank[g.from[i]], rank[t]
	}
	for _, v := range byRank { // ascending ranks already form a heap
		if indeg[v] == 0 {
			ready = append(ready, rank[v])
		}
	}
	for len(ready) > 0 {
		v := byRank[ready[0]]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		ord.Topo = append(ord.Topo, v)
		if int(ord.Level[v]) >= ord.Stages {
			ord.Stages = int(ord.Level[v]) + 1
		}
		for _, i := range g.out[g.start[v]:g.start[v+1]] {
			t := g.to[i]
			if ord.Level[t] <= ord.Level[v] {
				ord.Level[t] = ord.Level[v] + 1
			}
			if indeg[t] == 1 {
				ready = append(ready, rank[t])
				siftUp(ready)
			} else {
				indeg[t]--
			}
		}
	}
	if len(ord.Topo) != n {
		return nil, fmt.Errorf("dag: %s: cycle detected", a.Name)
	}
	return ord, nil
}

// siftUp restores the min-heap after an append.
func siftUp(h []int32) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap after the root was replaced.
func siftDown(h []int32) {
	for i := 0; ; {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c] < h[least] {
				least = c
			}
		}
		if least == i {
			return
		}
		h[least], h[i] = h[i], h[least]
		i = least
	}
}

// Stages groups the microservices into synchronization-barrier levels: stage
// k contains every microservice whose longest path from a source has length
// k. All microservices in a stage may only start after every microservice in
// the previous stage finished — the paper's "synchronization barriers". The
// returned slices are memoized until the next mutation and shared between
// callers — treat them as read-only.
func (a *App) Stages() ([][]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ord, err := a.orderLocked()
	if err != nil {
		return nil, err
	}
	if a.memo.stages == nil {
		// Filling in name order leaves every stage sorted.
		a.memo.stages = make([][]string, ord.Stages)
		for _, v := range ord.ByName {
			l := ord.Level[v]
			a.memo.stages[l] = append(a.memo.stages[l], a.Microservices[v].Name)
		}
	}
	return a.memo.stages, nil
}

// Digest returns the canonical SHA-256 digest of the application: its name
// (the simulator keys jitter and labels results by it, so two structurally
// identical apps under different names must not alias), every microservice
// field the schedulers read, and every dataflow, independent of declaration
// order. It is the app side of every digest-keyed cache in the fleet, and is
// memoized until the next mutation, so a long-lived app is hashed once.
func (a *App) Digest() [sha256.Size]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.memoFreshLocked()
	if !a.memo.digestDone {
		a.memo.digest = a.computeDigest()
		a.memo.digestDone = true
	}
	return a.memo.digest
}

// computeDigest hashes one newline-terminated record per app, microservice,
// image, and dataflow, microservices sorted by name, images by registry, and
// dataflows by (From, To). Every variable-length string is length-prefixed,
// so a separator byte inside a name can never realign two distinct apps onto
// the same digest. The record stream is a compatibility surface: cached
// keys and recorded expectations depend on it byte for byte.
//
// The records are appended into one buffer, on the stack for an app of the
// size the front door sees, and hashed in one call. Vertices and edges are
// put in order by sorting index permutations, stably, so apps whose slices
// were written directly with repeated names or edges hash as they always did.
func (a *App) computeDigest() [sha256.Size]byte {
	ms, edges := a.Microservices, a.Dataflows
	var permStack [128]int32
	perm := permStack[:0]
	if n := len(ms) + len(edges); n > len(permStack) {
		perm = make([]int32, 0, n)
	}
	for i := range ms {
		perm = append(perm, int32(i))
	}
	for i := range edges {
		perm = append(perm, int32(i))
	}
	byName, byEnds := perm[:len(ms)], perm[len(ms):]
	slices.SortStableFunc(byName, func(x, y int32) int { return strings.Compare(ms[x].Name, ms[y].Name) })
	slices.SortStableFunc(byEnds, func(x, y int32) int {
		if c := strings.Compare(edges[x].From, edges[y].From); c != 0 {
			return c
		}
		return strings.Compare(edges[x].To, edges[y].To)
	})

	var bufStack [4096]byte
	buf := append(bufStack[:0], "app"...)
	buf = appendField(buf, a.Name)
	buf = append(buf, '\n')
	for _, v := range byName {
		m := ms[v]
		buf = append(buf, "ms"...)
		buf = appendField(buf, m.Name)
		buf = appendNum(buf, int64(m.ImageSize))
		buf = appendNum(buf, int64(m.ExternalInput))
		buf = appendNum(buf, int64(len(m.Arches)))
		for _, arch := range m.Arches {
			buf = appendField(buf, string(arch))
		}
		buf = appendNum(buf, int64(m.Req.Cores))
		buf = appendNum(buf, int64(m.Req.CPU*1e6))
		buf = appendNum(buf, int64(m.Req.Memory))
		buf = appendNum(buf, int64(m.Req.Storage))
		buf = appendNum(buf, int64(len(m.Images)))
		buf = append(buf, '\n')
		var imgStack [8]image
		imgs := imgStack[:0]
		for reg, ref := range m.Images {
			imgs = append(imgs, image{reg, ref})
		}
		slices.SortFunc(imgs, func(x, y image) int { return strings.Compare(x.registry, y.registry) })
		for _, img := range imgs {
			buf = append(buf, "img"...)
			buf = appendField(buf, img.registry)
			buf = appendField(buf, img.ref)
			buf = append(buf, '\n')
		}
	}
	for _, i := range byEnds {
		e := &edges[i]
		buf = append(buf, "df"...)
		buf = appendField(buf, e.From)
		buf = appendField(buf, e.To)
		buf = appendNum(buf, int64(e.Size))
		buf = append(buf, '\n')
	}
	return sha256.Sum256(buf)
}

// image is one entry of a microservice's image map, as the digest sorts it.
type image struct{ registry, ref string }

// appendNum appends one numeric digest field.
func appendNum(buf []byte, v int64) []byte {
	buf = append(buf, '|')
	return strconv.AppendInt(buf, v, 10)
}

// appendField appends one string digest field, length first.
func appendField(buf []byte, s string) []byte {
	buf = appendNum(buf, int64(len(s)))
	buf = append(buf, '|')
	return append(buf, s...)
}
