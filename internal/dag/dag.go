// Package dag models DEEP's dataflow processing applications: directed
// acyclic graphs of containerized microservices interconnected by dataflows,
// following Section III-A of the paper. It provides validation, topological
// ordering, synchronization-barrier stages, and critical-path analysis.
package dag

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
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
// is empty or already taken, or when a size or requirement is negative: the
// cost model turns those into negative transfer and compute times, which
// would lower the reported makespan and energy.
func (a *App) AddMicroservice(m *Microservice) error {
	if m.Name == "" {
		return fmt.Errorf("dag: %s: microservice with empty name", a.Name)
	}
	if _, dup := a.byName[m.Name]; dup {
		return fmt.Errorf("dag: %s: duplicate microservice %q", a.Name, m.Name)
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
		return fmt.Errorf("dag: %s: microservice %q has negative %s", a.Name, m.Name, negative)
	}
	a.byName[m.Name] = int32(len(a.Microservices))
	a.Microservices = append(a.Microservices, m)
	a.invalidate()
	return nil
}

// AddDataflow appends an edge. Both endpoints must already exist.
func (a *App) AddDataflow(from, to string, size units.Bytes) error {
	if _, ok := a.byName[from]; !ok {
		return fmt.Errorf("dag: %s: dataflow from unknown microservice %q", a.Name, from)
	}
	if _, ok := a.byName[to]; !ok {
		return fmt.Errorf("dag: %s: dataflow to unknown microservice %q", a.Name, to)
	}
	if from == to {
		return fmt.Errorf("dag: %s: self-loop on %q", a.Name, from)
	}
	if size < 0 {
		return fmt.Errorf("dag: %s: negative dataflow size %s->%s", a.Name, from, to)
	}
	a.Dataflows = append(a.Dataflows, Dataflow{From: from, To: to, Size: size})
	a.invalidate()
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
	n, edges := len(a.Microservices), len(a.Dataflows)
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
	buf := make([]int32, 3*edges+n+2)
	g := &graph{n: n, from: buf[:edges], to: buf[edges : 2*edges], out: buf[2*edges : 3*edges]}
	// A counting sort by source, stable so each group keeps declaration
	// order: count into next[v+2], prefix-sum so next[v+1] is where v's
	// group begins, then let filling advance it to where the group ends —
	// which is where v+1's begins, leaving next[:n+1] the group starts.
	next := buf[3*edges:]
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
		next[from+2]++
	}
	for v := 2; v < len(next); v++ {
		next[v] += next[v-1]
	}
	for i, from := range g.from {
		g.out[next[from+1]] = int32(i)
		next[from+1]++
	}
	g.start = next[:n+1]
	return g, nil
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
	n := g.n
	buf := make([]int32, 6*n)
	ord := &Order{ByName: buf[:n], Rank: buf[n : 2*n], Topo: buf[2*n : 2*n : 3*n], Level: buf[3*n : 4*n], Stages: 1}
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
	for _, t := range g.to {
		indeg[t]++
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
func (a *App) computeDigest() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	num := func(v int64) {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, v, 10)
	}
	field := func(s string) {
		num(int64(len(s)))
		buf = append(buf, '|')
		buf = append(buf, s...)
	}
	flush := func() {
		buf = append(buf, '\n')
		h.Write(buf)
		buf = buf[:0]
	}
	buf = append(buf, "app"...)
	field(a.Name)
	flush()
	ms := append([]*Microservice(nil), a.Microservices...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		buf = append(buf, "ms"...)
		field(m.Name)
		num(int64(m.ImageSize))
		num(int64(m.ExternalInput))
		num(int64(len(m.Arches)))
		for _, arch := range m.Arches {
			field(string(arch))
		}
		num(int64(m.Req.Cores))
		num(int64(m.Req.CPU * 1e6))
		num(int64(m.Req.Memory))
		num(int64(m.Req.Storage))
		num(int64(len(m.Images)))
		flush()
		regs := make([]string, 0, len(m.Images))
		for reg := range m.Images {
			regs = append(regs, reg)
		}
		sort.Strings(regs)
		for _, reg := range regs {
			buf = append(buf, "img"...)
			field(reg)
			field(m.Images[reg])
			flush()
		}
	}
	edges := append([]Dataflow(nil), a.Dataflows...)
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		buf = append(buf, "df"...)
		field(e.From)
		field(e.To)
		num(int64(e.Size))
		flush()
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// CriticalPath returns the path through the DAG maximizing the sum of the
// given per-microservice weights, along with that sum. Dataflow sizes do not
// contribute; callers fold transfer costs into the weights if desired.
func (a *App) CriticalPath(weight func(*Microservice) float64) ([]string, float64, error) {
	order, err := a.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	dist := make(map[string]float64, len(order))
	prev := make(map[string]string, len(order))
	for _, n := range order {
		best := 0.0
		bestPrev := ""
		for _, e := range a.Inputs(n) {
			if dist[e.From] > best || (dist[e.From] == best && bestPrev == "") {
				best = dist[e.From]
				bestPrev = e.From
			}
		}
		dist[n] = best + weight(a.Microservice(n))
		prev[n] = bestPrev
	}
	// Find the sink with maximum distance.
	endName, endDist := "", -1.0
	for _, n := range order {
		if dist[n] > endDist {
			endName, endDist = n, dist[n]
		}
	}
	var path []string
	for n := endName; n != ""; n = prev[n] {
		path = append(path, n)
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, endDist, nil
}

// TotalImageSize returns the sum of all image sizes.
func (a *App) TotalImageSize() units.Bytes {
	var total units.Bytes
	for _, m := range a.Microservices {
		total += m.ImageSize
	}
	return total
}

// TotalDataflow returns the sum of all dataflow sizes.
func (a *App) TotalDataflow() units.Bytes {
	var total units.Bytes
	for _, e := range a.Dataflows {
		total += e.Size
	}
	return total
}

// DOT renders the application in Graphviz DOT format for documentation.
func (a *App) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", a.Name)
	for _, m := range a.Microservices {
		fmt.Fprintf(&b, "  %q [label=\"%s\\n%s\"];\n", m.Name, m.Name, m.ImageSize)
	}
	for _, e := range a.Dataflows {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n", e.From, e.To, e.Size)
	}
	b.WriteString("}\n")
	return b.String()
}
