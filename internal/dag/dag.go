// Package dag models DEEP's dataflow processing applications: directed
// acyclic graphs of containerized microservices interconnected by dataflows,
// following Section III-A of the paper. It provides validation, topological
// ordering, synchronization-barrier stages, and the canonical app digest.
//
// An App is built once, by a Builder, from a stream of vertices and edges:
// Builder.App validates the graph and stores the ordering walk and the
// digest in the App as plain fields. So an App is always valid, and nothing
// about it is computed lazily or changes after it is built — the form of a
// registry manifest, which cannot change under its digest.
package dag

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"deep/internal/slab"
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

// App is a dataflow processing application A = (M, E), built by a Builder
// and valid by construction: at least one microservice, unique names, every
// dataflow between two of them, no duplicate edge, no cycle, and (for more
// than one vertex) weakly connected.
//
// Name, Microservices and Dataflows are exported for reading and are
// read-only once built: the App stores its ordering walk and its digest
// beside them, computed once by Builder.App, and a write would leave both
// describing the graph as it was built. One App is safe for any number of
// concurrent readers.
type App struct {
	Name          string
	Microservices []*Microservice
	Dataflows     []Dataflow

	order  Order
	digest [sha256.Size]byte
}

// graph is a Builder's graph in index form, a vertex being its position in
// the order added: every dataflow endpoint resolved once, when the edge
// arrived, after which the validation walks touch slices only.
type graph struct {
	from, to []int32 // endpoints of edge i, as vertex indices
	// out lists edge positions grouped by source vertex, declaration order
	// within a group: vertex v's are out[start[v]:start[v+1]].
	start, out []int32
}

// link groups the edges of an n-vertex graph by source. It is a counting
// sort, stable so each group keeps declaration order: count into next[v+2],
// prefix-sum so next[v+1] is where v's group begins, then let filling
// advance it to where the group ends — which is where v+1's begins, leaving
// next[:n+1] the group starts.
func (g *graph) link(n int) {
	next := slab.Grow(g.start, n+2)
	clear(next)
	g.out = slab.Grow(g.out, len(g.from))
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
	g.start = next[:n+1]
}

// duplicateEdge returns the position of the first edge that repeats the
// endpoints of an earlier one, or -1. seen is scratch of one per vertex.
func (g *graph) duplicateEdge(seen []int32) int {
	clear(seen) // seen[t] == v+1: an edge v->t was seen
	first := -1
	for v := 0; v+1 < len(g.start); v++ {
		for _, i := range g.out[g.start[v]:g.start[v+1]] {
			if t := g.to[i]; seen[t] != int32(v)+1 {
				seen[t] = int32(v) + 1
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

// weaklyConnected reports whether the edges, read as undirected, join every
// vertex into one component (union-find with path halving). parent is
// scratch of one per vertex.
func (g *graph) weaklyConnected(parent []int32) bool {
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
	components := len(parent)
	for i := range g.from {
		if x, y := find(g.from[i]), find(g.to[i]); x != y {
			parent[x] = y
			components--
		}
	}
	return components <= 1
}

// Order is the application's ordering walk in index form, a vertex being a
// position in Microservices. Shared and read-only.
type Order struct {
	ByName []int32 // vertices in ascending name order
	Rank   []int32 // Rank[v] is v's position in ByName
	// Topo is a deterministic topological order: Kahn's algorithm always
	// taking the ready vertex whose name sorts first.
	Topo   []int32
	Level  []int32 // Level[v] is v's barrier stage: its longest path from a source
	Stages int     // number of barrier stages
	// From[i] and To[i] are the ranks of Dataflows[i]'s endpoints: each
	// edge resolved once, in the name-order numbering.
	From, To []int32
}

// Order returns the app's ordering walk.
func (a *App) Order() *Order { return &a.order }

// computeOrder is Kahn's algorithm always taking the ready vertex whose name
// sorts first: vertices are ranked by name once, and the ready set is a
// binary min-heap of ranks. Levels fall out of the same pass — every
// predecessor of a vertex is emitted before it, so pushing level+1 along the
// out-edges of each emitted vertex leaves the longest path from a source.
// work is scratch of two per vertex. It fails on a cycle.
func computeOrder(app string, ms []Microservice, g *graph, work []int32) (Order, error) {
	n, edges := len(ms), len(g.from)
	buf := make([]int32, 4*n+2*edges)
	ord := Order{ByName: buf[:n], Rank: buf[n : 2*n], Topo: buf[2*n : 2*n : 3*n], Level: buf[3*n : 4*n], Stages: 1,
		From: buf[4*n : 4*n+edges], To: buf[4*n+edges:]}
	byRank, rank, indeg, ready := ord.ByName, ord.Rank, work[:n], work[n:n]
	clear(indeg)
	for v := range byRank {
		byRank[v] = int32(v)
	}
	slices.SortFunc(byRank, func(x, y int32) int { return strings.Compare(ms[x].Name, ms[y].Name) })
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
		return Order{}, fmt.Errorf("dag: %s: cycle detected", app)
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

// Stages groups the microservice names into synchronization-barrier levels:
// stage k holds every microservice whose longest path from a source has
// length k, in name order. All microservices in a stage may only start
// after every microservice in the previous stage finished — the paper's
// "synchronization barriers". Each call builds the slices afresh.
func (a *App) Stages() [][]string {
	// Filling in name order leaves every stage sorted.
	stages := make([][]string, a.order.Stages)
	for _, v := range a.order.ByName {
		l := a.order.Level[v]
		stages[l] = append(stages[l], a.Microservices[v].Name)
	}
	return stages
}

// Digest returns the canonical SHA-256 digest of the application: its name
// (the simulator keys jitter and labels results by it, so two structurally
// identical apps under different names must not alias), every microservice
// field the schedulers read, and every dataflow, independent of declaration
// order. It is the app side of every digest-keyed cache in the fleet, and
// was computed when the app was built.
func (a *App) Digest() [sha256.Size]byte { return a.digest }

// edgeKey is one edge's (From, To) ranks packed into one integer, high
// half From, and the edge's index.
type edgeKey struct {
	key uint64
	i   int32
}

// computeDigest hashes one newline-terminated record per app, microservice,
// image, and dataflow, microservices sorted by name, images by registry, and
// dataflows by (From, To). Every variable-length string is length-prefixed,
// so a separator byte inside a name can never realign two distinct apps onto
// the same digest. The record stream is a compatibility surface: cached
// keys and recorded expectations depend on it byte for byte.
//
// The records are appended into one buffer, on the stack for an app of the
// size the front door sees, and hashed in one call. Names and edges are
// unique, so the ordering walk's ranks give both orders: vertices in ByName
// order, edges sorted by their (From, To) ranks, packed into one integer
// key per edge.
func (a *App) computeDigest() [sha256.Size]byte {
	ms, edges, ord := a.Microservices, a.Dataflows, &a.order
	var keyStack [128]edgeKey
	byEnds := keyStack[:0]
	if len(edges) > len(keyStack) {
		byEnds = make([]edgeKey, 0, len(edges))
	}
	for i := range edges {
		byEnds = append(byEnds, edgeKey{uint64(ord.From[i])<<32 | uint64(ord.To[i]), int32(i)})
	}
	slices.SortFunc(byEnds, func(x, y edgeKey) int { return cmp.Compare(x.key, y.key) })

	var bufStack [4096]byte
	buf := append(bufStack[:0], "app"...)
	buf = appendField(buf, a.Name)
	buf = append(buf, '\n')
	for _, v := range ord.ByName {
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
	for _, k := range byEnds {
		e := &edges[k.i]
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
