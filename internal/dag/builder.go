package dag

import (
	"fmt"

	"deep/internal/slab"
	"deep/internal/units"
)

// Builder is the one way to make an App. It takes the graph as a stream of
// vertices and edges — the form a decoded spec arrives in — checks each as
// it arrives, resolves each dataflow endpoint once, and App validates the
// whole and returns it at its final size, with its ordering walk and digest
// stored.
//
// A Builder is reusable. App and Reset drop every reference to what was
// added, so a pooled Builder does not keep a request's strings or maps
// alive, and keep the storage for the next app. The zero value is ready to
// use. A Builder is not safe for concurrent use.
type Builder struct {
	// Name is the app's name. It may be set or changed at any point before
	// App; the add-time errors quote the name set when they are raised.
	Name string

	ms     []Microservice
	arches []Arch     // every vertex's arches, concatenated
	archAt [][2]int32 // archAt[i] is vertex i's span of arches; [-1, -1] for nil
	edges  []Dataflow
	g      graph            // edges[i]'s endpoints as vertex indices, and their grouping
	work   []int32          // the validation walks' scratch, two per vertex
	index  map[string]int32 // vertex name -> index
}

// Reset drops everything added since the last App or Reset, and the name.
func (b *Builder) Reset() {
	clear(b.ms)
	clear(b.arches)
	clear(b.archAt)
	clear(b.edges)
	clear(b.index)
	g := graph{from: b.g.from[:0], to: b.g.to[:0], start: b.g.start[:0], out: b.g.out[:0]}
	for _, ids := range [...][]int32{g.from, g.to, g.start, g.out, b.work} {
		clear(ids[:cap(ids)])
	}
	*b = Builder{ms: b.ms[:0], arches: b.arches[:0], archAt: b.archAt[:0],
		edges: b.edges[:0], g: g, work: b.work[:0], index: b.index}
}

// Microservice adds a vertex. It returns an error when the name is empty or
// already taken, when a size or requirement is negative (the cost model
// turns those into negative transfer and compute times, which would lower
// the reported makespan and energy), or when the CPU load is not below 2^63
// instructions: the digest records it as an int64 count of instructions,
// and Go's conversion of a float past that range (or of NaN) is
// implementation-specific — on amd64 every such load records the same
// value, so two apps differing only there would share one digest. Its
// Arches are copied; its Images map is kept.
func (b *Builder) Microservice(m Microservice) error {
	if m.Name == "" {
		return fmt.Errorf("dag: %s: microservice with empty name", b.Name)
	}
	if _, dup := b.index[m.Name]; dup {
		return fmt.Errorf("dag: %s: duplicate microservice %q", b.Name, m.Name)
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
		return fmt.Errorf("dag: %s: microservice %q has negative %s", b.Name, m.Name, negative)
	}
	if !(float64(m.Req.CPU)*1e6 < 0x1p63) {
		return fmt.Errorf("dag: %s: microservice %q has CPU load %g MI, not below 2^63 instructions", b.Name, m.Name, float64(m.Req.CPU))
	}
	if b.index == nil {
		b.index = make(map[string]int32)
	}
	b.index[m.Name] = int32(len(b.ms))
	span := [2]int32{-1, -1}
	if m.Arches != nil {
		span = [2]int32{int32(len(b.arches)), int32(len(b.arches) + len(m.Arches))}
		b.arches = append(b.arches, m.Arches...)
		m.Arches = nil
	}
	b.archAt = append(b.archAt, span)
	b.ms = append(b.ms, m)
	return nil
}

// Dataflow adds an edge. Both endpoints must have been added, and must
// differ, and the size must not be negative.
func (b *Builder) Dataflow(from, to string, size units.Bytes) error {
	f, fromOK := b.index[from]
	t, toOK := b.index[to]
	switch {
	case !fromOK:
		return fmt.Errorf("dag: %s: dataflow from unknown microservice %q", b.Name, from)
	case !toOK:
		return fmt.Errorf("dag: %s: dataflow to unknown microservice %q", b.Name, to)
	case from == to:
		return fmt.Errorf("dag: %s: self-loop on %q", b.Name, from)
	case size < 0:
		return fmt.Errorf("dag: %s: negative dataflow size %s->%s", b.Name, from, to)
	}
	b.edges = append(b.edges, Dataflow{From: from, To: to, Size: size})
	b.g.from = append(b.g.from, f)
	b.g.to = append(b.g.to, t)
	return nil
}

// App validates what was added — at least one microservice, no duplicate
// dataflow, no cycle, and every vertex joined to the others — and returns
// it as an App: the vertices in one array, every vertex's arches carved
// from one more (a vertex added with non-nil Arches keeps a non-nil slice,
// empty or not), the edges in an exact slice, and the ordering walk and the
// digest stored. The Builder is reset either way.
func (b *Builder) App() (*App, error) {
	defer b.Reset()
	n, ne := len(b.ms), len(b.edges)
	if n == 0 {
		return nil, fmt.Errorf("dag: %s: no microservices", b.Name)
	}
	g := &b.g
	g.link(n)
	b.work = slab.Grow(b.work, 2*n)
	if i := g.duplicateEdge(b.work[:n]); i >= 0 {
		e := b.edges[i]
		return nil, fmt.Errorf("dag: %s: duplicate dataflow %s->%s", b.Name, e.From, e.To)
	}
	ord, err := computeOrder(b.Name, b.ms, g, b.work)
	if err != nil {
		return nil, err
	}
	if !g.weaklyConnected(b.work[:n]) {
		return nil, fmt.Errorf("dag: %s: application graph is not connected", b.Name)
	}

	a := &App{Name: b.Name, Microservices: make([]*Microservice, n), order: ord}
	vs := make([]Microservice, n)
	copy(vs, b.ms)
	arches := make([]Arch, len(b.arches))
	copy(arches, b.arches)
	for i := range vs {
		if at := b.archAt[i]; at[0] >= 0 {
			vs[i].Arches = arches[at[0]:at[1]:at[1]]
		}
		a.Microservices[i] = &vs[i]
	}
	if ne > 0 {
		a.Dataflows = make([]Dataflow, ne)
		copy(a.Dataflows, b.edges)
	}
	a.digest = a.computeDigest()
	return a, nil
}
