package dag

import "deep/internal/units"

// Builder assembles an App from a stream of vertices and edges in one pass,
// for a caller that has the whole graph at hand — a decoded app spec. It
// makes the checks AddMicroservice, AddDataflow and Validate make, with the
// same messages, but resolves each dataflow endpoint once, when the edge
// arrives, and App stores the result at its final size with the memo's
// resolved graph already filled in. The incremental methods cannot do that:
// they keep the memo coherent after every mutation and never know the final
// sizes.
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
	from   []int32 // from[i], to[i]: edges[i]'s endpoints as vertex indices
	to     []int32
	index  map[string]int32 // vertex name -> index
}

// Reset drops everything added since the last App or Reset, and the name.
func (b *Builder) Reset() {
	clear(b.ms)
	clear(b.arches)
	clear(b.archAt)
	clear(b.edges)
	clear(b.from)
	clear(b.to)
	clear(b.index)
	*b = Builder{ms: b.ms[:0], arches: b.arches[:0], archAt: b.archAt[:0],
		edges: b.edges[:0], from: b.from[:0], to: b.to[:0], index: b.index}
}

// Microservice adds a vertex, under AddMicroservice's checks. Its Arches are
// copied; its Images map is kept, as AddMicroservice keeps the vertex.
func (b *Builder) Microservice(m Microservice) error {
	_, dup := b.index[m.Name]
	if err := checkVertex(b.Name, &m, dup); err != nil {
		return err
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

// Dataflow adds an edge, under AddDataflow's checks: both endpoints must
// have been added.
func (b *Builder) Dataflow(from, to string, size units.Bytes) error {
	f, fromOK := b.index[from]
	t, toOK := b.index[to]
	if err := checkEdge(b.Name, from, to, fromOK, toOK, size); err != nil {
		return err
	}
	b.edges = append(b.edges, Dataflow{From: from, To: to, Size: size})
	b.from = append(b.from, f)
	b.to = append(b.to, t)
	return nil
}

// App validates what was added, as Validate does, and returns it as an App:
// the vertices in one array, every vertex's arches carved from one more (a
// vertex added with non-nil Arches keeps a non-nil slice, empty or not), the
// edges in an exact slice, and the memo holding the resolved graph and the
// validation walks, so the first Validate, Order, TopoOrder or Stages is a
// read. The Builder is reset either way.
func (b *Builder) App() (*App, error) {
	defer b.Reset()
	n, ne := len(b.ms), len(b.edges)
	a := &App{Name: b.Name, byName: make(map[string]int32, n)}
	if n > 0 {
		vs := make([]Microservice, n)
		copy(vs, b.ms)
		arches := make([]Arch, len(b.arches))
		copy(arches, b.arches)
		a.Microservices = make([]*Microservice, n)
		for i := range vs {
			if at := b.archAt[i]; at[0] >= 0 {
				vs[i].Arches = arches[at[0]:at[1]:at[1]]
			}
			a.Microservices[i] = &vs[i]
			a.byName[vs[i].Name] = int32(i)
		}
	}
	if ne > 0 {
		a.Dataflows = make([]Dataflow, ne)
		copy(a.Dataflows, b.edges)
	}
	g := newGraph(n, ne)
	copy(g.from, b.from)
	copy(g.to, b.to)
	g.link()
	a.memo = appMemo{numMS: n, numDF: ne, graphDone: true, graph: g}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
