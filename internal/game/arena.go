package game

// Arena is a bump allocator for the scratch a scheduler burns through while
// building and solving one game after another: payoff matrices, row/column
// price buffers, support-index buffers, and epoch-marked feasibility masks.
// Grab what a stage needs, Reset, repeat — in steady state nothing escapes
// to the garbage collector.
//
// Reset recycles every outstanding grant, so callers must not hold arena
// memory across a Reset. Mask reuse is epoch-marked: Reset bumps the epoch
// instead of clearing the backing words, making mask reset O(1). An Arena is
// not safe for concurrent use.
type Arena struct {
	epoch uint64

	floats []float64
	nf     int
	ints   []int
	ni     int
	marks  []uint64
	nmk    int

	mats []*Matrix
	nm   int
	gms  []*Game
	ng   int
}

// NewArena returns an empty arena; backing buffers grow on demand and are
// retained across Reset.
func NewArena() *Arena { return &Arena{epoch: 1} }

// Reset recycles all grants. Previously returned slices, matrices, masks,
// and games must no longer be used.
func (a *Arena) Reset() {
	a.nf, a.ni, a.nmk, a.nm, a.ng = 0, 0, 0, 0, 0
	a.epoch++
}

// Floats grants a zeroed float buffer of length n.
func (a *Arena) Floats(n int) []float64 {
	if a.nf+n > len(a.floats) {
		// Grow to fresh backing; grants from the old array stay valid until
		// the next Reset, they just aren't recycled this cycle.
		a.floats = make([]float64, grow(len(a.floats), n))
		a.nf = 0
	}
	out := a.floats[a.nf : a.nf+n]
	a.nf += n
	clear(out)
	return out
}

// Ints grants a zeroed int buffer of length n (support and current-index
// scratch).
func (a *Arena) Ints(n int) []int {
	if a.ni+n > len(a.ints) {
		a.ints = make([]int, grow(len(a.ints), n))
		a.ni = 0
	}
	out := a.ints[a.ni : a.ni+n]
	a.ni += n
	clear(out)
	return out
}

// Mask grants an all-clear feasibility mask of length n. The backing words
// are not cleared — the mask compares against the arena's current epoch, so
// stale bits from earlier cycles read as unset.
func (a *Arena) Mask(n int) Mask {
	if a.nmk+n > len(a.marks) {
		a.marks = make([]uint64, grow(len(a.marks), n))
		a.nmk = 0
	}
	out := a.marks[a.nmk : a.nmk+n]
	a.nmk += n
	return Mask{words: out, epoch: a.epoch}
}

// Matrix grants a zeroed rows×cols matrix backed by arena memory.
func (a *Arena) Matrix(rows, cols int) *Matrix {
	var m *Matrix
	if a.nm < len(a.mats) {
		m = a.mats[a.nm]
	} else {
		m = &Matrix{}
		a.mats = append(a.mats, m)
	}
	a.nm++
	m.Rows, m.Cols = rows, cols
	m.Data = a.Floats(rows * cols)
	return m
}

// NewFromArena builds a rows×cols bimatrix game whose zeroed payoff
// matrices live in arena memory — the allocation-free counterpart of
// New(NewMatrix(r, c), NewMatrix(r, c)).
func NewFromArena(a *Arena, rows, cols int) *Game {
	var g *Game
	if a.ng < len(a.gms) {
		g = a.gms[a.ng]
	} else {
		g = &Game{}
		a.gms = append(a.gms, g)
	}
	a.ng++
	*g = Game{A: a.Matrix(rows, cols), B: a.Matrix(rows, cols), arena: a}
	return g
}

// Mask is an epoch-marked set of indices handed out by an Arena: Set marks
// an index, Has tests it, and the owning arena's Reset clears the whole mask
// in O(1) by bumping the epoch.
type Mask struct {
	words []uint64
	epoch uint64
}

// Set marks index i.
func (m Mask) Set(i int) { m.words[i] = m.epoch }

// Has reports whether index i is marked.
func (m Mask) Has(i int) bool { return m.words[i] == m.epoch }

// Len returns the mask length.
func (m Mask) Len() int { return len(m.words) }

func grow(cur, need int) int {
	n := 2 * cur
	if n < need {
		n = need
	}
	if n < 64 {
		n = 64
	}
	return n
}
