package game

// Arena is a bump allocator for the scratch a scheduler burns through while
// solving one stage game after another: price rows, per-registry tables, and
// index buffers. Grab what a stage needs, Reset, repeat — in steady state
// nothing escapes to the garbage collector.
//
// Reset recycles every outstanding grant, so callers must not hold arena
// memory across a Reset. An Arena is not safe for concurrent use.
type Arena struct {
	floats []float64
	nf     int
	ints   []int
	ni     int
}

// NewArena returns an empty arena; backing buffers grow on demand and are
// retained across Reset.
func NewArena() *Arena { return &Arena{} }

// Reset recycles all grants. Previously returned slices must no longer be
// used.
func (a *Arena) Reset() { a.nf, a.ni = 0, 0 }

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

// Ints grants a zeroed int buffer of length n.
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
