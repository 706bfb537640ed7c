// Package slab is the recycled storage behind the compilers' scratch values
// (appgraph.Scratch, sim.PlanScratch, costmodel.Scratch) and the executors'
// grow-only buffers: one backing slice per element type, sized once per
// compile and cut into the columns and rows of the output.
package slab

// Grow returns s resliced to n elements, reallocating only when its capacity
// falls short. The contents are unspecified — stale after a reslice, zero
// after a reallocation — so callers overwrite or clear what they read.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Slab is one backing slice that outlives the values cut from it: Reset
// sizes it for the next compile, Cut hands out that compile's columns and
// rows. The zero Slab is ready to use, and compiling on it is how a fresh,
// shareable output is made.
type Slab[T any] struct {
	buf  []T // the whole backing, kept between compiles
	rest []T // what this compile has not cut yet
}

// Reset makes n elements available to cut, invalidating everything cut
// before. Their contents are unspecified, as Grow's are.
func (s *Slab[T]) Reset(n int) {
	s.buf = Grow(s.buf, n)
	s.rest = s.buf
}

// Cut takes the next n elements. The result cannot grow into its neighbour,
// and is nil when n is 0, so an empty row is the same value whether the
// slab was fresh, recycled, or never allocated.
func (s *Slab[T]) Cut(n int) []T {
	if n == 0 {
		return nil
	}
	out := s.rest[:n:n]
	s.rest = s.rest[n:]
	return out
}

// Rest returns what is left to cut, for a row whose length is known only
// once it is built: append to Rest()[:0], then Cut the row's length.
func (s *Slab[T]) Rest() []T { return s.rest }
