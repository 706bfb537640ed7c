package game

import (
	"fmt"
	"math/rand"
	"testing"
)

// dominanceBiasedGame draws payoffs with a bias toward dominance structure:
// mixing a per-row/per-column quality offset into the noise makes some
// strategies dominated across the board, so the elimination loop gets real
// work (pure noise, as in arena_test's randomGame, rarely eliminates).
func dominanceBiasedGame(rng *rand.Rand, rows, cols int) *Game {
	a := NewMatrix(rows, cols)
	b := NewMatrix(rows, cols)
	rowQ := make([]float64, rows)
	colQ := make([]float64, cols)
	for i := range rowQ {
		rowQ[i] = rng.NormFloat64() * 2
	}
	for j := range colQ {
		colQ[j] = rng.NormFloat64() * 2
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, rowQ[i]+rng.NormFloat64())
			b.Set(i, j, colQ[j]+rng.NormFloat64())
		}
	}
	return New(a, b)
}

// checkReduceMatchesOracle runs ReduceDominatedPrefiltered on a copy of g and
// requires exactly what the EliminateDominated oracle returns: same survivors
// in the same order, same (bit-equal) payoffs, and a fully consistent
// compacted shape (Rows/Cols updated, Data truncated to rows*cols).
func checkReduceMatchesOracle(t *testing.T, label string, g *Game) {
	t.Helper()
	rows, cols := g.Shape()
	want := g.EliminateDominated() // copies; leaves g intact
	if rows == 0 || cols == 0 {
		// No payoff exists to compare, so the reduction leaves the game alone.
		// The oracle does not: over an empty opposing set its "better
		// everywhere" test is vacuously true and it strips the non-empty side
		// down to one strategy — an artifact of the loop, not a dominance
		// relation — so the expectation here is the identity.
		want = Reduced{Game: g, RowOrig: identity(rows), ColOrig: identity(cols)}
	}
	got := New(g.A.Clone(), g.B.Clone())
	rowOrig := make([]int, rows)
	colOrig := make([]int, cols)
	nr, nc := got.ReduceDominatedPrefiltered(rowOrig, colOrig, make([]float64, 2*(rows+cols)))

	if wr, wc := want.Game.Shape(); nr != wr || nc != wc {
		t.Fatalf("%s (%dx%d): reduced to %dx%d, oracle to %dx%d", label, rows, cols, nr, nc, wr, wc)
	}
	for _, m := range []*Matrix{got.A, got.B} {
		if m.Rows != nr || m.Cols != nc || len(m.Data) != nr*nc {
			t.Fatalf("%s: shape not compacted: %dx%d with %d cells, want %dx%d", label, m.Rows, m.Cols, len(m.Data), nr, nc)
		}
	}
	for ri := 0; ri < nr; ri++ {
		if rowOrig[ri] != want.RowOrig[ri] {
			t.Fatalf("%s: rowOrig %v, want %v", label, rowOrig[:nr], want.RowOrig)
		}
	}
	for cj := 0; cj < nc; cj++ {
		if colOrig[cj] != want.ColOrig[cj] {
			t.Fatalf("%s: colOrig %v, want %v", label, colOrig[:nc], want.ColOrig)
		}
	}
	for ri := 0; ri < nr; ri++ {
		for cj := 0; cj < nc; cj++ {
			if got.A.At(ri, cj) != want.Game.A.At(ri, cj) || got.B.At(ri, cj) != want.Game.B.At(ri, cj) {
				t.Fatalf("%s: payoff mismatch at (%d,%d)", label, ri, cj)
			}
		}
	}
}

func identity(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// The prefiltered reduction must be indistinguishable from the reference
// elimination: the max-min screen may only skip comparisons strictlyBetter
// would reject anyway, never change the elimination sequence. The corpus is
// random dominance-biased games of varied shape plus the shapes where a
// screen or a compaction could slip: a single strategy on one or both sides
// (nothing may be eliminated on the single side), no strategy at all on a
// side, a matrix of all ties (weak dominance eliminates nothing), and the
// iterated 3x3 example that only solves through the fixed-point loop.
func TestReduceDominatedPrefilteredMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		g := dominanceBiasedGame(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		checkReduceMatchesOracle(t, fmt.Sprintf("trial %d", trial), g)
	}
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {0, 0}, {0, 5}, {5, 0}} {
		g := dominanceBiasedGame(rng, shape[0], shape[1])
		checkReduceMatchesOracle(t, fmt.Sprintf("%dx%d", shape[0], shape[1]), g)
	}
	ties := New(NewMatrix(4, 5), NewMatrix(4, 5))
	checkReduceMatchesOracle(t, "all ties", ties)
	if r, c := ties.EliminateDominated().Game.Shape(); r != 4 || c != 5 {
		t.Fatalf("oracle eliminated tied strategies: %dx%d", r, c)
	}
	checkReduceMatchesOracle(t, "iterated", iteratedGame())
}

// Reduction on an arena-backed game must not allocate: the scheduler's
// mid-size pair rescue stays on the warm zero-alloc path.
func TestReduceDominatedPrefilteredAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := dominanceBiasedGame(rng, 12, 10)
	ar := NewArena()
	rowOrig := make([]int, 12)
	colOrig := make([]int, 10)
	fscratch := make([]float64, 2*(12+10))
	allocs := testing.AllocsPerRun(100, func() {
		ar.Reset()
		g := NewFromArena(ar, 12, 10)
		copy(g.A.Data, src.A.Data)
		copy(g.B.Data, src.B.Data)
		g.ReduceDominatedPrefiltered(rowOrig, colOrig, fscratch)
	})
	if allocs != 0 {
		t.Fatalf("prefiltered reduction allocates %.1f objects per run", allocs)
	}
}

// BenchmarkReduceDominated times the reduction on a dominance-heavy 24x20
// game (the shape class the scheduler's pair rescue feeds it).
func BenchmarkReduceDominated(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := dominanceBiasedGame(rng, 24, 20)
	rowOrig := make([]int, 24)
	colOrig := make([]int, 20)
	fscratch := make([]float64, 2*(24+20))
	ar := NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		g := NewFromArena(ar, 24, 20)
		copy(g.A.Data, src.A.Data)
		copy(g.B.Data, src.B.Data)
		g.ReduceDominatedPrefiltered(rowOrig, colOrig, fscratch)
	}
}
