package game

import (
	"math/rand"
	"testing"
)

func TestArenaGrantsAreZeroedAndDisjoint(t *testing.T) {
	a := NewArena()
	f1 := a.Floats(8)
	f2 := a.Floats(8)
	for i := range f1 {
		f1[i] = 1
		f2[i] = 2
	}
	if f1[0] != 1 || f2[0] != 2 {
		t.Fatal("grants alias each other")
	}
	i1 := a.Ints(4)
	i1[0] = 7

	a.Reset()
	g1 := a.Floats(8)
	for i, v := range g1 {
		if v != 0 {
			t.Fatalf("recycled float grant not zeroed at %d: %v", i, v)
		}
	}
	j1 := a.Ints(4)
	if j1[0] != 0 {
		t.Fatal("recycled int grant not zeroed")
	}
}

func TestArenaMaskEpochReset(t *testing.T) {
	a := NewArena()
	m := a.Mask(16)
	m.Set(3)
	m.Set(7)
	if !m.Has(3) || !m.Has(7) || m.Has(4) {
		t.Fatal("mask set/has broken")
	}
	a.Reset()
	// Same backing words, new epoch: everything reads unset without any
	// clearing having happened.
	m2 := a.Mask(16)
	for i := 0; i < m2.Len(); i++ {
		if m2.Has(i) {
			t.Fatalf("mask index %d survived Reset", i)
		}
	}
	// The stale mask from before the reset must not see the new epoch's
	// marks as its own either.
	m2.Set(3)
	if !m2.Has(3) {
		t.Fatal("mask lost a mark")
	}
}

func TestArenaMatrixAndGameReuse(t *testing.T) {
	a := NewArena()
	g := NewFromArena(a, 3, 4)
	if g.A.Rows != 3 || g.A.Cols != 4 || g.B.Rows != 3 || g.B.Cols != 4 {
		t.Fatalf("arena game shape %dx%d", g.A.Rows, g.A.Cols)
	}
	g.A.Set(1, 2, 5)
	a.Reset()
	g2 := NewFromArena(a, 3, 4)
	if g2.A.At(1, 2) != 0 {
		t.Fatal("recycled matrix not zeroed")
	}
}

// TestArenaSteadyStateAllocationFree: after warm-up, a grab/reset cycle of
// matrices, floats, ints, and masks allocates nothing.
func TestArenaSteadyStateAllocationFree(t *testing.T) {
	a := NewArena()
	cycle := func() {
		a.Reset()
		g := NewFromArena(a, 6, 7)
		buf := a.Floats(12)
		idx := a.Ints(6)
		m := a.Mask(42)
		g.A.Set(0, 0, 1)
		buf[0] = 1
		idx[0] = 1
		m.Set(0)
	}
	cycle() // warm up backing buffers
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %.1f objects", allocs)
	}
}

func TestRowViewAndColInto(t *testing.T) {
	m := MatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	rv := m.RowView(1)
	if rv[0] != 4 || rv[2] != 6 {
		t.Fatalf("RowView = %v", rv)
	}
	rv[1] = 50
	if m.At(1, 1) != 50 {
		t.Fatal("RowView is not a view")
	}
	dst := make([]float64, 2)
	if got := m.ColInto(2, dst); got[0] != 3 || got[1] != 6 {
		t.Fatalf("ColInto = %v", got)
	}
}

// randomGame builds a seeded bimatrix game for cross-checking the in-place
// equilibrium APIs against their allocating counterparts.
func randomGame(rng *rand.Rand, rows, cols int) *Game {
	a := NewMatrix(rows, cols)
	b := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, float64(rng.Intn(7)))
			b.Set(i, j, float64(rng.Intn(7)))
		}
	}
	return New(a, b)
}

// TestPureNashIntoMatchesPureNash: the index-form enumeration must agree
// with the vector-form one on supports and count, across many seeded games.
func TestPureNashIntoMatchesPureNash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []PureProfile
	for trial := 0; trial < 200; trial++ {
		g := randomGame(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		want := g.PureNash()
		scratch = g.PureNashInto(scratch)
		if len(scratch) != len(want) {
			t.Fatalf("trial %d: %d pure equilibria, want %d", trial, len(scratch), len(want))
		}
		for k, p := range want {
			if scratch[k].Row != p.RowSupport()[0] || scratch[k].Col != p.ColSupport()[0] {
				t.Fatalf("trial %d: equilibrium %d = %v, want (%d,%d)",
					trial, k, scratch[k], p.RowSupport()[0], p.ColSupport()[0])
			}
		}
	}
}

// TestBestPureNashMatchesSelectEquilibrium: the single-pass selection must
// pick exactly the profile SelectEquilibrium(PureNash()) picks.
func TestBestPureNashMatchesSelectEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		g := randomGame(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		wantP, wantOK := g.SelectEquilibrium(g.PureNash())
		got, ok := g.BestPureNash()
		if ok != wantOK {
			t.Fatalf("trial %d: ok=%v, want %v", trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		if got.Row != wantP.RowSupport()[0] || got.Col != wantP.ColSupport()[0] {
			t.Fatalf("trial %d: BestPureNash=(%d,%d), SelectEquilibrium=(%d,%d)",
				trial, got.Row, got.Col, wantP.RowSupport()[0], wantP.ColSupport()[0])
		}
	}
}

func TestBestResponsesIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var dst []int
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		g := randomGame(rng, rows, cols)
		y := Uniform(cols)
		x := Uniform(rows)
		dst = g.BestResponsesRowInto(y, dst)
		if want := g.BestResponsesRow(y); !equalInts(dst, want) {
			t.Fatalf("trial %d: row %v, want %v", trial, dst, want)
		}
		dst = g.BestResponsesColInto(x, dst)
		if want := g.BestResponsesCol(x); !equalInts(dst, want) {
			t.Fatalf("trial %d: col %v, want %v", trial, dst, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
