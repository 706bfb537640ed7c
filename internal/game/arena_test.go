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

// TestArenaSteadyStateAllocationFree: after warm-up, a grab/reset cycle of
// floats and ints allocates nothing.
func TestArenaSteadyStateAllocationFree(t *testing.T) {
	a := NewArena()
	cycle := func() {
		a.Reset()
		row := a.Floats(42)
		buf := a.Floats(12)
		idx := a.Ints(6)
		row[0], buf[0], idx[0] = 1, 1, 1
	}
	cycle() // warm up backing buffers
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %.1f objects", allocs)
	}
}

// randomGame builds a seeded bimatrix game over a small payoff alphabet, so
// ties and several equilibria are common.
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
