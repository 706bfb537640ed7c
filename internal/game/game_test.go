package game

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := MatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
}

// TestRowViewAndColInto: RowView aliases the backing row; a column is read
// out by multiplying with a pure column vector.
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
	if got := m.MulVec(Pure(3, 2)); got[0] != 3 || got[1] != 6 {
		t.Fatalf("column 2 = %v", got)
	}
}

func TestMatrixRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	MatrixFrom([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := MatrixFrom([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
	got = m.VecMul([]float64{1, 1})
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v", got)
	}
	if q := m.Quad([]float64{1, 0}, []float64{0, 1}); q != 2 {
		t.Errorf("Quad = %v", q)
	}
}

func TestPrisonersDilemmaPureNash(t *testing.T) {
	g := PrisonersDilemma(5, 3, 1, 0)
	eqs := g.PureNash()
	if len(eqs) != 1 {
		t.Fatalf("want 1 pure NE, got %d", len(eqs))
	}
	rs := eqs[0].RowSupport()
	cs := eqs[0].ColSupport()
	if len(rs) != 1 || rs[0] != 1 || len(cs) != 1 || cs[0] != 1 {
		t.Errorf("PD equilibrium should be (defect, defect): %v %v", rs, cs)
	}
}

func TestPrisonersDilemmaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid PD ordering")
		}
	}()
	PrisonersDilemma(1, 2, 3, 4)
}

// TestBattleOfTheSexes: two pure equilibria of equal welfare; the tie goes
// to the row player's payoff.
func TestBattleOfTheSexes(t *testing.T) {
	g := BattleOfTheSexes()
	pure := g.PureNash()
	if len(pure) != 2 {
		t.Fatalf("want 2 pure NE, got %d", len(pure))
	}
	for _, e := range pure {
		if r := g.Regret(e.Row, e.Col); r != 0 {
			t.Errorf("pure equilibrium %v has regret %v", e, r)
		}
	}
	if best, ok := g.BestPureNash(); !ok || best != (PureProfile{0, 0}) {
		t.Errorf("BestPureNash = %v, %v; want (0, 0), the row player's favourite", best, ok)
	}
}

func TestCoordination(t *testing.T) {
	g := Coordination([]float64{1, 2, 3})
	pure := g.PureNash()
	if len(pure) != 3 {
		t.Fatalf("want 3 pure NE, got %d", len(pure))
	}
	best, ok := g.SelectEquilibrium(pure)
	if !ok {
		t.Fatal("no equilibrium selected")
	}
	if rs := best.RowSupport(); len(rs) != 1 || rs[0] != 2 {
		t.Errorf("welfare selection should pick payoff-3 coordination, got %v", rs)
	}
}

// TestMatchingPenniesSupportEnum: matching pennies has no pure equilibrium;
// its only equilibrium is the uniform mix on both supports, which has zero
// regret while a skewed mix does not.
func TestMatchingPenniesSupportEnum(t *testing.T) {
	g := MatchingPennies()
	if eqs := g.PureNash(); len(eqs) != 0 {
		t.Errorf("matching pennies has no pure NE, got %d", len(eqs))
	}
	if _, ok := g.BestPureNash(); ok {
		t.Error("BestPureNash found a pure NE in matching pennies")
	}
	uniform := []float64{0.5, 0.5}
	if reg := g.Regret(uniform, uniform); !approx(reg, 0, 1e-12) {
		t.Errorf("uniform mix should be an equilibrium, regret = %v", reg)
	}
	if reg := g.Regret([]float64{0.6, 0.4}, uniform); reg <= 0 {
		t.Errorf("skewed row mix should have positive regret, got %v", reg)
	}
}

func TestSelectEquilibriumEmpty(t *testing.T) {
	g := MatchingPennies()
	if _, ok := g.SelectEquilibrium(nil); ok {
		t.Error("empty slice should return ok=false")
	}
}

func TestRegretZeroAtEquilibrium(t *testing.T) {
	g := BattleOfTheSexes()
	for _, e := range g.PureNash() {
		if reg := g.Regret(e.Row, e.Col); reg > 1e-6 {
			t.Errorf("regret at equilibrium = %v", reg)
		}
	}
	// Non-equilibrium profile has positive regret.
	if reg := g.Regret(Pure(2, 0), Pure(2, 1)); reg <= 0 {
		t.Errorf("miscoordination should have positive regret, got %v", reg)
	}
}

func TestFromCosts(t *testing.T) {
	costA := MatrixFrom([][]float64{{10, 1}, {5, 3}})
	costB := MatrixFrom([][]float64{{2, 8}, {4, 6}})
	g := FromCosts(costA, costB)
	if g.A.At(0, 0) != -10 || g.B.At(0, 1) != -8 {
		t.Errorf("FromCosts should negate: %v %v", g.A, g.B)
	}
	// Originals untouched.
	if costA.At(0, 0) != 10 {
		t.Error("FromCosts mutated its input")
	}
}

// TestUniformAndPure: Pure(n, i) is the i-th unit vector, so the pure
// strategies of an n-action player average to the uniform mix.
func TestUniformAndPure(t *testing.T) {
	if p := Pure(3, 1); p[0] != 0 || p[1] != 1 || p[2] != 0 {
		t.Errorf("Pure(3,1) = %v", p)
	}
	const n = 4
	mean := make([]float64, n)
	for i := 0; i < n; i++ {
		for k, p := range Pure(n, i) {
			mean[k] += p / n
		}
	}
	for _, p := range mean {
		if !approx(p, 1.0/n, 1e-12) {
			t.Errorf("mean of pure strategies %v is not uniform", mean)
		}
	}
}

func TestPayoffsQuick(t *testing.T) {
	// Property: payoffs at pure profiles equal matrix entries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(4)
		cols := 1 + rng.Intn(4)
		a := NewMatrix(rows, cols)
		b := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		g := New(a, b)
		i := rng.Intn(rows)
		j := rng.Intn(cols)
		ra, rb := g.Payoffs(Pure(rows, i), Pure(cols, j))
		return approx(ra, a.At(i, j), 1e-12) && approx(rb, b.At(i, j), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
