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
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %v", tr)
	}
	if got := m.Row(1); got[0] != 4 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
	if got := m.Col(2); got[0] != 3 || got[1] != 6 {
		t.Errorf("Col(2) = %v", got)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", m.Min(), m.Max())
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

func TestSolveLinear(t *testing.T) {
	a := MatrixFrom([][]float64{{2, 1}, {1, 3}})
	x, ok := SolveLinear(a, []float64{5, 10})
	if !ok {
		t.Fatal("singular")
	}
	if !approx(x[0], 1, 1e-9) || !approx(x[1], 3, 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := MatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, ok := SolveLinear(a, []float64{1, 2}); ok {
		t.Error("expected singular detection")
	}
}

func TestSolveLinearProperty(t *testing.T) {
	// Random well-conditioned systems: A·x recovered from b = A·x0.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b := a.MulVec(x0)
		x, ok := SolveLinear(a, b)
		if !ok {
			t.Fatalf("trial %d: unexpected singular", trial)
		}
		for i := range x {
			if !approx(x[i], x0[i], 1e-6) {
				t.Fatalf("trial %d: x=%v want %v", trial, x, x0)
			}
		}
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

func TestMatchingPenniesSupportEnum(t *testing.T) {
	g := MatchingPennies()
	if eqs := g.PureNash(); len(eqs) != 0 {
		t.Errorf("matching pennies has no pure NE, got %d", len(eqs))
	}
	eqs := g.SupportEnumeration()
	if len(eqs) != 1 {
		t.Fatalf("want 1 mixed NE, got %d", len(eqs))
	}
	for _, p := range eqs[0].Row {
		if !approx(p, 0.5, 1e-9) {
			t.Errorf("row strategy %v not uniform", eqs[0].Row)
		}
	}
	for _, p := range eqs[0].Col {
		if !approx(p, 0.5, 1e-9) {
			t.Errorf("col strategy %v not uniform", eqs[0].Col)
		}
	}
}

func TestBattleOfTheSexes(t *testing.T) {
	g := BattleOfTheSexes()
	pure := g.PureNash()
	if len(pure) != 2 {
		t.Fatalf("want 2 pure NE, got %d", len(pure))
	}
	all := g.SupportEnumeration()
	if len(all) != 3 {
		t.Fatalf("want 3 NE total (2 pure + 1 mixed), got %d", len(all))
	}
	for _, e := range all {
		if !g.IsNash(e.Row, e.Col, 1e-6) {
			t.Errorf("support enumeration returned non-equilibrium %v", e)
		}
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

func TestSelectEquilibriumEmpty(t *testing.T) {
	g := MatchingPennies()
	if _, ok := g.SelectEquilibrium(nil); ok {
		t.Error("empty slice should return ok=false")
	}
}

func TestLemkeHowsonPD(t *testing.T) {
	g := PrisonersDilemma(5, 3, 1, 0)
	for label := 0; label < 4; label++ {
		p, err := g.LemkeHowson(label)
		if err != nil {
			t.Fatalf("label %d: %v", label, err)
		}
		if !g.IsNash(p.Row, p.Col, 1e-6) {
			t.Errorf("label %d: not a NE: %+v", label, p)
		}
	}
}

func TestLemkeHowsonMatchingPennies(t *testing.T) {
	g := MatchingPennies()
	p, err := g.LemkeHowsonAny()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsNash(p.Row, p.Col, 1e-6) {
		t.Errorf("not an equilibrium: %+v", p)
	}
}

func TestLemkeHowsonRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		rows := 2 + rng.Intn(3)
		cols := 2 + rng.Intn(3)
		a := NewMatrix(rows, cols)
		b := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
			b.Data[i] = rng.Float64()
		}
		g := New(a, b)
		p, err := g.LemkeHowsonAny()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !g.IsNash(p.Row, p.Col, 1e-5) {
			t.Errorf("trial %d: regret %v too high", trial, g.Regret(p.Row, p.Col))
		}
	}
}

func TestSupportEnumerationRandomAgreesWithIsNash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		rows := 2 + rng.Intn(2)
		cols := 2 + rng.Intn(2)
		a := NewMatrix(rows, cols)
		b := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		g := New(a, b)
		eqs := g.SupportEnumeration()
		if len(eqs) == 0 {
			t.Fatalf("trial %d: no equilibrium found (every finite game has one)", trial)
		}
		for _, e := range eqs {
			if !g.IsNash(e.Row, e.Col, 1e-6) {
				t.Errorf("trial %d: false equilibrium, regret %v", trial, g.Regret(e.Row, e.Col))
			}
		}
	}
}

func TestRegretZeroAtEquilibrium(t *testing.T) {
	g := BattleOfTheSexes()
	eqs := g.SupportEnumeration()
	for _, e := range eqs {
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

func TestUniformAndPure(t *testing.T) {
	u := Uniform(4)
	s := 0.0
	for _, p := range u {
		s += p
	}
	if !approx(s, 1, 1e-12) {
		t.Errorf("uniform does not sum to 1: %v", u)
	}
	p := Pure(3, 1)
	if p[0] != 0 || p[1] != 1 || p[2] != 0 {
		t.Errorf("Pure(3,1) = %v", p)
	}
}

func TestZeroSum(t *testing.T) {
	a := MatrixFrom([][]float64{{2, -1}, {0, 3}})
	g := NewZeroSum(a)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if g.A.At(i, j)+g.B.At(i, j) != 0 {
				t.Errorf("not zero-sum at (%d,%d)", i, j)
			}
		}
	}
}
