package game

// Canonical games used as fixtures by this package's tests.

// PrisonersDilemma returns the classic prisoner's dilemma with the standard
// payoff ordering T > R > P > S (temptation, reward, punishment, sucker).
// Strategy 0 is "cooperate", strategy 1 is "defect". The unique Nash
// equilibrium is (defect, defect). It panics unless T > R > P > S.
func PrisonersDilemma(t, r, p, s float64) *Game {
	if !(t > r && r > p && p > s) {
		panic("game: prisoner's dilemma requires T > R > P > S")
	}
	a := MatrixFrom([][]float64{{r, s}, {t, p}})
	b := MatrixFrom([][]float64{{r, t}, {s, p}})
	return New(a, b)
}

// MatchingPennies returns the zero-sum matching pennies game, which has no
// pure equilibrium.
func MatchingPennies() *Game {
	a := MatrixFrom([][]float64{{1, -1}, {-1, 1}})
	b := MatrixFrom([][]float64{{-1, 1}, {1, -1}})
	return New(a, b)
}

// BattleOfTheSexes returns the classic coordination game with two pure
// equilibria and one mixed equilibrium.
func BattleOfTheSexes() *Game {
	a := MatrixFrom([][]float64{{3, 0}, {0, 2}})
	b := MatrixFrom([][]float64{{2, 0}, {0, 3}})
	return New(a, b)
}

// Coordination returns an n×n pure coordination game where both players
// receive payoff[i] when they coordinate on strategy i and 0 otherwise.
func Coordination(payoff []float64) *Game {
	n := len(payoff)
	a := NewMatrix(n, n)
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, payoff[i])
		b.Set(i, i, payoff[i])
	}
	return New(a, b)
}

// FromCosts builds a game from cost matrices (lower is better) by negating
// them into utilities, which is how DEEP turns energy costs into payoffs.
func FromCosts(costA, costB *Matrix) *Game {
	neg := func(m *Matrix) *Matrix {
		out := NewMatrix(m.Rows, m.Cols)
		for k, v := range m.Data {
			out.Data[k] = -v
		}
		return out
	}
	return New(neg(costA), neg(costB))
}
