package game

import (
	"fmt"
	"math"
)

// Game is a two-player bimatrix game in normal form. A holds the row
// player's payoffs and B the column player's; both are Rows×Cols. Payoffs
// are utilities: each player prefers larger values.
type Game struct {
	A, B *Matrix
	// RowLabels and ColLabels optionally name the strategies for reporting.
	RowLabels, ColLabels []string

	// arena is set by NewFromArena: solvers that need scratch beyond the
	// matrices draw it here instead of allocating. Nil for heap-built games.
	arena *Arena
}

// New constructs a bimatrix game from the two payoff matrices. The matrices
// must have identical shape.
func New(a, b *Matrix) *Game {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("game: payoff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return &Game{A: a, B: b}
}

// NewZeroSum constructs the zero-sum game with row payoffs a and column
// payoffs -a.
func NewZeroSum(a *Matrix) *Game {
	b := a.Clone().Scale(-1)
	return New(a, b)
}

// Shape returns the number of row and column strategies.
func (g *Game) Shape() (rows, cols int) { return g.A.Rows, g.A.Cols }

// Payoffs returns the expected payoffs (row, column) when the row player
// plays mixed strategy x and the column player plays y.
func (g *Game) Payoffs(x, y []float64) (rowPayoff, colPayoff float64) {
	return g.A.Quad(x, y), g.B.Quad(x, y)
}

// Profile is a pair of (possibly mixed) strategies, one per player. Pure
// strategies are probability vectors with a single 1.
type Profile struct {
	Row, Col []float64
}

// RowSupport returns the indices of row strategies played with probability
// greater than tol.
func (p Profile) RowSupport() []int { return support(p.Row, supportTol) }

// ColSupport returns the indices of column strategies played with
// probability greater than tol.
func (p Profile) ColSupport() []int { return support(p.Col, supportTol) }

const supportTol = 1e-9

func support(v []float64, tol float64) []int {
	var s []int
	for i, p := range v {
		if p > tol {
			s = append(s, i)
		}
	}
	return s
}

// Pure returns a pure strategy vector of length n with probability 1 on i.
func Pure(n, i int) []float64 {
	v := make([]float64, n)
	v[i] = 1
	return v
}

// Uniform returns the uniform mixed strategy of length n.
func Uniform(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}

// BestResponsesRow returns the row indices that maximize the row player's
// expected payoff against the column strategy y.
func (g *Game) BestResponsesRow(y []float64) []int {
	u := g.A.MulVec(y)
	return argmaxAll(u)
}

// BestResponsesCol returns the column indices that maximize the column
// player's expected payoff against the row strategy x.
func (g *Game) BestResponsesCol(x []float64) []int {
	u := g.B.VecMul(x)
	return argmaxAll(u)
}

// BestResponsesRowInto appends to dst[:0] the row indices maximizing the row
// player's expected payoff against y — BestResponsesRow writing into caller
// scratch. With cap(dst) ≥ Rows it does not allocate.
func (g *Game) BestResponsesRowInto(y []float64, dst []int) []int {
	return bestResponsesInto(g.A.Rows, func(i int) float64 { return dot(g.A.RowView(i), y) }, dst)
}

// BestResponsesColInto appends to dst[:0] the column indices maximizing the
// column player's expected payoff against x — BestResponsesCol writing into
// caller scratch. With cap(dst) ≥ Cols it does not allocate.
func (g *Game) BestResponsesColInto(x []float64, dst []int) []int {
	return bestResponsesInto(g.B.Cols, func(j int) float64 {
		s := 0.0
		for i, xi := range x {
			if xi != 0 {
				s += xi * g.B.At(i, j)
			}
		}
		return s
	}, dst)
}

// bestResponsesInto evaluates u(i) twice — once for the maximum, once to
// collect the argmax set — trading a second sweep for zero allocations. The
// tolerance matches argmaxAll.
func bestResponsesInto(n int, u func(int) float64, dst []int) []int {
	dst = dst[:0]
	if n == 0 {
		return dst
	}
	best := u(0)
	for i := 1; i < n; i++ {
		if v := u(i); v > best {
			best = v
		}
	}
	for i := 0; i < n; i++ {
		if u(i) >= best-1e-9 {
			dst = append(dst, i)
		}
	}
	return dst
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func argmaxAll(u []float64) []int {
	if len(u) == 0 {
		return nil
	}
	best := u[0]
	for _, v := range u[1:] {
		if v > best {
			best = v
		}
	}
	var idx []int
	for i, v := range u {
		if v >= best-1e-9 {
			idx = append(idx, i)
		}
	}
	return idx
}

// IsNash reports whether the profile (x, y) is a Nash equilibrium to within
// tolerance tol: no pure-strategy deviation improves either player's payoff
// by more than tol.
func (g *Game) IsNash(x, y []float64, tol float64) bool {
	rowU := g.A.MulVec(y) // payoff of each pure row strategy vs y
	colU := g.B.VecMul(x) // payoff of each pure col strategy vs x
	curRow, curCol := g.Payoffs(x, y)
	for _, u := range rowU {
		if u > curRow+tol {
			return false
		}
	}
	for _, u := range colU {
		if u > curCol+tol {
			return false
		}
	}
	return true
}

// PureNash enumerates all pure-strategy Nash equilibria in row-major order.
func (g *Game) PureNash() []Profile {
	rows, cols := g.Shape()
	var out []Profile
	g.scanPureNash(func(i, j int) {
		out = append(out, Profile{Row: Pure(rows, i), Col: Pure(cols, j)})
	})
	return out
}

// scanPureNash is the pure-equilibrium kernel on a materialized bimatrix: it
// calls yield(i, j) for every pure-strategy Nash equilibrium, in row-major
// order, in O(cells).
// Cell (i, j) is an equilibrium when no entry of A's column j beats A[i][j]
// and no entry of B's row i beats B[i][j], each by more than 1e-12. Beating
// a threshold is monotone in the challenger, so "some entry does" is "the
// maximum does": one pass takes A's column maxima, and each row's B maximum
// is taken just before that row's cells are tested. The maxima start at
// -Inf and only move on a strict >, so NaN payoffs never become a maximum
// and never beat anything — the classification a per-cell scan of the column
// and row gives, at any mix of NaN and ±Inf. The column scratch comes from
// the game's arena when it has one.
func (g *Game) scanPureNash(yield func(i, j int)) {
	rows, cols := g.Shape()
	var colMax []float64
	if g.arena != nil {
		colMax = g.arena.Floats(cols)
	} else {
		colMax = make([]float64, cols)
	}
	for j := range colMax {
		colMax[j] = math.Inf(-1)
	}
	for i := 0; i < rows; i++ {
		for j, v := range g.A.RowView(i) {
			if v > colMax[j] {
				colMax[j] = v
			}
		}
	}
	for i := 0; i < rows; i++ {
		a, b := g.A.RowView(i), g.B.RowView(i)
		rowMax := math.Inf(-1)
		for _, v := range b {
			if v > rowMax {
				rowMax = v
			}
		}
		for j, aij := range a {
			if colMax[j] > aij+1e-12 || rowMax > b[j]+1e-12 {
				continue
			}
			yield(i, j)
		}
	}
}

// PureProfile is a pure-strategy profile in index form — the allocation-free
// counterpart of a Profile whose vectors are one-hot.
type PureProfile struct{ Row, Col int }

// PureNashInto appends every pure-strategy Nash equilibrium to dst[:0] in
// row-major order — PureNash writing into caller scratch, without
// materializing probability vectors. With enough capacity it does not
// allocate.
func (g *Game) PureNashInto(dst []PureProfile) []PureProfile {
	dst = dst[:0]
	g.scanPureNash(func(i, j int) {
		dst = append(dst, PureProfile{Row: i, Col: j})
	})
	return dst
}

// prefer is the one tie rule of every equilibrium selection: a challenger
// with social welfare w and row payoff r displaces the incumbent (bestW,
// bestR) when its welfare is higher by more than 1e-12, or ties within 1e-12
// and its row payoff is higher by more than 1e-12.
func prefer(w, r, bestW, bestR float64) bool {
	return w > bestW+1e-12 || (math.Abs(w-bestW) <= 1e-12 && r > bestR+1e-12)
}

// PureSelection is the welfare-maximal choice among pure equilibria offered
// one at a time: the first offer is taken, and a later one replaces it only
// under prefer — so offering equilibria in row-major order reproduces
// SelectEquilibrium's tie-breaks (welfare, then row payoff, then first in
// order). The zero value is empty.
type PureSelection struct {
	Best PureProfile
	OK   bool

	welfare, row float64
}

// Offer considers the equilibrium p, whose payoffs are row and col.
func (s *PureSelection) Offer(p PureProfile, row, col float64) {
	if w := row + col; !s.OK || prefer(w, row, s.welfare, s.row) {
		s.Best, s.OK, s.welfare, s.row = p, true, w, row
	}
}

// SelectPure picks, among the provided pure equilibria, the one maximizing
// social welfare with SelectEquilibrium's exact tie-breaks (row payoff, then
// first in row-major order). It returns false on an empty slice.
func (g *Game) SelectPure(eqs []PureProfile) (PureProfile, bool) {
	var sel PureSelection
	for _, e := range eqs {
		sel.Offer(e, g.A.At(e.Row, e.Col), g.B.At(e.Row, e.Col))
	}
	return sel.Best, sel.OK
}

// BestPureNash returns the welfare-maximal pure Nash equilibrium — exactly
// SelectEquilibrium(PureNash()) restricted to pure profiles — scanning cells
// row-major without allocating. ok is false when the game has no pure
// equilibrium.
func (g *Game) BestPureNash() (PureProfile, bool) {
	var sel PureSelection
	g.scanPureNash(func(i, j int) {
		sel.Offer(PureProfile{Row: i, Col: j}, g.A.At(i, j), g.B.At(i, j))
	})
	return sel.Best, sel.OK
}

// SocialWelfare returns the sum of both players' payoffs at (x, y).
func (g *Game) SocialWelfare(x, y []float64) float64 {
	r, c := g.Payoffs(x, y)
	return r + c
}

// SelectEquilibrium picks, among the provided equilibria, the one that
// maximizes social welfare; ties are broken toward the row player's payoff
// and then toward the lexicographically smallest support. It returns false
// when the slice is empty.
func (g *Game) SelectEquilibrium(eqs []Profile) (Profile, bool) {
	if len(eqs) == 0 {
		return Profile{}, false
	}
	best := eqs[0]
	bestW := g.SocialWelfare(best.Row, best.Col)
	bestR, _ := g.Payoffs(best.Row, best.Col)
	for _, e := range eqs[1:] {
		w := g.SocialWelfare(e.Row, e.Col)
		r, _ := g.Payoffs(e.Row, e.Col)
		if prefer(w, r, bestW, bestR) {
			best, bestW, bestR = e, w, r
		}
	}
	return best, true
}

// Regret returns the maximum payoff either player forgoes at (x, y) relative
// to its best response — zero exactly at Nash equilibria.
func (g *Game) Regret(x, y []float64) float64 {
	rowU := g.A.MulVec(y)
	colU := g.B.VecMul(x)
	curRow, curCol := g.Payoffs(x, y)
	worst := 0.0
	for _, u := range rowU {
		if d := u - curRow; d > worst {
			worst = d
		}
	}
	for _, u := range colU {
		if d := u - curCol; d > worst {
			worst = d
		}
	}
	return worst
}
