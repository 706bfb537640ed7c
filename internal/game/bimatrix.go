package game

import (
	"fmt"
	"math"
)

// Game is a two-player bimatrix game in normal form. A holds the row
// player's payoffs and B the column player's; both are Rows×Cols. Payoffs
// are utilities: each player prefers larger values.
//
// No scheduler builds one: a stage game's price rows determine every cell,
// and the solvers read payoffs from them directly. Game is the materialized
// definition those solvers are pinned to — tests fill it cell by cell and
// require the same equilibrium from BestPureNash.
type Game struct {
	A, B *Matrix
}

// New constructs a bimatrix game from the two payoff matrices. The matrices
// must have identical shape.
func New(a, b *Matrix) *Game {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("game: payoff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return &Game{A: a, B: b}
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
// greater than 1e-9.
func (p Profile) RowSupport() []int { return support(p.Row) }

// ColSupport returns the indices of column strategies played with
// probability greater than 1e-9.
func (p Profile) ColSupport() []int { return support(p.Col) }

func support(v []float64) []int {
	var s []int
	for i, p := range v {
		if p > 1e-9 {
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

// PureNash enumerates all pure-strategy Nash equilibria in row-major order.
func (g *Game) PureNash() []Profile {
	rows, cols := g.Shape()
	var out []Profile
	g.scanPureNash(func(i, j int) {
		out = append(out, Profile{Row: Pure(rows, i), Col: Pure(cols, j)})
	})
	return out
}

// scanPureNash calls yield(i, j) for every pure-strategy Nash equilibrium,
// in row-major order, in O(cells).
// Cell (i, j) is an equilibrium when no entry of A's column j beats A[i][j]
// and no entry of B's row i beats B[i][j], each by more than 1e-12. Beating
// a threshold is monotone in the challenger, so "some entry does" is "the
// maximum does": one pass takes A's column maxima, and each row's B maximum
// is taken just before that row's cells are tested. The maxima start at
// -Inf and only move on a strict >, so NaN payoffs never become a maximum
// and never beat anything — the classification a per-cell scan of the column
// and row gives, at any mix of NaN and ±Inf.
func (g *Game) scanPureNash(yield func(i, j int)) {
	rows, cols := g.Shape()
	colMax := make([]float64, cols)
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

// BestPureNash returns the welfare-maximal pure Nash equilibrium — exactly
// SelectEquilibrium(PureNash()) restricted to pure profiles — choosing with
// PureSelection as the cells are scanned. ok is false when the game has no
// pure equilibrium.
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
// and then toward the first in the slice. It returns false when the slice is
// empty.
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

// Matrix is a dense row-major matrix of float64 payoffs.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("game: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom builds a matrix from a slice of rows. All rows must have equal
// length.
func MatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("game: ragged matrix: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// RowView returns row i as a view into the matrix's backing array — no
// copy. Writes through the view mutate the matrix.
func (m *Matrix) RowView(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulVec returns m · x (length must equal Cols).
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("game: MulVec dim mismatch: %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		s := 0.0
		for j, v := range m.RowView(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns xᵀ · m (length must equal Rows).
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("game: VecMul dim mismatch: %d vs %d", len(x), m.Rows))
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, v := range m.RowView(i) {
			out[j] += xi * v
		}
	}
	return out
}

// Quad returns xᵀ · m · y.
func (m *Matrix) Quad(x, y []float64) float64 {
	my := m.MulVec(y)
	s := 0.0
	for i, v := range x {
		s += v * my[i]
	}
	return s
}
