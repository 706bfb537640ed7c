package game

// The reference IESDS: the allocating, []bool-flagged elimination the
// package shipped first, kept verbatim as the oracle the arena-friendly
// ReduceDominatedPrefiltered is pinned against (reduce_test.go) and as the
// subject of the definitional tests in dominance_test.go and game_test.go.

// Reduced is a game together with the original indices of the surviving
// strategies.
type Reduced struct {
	Game    *Game
	RowOrig []int // surviving row index -> original row index
	ColOrig []int // surviving col index -> original col index
}

// EliminateDominated repeatedly removes strictly dominated pure strategies
// from both players until a fixed point. The returned mapping lets callers
// translate equilibria of the reduced game back to the original.
func (g *Game) EliminateDominated() Reduced {
	rows, cols := g.Shape()
	rowAlive := make([]bool, rows)
	colAlive := make([]bool, cols)
	for i := range rowAlive {
		rowAlive[i] = true
	}
	for j := range colAlive {
		colAlive[j] = true
	}

	changed := true
	for changed {
		changed = false
		// Row strategies: i dominated by k if A[k][j] > A[i][j] for all
		// alive j.
		for i := 0; i < rows; i++ {
			if !rowAlive[i] || countTrue(rowAlive) == 1 {
				continue
			}
			for k := 0; k < rows; k++ {
				if k == i || !rowAlive[k] {
					continue
				}
				if strictlyBetterRow(g.A, k, i, colAlive) {
					rowAlive[i] = false
					changed = true
					break
				}
			}
		}
		// Column strategies: j dominated by l under B.
		for j := 0; j < cols; j++ {
			if !colAlive[j] || countTrue(colAlive) == 1 {
				continue
			}
			for l := 0; l < cols; l++ {
				if l == j || !colAlive[l] {
					continue
				}
				if strictlyBetterCol(g.B, l, j, rowAlive) {
					colAlive[j] = false
					changed = true
					break
				}
			}
		}
	}

	rowOrig := aliveIndices(rowAlive)
	colOrig := aliveIndices(colAlive)
	a := NewMatrix(len(rowOrig), len(colOrig))
	b := NewMatrix(len(rowOrig), len(colOrig))
	for ri, i := range rowOrig {
		for cj, j := range colOrig {
			a.Set(ri, cj, g.A.At(i, j))
			b.Set(ri, cj, g.B.At(i, j))
		}
	}
	return Reduced{Game: New(a, b), RowOrig: rowOrig, ColOrig: colOrig}
}

// Expand maps a profile of the reduced game back to the original strategy
// space, assigning zero probability to eliminated strategies.
func (r Reduced) Expand(p Profile, origRows, origCols int) Profile {
	row := make([]float64, origRows)
	for ri, i := range r.RowOrig {
		row[i] = p.Row[ri]
	}
	col := make([]float64, origCols)
	for cj, j := range r.ColOrig {
		col[j] = p.Col[cj]
	}
	return Profile{Row: row, Col: col}
}

func strictlyBetterRow(a *Matrix, k, i int, colAlive []bool) bool {
	for j := 0; j < a.Cols; j++ {
		if !colAlive[j] {
			continue
		}
		if a.At(k, j) <= a.At(i, j)+1e-12 {
			return false
		}
	}
	return true
}

func strictlyBetterCol(b *Matrix, l, j int, rowAlive []bool) bool {
	for i := 0; i < b.Rows; i++ {
		if !rowAlive[i] {
			continue
		}
		if b.At(i, l) <= b.At(i, j)+1e-12 {
			return false
		}
	}
	return true
}

func countTrue(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

func aliveIndices(v []bool) []int {
	var out []int
	for i, b := range v {
		if b {
			out = append(out, i)
		}
	}
	return out
}
