package game

// Iterated elimination of strictly dominated strategies (IESDS). Removing a
// strictly dominated strategy never removes a Nash equilibrium, so solving
// the reduced game is sound and often dramatically cheaper.

// ReduceDominatedPrefiltered repeatedly removes strictly dominated pure
// strategies from both players until a fixed point, without building a fresh
// game: the surviving payoffs are compacted into the top-left corner of A and
// B and the shapes updated, so arena-backed games reduce without allocating.
// rowOrig and colOrig are caller-provided scratch with capacity at least the
// game's original dimensions; on return rowOrig[:rows] and colOrig[:cols] map
// each surviving index back to its original one. The compaction preserves
// strategy order, so solving the reduced game yields equilibria of the
// original, in the same scan order. A game with no rows or no columns has
// nothing to compare and is returned unchanged under identity maps.
//
// A row/column max-min dominance screen runs ahead of the full pairwise
// sweeps. If strategy k strictly dominates i, then evaluating k at i's best
// (argmax) and k's worst (argmin) alive columns gives two necessary
// conditions:
//
//	min_j A[k][j] > min_j A[i][j] + tol   and   max_j A[k][j] > max_j A[i][j] + tol
//
// so any candidate pair failing either can skip the O(cols) strictlyBetter
// scan outright. The screen runs only on the first sweep: that sweep sees
// every pair of the full game (the O(rows²·cols) bulk the screen exists
// for), and within it the stats stay exact for free — a row phase never
// changes column aliveness, so row extrema computed at its start hold
// throughout, and the column extrema are taken after it. Later sweeps
// re-scan only the few survivors, too little work to amortize fresh stats
// (maintaining them incrementally costs more than it saves — witness chains
// die repeatedly under mass elimination). The screen only skips pairs
// strictlyBetter would reject and candidates scan in the same order, so the
// elimination sequence — and therefore the surviving game, compaction, and
// index maps — is identical to the unscreened elimination on every input
// (the EliminateDominated oracle in dominance_oracle_test.go).
//
// fscratch is caller-provided float scratch with capacity at least
// 2*(rows+cols); arena-backed callers pass arena floats so the screen, like
// the reduction, allocates nothing.
func (g *Game) ReduceDominatedPrefiltered(rowOrig, colOrig []int, fscratch []float64) (rows, cols int) {
	const tol = 1e-12
	nr, nc := g.Shape()
	rowOrig = rowOrig[:nr]
	colOrig = colOrig[:nc]
	if nr == 0 || nc == 0 {
		for i := range rowOrig {
			rowOrig[i] = i
		}
		for j := range colOrig {
			colOrig[j] = j
		}
		return nr, nc
	}
	rowMin := fscratch[:nr]
	rowMax := fscratch[nr : 2*nr]
	colMin := fscratch[2*nr : 2*nr+nc]
	colMax := fscratch[2*nr+nc : 2*nr+2*nc]
	for i := range rowOrig {
		rowOrig[i] = 1
	}
	for j := range colOrig {
		colOrig[j] = 1
	}
	aliveRows, aliveCols := nr, nc

	// First-sweep row phase: extrema of A over all columns (none eliminated
	// yet), valid for the whole phase.
	for i := 0; i < nr; i++ {
		lo, hi := g.A.At(i, 0), g.A.At(i, 0)
		for j := 1; j < nc; j++ {
			v := g.A.At(i, j)
			if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		rowMin[i], rowMax[i] = lo, hi
	}
	for i := 0; i < nr; i++ {
		if rowOrig[i] == 0 || aliveRows == 1 {
			continue
		}
		for k := 0; k < nr; k++ {
			if k == i || rowOrig[k] == 0 {
				continue
			}
			if rowMin[k] <= rowMin[i]+tol || rowMax[k] <= rowMax[i]+tol {
				continue
			}
			if strictlyBetterRowFlags(g.A, k, i, colOrig) {
				rowOrig[i] = 0
				aliveRows--
				break
			}
		}
	}
	// First-sweep column phase: extrema of B over the rows that survived the
	// phase above.
	for j := 0; j < nc; j++ {
		lo, hi := 0.0, 0.0
		first := true
		for i := 0; i < nr; i++ {
			if rowOrig[i] == 0 {
				continue
			}
			v := g.B.At(i, j)
			if first {
				lo, hi, first = v, v, false
			} else if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		colMin[j], colMax[j] = lo, hi
	}
	for j := 0; j < nc; j++ {
		if colOrig[j] == 0 || aliveCols == 1 {
			continue
		}
		for l := 0; l < nc; l++ {
			if l == j || colOrig[l] == 0 {
				continue
			}
			if colMin[l] <= colMin[j]+tol || colMax[l] <= colMax[j]+tol {
				continue
			}
			if strictlyBetterColFlags(g.B, l, j, rowOrig) {
				colOrig[j] = 0
				aliveCols--
				break
			}
		}
	}

	// Later sweeps: the unscreened fixed-point loop over the survivors. The
	// first sweep above eliminated exactly what an unscreened first sweep
	// would have — identical sequence — so the loop runs only if it removed
	// something.
	changed := aliveRows < nr || aliveCols < nc
	for changed {
		changed = false
		for i := 0; i < nr; i++ {
			if rowOrig[i] == 0 || aliveRows == 1 {
				continue
			}
			for k := 0; k < nr; k++ {
				if k == i || rowOrig[k] == 0 {
					continue
				}
				if strictlyBetterRowFlags(g.A, k, i, colOrig) {
					rowOrig[i] = 0
					aliveRows--
					changed = true
					break
				}
			}
		}
		for j := 0; j < nc; j++ {
			if colOrig[j] == 0 || aliveCols == 1 {
				continue
			}
			for l := 0; l < nc; l++ {
				if l == j || colOrig[l] == 0 {
					continue
				}
				if strictlyBetterColFlags(g.B, l, j, rowOrig) {
					colOrig[j] = 0
					aliveCols--
					changed = true
					break
				}
			}
		}
	}

	rows, cols = aliveRows, aliveCols
	// Compact survivors toward the top-left. In-place is safe because every
	// write lands at or before its read: ri <= i, cj <= j, cols <= nc.
	ri := 0
	for i := 0; i < nr; i++ {
		if rowOrig[i] == 0 {
			continue
		}
		cj := 0
		for j := 0; j < nc; j++ {
			if colOrig[j] == 0 {
				continue
			}
			g.A.Data[ri*cols+cj] = g.A.Data[i*nc+j]
			g.B.Data[ri*cols+cj] = g.B.Data[i*nc+j]
			cj++
		}
		ri++
	}
	// Rewrite the alive flags into index maps; writes trail reads here too.
	ri = 0
	for i, f := range rowOrig {
		if f != 0 {
			rowOrig[ri] = i
			ri++
		}
	}
	cj := 0
	for j, f := range colOrig {
		if f != 0 {
			colOrig[cj] = j
			cj++
		}
	}
	g.A.Rows, g.A.Cols, g.A.Data = rows, cols, g.A.Data[:rows*cols]
	g.B.Rows, g.B.Cols, g.B.Data = rows, cols, g.B.Data[:rows*cols]
	return rows, cols
}

// strictlyBetterRowFlags and strictlyBetterColFlags are the dominance test
// over the reduction's int-flag scratch: strict, with a 1e-12 tolerance —
// the same comparison the oracle's []bool variants make.
func strictlyBetterRowFlags(a *Matrix, k, i int, colAlive []int) bool {
	for j := 0; j < a.Cols; j++ {
		if colAlive[j] == 0 {
			continue
		}
		if a.At(k, j) <= a.At(i, j)+1e-12 {
			return false
		}
	}
	return true
}

func strictlyBetterColFlags(b *Matrix, l, j int, rowAlive []int) bool {
	for i := 0; i < b.Rows; i++ {
		if rowAlive[i] == 0 {
			continue
		}
		if b.At(i, l) <= b.At(i, j)+1e-12 {
			return false
		}
	}
	return true
}
