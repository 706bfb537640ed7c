// Package game holds what DEEP's stage solvers share: the one tie rule that
// chooses among pure Nash equilibria (PureSelection) and the bump-allocated
// scratch the solvers draw from (Arena). The solvers never build a payoff
// matrix — a stage's price rows are the whole game. Game, a two-player
// bimatrix in normal form with its pure-equilibrium scan, is the definition
// those matrix-free solvers are tested against. The package is a
// from-scratch replacement for the Nashpy library the paper used.
package game

import "math"

// PureProfile is a pure-strategy profile in index form: the row player's
// strategy and the column player's.
type PureProfile struct{ Row, Col int }

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
