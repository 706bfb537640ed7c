package sched

import (
	"math"

	"deep/internal/costmodel"
)

// pairStage is a two-microservice stage game in its two-price form. With one
// opponent an option's energy takes one of two values — whether or not the
// opponent's option Contends with it for a shared registry's uplink — so the
// option rows, each priced once at both levels (costmodel.State.EnergyRowPair),
// and the registries' shared-uplink flags are the whole game: cell (i, j)
// pays the row player -shared1[i] and the column player -shared2[j] when
// costmodel.Contend(regShared, o1[i], o2[j]), else -solo1[i] and -solo2[j].
// Both option rows are in canonical (device, registry) order with no
// repeats, as costmodel.Model.Options and costmodel.State.StageRows return
// them. Stages of three or more
// have no such form (the uplink can be split more than two ways) and never
// come here.
type pairStage struct {
	o1, o2         []costmodel.Option
	regShared      []bool
	solo1, shared1 []float64
	solo2, shared2 []float64
}

// newPairStage prices the (m1, m2) stage of the pass over the option rows
// o1 and o2, its four price rows drawn from ar.
func newPairStage(model *costmodel.Model, st *costmodel.State, ar *costmodel.GameArena, m1, m2 int32, o1, o2 []costmodel.Option) pairStage {
	ps := pairStage{o1: o1, o2: o2, regShared: model.Table().RegShared()}
	ps.solo1, ps.shared1 = ar.Floats(len(ps.o1)), ar.Floats(len(ps.o1))
	ps.solo2, ps.shared2 = ar.Floats(len(ps.o2)), ar.Floats(len(ps.o2))
	st.EnergyRowPair(m1, ps.o1, ps.solo1, ps.shared1)
	st.EnergyRowPair(m2, ps.o2, ps.solo2, ps.shared2)
	return ps
}

// bestPure returns the stage's welfare-maximal pure equilibrium without
// building its bimatrix (A the row player's payoffs, B the column player's):
// the cells (i, j) that no entry of A's column j and no entry of B's row i
// beats by more than 1e-12, offered to PureSelection in row-major order.
// Beating a threshold is monotone in the challenger, so "some entry does" is
// "the maximum does": bestReplies computes each column's maximum of A and
// each row's maximum of B (the best-response payoffs against that opponent
// option) from per-registry tables in O(|o1|+|o2|+registries), and the
// row-major sweep reads each cell's payoffs from Contend and the price rows.
// A row whose two prices are both more than 1e-12 below every column maximum
// can satisfy no column and is skipped whole, which is what makes the sweep
// cheap: on generated 16-microservice apps over 24 and 40 devices about 7 %
// of rows survive. Scratch comes from ar.
//
// ok is false only for a stage with no pure equilibrium, and the cost model
// produces none. Write c for an option's solo price and d for its contended
// one; EnergyRowPair gives c ≤ d on every option of both players whenever
// power draws are nonnegative (wire rejects negative ones). Under that
// premise and any contention relation:
//
//  1. A strategy whose c exceeds its player's smallest d is strictly
//     dominated by the strategy with that d, which costs at most that much
//     against anything. Drop every such strategy of both players at once.
//     The smallest-d strategies stay, so an equilibrium of what remains is
//     one of the whole game: a dropped strategy costs more than the kept
//     smallest-d one, which costs no less than the equilibrium's.
//  2. In what remains, every uncontended price is at most the player's
//     smallest d, so at most every contended price.
//  3. If no remaining profile is uncontended, each player pays its d whatever
//     the other does, and the two cheapest-d strategies are an equilibrium.
//  4. Otherwise let x₁ be the row player's cheapest-c strategy among those
//     with an uncontended partner, and y₁ the cheapest-c uncontended partner
//     of x₁. At (x₁, y₁) both pay c. A column deviation pays the c of an
//     uncontended partner of x₁, no less than y₁'s, or a d, no less than any
//     c (step 2). A row deviation pays the c of a strategy with an
//     uncontended partner (y₁), no less than x₁'s, or a d. Neither gains, so
//     (x₁, y₁) is an equilibrium.
//
// A NaN price (0 W times an unreachable transfer) is outside the ordering,
// but it hits both levels of its option, because the transfer term is the
// same at both. Nothing beats a NaN payoff, so that option paired
// with the opponent's best reply is an equilibrium. TestPairStagesAlwaysPure
// re-checks the claim exhaustively on a small grid, and
// TestPairPricesContendedNotBelowSolo checks the premise on the corpus.
func (ps *pairStage) bestPure(ar *costmodel.GameArena) (row, col int, ok bool) {
	match1, match2 := ar.Ints(len(ps.o1)), ar.Ints(len(ps.o2))
	matchOptions(ps.o1, ps.o2, match1, match2)
	colMax, rowMax := ar.Floats(len(ps.o2)), ar.Floats(len(ps.o1))
	bestReplies(colMax, ps.o1, ps.solo1, ps.shared1, ps.o2, match2, ps.regShared, ar)
	bestReplies(rowMax, ps.o2, ps.solo2, ps.shared2, ps.o1, match1, ps.regShared, ar)

	minCol := math.Inf(1)
	for _, v := range colMax {
		if v < minCol {
			minCol = v
		}
	}
	var sel PureSelection
	for i, x := range ps.o1 {
		aSolo, aShared := -ps.solo1[i], -ps.shared1[i]
		if minCol > aSolo+1e-12 && minCol > aShared+1e-12 {
			continue // false for a NaN price, which no column maximum beats
		}
		bMax := rowMax[i]
		for j, y := range ps.o2 {
			a, b := aSolo, -ps.solo2[j]
			if costmodel.Contend(ps.regShared, x, y) {
				a, b = aShared, -ps.shared2[j]
			}
			if colMax[j] > a+1e-12 || bMax > b+1e-12 {
				continue
			}
			sel.Offer(PureProfile{Row: i, Col: j}, a, b)
		}
	}
	return sel.Best.Row, sel.Best.Col, sel.OK
}

// matchOptions pairs up the options the two rows have in common: match1[i]
// is the index of o1[i] in o2 and match2[j] that of o2[j] in o1, or -1. Both
// rows are in canonical order, so one merge walk finds every pair.
func matchOptions(o1, o2 []costmodel.Option, match1, match2 []int) {
	for i := range match1 {
		match1[i] = -1
	}
	for j := range match2 {
		match2[j] = -1
	}
	for i, j := 0, 0; i < len(o1) && j < len(o2); {
		x, y := o1[i], o2[j]
		switch {
		case x == y:
			match1[i], match2[j] = j, i
			i++
			j++
		case x.Device < y.Device || (x.Device == y.Device && x.Registry < y.Registry):
			i++
		default:
			j++
		}
	}
}

// bestReplies writes into dst[k] the best payoff a player with options own,
// priced solo and shared, can reach against the opponent's option opp[k]:
// the maximum over own of -shared[x] where x Contends with opp[k] and
// -solo[x] elsewhere — a column maximum of A when own is the row player's, a
// row maximum of B when it is the column player's. oppMatch[k] is the index
// in own of opp[k] itself (matchOptions), or -1. Against an option on an
// unshared registry nothing contends, so the answer is the best solo payoff
// anywhere. Against one on a shared registry r the candidates are the best
// solo payoff outside r (the best registry's, or the runner-up's when r is
// the best), the best shared payoff inside r on another device (r's top
// two: options in one registry are on distinct devices), and the solo payoff
// of the option on the opponent's own (device, r). Maxima start at -Inf and
// move only on a strict >, so NaN never becomes one and never beats a cell,
// as in the per-cell definition, at any mix of NaN and ±Inf.
func bestReplies(dst []float64, own []costmodel.Option, solo, shared []float64, opp []costmodel.Option, oppMatch []int, regShared []bool, ar *costmodel.GameArena) {
	nr := len(regShared)
	soloBest, top, next := ar.Floats(nr), ar.Floats(nr), ar.Floats(nr)
	topDev := ar.Ints(nr)
	ninf := math.Inf(-1)
	for r := range soloBest {
		soloBest[r], top[r], next[r] = ninf, ninf, ninf
	}
	for k, x := range own {
		r := x.Registry
		if v := -solo[k]; v > soloBest[r] {
			soloBest[r] = v
		}
		if !regShared[r] {
			continue
		}
		switch v := -shared[k]; {
		case v > top[r]:
			next[r], top[r], topDev[r] = top[r], v, int(x.Device)
		case v > next[r]:
			next[r] = v
		}
	}
	first, second, firstReg := ninf, ninf, int32(-1)
	for r, v := range soloBest {
		switch {
		case v > first:
			second, first, firstReg = first, v, int32(r)
		case v > second:
			second = v
		}
	}

	for k, y := range opp {
		r := y.Registry
		if !regShared[r] {
			dst[k] = first
			continue
		}
		best := first
		if r == firstReg {
			best = second
		}
		in := top[r]
		if topDev[r] == int(y.Device) {
			in = next[r]
		}
		if in > best {
			best = in
		}
		if i := oppMatch[k]; i >= 0 {
			if v := -solo[i]; v > best {
				best = v
			}
		}
		dst[k] = best
	}
}
