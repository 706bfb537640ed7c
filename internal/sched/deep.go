package sched

import (
	"fmt"
	"math"

	"deep/internal/costmodel"
	"deep/internal/game"
	"deep/internal/sim"
	"deep/internal/slab"
)

// DEEP is the paper's Nash-game-based scheduler. The application is
// processed stage by stage (between synchronization barriers). Within a
// stage:
//
//   - A lone microservice plays a two-player cooperation game against the
//     infrastructure: its strategies are the candidate devices, the
//     infrastructure's are the candidate registries, and both players'
//     payoff is the negated energy EC(m_i, r_g, d_j) — the
//     prisoner's-dilemma-style framing of Section III-E where cooperation
//     (joint energy minimization) is the desired equilibrium. The
//     welfare-maximal Nash equilibrium is selected.
//
//   - A pair of microservices (the HA/LA train and infer/score stages)
//     plays a two-player game whose strategies are full (device, registry)
//     assignments; the payoff coupling captures shared-registry contention.
//     The welfare-maximal pure equilibrium is chosen; one always exists
//     (pairStage.bestPure carries the proof), at any number of options.
//
//   - Larger stages run best-response dynamics, which settle in a few
//     sweeps on every shipped workload but carry no guarantee (SolverStats
//     counts the stages that did not).
//
// No stage builds a payoff matrix; each is solved from its price rows,
// batch-priced and allocation-free in steady state. A solo stage is one
// costmodel.State.EnergyRow call: its game is common-interest, so the
// equilibria are the options minimal on both their device and their
// registry, read straight from the row (soloEquilibrium). A pair stage costs
// O(|o1|+|o2|) option pricings, not O(|o1|·|o2|): the only coupling between
// two co-staged options is whether they divide one shared registry's uplink
// (costmodel.Contend), so every strategy has exactly two prices — contended
// or not — which one costmodel.State.EnergyRowPair call per player computes.
// Those four price rows are the whole game: pairStage.bestPure takes every
// best response from per-registry tables and sweeps the cells reading
// payoffs straight from the rows. That holds for two players only: in a
// stage of three or more the uplink can be divided three or more ways, the
// price depends on the whole profile, and those stages price rows against
// the current profile with EnergyRow. Every price row and table comes from
// the pass's GameArena; a reusable Pass makes repeated warm passes allocate
// nothing at all.
type DEEP struct{}

// DEEP supports the fleet's reusable-pass scheduling path.
var _ PassScheduler = (*DEEP)(nil)

// NewDEEP returns the Nash scheduler.
func NewDEEP() *DEEP { return &DEEP{} }

// Name implements Scheduler.
func (*DEEP) Name() string { return "deep" }

// ScheduleModel implements Scheduler.
func (s *DEEP) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	p := NewPass(model)
	if err := s.ScheduleInto(p); err != nil {
		return nil, err
	}
	return p.Placement(), nil
}

// Pass is the reusable scratch for repeated warm DEEP passes over one
// compiled model: the cost-model state (which owns the game arena), the
// per-stage option and assignment buffers, and the compiled placement of
// the last run. Reusing a Pass across ScheduleInto calls makes the whole
// scheduling pass — game layer included — allocation-free. Not safe for
// concurrent use.
type Pass struct {
	model  *costmodel.Model
	st     *costmodel.State
	cur    []costmodel.Option
	opts   [][]costmodel.Option
	placed []costmodel.Option
	solver SolverStats
}

// SolverStats counts how the stage games of one scheduling pass were
// solved. Exact and BestResponse partition the stages: Exact is the full
// game solved for its welfare-maximal equilibrium (every solo and pair
// stage), BestResponse a stage of three or more handed to the dynamics.
// NonConverged counts the BestResponse stages whose dynamics were still
// moving when the iteration budget ran out — their assignment is the last
// profile visited, not a fixed point.
type SolverStats struct {
	Exact, BestResponse int
	NonConverged        int
}

// Solver returns the last run's per-path stage-game counts.
func (p *Pass) Solver() SolverStats { return p.solver }

// NewPass allocates scratch sized for the model, including the game arena
// its price rows and tables come from. A caller scheduling a stream of
// models keeps one Pass and Retargets it, so the arena grows once, not once
// per model.
func NewPass(model *costmodel.Model) *Pass {
	p := &Pass{st: new(costmodel.State)}
	p.Retarget(model)
	return p
}

// Retarget points the pass at another model, growing its scratch where that
// model is larger, so one Pass can serve a stream of models that are each
// scheduled once. The last run's placement is discarded.
func (p *Pass) Retarget(model *costmodel.Model) {
	width := model.MaxStageWidth()
	p.model = model
	p.st.Retarget(model)
	p.cur = slab.Grow(p.cur, width)
	p.opts = slab.Grow(p.opts, width)
	p.placed = slab.Grow(p.placed, model.NumMicroservices())
}

// Placement materializes the last run's placement as a string-keyed map
// (this is the one allocating step of a warm pass).
func (p *Pass) Placement() sim.Placement {
	placement := make(sim.Placement, len(p.placed))
	for ms, o := range p.placed {
		placement[p.model.MSName(int32(ms))] = p.model.Assignment(o)
	}
	return placement
}

// AppendPlacement appends the last run's placement to parallel name and
// assignment slices, ascending by name (microservice ids ascend in name
// order) — the indexed form sim.Exec.RunIndexed and the fleet's placement
// views take, with no map in between.
func (p *Pass) AppendPlacement(names []string, assigns []sim.Assignment) ([]string, []sim.Assignment) {
	for ms, o := range p.placed {
		names = append(names, p.model.MSName(int32(ms)))
		assigns = append(assigns, p.model.Assignment(o))
	}
	return names, assigns
}

// ScheduleInto runs one scheduling pass over the pass's model, writing the
// compiled placement into the pass's scratch (read it back via Placement). On
// a reused Pass it does not allocate.
func (*DEEP) ScheduleInto(p *Pass) error {
	model, st := p.model, p.st
	stages, err := model.Stages()
	if err != nil {
		return err
	}
	st.Reset()
	p.solver = SolverStats{}
	for _, stage := range stages {
		assigned := p.cur[:len(stage)]
		opts := p.opts[:len(stage)]
		for k, ms := range stage {
			o := model.Options(ms)
			if len(o) == 0 {
				return infeasibleError{ms: model.MSName(ms)}
			}
			opts[k] = o
		}
		switch {
		case len(stage) == 1:
			assigned[0], err = scheduleSolo(model, st, stage[0])
			p.solver.Exact++
		case len(stage) == 2:
			assigned[0], assigned[1], err = schedulePair(model, st, stage[0], stage[1])
			p.solver.Exact++
		default:
			for k := range stage {
				assigned[k] = opts[k][0]
			}
			p.solver.BestResponse++
			if _, converged := bestResponse(st, stage, opts, assigned); !converged {
				p.solver.NonConverged++
			}
		}
		if err != nil {
			return err
		}
		for k, ms := range stage {
			p.placed[ms] = assigned[k]
			st.Commit(ms, assigned[k])
		}
	}
	return nil
}

// scheduleSolo solves the one-microservice device×registry cooperation game
// from its option row, priced by one EnergyRow call.
func scheduleSolo(model *costmodel.Model, st *costmodel.State, ms int32) (costmodel.Option, error) {
	opts := model.Options(ms)
	ar := st.Arena()
	ar.Reset()
	prices := ar.Floats(len(opts))
	st.EnergyRow(ms, opts, nil, nil, prices)
	k, ok := soloEquilibrium(opts, prices, model.NumRegistries(), ar)
	if !ok {
		return costmodel.Option{}, infeasibleError{ms: model.MSName(ms)}
	}
	return opts[k], nil
}

// soloEquilibrium returns the index of the solo game's welfare-maximal pure
// equilibrium, read from the option row without building the game. The game
// is a devices × registries matrix over the distinct devices and registries
// among opts, both ascending; both players are paid -prices[k] at option k's
// cell and -pen at every other cell, where pen is ten times the worst price
// (worst+1 when that is not larger), so a cell that is not an option is
// never better than a feasible one. The game is common-interest, so a cell is an
// equilibrium when neither its device's maximum nor its registry's maximum
// beats it by more than 1e-12. Maxima start at -Inf and move on a strict >,
// so NaN never becomes one and a NaN cell is always an equilibrium, as in
// the matrix scan (game.Game.BestPureNash).
//
// Registry maxima come from an nr-indexed arena row, device maxima from each
// device's run of the canonically ordered row. Both are taken over options
// only: -pen is at most every option's payoff but NaN, so a penalty cell
// never moves a maximum an option's payoff is in, and a line of NaN options
// decides the same at -Inf as at -pen. Equilibria are offered to
// game.PureSelection in canonical option order, which is the matrix's
// row-major order, so the tie-breaks are the matrix's. A penalty cell can be
// an equilibrium only on a device whose maximum is within 1e-12 of -pen
// (all-+Inf or NaN rows, or prices under about 1e-13 J), and only there is
// the whole registry axis walked. ok is false when a penalty cell wins or
// the row is empty: there is no feasible assignment.
func soloEquilibrium(opts []costmodel.Option, prices []float64, nr int, ar *game.Arena) (k int, ok bool) {
	worst := 0.0
	for _, c := range prices {
		if c > worst {
			worst = c
		}
	}
	pen := worst * 10
	if pen <= worst {
		pen = worst + 1
	}
	penalty := -pen

	ninf := math.Inf(-1)
	regMax, regOpts := ar.Floats(nr), ar.Ints(nr)
	for r := range regMax {
		regMax[r] = ninf
	}
	for k, o := range opts {
		regOpts[o.Registry]++
		if v := -prices[k]; v > regMax[o.Registry] {
			regMax[o.Registry] = v
		}
	}

	var sel game.PureSelection
	for start, end := 0, 0; start < len(opts); start = end {
		dev, devMax := opts[start].Device, ninf
		for end = start; end < len(opts) && opts[end].Device == dev; end++ {
			if v := -prices[end]; v > devMax {
				devMax = v
			}
		}
		if devMax > penalty+1e-12 {
			for k := start; k < end; k++ {
				if v := -prices[k]; unbeaten(v, devMax, regMax[opts[k].Registry]) {
					sel.Offer(game.PureProfile{Row: k}, v, v)
				}
			}
			continue
		}
		// Penalty cells may be equilibria here: walk the registry axis (the
		// registries with options), offering each in its place (Row -1 marks
		// one).
		k := start
		for r, n := range regOpts {
			switch {
			case n == 0:
			case k < end && opts[k].Registry == int32(r):
				if v := -prices[k]; unbeaten(v, devMax, regMax[r]) {
					sel.Offer(game.PureProfile{Row: k}, v, v)
				}
				k++
			case unbeaten(penalty, devMax, regMax[r]):
				sel.Offer(game.PureProfile{Row: -1}, penalty, penalty)
			}
		}
	}
	if !sel.OK || sel.Best.Row < 0 {
		return 0, false
	}
	return sel.Best.Row, true
}

// unbeaten reports whether payoff v is within 1e-12 of both maxima over the
// lines through its cell — the pure-equilibrium test of a common-interest
// game.
func unbeaten(v, rowMax, colMax float64) bool {
	return !(rowMax > v+1e-12 || colMax > v+1e-12)
}

// schedulePair solves the two-microservice game over full assignments: the
// welfare-maximal pure equilibrium, found from the stage's price rows by
// pairStage.bestPure. Such a stage always has one (bestPure's doc comment
// proves it), so the error is unreachable while the cost model keeps the
// proof's premise.
func schedulePair(model *costmodel.Model, st *costmodel.State, m1, m2 int32) (costmodel.Option, costmodel.Option, error) {
	ar := st.Arena()
	ar.Reset()
	ps := newPairStage(model, st, ar, m1, m2)
	i, j, ok := ps.bestPure(ar)
	if !ok {
		return costmodel.Option{}, costmodel.Option{}, fmt.Errorf("sched: pair stage (%q, %q) has no pure equilibrium",
			model.MSName(m1), model.MSName(m2))
	}
	return ps.o1[i], ps.o2[j], nil
}

// bestResponseBudget is the sweep budget of bestResponse.
const bestResponseBudget = 100

// bestResponse runs synchronous best-response dynamics over a stage until a
// fixed point or the iteration budget. opts holds each member's candidate
// options and cur its current assignment (parallel to stage); cur is
// updated in place and MUST start at opts[k][0] for every member. Each
// member's whole candidate row is priced by one EnergyRow call against the
// current profile — exact, because the contention scan skips the deciding
// microservice's own entry — with the price row and index scratch drawn
// from the state's arena. It returns the number of sweeps run and whether
// the last one moved nobody; converged=false means the budget ran out on a
// cycling game and cur is merely the last profile visited.
func bestResponse(st *costmodel.State, stage []int32, opts [][]costmodel.Option, cur []costmodel.Option) (iterations int, converged bool) {
	ar := st.Arena()
	ar.Reset()
	maxOpts := 0
	for _, o := range opts {
		if len(o) > maxOpts {
			maxOpts = len(o)
		}
	}
	prices := ar.Floats(maxOpts)
	curIdx := ar.Ints(len(stage)) // zeroed: cur[k] == opts[k][0]

	for iter := 1; iter <= bestResponseBudget; iter++ {
		changed := false
		for k, ms := range stage {
			row := prices[:len(opts[k])]
			st.EnergyRow(ms, opts[k], stage, cur, row)
			prev := curIdx[k]
			best, bestC := prev, row[prev]
			for x, c := range row {
				if c < bestC-1e-9 {
					best, bestC = x, c
				}
			}
			if best != prev {
				curIdx[k] = best
				cur[k] = opts[k][best]
				changed = true
			}
		}
		if !changed {
			return iter, true
		}
	}
	return bestResponseBudget, false
}
