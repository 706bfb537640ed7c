package sched

import (
	"deep/internal/costmodel"
	"deep/internal/dag"
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
//     plays a bimatrix game whose strategies are full (device, registry)
//     assignments; the payoff coupling captures shared-registry contention.
//     The welfare-maximal pure equilibrium is chosen. Pair stages larger
//     than MaxPairCells cells go to best-response dynamics over the same
//     payoffs instead, reaching *an* equilibrium, not the welfare-maximal
//     one, and only when they converge.
//
//   - Larger stages run best-response dynamics, which settle in a few
//     sweeps on every shipped workload but carry no guarantee (SolverStats
//     counts the stages that did not).
//
// The game layer is batch-priced and allocation-free in steady state. A
// pair stage costs O(|o1|+|o2|) option pricings, not O(|o1|·|o2|): the only
// coupling between two co-staged options is whether they divide one shared
// registry's uplink (costmodel.Contend), so every strategy has exactly two
// prices — contended or not — which one costmodel.State.EnergyRowPair call
// per player computes. Those four price rows are the whole game, and the
// pure path builds no bimatrix: pairStage.bestPure takes every best response
// from per-registry tables and sweeps the cells reading payoffs straight
// from the rows (the matrix is materialized only for Lemke–Howson, on a
// stage with no pure equilibrium). That holds for two players only: in a
// stage of three or more the uplink can be divided three or more ways, the
// price depends on the whole profile, and those stages (and the solo game)
// price rows against the current profile with costmodel.State.EnergyRow.
// Every price row, matrix, and mask comes from the pass's GameArena; a
// reusable Pass makes repeated warm passes allocate nothing at all.
type DEEP struct {
	// MaxPairCells is where exactness is traded for speed: a
	// two-microservice stage of at most this many cells (|o1|·|o2|) is
	// solved exactly, a larger one by best-response dynamics. Zero means
	// uncapped (always play the full pair game — the historical behavior);
	// NewDEEP sets DefaultMaxPairCells; the fleet's degraded rung sets 1,
	// sending every pair stage to the dynamics.
	MaxPairCells int
}

// DefaultMaxPairCells is the pair-game cap NewDEEP installs: pair stages of
// up to 90 options a side are solved exactly, larger ones by the dynamics.
// The exact pure path builds no bimatrix — per-registry best responses, then
// a cell sweep that skips every row no column's best response lets through —
// and the dynamics are O(options) per sweep, so the line is a price, not a
// feasibility limit, and no longer a large one. A whole 16-microservice pass
// on a reused Pass, exact against forced best response (MaxPairCells 1),
// medians of five runs on a 2-vCPU host: 19 vs 15 µs at 48 options per
// microservice (ScaledTestbed(12)), 32 vs 25 µs at 80 (ScaledTestbed(20)),
// 93 vs 70 µs at 200 (ScaledTestbed(50), uncapped). The cap keeps every
// stage up to 80 options a side exact and leaves the 10k-cell-and-up stages
// of the largest scaled clusters on the dynamics; whether it is still worth
// having is a question of behaviour (the dynamics find *an* equilibrium,
// the exact path the welfare-maximal one), not of speed.
const DefaultMaxPairCells = 8192

// DEEP supports the fleet's reusable-pass scheduling path.
var _ PassScheduler = (*DEEP)(nil)

// NewDEEP returns the Nash scheduler with the default pair-game cap.
func NewDEEP() *DEEP { return &DEEP{MaxPairCells: DefaultMaxPairCells} }

// NewDEEPUncapped returns the Nash scheduler with the pair-game cap
// disabled: every two-microservice stage is solved exactly regardless of
// size.
func NewDEEPUncapped() *DEEP { return &DEEP{} }

// Name implements Scheduler.
func (*DEEP) Name() string { return "deep" }

// Schedule implements Scheduler.
func (s *DEEP) Schedule(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	return s.ScheduleModel(costmodel.Compile(app, cluster))
}

// ScheduleModel implements ModelScheduler.
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
// game solved for its welfare-maximal equilibrium (every solo stage, and
// pair stages within MaxPairCells), BestResponse a stage handed to the
// dynamics (wide stages and over-cap pairs). NonConverged counts the
// BestResponse stages whose dynamics were still moving when the iteration
// budget ran out — their assignment is the last profile visited, not a
// fixed point.
type SolverStats struct {
	Exact, BestResponse int
	NonConverged        int
}

// Solver returns the last run's per-path stage-game counts.
func (p *Pass) Solver() SolverStats { return p.solver }

// NewPass allocates scratch sized for the model, including the game arena
// its price rows and matrices come from. A caller scheduling a stream of
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
func (s *DEEP) ScheduleInto(p *Pass) error {
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
		case len(stage) == 2 && (s.MaxPairCells <= 0 || len(opts[0])*len(opts[1]) <= s.MaxPairCells):
			assigned[0], assigned[1], err = schedulePair(model, st, stage[0], stage[1])
			p.solver.Exact++
		default:
			// Wide stages, and pair stages on the far side of the
			// speed/exactness line MaxPairCells draws, go to best-response
			// dynamics.
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

// scheduleSolo solves the one-microservice device×registry cooperation game.
// The whole option row is priced by one EnergyRow call and scattered into
// the arena-backed payoff matrix via the model's precomputed solo cells.
func scheduleSolo(model *costmodel.Model, st *costmodel.State, ms int32) (costmodel.Option, error) {
	opts := model.Options(ms)
	// Distinct devices become row strategies, registries column strategies.
	devices, registries := model.SoloAxes(ms)
	cells := model.SoloCells(ms)
	nr := len(registries)
	ar := st.Arena()
	ar.Reset()

	prices := ar.Floats(len(opts))
	st.EnergyRow(ms, opts, nil, nil, prices)
	g := game.NewFromArena(ar, len(devices), nr)
	feasible := ar.Mask(len(devices) * nr)
	worst := 0.0
	for k := range opts {
		c := prices[k]
		g.A.Data[cells[k]] = -c
		feasible.Set(int(cells[k]))
		if c > worst {
			worst = c
		}
	}
	// Infeasible (link-broken) cells get a penalty strictly worse than every
	// feasible entry. worst*10 preserves the historical payoffs whenever
	// worst > 0; when every feasible cost is 0 it would tie infeasible cells
	// with feasible ones, so fall back to worst+1.
	pen := worst * 10
	if pen <= worst {
		pen = worst + 1
	}
	for c := range g.A.Data {
		if !feasible.Has(c) {
			g.A.Data[c] = -pen
		}
	}
	copy(g.B.Data, g.A.Data) // common-interest game: both players pay the energy

	best, ok := g.BestPureNash()
	if !ok {
		// A common-interest game always has a pure equilibrium at its
		// argmax; reaching here means the matrix was empty.
		return costmodel.Option{}, infeasibleError{ms: model.MSName(ms)}
	}
	if !feasible.Has(best.Row*nr + best.Col) {
		return costmodel.Option{}, infeasibleError{ms: model.MSName(ms)}
	}
	return costmodel.Option{Device: devices[best.Row], Registry: registries[best.Col]}, nil
}

// schedulePair solves the two-microservice game over full assignments: the
// welfare-maximal pure equilibrium, found from the stage's price rows
// (pairStage.bestPure), or — when the game has none — a Lemke–Howson
// equilibrium of the materialized bimatrix rounded to each player's
// likeliest strategy.
func schedulePair(model *costmodel.Model, st *costmodel.State, m1, m2 int32) (costmodel.Option, costmodel.Option, error) {
	ar := st.Arena()
	ar.Reset()
	ps := newPairStage(model, st, ar, m1, m2)

	// Prefer pure equilibria (deployable directly); among them take the
	// welfare-maximal one, i.e. minimum combined energy.
	if i, j, ok := ps.bestPure(ar); ok {
		return ps.o1[i], ps.o2[j], nil
	}
	// Degenerate case: take any equilibrium and round each player to the
	// highest-probability strategy.
	g := game.NewFromArena(ar, len(ps.o1), len(ps.o2))
	pricePairGame(&ps, g)
	p, err := g.LemkeHowsonAny()
	if err != nil {
		return costmodel.Option{}, costmodel.Option{}, err
	}
	return ps.o1[argmax(p.Row)], ps.o2[argmax(p.Col)], nil
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

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
