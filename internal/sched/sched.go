// Package sched implements DEEP's scheduling layer: the Nash-game-based
// scheduler of the paper's Section III-E, which jointly picks the executing
// device sched(m_i) and the source registry regist(m_i) for every
// microservice to minimize total energy, plus the baselines the evaluation
// compares against (exclusively Docker Hub, exclusively regional, greedy,
// HEFT-like, round-robin, random).
//
// All schedulers run on the compiled, integer-indexed cost model of
// internal/costmodel: Schedule compiles the (app, cluster) pair and
// delegates to ScheduleModel, which works entirely in dense arrays — fleet
// workers cache compiled models per request fingerprint and skip the
// compilation step for repeated shapes.
package sched

import (
	"fmt"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
)

// Scheduler produces a placement — a (device, registry) assignment per
// microservice — for an application on a cluster.
type Scheduler interface {
	// Name identifies the scheduling method in reports.
	Name() string
	// Schedule computes the placement. Implementations must be
	// deterministic for a fixed input (randomized baselines take a seed at
	// construction).
	Schedule(app *dag.App, cluster *sim.Cluster) (sim.Placement, error)
}

// ModelScheduler is a Scheduler that can run directly on a pre-compiled
// cost model, skipping the per-request compilation step for repeated
// (app, cluster) shapes — the fleet's workers memoize compiled models per
// request fingerprint and take this path. Every scheduler in this package
// implements it; Schedule(app, cluster) is always equivalent to
// ScheduleModel(costmodel.Compile(app, cluster)).
type ModelScheduler interface {
	Scheduler
	// ScheduleModel computes the placement on a compiled model. The model
	// is read-only during the call and may be shared across sequential
	// calls (each call allocates its own scratch State).
	ScheduleModel(model *costmodel.Model) (sim.Placement, error)
}

// PassScheduler is a ModelScheduler that can additionally run on a
// caller-owned reusable Pass, writing the placement into the pass's scratch
// instead of allocating fresh state per call. A fleet worker keeps one Pass,
// retargets it at each request's model and takes this path, making repeated
// warm scheduling passes allocation-free (placement materialization aside).
type PassScheduler interface {
	ModelScheduler
	// ScheduleInto runs one pass over the Pass's model. Read the placement
	// back via Pass.Placement or Pass.AppendPlacement.
	ScheduleInto(p *Pass) error
}

// ErrInfeasible is wrapped by schedulers when a microservice has no feasible
// (device, registry) option.
type infeasibleError struct{ ms string }

func (e infeasibleError) Error() string {
	return fmt.Sprintf("sched: no feasible assignment for microservice %q", e.ms)
}

// All returns every scheduler the benchmark harness compares, with the given
// seed for the randomized baseline.
func All(seed int64) []Scheduler {
	return []Scheduler{
		NewDEEP(),
		NewExclusive("hub"),
		NewExclusive("regional"),
		NewGreedyEnergy(),
		NewMinCompletionTime(),
		NewRoundRobin(),
		NewRandom(seed),
	}
}
