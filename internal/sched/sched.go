// Package sched implements DEEP's scheduling layer: the Nash-game-based
// scheduler of the paper's Section III-E, which jointly picks the executing
// device sched(m_i) and the source registry regist(m_i) for every
// microservice to minimize total energy, plus the baselines the evaluation
// compares against (exclusively Docker Hub, exclusively regional, greedy,
// HEFT-like, round-robin, random).
//
// Every scheduler runs on the compiled, integer-indexed cost model of
// internal/costmodel, through one contract: ScheduleModel reads a model and
// works entirely in dense arrays. Fleet workers cache compiled models per
// (churn epoch, app) key and hand schedulers the cached model; callers holding
// an (app, cluster) pair go through the package function Schedule, which
// compiles the pair first.
package sched

import (
	"errors"
	"fmt"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
)

// Scheduler produces a placement — a (device, registry) assignment per
// microservice — from a compiled cost model. The model is the whole input:
// its tables are the cluster view (under churn, the epoch-patched ones), so
// a scheduler never sees hardware the model excludes.
type Scheduler interface {
	// Name identifies the scheduling method in reports.
	Name() string
	// ScheduleModel computes the placement. The model is read-only during
	// the call and may be shared across sequential calls (each call
	// allocates its own scratch State). Implementations must be
	// deterministic for a fixed input (randomized baselines take a seed at
	// construction).
	ScheduleModel(model *costmodel.Model) (sim.Placement, error)
}

// Schedule compiles app on cluster and runs s on the compiled model.
func Schedule(s Scheduler, app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	return s.ScheduleModel(costmodel.Compile(app, cluster))
}

// PassScheduler is a Scheduler that can additionally run on a caller-owned
// reusable Pass, writing the placement into the pass's scratch instead of
// allocating fresh state per call. A fleet worker keeps one Pass, retargets
// it at each request's model and takes this path, making repeated warm
// scheduling passes allocation-free (placement materialization aside).
type PassScheduler interface {
	Scheduler
	// ScheduleInto runs one pass over the Pass's model. Read the placement
	// back via Pass.Placement, Pass.AppendPlacement or Pass.Choices.
	ScheduleInto(p *Pass) error
}

// ErrInfeasible reports that some microservice has no feasible (device,
// registry) option: no device can run it, or none reachable from a
// registry the scheduler may use. Every scheduler's infeasibility error
// matches it under errors.Is.
var ErrInfeasible = errors.New("sched: no feasible assignment")

// infeasibleError names the microservice that left a placement infeasible.
type infeasibleError struct{ ms string }

func (e infeasibleError) Error() string {
	return fmt.Sprintf("%v for microservice %q", ErrInfeasible, e.ms)
}

func (infeasibleError) Unwrap() error { return ErrInfeasible }

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
