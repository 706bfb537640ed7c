package sched

import (
	"math/rand"

	"deep/internal/costmodel"
	"deep/internal/sim"
)

// Exclusive restricts every deployment to a single registry (the paper's
// "exclusively Docker Hub" and "exclusively regional registry" baselines);
// devices are still chosen energy-optimally via the same game as DEEP.
type Exclusive struct{ registry string }

// NewExclusive returns an exclusive-registry scheduler.
func NewExclusive(registry string) *Exclusive { return &Exclusive{registry: registry} }

// Name implements Scheduler.
func (s *Exclusive) Name() string { return "exclusive-" + s.registry }

// ScheduleModel implements Scheduler.
func (s *Exclusive) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	regID, regOK := model.RegistryID(s.registry)
	st := model.NewState()
	placement := make(sim.Placement, model.NumMicroservices())
	width := model.MaxStageWidth()
	cur := make([]costmodel.Option, width)
	optsBuf := make([][]costmodel.Option, width)

	for _, stage := range model.Stages() {
		// Iterate to a fixed point of best responses with the registry
		// pinned; within a stage co-assignments couple through contention.
		assigned := cur[:len(stage)]
		opts := optsBuf[:len(stage)]
		for k, ms := range stage {
			var filtered []costmodel.Option
			if regOK {
				for _, o := range model.Options(ms) {
					if o.Registry == regID {
						filtered = append(filtered, o)
					}
				}
			}
			if len(filtered) == 0 {
				return nil, infeasibleError{ms: model.MSName(ms)}
			}
			opts[k] = filtered
			assigned[k] = filtered[0]
		}
		bestResponse(st, stage, opts, assigned)
		for k, ms := range stage {
			placement[model.MSName(ms)] = model.Assignment(assigned[k])
			st.Commit(ms, assigned[k])
		}
	}
	return placement, nil
}

// GreedyEnergy assigns each microservice, in topological order, the
// (device, registry) pair minimizing its own estimated energy, ignoring
// same-stage contention — the myopic baseline DEEP's game improves on.
type GreedyEnergy struct{}

// NewGreedyEnergy returns the greedy baseline.
func NewGreedyEnergy() *GreedyEnergy { return &GreedyEnergy{} }

// Name implements Scheduler.
func (*GreedyEnergy) Name() string { return "greedy-energy" }

// ScheduleModel implements Scheduler.
func (*GreedyEnergy) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	return scheduleMyopic(model, (*costmodel.State).Energy)
}

// MinCompletionTime is a HEFT-flavored baseline minimizing each
// microservice's estimated completion time instead of energy.
type MinCompletionTime struct{}

// NewMinCompletionTime returns the completion-time baseline.
func NewMinCompletionTime() *MinCompletionTime { return &MinCompletionTime{} }

// Name implements Scheduler.
func (*MinCompletionTime) Name() string { return "min-ct" }

// ScheduleModel implements Scheduler.
func (*MinCompletionTime) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	return scheduleMyopic(model, (*costmodel.State).CompletionTime)
}

// scheduleMyopic places microservices in topological order, each at its own
// cost-minimal option under the given objective, ignoring stage contention.
func scheduleMyopic(model *costmodel.Model, objective func(*costmodel.State, int32, costmodel.Option, []int32, []costmodel.Option) float64) (sim.Placement, error) {
	order := model.Topo()
	st := model.NewState()
	placement := make(sim.Placement, len(order))
	for _, ms := range order {
		opts := model.Options(ms)
		if len(opts) == 0 {
			return nil, infeasibleError{ms: model.MSName(ms)}
		}
		best := opts[0]
		bestC := objective(st, ms, best, nil, nil)
		for _, o := range opts[1:] {
			if c := objective(st, ms, o, nil, nil); c < bestC {
				best, bestC = o, c
			}
		}
		placement[model.MSName(ms)] = model.Assignment(best)
		st.Commit(ms, best)
	}
	return placement, nil
}

// RoundRobin cycles microservices across devices in topological order and
// always deploys from the first registry — the naive load-spreading
// baseline.
type RoundRobin struct{}

// NewRoundRobin returns the round-robin baseline.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// ScheduleModel implements Scheduler.
func (*RoundRobin) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	order := model.Topo()
	st := model.NewState()
	placement := make(sim.Placement, len(order))
	next := 0
	for _, ms := range order {
		opts := model.Options(ms)
		if len(opts) == 0 {
			return nil, infeasibleError{ms: model.MSName(ms)}
		}
		// Rotate over the microservice's distinct feasible devices: the
		// device runs of its canonically ordered option row. Each device
		// deploys from the first registry that reaches it.
		devices := 0
		for k, o := range opts {
			if k == 0 || o.Device != opts[k-1].Device {
				devices++
			}
		}
		run := next % devices
		next++
		for k, o := range opts {
			if k > 0 && o.Device == opts[k-1].Device {
				continue
			}
			if run == 0 {
				placement[model.MSName(ms)] = model.Assignment(o)
				st.Commit(ms, o)
				break
			}
			run--
		}
	}
	return placement, nil
}

// Random picks uniformly among feasible assignments with a fixed seed.
type Random struct{ seed int64 }

// NewRandom returns the seeded random baseline.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Scheduler.
func (*Random) Name() string { return "random" }

// ScheduleModel implements Scheduler.
func (s *Random) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	order := model.Topo()
	rng := rand.New(rand.NewSource(s.seed))
	st := model.NewState()
	placement := make(sim.Placement, len(order))
	for _, ms := range order {
		opts := model.Options(ms)
		if len(opts) == 0 {
			return nil, infeasibleError{ms: model.MSName(ms)}
		}
		o := opts[rng.Intn(len(opts))]
		placement[model.MSName(ms)] = model.Assignment(o)
		st.Commit(ms, o)
	}
	return placement, nil
}
