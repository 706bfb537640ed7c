// Package core wires DEEP's components into the pipeline of the paper's
// Figure 1: microservice requirement analysis, dataflow dependency analysis,
// Nash-game-based scheduling, and dataflow processing, with a monitoring
// subsystem logging every step.
package core

import (
	"fmt"
	"sort"

	"deep/internal/dag"
	"deep/internal/monitor"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
)

// System is a configured DEEP instance bound to a cluster.
type System struct {
	Cluster   *sim.Cluster
	Scheduler sched.Scheduler
	Metrics   *monitor.Metrics
	// SimOptions configure the dataflow-processing runs.
	SimOptions sim.Options
}

// NewSystem returns a system using the Nash scheduler by default.
func NewSystem(cluster *sim.Cluster) *System {
	return &System{
		Cluster:   cluster,
		Scheduler: sched.NewDEEP(),
		Metrics:   monitor.NewMetrics(),
	}
}

// Deployment is the outcome of one end-to-end DEEP run.
type Deployment struct {
	App       string
	Placement sim.Placement
	Result    *sim.Result
}

// Deploy runs the full Figure 1 pipeline for one application.
func (s *System) Deploy(app *dag.App) (*Deployment, error) {
	// Requirement analysis: every microservice must fit at least one
	// device (validated inside scheduling), and the app must be a sound
	// DAG.
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("core: requirement analysis: %w", err)
	}
	s.Metrics.Log(0, "requirements-analyzed", map[string]string{"app": app.Name})

	// Dependency analysis: synchronization-barrier stages.
	stages, err := app.Stages()
	if err != nil {
		return nil, fmt.Errorf("core: dependency analysis: %w", err)
	}
	s.Metrics.SetGauge("stages_"+app.Name, float64(len(stages)))

	// Scheduling (the Nash game).
	placement, err := sched.Schedule(s.Scheduler, app, s.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling: %w", err)
	}
	for ms, a := range placement {
		s.Metrics.Log(0, "scheduled", map[string]string{"ms": ms, "device": a.Device, "registry": a.Registry})
	}

	// Dataflow processing.
	res, err := sim.Run(app, s.Cluster, placement, s.SimOptions)
	if err != nil {
		return nil, fmt.Errorf("core: dataflow processing: %w", err)
	}
	s.Metrics.Observe("makespan_s", res.Makespan)
	s.Metrics.Observe("energy_j", float64(res.TotalEnergy))
	for _, m := range res.Microservices {
		s.Metrics.Observe("ct_s", m.CT)
	}
	return &Deployment{App: app.Name, Placement: placement, Result: res}, nil
}

// MethodResult pairs a scheduling method with its simulated outcome.
type MethodResult struct {
	Method    string
	Placement sim.Placement
	Result    *sim.Result
}

// Compare runs several scheduling methods on the same application and
// cluster, returning results sorted by total energy (best first).
func (s *System) Compare(app *dag.App, schedulers []sched.Scheduler) ([]MethodResult, error) {
	var out []MethodResult
	for _, sc := range schedulers {
		p, err := sched.Schedule(sc, app, s.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", sc.Name(), err)
		}
		res, err := sim.Run(app, s.Cluster, p, s.SimOptions)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", sc.Name(), err)
		}
		out = append(out, MethodResult{Method: sc.Name(), Placement: p, Result: res})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Result.TotalEnergy < out[j].Result.TotalEnergy
	})
	return out, nil
}

// Distribution summarizes a placement as the paper's Table III does: the
// fraction of microservices on each (device, registry) pair.
type Distribution map[string]map[string]float64

// DistributionOf computes the per-(device, registry) fractions.
func DistributionOf(p sim.Placement) Distribution {
	d := make(Distribution)
	if len(p) == 0 {
		return d
	}
	frac := 1 / float64(len(p))
	for _, a := range p {
		if d[a.Device] == nil {
			d[a.Device] = make(map[string]float64)
		}
		d[a.Device][a.Registry] += frac
	}
	return d
}

// EnergySummary aggregates a result the way Figure 3 reports it.
type EnergySummary struct {
	Total   units.Joules
	PerMS   map[string]units.Joules
	Heavies []string // microservices above the mean, sorted by energy desc
}

// Summarize builds the Figure 3a view of a result.
func Summarize(res *sim.Result) EnergySummary {
	s := EnergySummary{Total: res.TotalEnergy, PerMS: make(map[string]units.Joules)}
	var mean float64
	for _, m := range res.Microservices {
		s.PerMS[m.Name] = m.TotalEnergy()
		mean += float64(m.TotalEnergy())
	}
	if len(res.Microservices) > 0 {
		mean /= float64(len(res.Microservices))
	}
	type pair struct {
		name string
		e    float64
	}
	var above []pair
	for n, e := range s.PerMS {
		if float64(e) > mean {
			above = append(above, pair{n, float64(e)})
		}
	}
	sort.Slice(above, func(i, j int) bool {
		if above[i].e != above[j].e {
			return above[i].e > above[j].e
		}
		return above[i].name < above[j].name
	})
	for _, p := range above {
		s.Heavies = append(s.Heavies, p.name)
	}
	return s
}
