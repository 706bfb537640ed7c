package sched

import (
	"testing"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/workload"
)

func TestDEEPReproducesTableIII(t *testing.T) {
	cluster := workload.Testbed()
	s := NewDEEP()
	for _, app := range workload.Apps() {
		got, err := Schedule(s, app, cluster)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		want := workload.PaperPlacement(app.Name)
		for name, w := range want {
			g, ok := got[name]
			if !ok {
				t.Errorf("%s: %s unplaced", app.Name, name)
				continue
			}
			if g != w {
				t.Errorf("%s: %s placed on %s/%s, paper reports %s/%s",
					app.Name, name, g.Device, g.Registry, w.Device, w.Registry)
			}
		}
	}
}

// deployable checks a placement the way a deploy does: by simulating it.
func deployable(app *dag.App, cluster *sim.Cluster, p sim.Placement) error {
	_, err := sim.Run(app, cluster, p, sim.Options{})
	return err
}

func TestDEEPPlacementIsFeasible(t *testing.T) {
	cluster := workload.Testbed()
	s := NewDEEP()
	for _, app := range workload.Apps() {
		p, err := Schedule(s, app, cluster)
		if err != nil {
			t.Fatal(err)
		}
		if err := deployable(app, cluster, p); err != nil {
			t.Errorf("%s: infeasible placement: %v", app.Name, err)
		}
	}
}

func TestAllSchedulersProduceFeasiblePlacements(t *testing.T) {
	cluster := workload.Testbed()
	for _, s := range All(1) {
		for _, app := range workload.Apps() {
			p, err := Schedule(s, app, cluster)
			if err != nil {
				t.Errorf("%s on %s: %v", s.Name(), app.Name, err)
				continue
			}
			if err := deployable(app, cluster, p); err != nil {
				t.Errorf("%s on %s: %v", s.Name(), app.Name, err)
			}
		}
	}
}

func TestExclusivePinsRegistry(t *testing.T) {
	cluster := workload.Testbed()
	for _, reg := range []string{"hub", "regional"} {
		s := NewExclusive(reg)
		for _, app := range workload.Apps() {
			p, err := Schedule(s, app, cluster)
			if err != nil {
				t.Fatal(err)
			}
			for name, a := range p {
				if a.Registry != reg {
					t.Errorf("%s: %s deployed from %s, want %s", s.Name(), name, a.Registry, reg)
				}
			}
		}
	}
}

// DEEP must beat (or tie) both exclusive methods on simulated energy — the
// Figure 3b ordering.
func TestDEEPBeatsExclusiveMethods(t *testing.T) {
	cluster := workload.Testbed()
	for _, app := range workload.Apps() {
		energies := map[string]float64{}
		for _, s := range []Scheduler{NewDEEP(), NewExclusive("hub"), NewExclusive("regional")} {
			p, err := Schedule(s, app, cluster)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(app, cluster, p, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			energies[s.Name()] = float64(res.TotalEnergy)
		}
		deep := energies["deep"]
		for name, e := range energies {
			if deep > e+1e-6 {
				t.Errorf("%s: deep %.1fJ exceeds %s %.1fJ", app.Name, deep, name, e)
			}
		}
		// The margins must be small (sub-2%%): the paper's core observation
		// is that the regional registry is competitive.
		for _, other := range []string{"exclusive-hub", "exclusive-regional"} {
			margin := (energies[other] - deep) / energies[other]
			if margin > 0.02 {
				t.Errorf("%s: margin vs %s = %.2f%%, expected sub-2%% (registry competitive)",
					app.Name, other, 100*margin)
			}
			if margin < 0 {
				t.Errorf("%s: deep worse than %s", app.Name, other)
			}
		}
	}
}

func TestDEEPBeatsOrMatchesGreedy(t *testing.T) {
	cluster := workload.Testbed()
	for _, app := range workload.Apps() {
		var deepE, greedyE float64
		for _, s := range []Scheduler{NewDEEP(), NewGreedyEnergy()} {
			p, err := Schedule(s, app, cluster)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(app, cluster, p, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() == "deep" {
				deepE = float64(res.TotalEnergy)
			} else {
				greedyE = float64(res.TotalEnergy)
			}
		}
		if deepE > greedyE*1.001 {
			t.Errorf("%s: deep %.1fJ worse than greedy %.1fJ", app.Name, deepE, greedyE)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cluster := workload.Testbed()
	app := workload.TextProcessing()
	p1, err := Schedule(NewRandom(7), app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Schedule(NewRandom(7), workload.TextProcessing(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range p1 {
		if p2[k] != v {
			t.Fatalf("seeded random differs at %s", k)
		}
	}
}

func TestRoundRobinSpreadsDevices(t *testing.T) {
	cluster := workload.Testbed()
	app := workload.VideoProcessing()
	p, err := Schedule(NewRoundRobin(), app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]int{}
	for _, a := range p {
		used[a.Device]++
	}
	if len(used) < 2 {
		t.Errorf("round robin used only %v", used)
	}
}

func TestSchedulerNames(t *testing.T) {
	want := map[string]bool{
		"deep": true, "exclusive-hub": true, "exclusive-regional": true,
		"greedy-energy": true, "min-ct": true, "round-robin": true, "random": true,
	}
	for _, s := range All(0) {
		if !want[s.Name()] {
			t.Errorf("unexpected scheduler %q", s.Name())
		}
		delete(want, s.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing schedulers: %v", want)
	}
}

// namedState is these tests' name→index front-end over costmodel.State: the
// pair is compiled once and every query translates microservice, device and
// registry names to the model's indices, so the estimator tests can ask the
// compiled cost model their questions in the paper's vocabulary. A name the
// model does not know fails the test.
type namedState struct {
	t     *testing.T
	model *costmodel.Model
	st    *costmodel.State
}

func newNamedState(t *testing.T, app *dag.App, cluster *sim.Cluster) *namedState {
	model := costmodel.Compile(app, cluster)
	return &namedState{t: t, model: model, st: model.NewState()}
}

func (q *namedState) ms(name string) int32 {
	q.t.Helper()
	id, ok := q.model.MSID(name)
	if !ok {
		q.t.Fatalf("microservice %q outside the compiled app", name)
	}
	return id
}

func (q *namedState) option(a sim.Assignment) costmodel.Option {
	q.t.Helper()
	o, ok := q.model.Intern(a)
	if !ok {
		q.t.Fatalf("assignment %s/%s outside the compiled cluster", a.Device, a.Registry)
	}
	return o
}

// co translates same-stage co-assignments into the parallel slices the state
// takes.
func (q *namedState) co(co map[string]sim.Assignment) (ms []int32, opts []costmodel.Option) {
	q.t.Helper()
	for name, a := range co {
		ms = append(ms, q.ms(name))
		opts = append(opts, q.option(a))
	}
	return ms, opts
}

// options lists the microservice's feasible assignments in the model's
// canonical order (device name, then registry name).
func (q *namedState) options(name string) []sim.Assignment {
	q.t.Helper()
	opts := q.model.Options(q.ms(name))
	out := make([]sim.Assignment, len(opts))
	for i, o := range opts {
		out[i] = q.model.Assignment(o)
	}
	return out
}

func (q *namedState) energy(name string, a sim.Assignment, co map[string]sim.Assignment) float64 {
	q.t.Helper()
	coMS, coOpt := q.co(co)
	return q.st.Energy(q.ms(name), q.option(a), coMS, coOpt)
}

func (q *namedState) completionTime(name string, a sim.Assignment, co map[string]sim.Assignment) float64 {
	q.t.Helper()
	coMS, coOpt := q.co(co)
	return q.st.CompletionTime(q.ms(name), q.option(a), coMS, coOpt)
}

func (q *namedState) commit(name string, a sim.Assignment) {
	q.t.Helper()
	q.st.Commit(q.ms(name), q.option(a))
}

func TestEstimatorOptionsDeterministic(t *testing.T) {
	est := newNamedState(t, workload.VideoProcessing(), workload.Testbed())
	o1 := est.options("video/transcode")
	o2 := est.options("video/transcode")
	if len(o1) != 4 {
		t.Fatalf("want 4 options (2 devices × 2 registries), got %d", len(o1))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("options not deterministic")
		}
	}
}

func TestEstimatorSharedContention(t *testing.T) {
	est := newNamedState(t, workload.VideoProcessing(), workload.Testbed())
	const m = "video/ha-train"
	solo := sim.Assignment{Device: "medium", Registry: "regional"}
	alone := est.energy(m, solo, nil)
	co := map[string]sim.Assignment{
		"video/la-train": {Device: "small", Registry: "regional"},
	}
	contended := est.energy(m, solo, co)
	if contended <= alone {
		t.Errorf("cross-device shared pulls should cost more: %v vs %v", contended, alone)
	}
	// Same-device co-pull does not split the uplink (pulls serialize).
	coSame := map[string]sim.Assignment{
		"video/la-train": {Device: "medium", Registry: "regional"},
	}
	sameDev := est.energy(m, solo, coSame)
	if sameDev != alone {
		t.Errorf("same-device pulls should not split capacity: %v vs %v", sameDev, alone)
	}
}

// The estimator's energy must track the simulator's within a small margin,
// since the games are only as good as their payoffs.
func TestEstimatorMatchesSimulator(t *testing.T) {
	cluster := workload.Testbed()
	for _, app := range workload.Apps() {
		p := workload.PaperPlacement(app.Name)
		res, err := sim.Run(app, cluster, p, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		est := newNamedState(t, app, cluster)
		stages := app.Stages()
		for _, stage := range stages {
			co := map[string]sim.Assignment{}
			for _, n := range stage {
				co[n] = p[n]
			}
			for _, n := range stage {
				predicted := est.energy(n, p[n], co)
				simRow, _ := res.ByName(n)
				actual := float64(simRow.TotalEnergy())
				if diff := abs(predicted-actual) / actual; diff > 0.02 {
					t.Errorf("%s/%s: estimator %.1fJ vs simulator %.1fJ (%.1f%%)",
						app.Name, n, predicted, actual, 100*diff)
				}
			}
			for _, n := range stage {
				est.commit(n, p[n])
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
