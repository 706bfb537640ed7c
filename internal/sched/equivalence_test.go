package sched

// Equivalence corpus: the compiled cost model (internal/costmodel) replaced
// the original string-keyed estimator under every scheduler. This file
// keeps a faithful port of that original implementation — map-based
// co-assignments, linear option enumeration per call — and proves on a
// seeded corpus of case-study and synthetic applications over testbed and
// scaled clusters that
//
//  1. the estimator's Energy and CompletionTime are bit-identical, and
//  2. all seven schedulers emit byte-identical placements
//
// before vs. after the refactor. The one deliberate change kept here: the
// legacy best-response loop evaluates candidates in place with set/restore
// instead of cloning the whole stage assignment map per candidate (the
// contention scan skips the deciding microservice's own entry, so the clone
// never influenced a payoff).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/units"
	"deep/internal/workload"
)

// --- legacy estimator (pre-costmodel), verbatim semantics ----------------

type legacyEstimator struct {
	App     *dag.App
	Cluster *sim.Cluster
	Placed  sim.Placement
}

func newLegacyEstimator(app *dag.App, cluster *sim.Cluster) *legacyEstimator {
	return &legacyEstimator{App: app, Cluster: cluster, Placed: make(sim.Placement)}
}

func (e *legacyEstimator) Options(m *dag.Microservice) []sim.Assignment {
	var out []sim.Assignment
	for _, d := range e.Cluster.Devices {
		if d.CanRun(m) != nil {
			continue
		}
		for _, r := range e.Cluster.Registries {
			if _, ok := e.Cluster.Topology.LinkBetween(r.Node, d.Name); !ok {
				continue
			}
			out = append(out, sim.Assignment{Device: d.Name, Registry: r.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Registry < out[j].Registry
	})
	return out
}

type legacyBreakdown struct{ Td, Tc, Tp float64 }

func (e *legacyEstimator) estimate(m *dag.Microservice, a sim.Assignment, co map[string]sim.Assignment) legacyBreakdown {
	reg, _ := e.Cluster.Registry(a.Registry)
	dev := e.Cluster.Device(a.Device)

	var b legacyBreakdown
	link, ok := e.Cluster.Topology.LinkBetween(reg.Node, a.Device)
	if ok {
		bw := link.BW
		if reg.Shared {
			devs := map[string]bool{a.Device: true}
			for other, oa := range co {
				if other == m.Name {
					continue
				}
				if oa.Registry == a.Registry {
					devs[oa.Device] = true
				}
			}
			if n := len(devs); n > 1 {
				bw = link.BW / units.Bandwidth(n)
			}
		}
		b.Td = link.RTT + bw.Seconds(m.ImageSize)
	}

	for _, in := range inputsOf(e.App, m.Name) {
		fromDev := a.Device
		if pa, ok := e.Placed[in.From]; ok {
			fromDev = pa.Device
		}
		b.Tc += e.Cluster.Topology.TransferTime(fromDev, a.Device, in.Size)
	}
	if m.ExternalInput > 0 && e.Cluster.SourceNode != "" {
		b.Tc += e.Cluster.Topology.TransferTime(e.Cluster.SourceNode, a.Device, m.ExternalInput)
	}

	b.Tp = dev.ProcessingTime(m.Req.CPU)
	return b
}

func (e *legacyEstimator) Energy(m *dag.Microservice, a sim.Assignment, co map[string]sim.Assignment) units.Joules {
	b := e.estimate(m, a, co)
	dev := e.Cluster.Device(a.Device)
	pullW := dev.Power.Power("pulling", m.Name)
	recvW := dev.Power.Power("receiving", m.Name)
	procW := dev.Power.Power("processing", m.Name)
	return pullW.Over(b.Td) + recvW.Over(b.Tc) + procW.Over(b.Tp)
}

func (e *legacyEstimator) CompletionTime(m *dag.Microservice, a sim.Assignment, co map[string]sim.Assignment) float64 {
	b := e.estimate(m, a, co)
	return b.Td + b.Tc + b.Tp
}

func (e *legacyEstimator) Commit(name string, a sim.Assignment) { e.Placed[name] = a }

// --- legacy schedulers ---------------------------------------------------

type legacyScheduler struct {
	name     string
	schedule func(app *dag.App, cluster *sim.Cluster) (sim.Placement, error)
}

func legacyAll(t testing.TB, seed int64) []legacyScheduler {
	return []legacyScheduler{
		{"deep", func(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) { return legacyDEEP(t, app, cluster) }},
		{"exclusive-hub", legacyExclusive("hub")},
		{"exclusive-regional", legacyExclusive("regional")},
		{"greedy-energy", legacyMyopic(func(e *legacyEstimator, m *dag.Microservice, a sim.Assignment) float64 {
			return float64(e.Energy(m, a, nil))
		})},
		{"min-ct", legacyMyopic(func(e *legacyEstimator, m *dag.Microservice, a sim.Assignment) float64 {
			return e.CompletionTime(m, a, nil)
		})},
		{"round-robin", legacyRoundRobin},
		{"random", legacyRandom(seed)},
	}
}

// msByName is the app's microservice under a name, nil when there is none.
func msByName(app *dag.App, name string) *dag.Microservice {
	for _, m := range app.Microservices {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// inputsOf is the dataflows entering the named microservice.
func inputsOf(app *dag.App, name string) []dag.Dataflow {
	var in []dag.Dataflow
	for _, e := range app.Dataflows {
		if e.To == name {
			in = append(in, e)
		}
	}
	return in
}

// topoNames is the app's topological order by name.
func topoNames(app *dag.App) []string {
	var names []string
	for _, v := range app.Order().Topo {
		names = append(names, app.Microservices[v].Name)
	}
	return names
}

func legacyDEEP(t testing.TB, app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	placement, _, err := legacyDEEPStats(t, app, cluster)
	return placement, err
}

// legacyDEEPStats is legacyDEEP counting its stages the way SolverStats
// does: solo and pair stages exact, wider ones best response, and those
// whose dynamics ran out of sweeps non-converged.
func legacyDEEPStats(t testing.TB, app *dag.App, cluster *sim.Cluster) (sim.Placement, SolverStats, error) {
	stages := app.Stages()
	var err error
	var stats SolverStats
	est := newLegacyEstimator(app, cluster)
	placement := make(sim.Placement, len(app.Microservices))
	for _, stage := range stages {
		names := append([]string(nil), stage...)
		sort.Strings(names)
		var assigned map[string]sim.Assignment
		switch len(names) {
		case 1:
			assigned, err = legacySolo(est, msByName(app, names[0]))
			stats.Exact++
		case 2:
			assigned, err = legacyPair(t, est, msByName(app, names[0]), msByName(app, names[1]))
			stats.Exact++
		default:
			var converged bool
			assigned, converged, err = legacyBestResponse(est, app, names, nil)
			stats.BestResponse++
			if !converged {
				stats.NonConverged++
			}
		}
		if err != nil {
			return nil, stats, err
		}
		for name, a := range assigned {
			placement[name] = a
			est.Commit(name, a)
		}
	}
	return placement, stats, nil
}

// legacySolo is the original solo game: the devices × registries
// common-interest bimatrix over the microservice's options, every other
// cell paying ten times the worst price. It picks on cell payoffs
// (bestPureCells); the original took welfare as a mixed-strategy product,
// which is the same on finite payoffs (one-hot products are exact) and read
// 0·-Inf = NaN wherever a price was +Inf.
func legacySolo(est *legacyEstimator, m *dag.Microservice) (map[string]sim.Assignment, error) {
	opts := est.Options(m)
	if len(opts) == 0 {
		return nil, infeasibleError{ms: m.Name}
	}
	devices, registries := legacyAxes(opts)
	feasible := make(map[sim.Assignment]bool, len(opts))
	for _, o := range opts {
		feasible[o] = true
	}
	worst := 0.0
	costs := make(map[sim.Assignment]float64, len(opts))
	for _, o := range opts {
		c := float64(est.Energy(m, o, nil))
		costs[o] = c
		if c > worst {
			worst = c
		}
	}
	a := make([][]float64, len(devices))
	for i, d := range devices {
		a[i] = make([]float64, len(registries))
		for j, r := range registries {
			o := sim.Assignment{Device: d, Registry: r}
			c, ok := costs[o]
			if !ok || !feasible[o] {
				c = worst * 10
			}
			a[i][j] = -c
		}
	}
	best, ok := bestPureCells(a, a) // common interest: both players pay the energy
	if !ok {
		return nil, infeasibleError{ms: m.Name}
	}
	choice := sim.Assignment{Device: devices[best.Row], Registry: registries[best.Col]}
	if !feasible[choice] {
		return nil, infeasibleError{ms: m.Name}
	}
	return map[string]sim.Assignment{m.Name: choice}, nil
}

// legacyPair is the original pair game, priced cell by cell and picked on
// cell payoffs like legacySolo. Its fallback on a stage with no pure
// equilibrium was Lemke–Howson. No stage reaches it (pairStage.bestPure
// proves why), so reaching it fails the test.
func legacyPair(t testing.TB, est *legacyEstimator, m1, m2 *dag.Microservice) (map[string]sim.Assignment, error) {
	o1 := est.Options(m1)
	o2 := est.Options(m2)
	if len(o1) == 0 {
		return nil, infeasibleError{ms: m1.Name}
	}
	if len(o2) == 0 {
		return nil, infeasibleError{ms: m2.Name}
	}
	a, b := make([][]float64, len(o1)), make([][]float64, len(o1))
	for i, x := range o1 {
		a[i], b[i] = make([]float64, len(o2)), make([]float64, len(o2))
		for j, y := range o2 {
			co := map[string]sim.Assignment{m1.Name: x, m2.Name: y}
			a[i][j] = -float64(est.Energy(m1, x, co))
			b[i][j] = -float64(est.Energy(m2, y, co))
		}
	}
	if best, ok := bestPureCells(a, b); ok {
		return map[string]sim.Assignment{m1.Name: o1[best.Row], m2.Name: o2[best.Col]}, nil
	}
	t.Fatalf("legacy pair stage (%s, %s) has no pure equilibrium", m1.Name, m2.Name)
	return nil, nil
}

// legacyBestResponse runs the original synchronous best-response dynamics.
// Candidates are evaluated in place with set/restore — the satellite fix:
// the original cloned the whole co-assignment map per candidate, but the
// clone's only difference (the deciding microservice's own entry) is
// skipped by the contention scan, so the copy never changed a payoff.
// filter restricts each microservice's options (nil keeps all). converged
// is false when the sweep budget ran out with a member still moving.
func legacyBestResponse(est *legacyEstimator, app *dag.App, names []string, filter func(sim.Assignment) bool) (cur map[string]sim.Assignment, converged bool, err error) {
	cur = make(map[string]sim.Assignment, len(names))
	optsOf := make(map[string][]sim.Assignment, len(names))
	for _, n := range names {
		m := msByName(app, n)
		var opts []sim.Assignment
		for _, o := range est.Options(m) {
			if filter == nil || filter(o) {
				opts = append(opts, o)
			}
		}
		if len(opts) == 0 {
			return nil, false, infeasibleError{ms: n}
		}
		optsOf[n] = opts
		cur[n] = opts[0]
	}
	for iter := 0; iter < 100; iter++ {
		changed := false
		for _, n := range names {
			m := msByName(app, n)
			prev := cur[n]
			best := prev
			bestC := float64(est.Energy(m, best, cur))
			for _, o := range optsOf[n] {
				cur[n] = o // in place; restored below
				if c := float64(est.Energy(m, o, cur)); c < bestC-1e-9 {
					best, bestC = o, c
				}
			}
			cur[n] = best
			if best != prev {
				changed = true
			}
		}
		if !changed {
			return cur, true, nil
		}
	}
	return cur, false, nil
}

func legacyExclusive(registry string) func(*dag.App, *sim.Cluster) (sim.Placement, error) {
	return func(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
		stages := app.Stages()
		est := newLegacyEstimator(app, cluster)
		placement := make(sim.Placement, len(app.Microservices))
		for _, stage := range stages {
			names := append([]string(nil), stage...)
			sort.Strings(names)
			cur, _, err := legacyBestResponse(est, app, names, func(o sim.Assignment) bool {
				return o.Registry == registry
			})
			if err != nil {
				return nil, err
			}
			for n, a := range cur {
				placement[n] = a
				est.Commit(n, a)
			}
		}
		return placement, nil
	}
}

func legacyMyopic(cost func(*legacyEstimator, *dag.Microservice, sim.Assignment) float64) func(*dag.App, *sim.Cluster) (sim.Placement, error) {
	return func(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
		order := topoNames(app)
		est := newLegacyEstimator(app, cluster)
		placement := make(sim.Placement, len(order))
		for _, name := range order {
			m := msByName(app, name)
			opts := est.Options(m)
			if len(opts) == 0 {
				return nil, infeasibleError{ms: name}
			}
			best := opts[0]
			bestC := cost(est, m, best)
			for _, o := range opts[1:] {
				if c := cost(est, m, o); c < bestC {
					best, bestC = o, c
				}
			}
			placement[name] = best
			est.Commit(name, best)
		}
		return placement, nil
	}
}

func legacyRoundRobin(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	order := topoNames(app)
	est := newLegacyEstimator(app, cluster)
	placement := make(sim.Placement, len(order))
	next := 0
	for _, name := range order {
		m := msByName(app, name)
		opts := est.Options(m)
		if len(opts) == 0 {
			return nil, infeasibleError{ms: name}
		}
		devices, _ := legacyAxes(opts)
		dev := devices[next%len(devices)]
		next++
		for _, o := range opts {
			if o.Device == dev {
				placement[name] = o
				est.Commit(name, o)
				break
			}
		}
	}
	return placement, nil
}

func legacyRandom(seed int64) func(*dag.App, *sim.Cluster) (sim.Placement, error) {
	return func(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
		order := topoNames(app)
		rng := rand.New(rand.NewSource(seed))
		est := newLegacyEstimator(app, cluster)
		placement := make(sim.Placement, len(order))
		for _, name := range order {
			m := msByName(app, name)
			opts := est.Options(m)
			if len(opts) == 0 {
				return nil, infeasibleError{ms: name}
			}
			o := opts[rng.Intn(len(opts))]
			placement[name] = o
			est.Commit(name, o)
		}
		return placement, nil
	}
}

func legacyAxes(opts []sim.Assignment) (devices, registries []string) {
	dset := map[string]bool{}
	rset := map[string]bool{}
	for _, o := range opts {
		dset[o.Device] = true
		rset[o.Registry] = true
	}
	for d := range dset {
		devices = append(devices, d)
	}
	for r := range rset {
		registries = append(registries, r)
	}
	sort.Strings(devices)
	sort.Strings(registries)
	return devices, registries
}

// --- the corpus ----------------------------------------------------------

type corpusCase struct {
	name    string
	app     *dag.App
	cluster *sim.Cluster
	// tab, when set, is the cluster table the case's model compiles on: a
	// churn epoch's, patched from the whole cluster's table, with cluster
	// the view the legacy port schedules on. Nil compiles cluster's own.
	tab *topo.ClusterTable
}

// model compiles the case as the fleet does: over its own cluster table, or
// over the patched epoch table.
func (c corpusCase) model() *costmodel.Model {
	if c.tab == nil {
		return costmodel.Compile(c.app, c.cluster)
	}
	m, _ := costmodel.CompileShapeOn(appgraph.Compile(c.app), c.cluster, c.tab)
	return m
}

// scaledPower is a device's power model times k: at k = 0 every price is
// 0 and every stage game ties everywhere; at small k every price sits inside
// or at the edge of the selection's 1e-12 tie window.
type scaledPower struct {
	pm energy.PowerModel
	k  float64
}

func (p scaledPower) Power(state energy.State, ms string) units.Watts {
	return units.Watts(p.k) * p.pm.Power(state, ms)
}

// scalePower returns the cluster with every device's power model scaled by
// k. Devices are copied, so the workload's own are left alone.
func scalePower(c *sim.Cluster, k float64) *sim.Cluster {
	out := *c
	out.Devices = make([]*device.Device, len(c.Devices))
	for i, d := range c.Devices {
		cp := *d
		cp.Power = scaledPower{d.Power, k}
		out.Devices[i] = &cp
	}
	return &out
}

// churned takes the named device down the way the fleet's churn does: the
// legacy port sees the cluster without it, and the model compiles on the
// whole cluster's table patched to that view.
func churned(t *testing.T, base *sim.Cluster, down string) corpusCase {
	t.Helper()
	view := *base
	view.Devices = nil
	for _, d := range base.Devices {
		if d.Name != down {
			view.Devices = append(view.Devices, d)
		}
	}
	if len(view.Devices) == len(base.Devices) {
		t.Fatalf("no device %q to take down", down)
	}
	regs := make([]topo.Registry, len(base.Registries))
	for i, r := range base.Registries {
		regs[i] = topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared}
	}
	tab := sim.CompileClusterTable(base).Patch(topo.View{
		Devices: view.Devices, Registries: regs, Topology: base.Topology, SourceNode: base.SourceNode,
	}, topo.Delta{})
	return corpusCase{cluster: &view, tab: tab}
}

// equivalenceCorpus is the case-study apps and generated apps of 5, 9 and
// 13 microservices with stages up to 3 and 4 wide, on: the paper's testbed
// (no twins); ScaledTestbed(4) and ScaledTestbed(12), the front-door
// benchmark's cold_unique cluster (two twin classes); ScaledTestbed(4) with
// one device's hub link halved, so that device leaves its twins; and with a
// device down through topo.Patch; and ScaledTestbed(4) with every power
// model zeroed or scaled by 1e-17 to 1e-14, so every price ties or sits
// near the selection's 1e-12 window.
func equivalenceCorpus(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	perturbed := func() *sim.Cluster {
		c := workload.ScaledTestbed(4)
		if err := c.Topology.SetBandwidth(workload.HubNode, workload.MediumNode+"-01", workload.HubMediumBW/2); err != nil {
			t.Fatal(err)
		}
		return c
	}
	type onCluster struct {
		name string
		mk   func() corpusCase
	}
	clusters := []onCluster{
		{"testbed", func() corpusCase { return corpusCase{cluster: workload.Testbed()} }},
		{"scaled4", func() corpusCase { return corpusCase{cluster: workload.ScaledTestbed(4)} }},
		{"scaled24", func() corpusCase { return corpusCase{cluster: workload.ScaledTestbed(12)} }},
		{"scaled4-perturbed", func() corpusCase { return corpusCase{cluster: perturbed()} }},
		{"scaled4-down", func() corpusCase { return churned(t, workload.ScaledTestbed(4), workload.MediumNode+"-02") }},
	}
	for _, k := range []float64{0, 1e-17, 1e-16, 1e-15, 1e-14} {
		clusters = append(clusters, onCluster{fmt.Sprintf("scaled4-power%g", k), func() corpusCase {
			return corpusCase{cluster: scalePower(workload.ScaledTestbed(4), k)}
		}})
	}
	for _, cl := range clusters {
		on := func(name string, app *dag.App) corpusCase {
			c := cl.mk()
			c.name, c.app = name+"/"+cl.name, app
			return c
		}
		cases = append(cases, on("video", workload.VideoProcessing()), on("text", workload.TextProcessing()))
		for _, width := range []int{3, 4} { // stages wide enough to hit best-response
			for _, size := range []int{5, 9, 13} {
				for seed := int64(1); seed <= 2; seed++ {
					cfg := workload.DefaultGeneratorConfig(size, seed)
					cfg.StageWidth = width
					app, err := workload.Generate(cfg)
					if err != nil {
						t.Fatalf("generate size=%d seed=%d: %v", size, seed, err)
					}
					cases = append(cases, on(fmt.Sprintf("synthetic%d-%d-w%d", size, seed, width), app))
				}
			}
		}
	}
	return cases
}

// TestEquivalenceCorpusPlacements: every scheduler, on every corpus case,
// must produce a placement byte-identical to the legacy implementation's,
// and DEEP, which plays its stages over reduced rows, must count its stages
// as the legacy port's full-row games do.
func TestEquivalenceCorpusPlacements(t *testing.T) {
	const seed = 1
	stages, reduced := 0, 0
	for _, c := range equivalenceCorpus(t) {
		model := c.model()
		legacy := legacyAll(t, seed)
		for i, s := range All(seed) {
			ref := legacy[i]
			if ref.name != s.Name() {
				t.Fatalf("scheduler order mismatch: %s vs %s", ref.name, s.Name())
			}
			want, wantErr := ref.schedule(c.app, c.cluster)
			got, gotErr := s.ScheduleModel(model)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s/%s: error mismatch: legacy=%v new=%v", c.name, s.Name(), wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: placement size %d, legacy %d", c.name, s.Name(), len(got), len(want))
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || g != w {
					t.Errorf("%s/%s: %s placed on %s/%s, legacy %s/%s",
						c.name, s.Name(), name, g.Device, g.Registry, w.Device, w.Registry)
				}
			}
		}
		_, wantStats, err := legacyDEEPStats(t, c.app, c.cluster)
		p := NewPass(model)
		if gotErr := NewDEEP().ScheduleInto(p); (err == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: legacy=%v new=%v", c.name, err, gotErr)
		}
		if got := p.Solver(); err == nil && got != wantStats {
			t.Errorf("%s: solver stats %+v, legacy %+v", c.name, got, wantStats)
		}
		if err == nil {
			s, r := reducedStages(model, p.placed)
			stages, reduced = stages+s, reduced+r
		}
	}
	// Most stages on the scaled clusters must have dropped twins, or the
	// pin says nothing about the reduction.
	if reduced < stages/2 {
		t.Fatalf("%d of %d stages played over reduced rows; the corpus must exercise the reduction", reduced, stages)
	}
	t.Logf("%d of %d stages played over reduced rows", reduced, stages)
}

// reducedStages replays the pass's stage rows against its placement and
// counts the stages, and those in which some member's row dropped a twin.
func reducedStages(model *costmodel.Model, placed []costmodel.Option) (stages, reduced int) {
	st := model.NewState()
	for _, stage := range model.Stages() {
		rows := make([][]costmodel.Option, len(stage))
		var buf []costmodel.Option
		for _, ms := range stage {
			buf = append(buf, model.Options(ms)...)
		}
		st.StageRows(stage, rows, buf)
		stages++
		for k, ms := range stage {
			if len(rows[k]) < len(model.Options(ms)) {
				reduced++
				break
			}
		}
		for _, ms := range stage {
			st.Commit(ms, placed[ms])
		}
	}
	return stages, reduced
}

// TestEquivalenceCorpusEstimator: Energy and CompletionTime must be
// bit-identical to the legacy estimator for every option — solo, under full
// stage co-assignment, and with earlier stages committed.
func TestEquivalenceCorpusEstimator(t *testing.T) {
	for _, c := range equivalenceCorpus(t) {
		ref := newLegacyEstimator(c.app, c.cluster)
		est := newNamedState(t, c.app, c.cluster)
		stages := c.app.Stages()
		placement, err := legacyDEEP(t, c.app, c.cluster)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, stage := range stages {
			co := make(map[string]sim.Assignment, len(stage))
			for _, n := range stage {
				co[n] = placement[n]
			}
			for _, n := range stage {
				m := msByName(c.app, n)
				refOpts := ref.Options(m)
				gotOpts := est.options(n)
				if len(refOpts) != len(gotOpts) {
					t.Fatalf("%s/%s: %d options, legacy %d", c.name, n, len(gotOpts), len(refOpts))
				}
				for i, o := range refOpts {
					if gotOpts[i] != o {
						t.Fatalf("%s/%s: option %d = %v, legacy %v", c.name, n, i, gotOpts[i], o)
					}
					if w, g := float64(ref.Energy(m, o, nil)), est.energy(n, o, nil); w != g {
						t.Errorf("%s/%s/%v: solo energy %v, legacy %v", c.name, n, o, g, w)
					}
					if w, g := float64(ref.Energy(m, o, co)), est.energy(n, o, co); w != g {
						t.Errorf("%s/%s/%v: staged energy %v, legacy %v", c.name, n, o, g, w)
					}
					if w, g := ref.CompletionTime(m, o, co), est.completionTime(n, o, co); w != g {
						t.Errorf("%s/%s/%v: CT %v, legacy %v", c.name, n, o, g, w)
					}
				}
			}
			for _, n := range stage {
				ref.Commit(n, placement[n])
				est.commit(n, placement[n])
			}
		}
	}
}
