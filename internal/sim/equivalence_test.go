package sim_test

// Equivalence corpus for the compiled simulator: legacyRun is a direct port
// of the historical map-based executor (string-keyed maps, per-stage sorts,
// per-device meter accounting, fmt-hashed jitter), kept here as the reference
// implementation. Every scenario — case-study and synthetic apps, scaled
// clusters, layered images with shared digests, shared-registry contention,
// jitter on and off, cold and warm cache sequences — must produce
// bit-identical Results (exact float equality, not tolerances) from the
// compiled Plan/Exec path, from the sim.Run wrapper, and from a reused Exec.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// legacyJitterer is the historical fmt.Fprintf-based jitter hash.
type legacyJitterer struct {
	seed  int64
	width float64
	app   string
}

func (j legacyJitterer) factor(ms, phase string) float64 {
	if j.width == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s", j.seed, j.app, ms, phase)
	u := float64(h.Sum64()%1_000_003) / 1_000_003.0
	return 1 - j.width + 2*j.width*u
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

// legacyValidate is the pre-compilation placement check (the deleted
// Cluster.Validate), ported verbatim: the walk order and errors every
// compiled form of placement keeps.
func legacyValidate(c *sim.Cluster, app *dag.App, p sim.Placement) error {
	for _, m := range app.Microservices {
		a, ok := p[m.Name]
		if !ok {
			return fmt.Errorf("sim: placement missing microservice %q", m.Name)
		}
		d := c.Device(a.Device)
		if d == nil {
			return fmt.Errorf("sim: placement of %q names unknown device %q", m.Name, a.Device)
		}
		if _, ok := c.Registry(a.Registry); !ok {
			return fmt.Errorf("sim: placement of %q names unknown registry %q", m.Name, a.Registry)
		}
		if err := d.CanRun(m); err != nil {
			return fmt.Errorf("sim: infeasible placement: %w", err)
		}
	}
	return nil
}

// legacyRun is the pre-compilation executor, ported verbatim; msByName and
// inputsOf stand in for its two name lookups.
func legacyRun(app *dag.App, cluster *sim.Cluster, placement sim.Placement, opts sim.Options) (*sim.Result, error) {
	if err := legacyValidate(cluster, app, placement); err != nil {
		return nil, err
	}
	stages := app.Stages()
	if !opts.WarmCaches {
		for _, d := range cluster.Devices {
			d.Cache().Flush()
		}
	}

	// The legacy per-device meter: each interval's energy is priced on its
	// own and added to the device's total; a negative duration is an error.
	meters := make(map[string]units.Joules, len(cluster.Devices))
	for _, d := range cluster.Devices {
		meters[d.Name] = 0
	}
	record := func(dev *device.Device, seconds float64, state energy.State, ms string) error {
		if seconds < 0 {
			return fmt.Errorf("energy: negative duration %v", seconds)
		}
		meters[dev.Name] += dev.Power.Power(state, ms).Over(seconds)
		return nil
	}
	jit := legacyJitterer{seed: opts.Seed, width: opts.Jitter, app: app.Name}

	results := make(map[string]*sim.MicroserviceResult, len(app.Microservices))
	finishOf := make(map[string]float64, len(app.Microservices))
	deviceFree := make(map[string]float64)
	bytesFromRegistry := make(map[string]units.Bytes)

	barrier := 0.0
	for _, stage := range stages {
		type pull struct {
			ms      string
			reg     sim.RegistryInfo
			devName string
			missing units.Bytes
			td      float64
			start   float64
			done    float64
		}
		order := append([]string(nil), stage...)
		sort.Strings(order)
		pulls := make(map[string]*pull, len(order))
		devsPulling := make(map[string]map[string]bool)
		for _, name := range order {
			m := msByName(app, name)
			a := placement[name]
			reg, _ := cluster.Registry(a.Registry)
			dev := cluster.Device(a.Device)
			var missing units.Bytes
			for _, layer := range cluster.LayersOf(m) {
				if !dev.Cache().Has(layer.Digest) {
					missing += layer.Size
					dev.Cache().Put(layer.Digest, layer.Size)
				}
			}
			pulls[name] = &pull{ms: name, reg: reg, devName: a.Device, missing: missing}
			if missing > 0 {
				if devsPulling[reg.Name] == nil {
					devsPulling[reg.Name] = make(map[string]bool)
				}
				devsPulling[reg.Name][a.Device] = true
			}
		}
		pullEnd := make(map[string]float64)
		for _, name := range order {
			p := pulls[name]
			if p.missing == 0 {
				p.start, p.done, p.td = barrier, barrier, 0
				continue
			}
			link, ok := cluster.Topology.LinkBetween(p.reg.Node, p.devName)
			if !ok {
				return nil, fmt.Errorf("sim: no route from registry %s to device %s", p.reg.Name, p.devName)
			}
			bw := link.BW
			if p.reg.Shared {
				if n := len(devsPulling[p.reg.Name]); n > 1 {
					bw = link.BW / units.Bandwidth(n)
				}
			}
			p.td = (link.RTT + bw.Seconds(p.missing)) * jit.factor(name, "deploy")
			p.start = barrier
			if pullEnd[p.devName] > p.start {
				p.start = pullEnd[p.devName]
			}
			p.done = p.start + p.td
			pullEnd[p.devName] = p.done
		}

		for _, name := range order {
			m := msByName(app, name)
			a := placement[name]
			dev := cluster.Device(a.Device)
			p := pulls[name]
			td := p.td

			tc := 0.0
			for _, e := range inputsOf(app, name) {
				fromDev := placement[e.From].Device
				tc += cluster.Topology.TransferTime(fromDev, a.Device, e.Size)
			}
			if m.ExternalInput > 0 && cluster.SourceNode != "" {
				tc += cluster.Topology.TransferTime(cluster.SourceNode, a.Device, m.ExternalInput)
			}
			tc *= jit.factor(name, "transfer")

			tp := dev.ProcessingTime(m.Req.CPU) * jit.factor(name, "process")

			readyAt := p.done + tc
			startProc := readyAt
			if deviceFree[a.Device] > startProc {
				startProc = deviceFree[a.Device]
			}
			wait := (p.start - barrier) + (startProc - readyAt)
			finish := startProc + tp
			deviceFree[a.Device] = finish
			finishOf[name] = finish

			idleW := dev.Power.Power(energy.Idle, "")
			pullW := dev.Power.Power(energy.Pulling, name)
			recvW := dev.Power.Power(energy.Receiving, name)
			procW := dev.Power.Power(energy.Processing, name)
			if err := record(dev, td, energy.Pulling, name); err != nil {
				return nil, err
			}
			if err := record(dev, tc, energy.Receiving, name); err != nil {
				return nil, err
			}
			if err := record(dev, tp, energy.Processing, name); err != nil {
				return nil, err
			}
			ct := td + tc + tp
			active := (pullW - idleW).Over(td) + (recvW - idleW).Over(tc) + (procW - idleW).Over(tp)
			static := idleW.Over(ct)

			bytesFromRegistry[a.Registry] += p.missing
			results[name] = &sim.MicroserviceResult{
				Name: name, Device: a.Device, Registry: a.Registry,
				DeployTime: td, TransferTime: tc, ProcessTime: tp,
				WaitTime: wait, CT: ct,
				Start: barrier, Finish: finish,
				Energy: active, StaticShare: static,
				BytesPulled: p.missing, CacheHit: p.missing == 0,
			}
		}

		for _, name := range stage {
			if finishOf[name] > barrier {
				barrier = finishOf[name]
			}
		}
	}

	res := &sim.Result{
		App:               app.Name,
		Makespan:          barrier,
		EnergyByDevice:    make(map[string]units.Joules),
		BytesFromRegistry: bytesFromRegistry,
	}
	for _, v := range app.Order().Topo {
		r := results[app.Microservices[v].Name]
		res.Microservices = append(res.Microservices, *r)
		res.TotalEnergy += r.TotalEnergy()
	}
	for name, total := range meters {
		res.EnergyByDevice[name] = total
	}
	return res, nil
}

// corpusCase is one (app, cluster constructor, placement) scenario.
type corpusCase struct {
	name    string
	app     *dag.App
	cluster func() *sim.Cluster
	place   func(*dag.App, *sim.Cluster) (sim.Placement, error)
}

func deepPlace(app *dag.App, c *sim.Cluster) (sim.Placement, error) {
	return sched.Schedule(sched.NewDEEP(), app, c)
}

// layeredTestbed is the calibrated testbed with every case-study image
// decomposed into layers sharing a common base digest, exercising
// cache-aware pulls and cross-microservice layer reuse.
func layeredTestbed() *sim.Cluster {
	c := workload.Testbed()
	c.Layers = map[string][]sim.Layer{}
	for _, app := range workload.Apps() {
		for _, m := range app.Microservices {
			base := m.ImageSize / 3
			c.Layers[m.Name] = []sim.Layer{
				{Digest: "base-common", Size: base},
				{Digest: "top-" + m.Name, Size: m.ImageSize - base},
			}
		}
	}
	return c
}

// tightTestbed is the calibrated testbed with the small device's storage cut
// to 5.2 GB: just above what text/ha-train needs on its own, below what the
// text case study's paper placement pulls onto it. The small device's
// microservices share layers, and text/la-score reuses text/ha-train's top
// layer, which LRU eviction has dropped by then, so eviction order decides
// the bytes a run pulls (TestTightTestbedRepulls pins that).
func tightTestbed() *sim.Cluster {
	c := workload.Testbed()
	for i, d := range c.Devices {
		if d.Name == workload.SmallNode {
			c.Devices[i] = device.New(d.Name, d.Arch, d.Cores, d.Speed, d.Memory, 5200*units.MB, d.Power)
		}
	}
	base := sim.Layer{Digest: "base", Size: 1000 * units.MB}
	train := sim.Layer{Digest: "train", Size: 1500 * units.MB}
	score := sim.Layer{Digest: "score", Size: 1500 * units.MB}
	top := func(ms string, size units.Bytes) sim.Layer { return sim.Layer{Digest: "top-" + ms, Size: size} }
	c.Layers = map[string][]sim.Layer{
		"text/ha-train": {base, train, top("ha-train", 500*units.MB)},
		"text/la-train": {base, train, top("la-train", 500*units.MB)},
		"text/ha-score": {base, score, top("ha-score", 300*units.MB)},
		"text/la-score": {base, top("ha-train", 500*units.MB), top("la-score", 300*units.MB)},
	}
	return c
}

func corpus(t *testing.T) []corpusCase {
	t.Helper()
	synth, err := workload.Generate(workload.DefaultGeneratorConfig(12, 42))
	if err != nil {
		t.Fatal(err)
	}
	wide := workload.DefaultGeneratorConfig(10, 7)
	wide.StageWidth = 4
	synthWide, err := workload.Generate(wide)
	if err != nil {
		t.Fatal(err)
	}
	return []corpusCase{
		{"video/testbed/paper", workload.VideoProcessing(), workload.Testbed,
			func(*dag.App, *sim.Cluster) (sim.Placement, error) { return workload.PaperPlacement("video"), nil }},
		{"text/testbed/paper", workload.TextProcessing(), workload.Testbed,
			func(*dag.App, *sim.Cluster) (sim.Placement, error) { return workload.PaperPlacement("text"), nil }},
		{"video/testbed/deep", workload.VideoProcessing(), workload.Testbed, deepPlace},
		{"text/layered/deep", workload.TextProcessing(), layeredTestbed, deepPlace},
		{"video/layered/deep", workload.VideoProcessing(), layeredTestbed, deepPlace},
		{"synthetic12/scaled5/deep", synth, func() *sim.Cluster { return workload.ScaledTestbed(5) }, deepPlace},
		{"synthetic10wide/scaled3/deep", synthWide, func() *sim.Cluster { return workload.ScaledTestbed(3) }, deepPlace},
		{"text/tight/paper", workload.TextProcessing(), tightTestbed,
			func(*dag.App, *sim.Cluster) (sim.Placement, error) { return workload.PaperPlacement("text"), nil }},
	}
}

// requireIdentical fails unless the two results are bit-identical.
func requireIdentical(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: compiled result diverges from legacy\nlegacy:   %+v\ncompiled: %+v", label, want, got)
	}
}

// TestCompiledExecMatchesLegacy pins the compiled executor bit-identical to
// the legacy port across the corpus, for jitter off and on, over three warm
// runs from the fresh cluster's empty caches. Legacy and compiled runs drive
// separate but identically constructed clusters, since warm runs of both
// mutate device layer caches.
func TestCompiledExecMatchesLegacy(t *testing.T) {
	for _, c := range corpus(t) {
		for _, jitter := range []float64{0, 0.03} {
			name := fmt.Sprintf("%s/jitter=%v", c.name, jitter)
			t.Run(name, func(t *testing.T) {
				legacyCluster := c.cluster()
				compiledCluster := c.cluster()
				placement, err := c.place(c.app, legacyCluster)
				if err != nil {
					t.Fatal(err)
				}
				plan := sim.CompilePlan(c.app, compiledCluster)
				exec := sim.NewExec()
				for run, opts := range []sim.Options{
					{Seed: 7, Jitter: jitter, WarmCaches: true},
					{Seed: 7, Jitter: jitter, WarmCaches: true},
					{Seed: 11, Jitter: jitter, WarmCaches: true},
				} {
					want, err := legacyRun(c.app, legacyCluster, placement, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := exec.Run(plan, placement, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("run %d", run), want, got)
				}
			})
		}
	}
}

// TestRunWrapperMatchesLegacy pins the sim.Run wrapper itself (fresh Plan
// and Exec per call) against the legacy port.
func TestRunWrapperMatchesLegacy(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			legacyCluster := c.cluster()
			wrapperCluster := c.cluster()
			placement, err := c.place(c.app, legacyCluster)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{Seed: 3, Jitter: 0.02}
			want, err := legacyRun(c.app, legacyCluster, placement, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(c.app, wrapperCluster, placement, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, c.name, want, got)
		})
	}
}

// TestExecSharedAcrossPlans reuses one Exec across different (app, cluster)
// shapes interleaved — the fleet worker's exact usage — and checks every
// run against a legacy run on a matching cluster.
func TestExecSharedAcrossPlans(t *testing.T) {
	cases := corpus(t)
	exec := sim.NewExec()

	type fixture struct {
		c             corpusCase
		legacyCluster *sim.Cluster
		plan          *sim.Plan
		placement     sim.Placement
	}
	var fixtures []fixture
	for _, c := range cases {
		lc := c.cluster()
		cc := c.cluster()
		placement, err := c.place(c.app, lc)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{c: c, legacyCluster: lc, plan: sim.CompilePlan(c.app, cc), placement: placement})
	}
	// Interleave: each round runs every fixture once, warm from the fresh
	// clusters' empty caches on.
	for round := 0; round < 3; round++ {
		opts := sim.Options{Seed: int64(round), Jitter: 0.01, WarmCaches: true}
		for _, f := range fixtures {
			want, err := legacyRun(f.c.app, f.legacyCluster, f.placement, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Run(f.plan, f.placement, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%s round %d", f.c.name, round), want, got)
		}
	}
}

// TestExecResultReuseRequiresClone documents the Exec result-buffer
// contract: the next Run overwrites the previous result, and Clone detaches
// it.
func TestExecResultReuseRequiresClone(t *testing.T) {
	app := workload.TextProcessing()
	cluster := workload.Testbed()
	placement := workload.PaperPlacement("text")
	plan := sim.CompilePlan(app, cluster)
	exec := sim.NewExec()

	first, err := exec.Run(plan, placement, sim.Options{WarmCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first.Clone()
	if _, err := exec.Run(plan, placement, sim.Options{WarmCaches: true}); err != nil {
		t.Fatal(err)
	}
	// The clone must be unaffected by the second (warm, hence different) run.
	want, err := legacyRun(app, workload.Testbed(), placement, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "clone", want, snapshot)
}

// TestTightTestbedRepulls pins the premise of the corpus's capacity-binding
// case: the small device's storage is below the distinct layer bytes placed
// on it, so a run evicts, and a layer evicted before its second use is
// pulled twice.
func TestTightTestbedRepulls(t *testing.T) {
	c := tightTestbed()
	placement := workload.PaperPlacement("text")
	res, err := sim.Run(workload.TextProcessing(), c, placement, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]units.Bytes{}
	var pulled units.Bytes
	for _, m := range res.Microservices {
		if m.Device != workload.SmallNode {
			continue
		}
		pulled += m.BytesPulled
		for _, l := range c.Layers[m.Name] {
			distinct[l.Digest] = l.Size
		}
	}
	var total units.Bytes
	for _, size := range distinct {
		total += size
	}
	if small := c.Device(workload.SmallNode); total <= small.Storage || pulled <= total {
		t.Fatalf("capacity does not bind: %v distinct layer bytes on %v of storage, %v pulled", total, small.Storage, pulled)
	}
}

// cacheState is what a device layer cache holds: byte use, entry count, and
// which of a run's layer digests are present.
type cacheState struct {
	used    units.Bytes
	entries int
	present map[string]bool
}

// foreignLayer is a layer no corpus app pulls, cached on a device before
// the runs so that a cold run that flushed the cluster would show.
func foreignLayer(d *device.Device) string { return "foreign-" + d.Name }

// clusterCaches snapshots every device cache of the cluster against the
// layer digests the app's microservices pull and the device's foreign layer.
func clusterCaches(app *dag.App, c *sim.Cluster) []cacheState {
	var out []cacheState
	for _, d := range c.Devices {
		st := cacheState{used: d.Cache().Used(), entries: d.Cache().Len(), present: map[string]bool{}}
		st.present[foreignLayer(d)] = d.Cache().Contains(foreignLayer(d))
		for _, m := range app.Microservices {
			for _, l := range c.LayersOf(m) {
				st.present[l.Digest] = d.Cache().Contains(l.Digest)
			}
		}
		out = append(out, st)
	}
	return out
}

// TestColdRunLeavesClusterUntouched: across the corpus, a cold run on a
// reused Exec, between two warm runs on the same cluster (whose caches also
// hold a layer no run pulls), equals a legacy cold run on a fresh cluster and
// leaves every device layer cache as it found it — contents, byte use and
// recency alike, so the second warm run answers what it would have with no
// cold run in between.
func TestColdRunLeavesClusterUntouched(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			cluster, legacyCluster := c.cluster(), c.cluster()
			placement, err := c.place(c.app, legacyCluster)
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range []*sim.Cluster{cluster, legacyCluster} {
				for _, d := range cl.Devices {
					d.Cache().Put(foreignLayer(d), units.MB)
				}
			}
			plan := sim.CompilePlan(c.app, cluster)
			exec := sim.NewExec()
			warm := sim.Options{Seed: 5, Jitter: 0.02, WarmCaches: true}
			cold := sim.Options{Seed: 5, Jitter: 0.02}

			for round := 0; round < 2; round++ {
				want, err := legacyRun(c.app, legacyCluster, placement, warm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exec.Run(plan, placement, warm)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("warm run %d", round), want, got)
				if round == 1 {
					break
				}

				before := clusterCaches(c.app, cluster)
				want, err = legacyRun(c.app, c.cluster(), placement, cold)
				if err != nil {
					t.Fatal(err)
				}
				got, err = exec.Run(plan, placement, cold)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "cold run", want, got)
				if after := clusterCaches(c.app, cluster); !reflect.DeepEqual(before, after) {
					t.Fatalf("cold run changed the cluster's layer caches:\nbefore %+v\nafter  %+v", before, after)
				}
			}
		})
	}
}
