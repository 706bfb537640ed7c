package sched

// Fused-compile equivalence: costmodel.CompileShapeOn emits the cost model
// and the simulator plan in one walk over the shared (AppTable,
// ClusterTable) substrates, with the model's per-(microservice, class)
// rows aliased to the plan's. This file pins that fusion bit-identical to
// the legacy wrappers (costmodel.Compile, sim.CompilePlan) — which the
// corpora in this package and internal/sim in turn pin to the original
// string-keyed implementations — so the fleet's fused cold path provably
// changes nothing but time: byte-identical placements from all seven
// schedulers, bit-identical simulation results (exact float equality),
// and verbatim error parity on structurally invalid applications.

import (
	"fmt"
	"reflect"
	"testing"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// fusedCorpus mirrors equivalenceCorpus but keeps the cluster constructor:
// simulation mutates device layer caches, so the legacy and fused sides
// must each run on a private, identically-built cluster.
func fusedCorpus(t *testing.T) []struct {
	name string
	app  *dag.App
	mk   func() *sim.Cluster
} {
	t.Helper()
	type tc = struct {
		name string
		app  *dag.App
		mk   func() *sim.Cluster
	}
	var cases []tc
	clusters := []struct {
		name string
		mk   func() *sim.Cluster
	}{
		{"testbed", workload.Testbed},
		{"scaled4", func() *sim.Cluster { return workload.ScaledTestbed(4) }},
	}
	for _, cl := range clusters {
		cases = append(cases,
			tc{"video/" + cl.name, workload.VideoProcessing(), cl.mk},
			tc{"text/" + cl.name, workload.TextProcessing(), cl.mk},
		)
		for _, size := range []int{5, 9, 13} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := workload.DefaultGeneratorConfig(size, seed)
				cfg.StageWidth = 4
				app, err := workload.Generate(cfg)
				if err != nil {
					t.Fatalf("generate size=%d seed=%d: %v", size, seed, err)
				}
				cases = append(cases, tc{fmt.Sprintf("synthetic%d-%d/%s", size, seed, cl.name), app, cl.mk})
			}
		}
	}
	return cases
}

// TestFusedCompileMatchesLegacyWrappers pins the fused compile against the
// legacy wrappers across the corpus: every scheduler's placement
// byte-identical on the fused model, and the simulator bit-identical on the
// fused plan over jitter-off, jitter-on, and warm-cache runs.
func TestFusedCompileMatchesLegacyWrappers(t *testing.T) {
	const seed = 99
	for _, c := range fusedCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			clusterL, clusterF := c.mk(), c.mk()

			legacyModel := costmodel.Compile(c.app, clusterL)
			legacyPlan := sim.CompilePlan(c.app, clusterL)

			at := appgraph.Compile(c.app)
			fusedModel, fusedPlan := costmodel.CompileShapeOn(at, clusterF, sim.CompileClusterTable(clusterF))

			legacyScheds, fusedScheds := All(seed), All(seed)
			var placement sim.Placement
			for i, ls := range legacyScheds {
				want, errL := ls.ScheduleModel(legacyModel)
				got, errF := fusedScheds[i].ScheduleModel(fusedModel)
				if (errL == nil) != (errF == nil) {
					t.Fatalf("%s: error mismatch: legacy %v, fused %v", ls.Name(), errL, errF)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: fused placement diverges\nlegacy: %v\nfused:  %v", ls.Name(), want, got)
				}
				if placement == nil {
					placement = want
				}
			}

			execL, execF := sim.NewExec(), sim.NewExec()
			for run, opts := range []sim.Options{
				{},
				{Seed: 7, Jitter: 0.02},
				{Seed: 7, Jitter: 0.02, WarmCaches: true},
			} {
				want, errL := execL.Run(legacyPlan, placement, opts)
				got, errF := execF.Run(fusedPlan, placement, opts)
				if errL != nil || errF != nil {
					t.Fatalf("run %d: legacy err %v, fused err %v", run, errL, errF)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("run %d (opts %+v): fused result diverges\nlegacy: %+v\nfused:  %+v", run, opts, want, got)
				}
			}
		})
	}
}

// manyRegistries is ScaledTestbed(2) plus 70 mirror registries, each routed
// to two of the four devices: more registries than a machine word has bits,
// and ragged option rows.
func manyRegistries(t *testing.T) *sim.Cluster {
	t.Helper()
	c := workload.ScaledTestbed(2)
	for r := 0; r < 70; r++ {
		node := fmt.Sprintf("mirror-node-%02d", r)
		c.Topology.AddNode(node)
		for k := 0; k < 2; k++ {
			if err := c.Topology.AddLink(netsim.Link{
				From: node, To: c.Devices[(r+k)%len(c.Devices)].Name,
				BW: workload.RegionalMediumBW / 2, RTT: workload.RegionalSetupTime, SharedCapacity: r%2 == 0,
			}); err != nil {
				t.Fatal(err)
			}
		}
		c.Registries = append(c.Registries, sim.RegistryInfo{Name: fmt.Sprintf("mirror-%02d", r), Node: node, Shared: r%2 == 0})
	}
	return c
}

// TestScratchCompileMatchesFresh pins the recycled compile to the fresh one:
// a shape compiled into a scratch that last held a larger shape, and a
// larger shape compiled over a smaller one, are deep-equal — Model and Plan,
// every row down to nil-versus-empty — to costmodel.CompileShapeOn on a
// fresh app table, and schedule and simulate identically. The cases are the
// fused corpus plus the shapes a stale slab could most plausibly leak into:
// an app with a microservice no device can run, and a cluster with more
// than 64 registries.
func TestScratchCompileMatchesFresh(t *testing.T) {
	type tc = struct {
		name string
		app  *dag.App
		mk   func() *sim.Cluster
	}
	cases := fusedCorpus(t)

	b := dag.Builder{Name: "infeasible"}
	for _, m := range []dag.Microservice{
		{Name: "fits", ImageSize: 10 * units.MB, Req: dag.Requirements{CPU: 100}},
		{Name: "giant", ImageSize: 10 * units.MB, Req: dag.Requirements{CPU: 100, Cores: 1 << 20}},
	} {
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Dataflow("fits", "giant", units.MB); err != nil {
		t.Fatal(err)
	}
	infeasible, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	synth, err := workload.Generate(workload.DefaultGeneratorConfig(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"infeasible/testbed", infeasible, workload.Testbed},
		tc{"synthetic9-3/registries72", synth, func() *sim.Cluster { return manyRegistries(t) }},
		tc{"infeasible/registries72", infeasible, func() *sim.Cluster { return manyRegistries(t) }},
	)

	// The other shape in the scratch: larger than every case in every
	// dimension but registries.
	cfg := workload.DefaultGeneratorConfig(20, 11)
	cfg.StageWidth = 4
	bigApp, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bigCluster := workload.ScaledTestbed(6)
	bigTab := sim.CompileClusterTable(bigCluster)
	wantBigModel, wantBigPlan := costmodel.CompileShapeOn(appgraph.Compile(bigApp), bigCluster, bigTab)

	var apps appgraph.Scratch
	var shapes costmodel.Scratch
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cluster := c.mk()
			tab := sim.CompileClusterTable(cluster)
			wantModel, wantPlan := costmodel.CompileShapeOn(appgraph.Compile(c.app), cluster, tab)

			shapes.CompileShapeOn(apps.Compile(bigApp), bigCluster, bigTab)
			model, plan := shapes.CompileShapeOn(apps.Compile(c.app), cluster, tab)
			if !reflect.DeepEqual(model, wantModel) {
				t.Fatal("model compiled over a larger shape differs from a fresh compile")
			}
			if !reflect.DeepEqual(plan, wantPlan) {
				t.Fatal("plan compiled over a larger shape differs from a fresh compile")
			}
			for ms := int32(0); ms < int32(model.NumMicroservices()); ms++ {
				if (model.Options(ms) == nil) != (wantModel.Options(ms) == nil) {
					t.Fatalf("microservice %d: option row nil-ness differs", ms)
				}
			}
			if c.app == infeasible {
				if id, _ := model.MSID("giant"); model.Options(id) != nil {
					t.Fatalf("infeasible microservice has option row %v, want nil", model.Options(id))
				}
			}

			// Same placement bytes, same simulation bits, same error values.
			want, wantErr := NewDEEP().ScheduleModel(wantModel)
			got, gotErr := NewDEEP().ScheduleModel(model)
			if !reflect.DeepEqual(got, want) || !sameError(gotErr, wantErr) {
				t.Fatalf("DEEP on the recycled model: %v, %v; fresh: %v, %v", got, gotErr, want, wantErr)
			}
			exec := sim.NewExec()
			for _, opts := range []sim.Options{{}, {Seed: 7, Jitter: 0.02}} {
				wantRes, wantErr := exec.Run(wantPlan, want, opts)
				if wantErr == nil {
					wantRes = wantRes.Clone()
				}
				gotRes, gotErr := exec.Run(plan, want, opts)
				if !reflect.DeepEqual(gotRes, wantRes) || !sameError(gotErr, wantErr) {
					t.Fatalf("sim on the recycled plan (opts %+v): %+v, %v; fresh: %+v, %v", opts, gotRes, gotErr, wantRes, wantErr)
				}
			}

			// The reverse order: the larger shape over this one.
			bigModel, bigPlan := shapes.CompileShapeOn(apps.Compile(bigApp), bigCluster, bigTab)
			if !reflect.DeepEqual(bigModel, wantBigModel) || !reflect.DeepEqual(bigPlan, wantBigPlan) {
				t.Fatal("larger shape compiled over this one differs from a fresh compile")
			}
		})
	}
}

// sameError reports whether two errors are both nil or carry the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
