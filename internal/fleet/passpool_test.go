package fleet

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// TestWorkerPassPool pins the per-worker pass pool: repeated schedule calls
// for the same shared model reuse one sched.Pass (no per-request Pass
// allocation), produce the same placement as a fresh ScheduleModel, and the
// pool stays keyed by model identity across interleaved shapes. A private
// shape — whose model the worker is about to overwrite — is scheduled on the
// worker's one retargeted pass and never keys the pool.
func TestWorkerPassPool(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	cluster := workload.Testbed()
	w := &workerState{
		scheduler:  sched.NewDEEP(),
		cluster:    cluster,
		effCluster: cluster,
		exec:       sim.NewExec(),
		passes:     make(map[*costmodel.Model]*sched.Pass),
	}
	video := compiledShape{model: costmodel.Compile(workload.VideoProcessing(), cluster)}
	text := compiledShape{model: costmodel.Compile(workload.TextProcessing(), cluster)}
	schedule := func(app *dag.App, shape compiledShape) sim.Placement {
		t.Helper()
		j := &job{req: Request{App: app}}
		if err := f.scheduleOn(w, w.scheduler, j, shape); err != nil {
			t.Fatal(err)
		}
		return PlacementView{names: j.names, assigns: j.assigns}.Materialize()
	}

	want, err := sched.NewDEEP().ScheduleModel(video.model)
	if err != nil {
		t.Fatal(err)
	}
	var videoPass *sched.Pass
	for round := 0; round < 3; round++ {
		if got := schedule(workload.VideoProcessing(), video); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled pass placement diverges: %v vs %v", round, got, want)
		}
		schedule(workload.TextProcessing(), text)
		if p := w.passes[video.model]; videoPass == nil {
			videoPass = p
		} else if p != videoPass {
			t.Fatalf("round %d: pass for the video model was reallocated", round)
		}
	}
	if len(w.passes) != 2 {
		t.Fatalf("pool holds %d passes, want 2 (one per model)", len(w.passes))
	}

	// Private shapes of alternating sizes share the one retargeted pass.
	wantText, err := sched.NewDEEP().ScheduleModel(text.model)
	if err != nil {
		t.Fatal(err)
	}
	var private *sched.Pass
	for round := 0; round < 3; round++ {
		for _, c := range []struct {
			app   *dag.App
			shape compiledShape
			want  sim.Placement
		}{
			{workload.TextProcessing(), compiledShape{model: text.model, private: true}, wantText},
			{workload.VideoProcessing(), compiledShape{model: video.model, private: true}, want},
		} {
			if got := schedule(c.app, c.shape); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("round %d: retargeted pass placement diverges: %v vs %v", round, got, c.want)
			}
			if private == nil {
				private = w.pass
			} else if w.pass != private {
				t.Fatalf("round %d: the private pass was reallocated", round)
			}
		}
	}
	if len(w.passes) != 2 || w.passes[video.model] != videoPass {
		t.Fatalf("private shapes touched the pool: %d entries", len(w.passes))
	}
}

// TestWorkerPassPoolBounded: once the pool hits its cap it evicts instead
// of growing without bound (shared shapes churning through the cache).
func TestWorkerPassPoolBounded(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	cluster := workload.Testbed()
	w := &workerState{
		scheduler:  sched.NewDEEP(),
		cluster:    cluster,
		effCluster: cluster,
		exec:       sim.NewExec(),
		passes:     make(map[*costmodel.Model]*sched.Pass),
	}
	j := &job{req: Request{App: workload.VideoProcessing()}}
	for i := 0; i < passPoolCap+10; i++ {
		shape := compiledShape{model: costmodel.Compile(j.req.App, cluster)} // fresh identity each time
		if err := f.scheduleOn(w, w.scheduler, j, shape); err != nil {
			t.Fatal(err)
		}
		if len(w.passes) > passPoolCap {
			t.Fatalf("pool grew to %d entries, cap is %d", len(w.passes), passPoolCap)
		}
	}
}

// TestShapeCacheDistinguishesAppNames: two structurally identical apps
// under different names must not alias one compiled shape — the simulator
// labels results (and keys jitter) by app name.
func TestShapeCacheDistinguishesAppNames(t *testing.T) {
	build := func(name string) *dag.App {
		app := dag.NewApp(name)
		for _, n := range []string{"a", "b"} {
			if err := app.AddMicroservice(&dag.Microservice{
				Name: n, ImageSize: 10 * units.MB, Req: dag.Requirements{CPU: 100},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.AddDataflow("a", "b", units.MB); err != nil {
			t.Fatal(err)
		}
		return app
	}
	cd := DigestCluster(workload.Testbed())
	if cd.ModelKey(build("alpha")) == cd.ModelKey(build("beta")) {
		t.Fatal("model keys collide across app names")
	}

	f := testFleet(t, Config{Workers: 1, SimOptions: sim.Options{Jitter: 0.05}})
	for _, name := range []string{"alpha", "beta"} {
		resp, err := f.Do(context.Background(), Request{App: build(name)})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp)
		}
		if resp.Result.App != name {
			t.Fatalf("response for %q carries result for %q (shape aliasing)", name, resp.Result.App)
		}
	}
}

// TestWorkersSimulateOnPrivateClusters: with several workers hammering one
// hot shape cold (ColdCaches opts out of the warm default, so every run
// flushes), every response must be bit-identical to a standalone cold
// sim.Run — shared compiled plans must not share device layer caches across
// workers, or concurrent flush/pull interleavings would make results
// nondeterministic.
func TestWorkersSimulateOnPrivateClusters(t *testing.T) {
	f := testFleet(t, Config{Workers: 8, QueueDepth: 256, ColdCaches: true})
	app := workload.VideoProcessing()

	refCluster := workload.Testbed()
	placement, err := sched.NewDEEP().Schedule(app, refCluster)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(app, refCluster, placement, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		ch, err := f.Submit(Request{App: app})
		if err != nil {
			continue // queue full; coverage doesn't need every request
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := <-ch
			if resp.Err != nil {
				t.Error(resp.Err)
				return
			}
			if !reflect.DeepEqual(resp.Result, want) {
				t.Errorf("concurrent cold result diverges from standalone sim.Run")
			}
		}()
	}
	wg.Wait()
}

// TestFleetWarmSimResults: a fleet configured with warm caches serves
// steady-state requests whose results match a standalone warm sim.Run on an
// identical cluster — the compiled executor path end to end.
func TestFleetWarmSimResults(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, SimOptions: sim.Options{WarmCaches: true}})
	app := workload.TextProcessing()
	first, err := f.Do(context.Background(), Request{App: app})
	if err != nil || first.Err != nil {
		t.Fatal(err, first)
	}
	second, err := f.Do(context.Background(), Request{App: app})
	if err != nil || second.Err != nil {
		t.Fatal(err, second)
	}

	refCluster := workload.Testbed()
	placement, err := sched.NewDEEP().Schedule(app, refCluster)
	if err != nil {
		t.Fatal(err)
	}
	warmFirst, err := sim.Run(app, refCluster, placement, sim.Options{WarmCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	warmSecond, err := sim.Run(app, refCluster, placement, sim.Options{WarmCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	// First fleet request ran against untouched (empty) caches, as does the
	// first warm standalone run on a fresh cluster; the second is fully hot.
	if !reflect.DeepEqual(first.Result, warmFirst) {
		t.Fatalf("first warm fleet result diverges:\nfleet: %+v\nref:   %+v", first.Result, warmFirst)
	}
	if !reflect.DeepEqual(second.Result, warmSecond) {
		t.Fatalf("steady-state warm fleet result diverges:\nfleet: %+v\nref:   %+v", second.Result, warmSecond)
	}
}
