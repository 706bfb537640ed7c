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

// TestWorkerSchedulesEveryShapeOnOnePass: one worker schedules interleaved
// shared shapes (video, text) and first-sight shapes of every size (compiled
// into its recycled scratch, each overwriting the last) on one sched.Pass,
// retargeted per request. Every placement equals a fresh ScheduleModel on an
// independent compile, the pass is never reallocated, and once it has grown
// to the largest model a schedule allocates nothing.
func TestWorkerSchedulesEveryShapeOnOnePass(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled4})
	cluster := f.base
	w := &workerState{
		scheduler: sched.NewDEEP(),
		exec:      sim.NewExec(),
	}
	fresh := func(app *dag.App) sim.Placement {
		t.Helper()
		want, err := sched.NewDEEP().ScheduleModel(costmodel.Compile(app, scaled4()))
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	shared := func(app *dag.App) compiledShape {
		return compiledShape{model: costmodel.Compile(app, cluster)}
	}
	firstSight := func(app *dag.App) compiledShape {
		return f.compileOn(f.churn.Load(), w.apps.Compile(app), &w.shapes)
	}
	video, text := workload.VideoProcessing(), workload.TextProcessing()
	videoShape, textShape := shared(video), shared(text)

	j := &job{}
	var pass *sched.Pass
	var last compiledShape
	for round := 0; round < 3; round++ {
		for i, c := range []struct {
			app   *dag.App
			shape func(*dag.App) compiledShape
		}{
			{video, func(*dag.App) compiledShape { return videoShape }},
			{oneShot(t, 14, int64(10+round)), firstSight},
			{text, func(*dag.App) compiledShape { return textShape }},
			{oneShot(t, 3, int64(20+round)), firstSight},
			{oneShot(t, 9, int64(30+round)), firstSight},
		} {
			last = c.shape(c.app)
			j.req.App = c.app
			if err := f.scheduleOn(w, j, last); err != nil {
				t.Fatal(err)
			}
			got := PlacementView{names: j.names, assigns: j.assigns}.Materialize()
			if want := fresh(c.app); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d step %d (%s): retargeted pass placed %v, a fresh pass %v", round, i, c.app.Name, got, want)
			}
			if pass == nil {
				pass = w.pass
			} else if w.pass != pass {
				t.Fatalf("round %d step %d (%s): the worker's pass was reallocated", round, i, c.app.Name)
			}
		}
	}

	if raceEnabled {
		return // the race detector allocates on its own
	}
	// last is still valid: no first sight has overwritten the scratch since.
	allocs := testing.AllocsPerRun(50, func() {
		for _, shape := range []compiledShape{videoShape, last, textShape} {
			if err := f.scheduleOn(w, j, shape); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm schedules across three models allocate %.1f objects per round", allocs)
	}
	if w.pass != pass {
		t.Error("the worker's pass was reallocated during the warm rounds")
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
	if build("alpha").Digest() == build("beta").Digest() {
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

// TestWorkersShareOneClusterColdly: with several workers hammering one hot
// shape on the fleet's one cluster, every response must be bit-identical to
// a standalone cold sim.Run — each run keeps its layer caches in its
// worker's Exec, so concurrent runs on shared plans cannot see one
// another's pulls.
func TestWorkersShareOneClusterColdly(t *testing.T) {
	f := testFleet(t, Config{Workers: 8, QueueDepth: 256})
	app := workload.VideoProcessing()

	refCluster := workload.Testbed()
	placement, err := sched.Schedule(sched.NewDEEP(), app, refCluster)
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
