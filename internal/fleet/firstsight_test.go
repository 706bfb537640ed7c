package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// oneShot generates a distinct app per seed: never seen before by a fleet
// that has not been handed this seed.
func oneShot(t *testing.T, size int, seed int64) *dag.App {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig(size, seed)
	cfg.StageWidth = 3
	app, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// reference schedules and simulates the app the long way round — a fresh
// costmodel.Compile, a fresh DEEP pass, sim.Run — on a cluster of its own.
func reference(t *testing.T, app *dag.App, mk func() *sim.Cluster) (sim.Placement, *sim.Result) {
	t.Helper()
	cluster := mk()
	placement, err := sched.NewDEEP().ScheduleModel(costmodel.Compile(app, cluster))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(app, cluster, placement, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return placement, res
}

func scaled4() *sim.Cluster { return workload.ScaledTestbed(4) }

// TestFirstSightResponsesDoNotAliasScratch: one worker compiles a stream of
// never-seen apps of every size into its one recycled scratch, and no
// response is released until the stream ends. Each must still read exactly
// as an independent compile, schedule and simulation of its app — so nothing
// a Response exposes (placement names and assignments, result rows, app
// name) points into storage a later compile overwrote.
func TestFirstSightResponsesDoNotAliasScratch(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled4})
	const n = 48
	apps := make([]*dag.App, n)
	resps := make([]*Response, n)
	for i := range apps {
		apps[i] = oneShot(t, 2+i%15, int64(1000+i))
		resp, err := f.Do(context.Background(), Request{Tenant: "edge", App: apps[i]})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		resps[i] = resp
	}
	for i, resp := range resps {
		wantPlacement, wantResult := reference(t, apps[i], scaled4)
		if got := resp.Placement.Materialize(); !reflect.DeepEqual(got, wantPlacement) {
			t.Errorf("app %d (%s): held placement %v, independent %v", i, apps[i].Name, got, wantPlacement)
		}
		if !reflect.DeepEqual(resp.Result, wantResult) {
			t.Errorf("app %d (%s): held result diverges from an independent run:\nheld: %+v\nwant: %+v", i, apps[i].Name, resp.Result, wantResult)
		}
		if resp.App != apps[i].Name {
			t.Errorf("app %d: response names %q, want %q", i, resp.App, apps[i].Name)
		}
	}
}

// TestFirstSightInterleavedUnderChurn: eight workers serve one-shot apps
// interleaved with repeated ones, every shape compiled into the serving
// worker's recycled scratch, while a device fails and recovers mid-stream. Every response must be the
// right answer for its epoch: on the pristine cluster the independent
// reference bit for bit, on the degraded one a complete placement that
// avoids the failed device.
func TestFirstSightInterleavedUnderChurn(t *testing.T) {
	f := testFleet(t, Config{Workers: 8, QueueDepth: 512, NewCluster: scaled4})
	const failed = "medium-01"
	hot := []*dag.App{workload.VideoProcessing(), workload.TextProcessing(), oneShot(t, 9, 7)}
	type answer struct {
		placement sim.Placement
		result    *sim.Result
	}
	expect := func(app *dag.App) answer {
		p, r := reference(t, app, scaled4)
		return answer{p, r}
	}
	wantHot := make([]answer, len(hot))
	for i, app := range hot {
		wantHot[i] = expect(app)
	}

	const n = 360
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			// Requests are in flight: some were scheduled before the failure
			// and are served after it.
			if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{failed}}); err != nil {
				t.Fatal(err)
			}
		case 2 * n / 3:
			// Drained first, so a response stamped with the recovered epoch
			// was also scheduled in it.
			wg.Wait()
			if _, _, err := f.ApplyChurn(ChurnDelta{RecoverDevices: []string{failed}}); err != nil {
				t.Fatal(err)
			}
		}
		app, want := hot[i%len(hot)], wantHot[i%len(hot)]
		if i%2 == 1 {
			app = oneShot(t, 3+i%12, int64(5000+i))
			want = expect(app)
		}
		ch, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i%5), App: app})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := <-ch
			if resp.Err != nil {
				t.Errorf("%s: %v", app.Name, resp.Err)
				return
			}
			if resp.Placement.Len() != len(app.Microservices) || resp.Result.App != app.Name {
				t.Errorf("%s: response covers %d microservices of app %q", app.Name, resp.Placement.Len(), resp.Result.App)
				return
			}
			if resp.Epoch == 1 {
				for name, a := range resp.Placement.All() {
					if a.Device == failed {
						t.Errorf("%s: %s placed on %s while it was down", app.Name, name, failed)
					}
				}
				return
			}
			if got := resp.Placement.Materialize(); !reflect.DeepEqual(got, want.placement) {
				t.Errorf("%s (epoch %d): placement %v, independent %v", app.Name, resp.Epoch, got, want.placement)
			}
			if !reflect.DeepEqual(resp.Result, want.result) {
				t.Errorf("%s (epoch %d): result diverges from an independent run", app.Name, resp.Epoch)
			}
		}()
	}
	wg.Wait()
}
