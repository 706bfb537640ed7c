package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deep/internal/core"
	"deep/internal/dag"
	"deep/internal/obs"
	"deep/internal/sim"
	"deep/internal/workload"
)

// effectiveCluster is the cluster a churn epoch describes, built the way a
// library caller would: a fresh base cluster minus the down devices and
// registries.
func effectiveCluster(base func() *sim.Cluster, downDevs, downRegs map[string]bool) *sim.Cluster {
	c := base()
	devs := c.Devices[:0]
	for _, d := range c.Devices {
		if !downDevs[d.Name] {
			devs = append(devs, d)
		}
	}
	c.Devices = devs
	regs := c.Registries[:0]
	for _, r := range c.Registries {
		if !downRegs[r.Name] {
			regs = append(regs, r)
		}
	}
	c.Registries = regs
	return c
}

// TestEveryAnswerIsCoreDeploy: a deploy's answer is a function of the app,
// the epoch's cluster, the placement and the seed. On 1, 2 and 8 workers,
// across repeated calls and concurrent callers (so the pool lends workers in
// varying order) and across a device crash, its recovery and a registry
// outage, every Result equals core.System.Deploy's on that epoch's effective
// cluster, bit for bit — the library pipeline the paper's figures run.
// From the third call of an app on an epoch on, the answer is the one its
// placement entry stored: a hit that neither compiles a shape nor
// simulates, so the memoized path is the one checked.
func TestEveryAnswerIsCoreDeploy(t *testing.T) {
	synth, err := workload.Generate(workload.DefaultGeneratorConfig(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing(), synth}
	epochs := []struct {
		name               string
		delta              ChurnDelta
		downDevs, downRegs map[string]bool
	}{
		{"base", ChurnDelta{}, nil, nil},
		{"crash", ChurnDelta{FailDevices: []string{"medium-00"}}, map[string]bool{"medium-00": true}, nil},
		{"recover", ChurnDelta{RecoverDevices: []string{"medium-00"}}, nil, nil},
		{"outage", ChurnDelta{FailRegistries: []string{"regional"}}, nil, map[string]bool{"regional": true}},
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := testFleet(t, Config{Workers: workers, QueueDepth: 256, NewCluster: scaled2})
			for i, ep := range epochs {
				if i > 0 {
					if _, _, err := f.ApplyChurn(ep.delta); err != nil {
						t.Fatal(err)
					}
				}
				want := make([]*sim.Result, len(apps))
				for k, app := range apps {
					dep, err := core.NewSystem(effectiveCluster(scaled2, ep.downDevs, ep.downRegs)).Deploy(app)
					if err != nil {
						t.Fatal(err)
					}
					want[k] = dep.Result
				}
				check := func(call string, k int, memoized bool) {
					resp, err := f.Do(context.Background(), Request{App: apps[k], Seed: int64(k)})
					if err != nil || resp.Err != nil {
						t.Error(err, resp)
						return
					}
					if memoized && (!resp.CacheHit || resp.Stages.D[obs.StageSim] != 0 || resp.Stages.D[obs.StageCompile] != 0) {
						t.Errorf("%s %s %s: not a memoized hit: cache_hit=%v, stages %+v",
							ep.name, call, apps[k].Name, resp.CacheHit, resp.Stages)
					}
					if !reflect.DeepEqual(resp.Result, want[k]) {
						t.Errorf("%s %s %s: fleet answered %.6g s / %.6g J, core %.6g s / %.6g J",
							ep.name, call, apps[k].Name, resp.Result.Makespan, float64(resp.Result.TotalEnergy),
							want[k].Makespan, float64(want[k].TotalEnergy))
					}
				}
				for call := 0; call < 5; call++ {
					for k := range apps {
						check(fmt.Sprintf("call %d", call), k, call >= 2)
					}
				}
				var wg sync.WaitGroup
				for c := 0; c < 2*workers+1; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for call := 0; call < 3; call++ {
							check(fmt.Sprintf("caller %d call %d", c, call), (c+call)%len(apps), true)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}

// TestMissAnswersFromPassChoices: a placement miss simulates the DEEP pass's
// own id-form placement (Pass.Choices) on its shape's plan, not the names the
// pass appended. A stream of never-seen apps, each a miss, on the base
// cluster and after a device crash (a patched cluster table, whose ids the
// shape's model and plan share) must still equal core.System.Deploy on the
// epoch's effective cluster bit for bit, placement and result both — read
// from Do's copy and, inside DoBatch's callback, from the worker's own
// scratch and simulator buffer.
func TestMissAnswersFromPassChoices(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	for _, ep := range []struct {
		name     string
		delta    *ChurnDelta
		downDevs map[string]bool
	}{
		{"base", nil, nil},
		{"crash", &ChurnDelta{FailDevices: []string{"medium-00"}}, map[string]bool{"medium-00": true}},
	} {
		if ep.delta != nil {
			if _, _, err := f.ApplyChurn(*ep.delta); err != nil {
				t.Fatal(err)
			}
		}
		for seed := int64(1); seed <= 6; seed++ {
			app := oneShot(t, 2+2*int(seed), 200+seed)
			want, err := core.NewSystem(effectiveCluster(scaled2, ep.downDevs, nil)).Deploy(app)
			if err != nil {
				t.Fatal(err)
			}
			check := func(via string, resp *Response) {
				if resp.Err != nil {
					t.Fatal(resp.Err)
				}
				if resp.CacheHit {
					t.Fatalf("%s %s via %s: a never-seen app hit the placement cache", ep.name, app.Name, via)
				}
				if got := resp.Placement.Materialize(); !reflect.DeepEqual(got, want.Placement) {
					t.Errorf("%s %s via %s: fleet placed %v, core %v", ep.name, app.Name, via, got, want.Placement)
				}
				if !reflect.DeepEqual(resp.Result, want.Result) {
					t.Errorf("%s %s via %s: fleet answered %.6g s / %.6g J, core %.6g s / %.6g J", ep.name, app.Name, via,
						resp.Result.Makespan, float64(resp.Result.TotalEnergy), want.Result.Makespan, float64(want.Result.TotalEnergy))
				}
			}
			req := Request{App: app}
			if seed%2 == 0 {
				if err := f.DoBatch(context.Background(), []Request{req}, func(resp *Response) { check("DoBatch", resp) }); err != nil {
					t.Fatal(err)
				}
				continue
			}
			resp, err := f.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			check("Do", resp)
		}
	}
}

// TestAnswersOutliveTheWorker pins the lifetime rule: an answer from Do or
// Submit is the caller's to keep. On a one-worker fleet, a Do miss and a
// Submit miss are snapshotted; then 50 misses of other apps, of other sizes,
// run on that worker, overwriting its placement scratch and simulator
// buffer each time. Both answers must still equal their snapshots.
func TestAnswersOutliveTheWorker(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	snapshot := func(resp *Response) Response {
		c := *resp
		c.Placement = NewPlacementView(resp.Placement.Materialize())
		c.Result = resp.Result.Clone()
		return c
	}
	kept, err := f.Do(context.Background(), Request{App: oneShot(t, 9, 900)})
	if err != nil || kept.Err != nil {
		t.Fatal(err, kept.Err)
	}
	ch, err := f.Submit(Request{App: oneShot(t, 11, 901)})
	if err != nil {
		t.Fatal(err)
	}
	submitted := <-ch
	if submitted.Err != nil {
		t.Fatal(submitted.Err)
	}
	if kept.CacheHit || submitted.CacheHit {
		t.Fatal("a never-seen app hit the placement cache")
	}
	want := []Response{snapshot(kept), snapshot(submitted)}

	reqs := make([]Request, 50)
	for i := range reqs {
		reqs[i] = Request{App: oneShot(t, 2+i%14, int64(1000+i))}
	}
	err = f.DoBatch(context.Background(), reqs, func(resp *Response) {
		if resp.Err != nil || resp.CacheHit {
			t.Fatalf("item %d: cache_hit=%v, err %v; want a miss", resp.Index, resp.CacheHit, resp.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range []*Response{kept, submitted} {
		if !reflect.DeepEqual(*resp, want[i]) {
			t.Errorf("answer %d changed after 50 more misses on its worker:\n got %+v\nwant %+v", i, *resp, want[i])
		}
	}
}
