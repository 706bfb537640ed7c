package fleet

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"deep/internal/core"
	"deep/internal/obs"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestJitteredHitsSimulatePerRequest: with SimOptions.Jitter above zero an
// answer depends on the request's seed, so a placement hit still simulates
// every request. Two seeds give different results, each equal to a fresh
// RunIndexed of the memoized placement with that seed, and the entry's
// result slot stays empty.
func TestJitteredHitsSimulatePerRequest(t *testing.T) {
	opts := sim.Options{Seed: 3, Jitter: 0.05}
	f := testFleet(t, Config{Workers: 1, SimOptions: opts})
	app := workload.VideoProcessing()
	do := func(seed int64) *Response {
		t.Helper()
		resp, err := f.Do(context.Background(), Request{App: app, Seed: seed})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		return resp
	}
	do(0).Release() // the miss: schedules and memoizes the placement

	plan := sim.CompilePlan(app, workload.Testbed())
	var results [2]*sim.Result
	for i, seed := range []int64{1, 2} {
		resp := do(seed)
		if !resp.CacheHit || resp.Stages.D[obs.StageSim] <= 0 {
			t.Fatalf("seed %d: cache_hit=%v, stages %+v; want a hit that simulates", seed, resp.CacheHit, resp.Stages)
		}
		o := opts
		o.Seed += seed
		want, err := sim.NewExec().RunIndexed(plan, resp.Placement.names, resp.Placement.assigns, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result, want) {
			t.Fatalf("seed %d: hit answered %.9g J, a fresh run %.9g J", seed, float64(resp.Result.TotalEnergy), float64(want.TotalEnergy))
		}
		results[i] = resp.Result.Clone()
		resp.Release()
	}
	if reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("two seeds gave the same jittered result: the test exercises nothing")
	}
	if e := f.cache.Get(cacheKey{app: app.Digest()}); e == nil || e.result.Load() != nil {
		t.Fatalf("entry %v: want a placement with an empty result slot", e)
	}
}

// TestConcurrentFirstHitsAgree: many callers hit a just-scheduled key at
// once, so several may simulate it and fill its result slot together. Every
// answer, and the stored result, equals core.System.Deploy's; the miss that
// scheduled the key left the slot empty.
func TestConcurrentFirstHitsAgree(t *testing.T) {
	const callers = 16
	f := testFleet(t, Config{Workers: 8, QueueDepth: 256, NewCluster: scaled2})
	app := workload.VideoProcessing()
	dep, err := core.NewSystem(scaled2()).Deploy(app)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := f.Do(context.Background(), Request{App: app})
	if err != nil || miss.Err != nil {
		t.Fatal(err, miss.Err)
	}
	if miss.CacheHit || !reflect.DeepEqual(miss.Result, dep.Result) {
		t.Fatalf("first deploy: cache_hit=%v, or its result differs from core.System.Deploy", miss.CacheHit)
	}
	miss.Release()
	key := cacheKey{app: app.Digest()}
	if f.cache.Get(key).result.Load() != nil {
		t.Fatal("a miss filled the entry's result slot")
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := f.Do(context.Background(), Request{App: app, Seed: int64(c)})
			if err != nil || resp.Err != nil {
				t.Error(err, resp)
				return
			}
			defer resp.Release()
			if !resp.CacheHit {
				t.Errorf("caller %d missed a scheduled key", c)
			}
			if !reflect.DeepEqual(resp.Result, dep.Result) {
				t.Errorf("caller %d: fleet answered %.9g J, core %.9g J", c, float64(resp.Result.TotalEnergy), float64(dep.Result.TotalEnergy))
			}
		}()
	}
	close(start)
	wg.Wait()
	if stored := f.cache.Get(key).result.Load(); !reflect.DeepEqual(stored, dep.Result) {
		t.Fatalf("stored result %+v, want core.System.Deploy's", stored)
	}
}
