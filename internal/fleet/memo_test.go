package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deep/internal/core"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestConcurrentFirstHitsAgree: many callers hit a just-scheduled key at
// once, so several may simulate it and race to fill its result slot. Every
// answer, and the stored result, equals core.System.Deploy's; the miss that
// scheduled the key left the slot empty and carried no encoded slot. The
// first store wins: every caller is served the one stored result pointer
// and the entry's one encoded slot.
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
	if miss.Encoded != nil {
		t.Fatal("a miss carries an encoded slot")
	}
	key := cacheKey{app: app.Digest()}
	if f.cache.Get(key).result.Load() != nil {
		t.Fatal("a miss filled the entry's result slot")
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	var served [callers]*sim.Result
	var slots [callers]*Encoded
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
			if !resp.CacheHit {
				t.Errorf("caller %d missed a scheduled key", c)
			}
			if !reflect.DeepEqual(resp.Result, dep.Result) {
				t.Errorf("caller %d: fleet answered %.9g J, core %.9g J", c, float64(resp.Result.TotalEnergy), float64(dep.Result.TotalEnergy))
			}
			served[c], slots[c] = resp.Result, resp.Encoded
		}()
	}
	close(start)
	wg.Wait()
	entry := f.cache.Get(key)
	stored := entry.result.Load()
	if !reflect.DeepEqual(stored, dep.Result) {
		t.Fatalf("stored result %+v, want core.System.Deploy's", stored)
	}
	for c := range callers {
		if served[c] != stored || slots[c] != &entry.encoded {
			t.Errorf("caller %d: served result %p and slot %p, want the entry's %p and %p", c, served[c], slots[c], stored, &entry.encoded)
		}
	}
}

// TestEncodedSlotOnePerKey: callers hit two warm keys at once. Every
// response for a key carries that entry's one encoded slot, the two keys'
// slots differ, and of the callers racing to fill a slot the first store
// wins: every caller then reads the winner's bytes, which a later Store
// does not replace.
func TestEncodedSlotOnePerKey(t *testing.T) {
	const callers = 16
	f := testFleet(t, Config{Workers: 8, QueueDepth: 256})
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	for _, app := range apps {
		miss, err := f.Do(context.Background(), Request{App: app})
		if err != nil || miss.Err != nil {
			t.Fatal(err, miss.Err)
		}
		if miss.CacheHit || miss.Encoded != nil {
			t.Fatalf("%s: first deploy cache_hit=%v, encoded slot %p; want a miss without one", app.Name, miss.CacheHit, miss.Encoded)
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	var slots [callers]*Encoded
	var read [callers]string
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := f.Do(context.Background(), Request{App: apps[c%len(apps)]})
			if err != nil || resp.Err != nil {
				t.Error(err, resp)
				return
			}
			if resp.Encoded == nil {
				t.Errorf("caller %d: a hit without an encoded slot", c)
				return
			}
			resp.Encoded.Store([]byte(fmt.Sprint("caller ", c)))
			slots[c], read[c] = resp.Encoded, string(resp.Encoded.Load())
		}()
	}
	close(start)
	wg.Wait()
	for i, app := range apps {
		slot := &f.cache.Get(cacheKey{app: app.Digest()}).encoded
		won := string(slot.Load())
		for c := i; c < callers; c += len(apps) {
			if slots[c] != slot || read[c] != won {
				t.Errorf("%s, caller %d: slot %p reading %q, want the entry's %p reading %q", app.Name, c, slots[c], read[c], slot, won)
			}
		}
		slot.Store([]byte("late"))
		if got := string(slot.Load()); got != won {
			t.Errorf("%s: a later Store replaced %q with %q", app.Name, won, got)
		}
	}
	if a, b := &f.cache.Get(cacheKey{app: apps[0].Digest()}).encoded, &f.cache.Get(cacheKey{app: apps[1].Digest()}).encoded; a == b {
		t.Fatal("two keys share one encoded slot")
	}
}

// TestMissOnRecycledJobHasNoSlot: a miss served on the job whose last
// answer was a memoized hit carries no encoded slot. A leftover slot would
// have the miss answered with another key's stored bytes. One worker serves
// one batch, so the hit and the miss share its one job.
func TestMissOnRecycledJobHasNoSlot(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()
	for range 3 { // a miss, the first hit, then hits that serve the stored result
		resp, err := f.Do(context.Background(), Request{App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	}
	app2, err := workload.Generate(workload.DefaultGeneratorConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	var served []*Response
	err = f.DoBatch(context.Background(), []Request{{App: app}, {App: app2}}, func(resp *Response) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		hit := resp.Index == 0
		if resp.CacheHit != hit || (resp.Encoded != nil) != hit {
			t.Errorf("item %d: cache_hit=%v, encoded slot %p; want a hit with a slot, then a miss without one", resp.Index, resp.CacheHit, resp.Encoded)
		}
		served = append(served, resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != 2 || served[0] != served[1] {
		t.Fatal("the hit and the miss were not answered from one job")
	}
}
