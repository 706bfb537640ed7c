package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/wire"
	"deep/internal/workload"
)

// testFleet starts a fleet that the test's cleanup closes and then audits:
// once Close has drained the pool, every admitted request must have been
// answered exactly once and nothing may be left queued — the conservation law
// the front-door benchmark checks from outside through /v1/stats.
func testFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f := New(cfg)
	t.Cleanup(func() {
		f.Close()
		s := f.Stats()
		if s.Submitted != s.Completed+s.Failed || s.InFlight != 0 || f.queued.Load() != 0 {
			t.Errorf("conservation broken after Close: submitted %d != completed %d + failed %d (in flight %d, queued %d)",
				s.Submitted, s.Completed, s.Failed, s.InFlight, f.queued.Load())
		}
	})
	return f
}

func TestDoVideoAndText(t *testing.T) {
	f := testFleet(t, Config{Workers: 2})
	for _, app := range []*dag.App{workload.VideoProcessing(), workload.TextProcessing()} {
		resp, err := f.Do(context.Background(), Request{Tenant: "t", App: app})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Placement.Len() != len(app.Microservices) {
			t.Fatalf("%s: placement covers %d of %d microservices", app.Name, resp.Placement.Len(), len(app.Microservices))
		}
		if resp.Result == nil || resp.Result.Makespan <= 0 {
			t.Fatalf("%s: missing simulation result", app.Name)
		}
	}
}

// TestCacheHitMatchesColdSchedule asserts the memoized placement is
// identical to what a cold scheduling pass computes — the property that
// makes memoization sound.
func TestCacheHitMatchesColdSchedule(t *testing.T) {
	f := testFleet(t, Config{Workers: 3})
	app := workload.TextProcessing()

	cold, err := f.Do(context.Background(), Request{App: app})
	if err != nil || cold.Err != nil {
		t.Fatal(err, cold.Err)
	}
	if cold.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}

	// Fresh but structurally identical app objects must hit and match.
	reference, err := sched.Schedule(sched.NewDEEP(), workload.TextProcessing(), workload.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, err := f.Do(context.Background(), Request{App: workload.TextProcessing(), Seed: int64(i)})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		if !resp.CacheHit {
			t.Fatalf("repeat %d missed the cache", i)
		}
		if !reflect.DeepEqual(resp.Placement.Materialize(), reference) {
			t.Fatalf("repeat %d: cached placement %v != cold schedule %v", i, resp.Placement, reference)
		}
	}
	if stats := f.Stats(); stats.Cache.Hits < 5 {
		t.Fatalf("want >= 5 cache hits, got %+v", stats.Cache)
	}
}

// TestFleetServesEveryScheduler runs each built-in scheduler through Do: on
// a miss, an entry's first hit and a stored answer the fleet's placement is
// the one sched.Schedule computes from the app and cluster, and after a
// device fails no served placement names it.
func TestFleetServesEveryScheduler(t *testing.T) {
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	for i, s := range sched.All(1) {
		t.Run(s.Name(), func(t *testing.T) {
			f := testFleet(t, Config{
				Workers:      2,
				NewCluster:   scaled2,
				NewScheduler: func() sched.Scheduler { return sched.All(1)[i] },
			})
			used := map[string]bool{}
			for _, app := range apps {
				want, err := sched.Schedule(s, app, scaled2())
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 3; round++ {
					resp, err := f.Do(context.Background(), Request{App: app})
					if err != nil || resp.Err != nil {
						t.Fatal(err, resp.Err)
					}
					if got := resp.Placement.Materialize(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: fleet placed %v, sched.Schedule %v", app.Name, round, got, want)
					}
				}
				for _, a := range want {
					used[a.Device] = true
				}
			}

			var down string
			for d := range used {
				if down == "" || d < down {
					down = d
				}
			}
			if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{down}}); err != nil {
				t.Fatal(err)
			}
			for _, app := range apps {
				for round := 0; round < 3; round++ {
					resp, err := f.Do(context.Background(), Request{App: app})
					if err != nil || resp.Err != nil {
						t.Fatal(err, resp.Err)
					}
					for ms, a := range resp.Placement.All() {
						if a.Device == down {
							t.Fatalf("%s round %d: %s placed on failed device %s", app.Name, round, ms, down)
						}
					}
				}
			}
		})
	}
}

// rebuilt builds app again with edit applied to its spec: a built app is
// read-only.
func rebuilt(t testing.TB, app *dag.App, edit func(*wire.AppSpec)) *dag.App {
	t.Helper()
	spec := wire.AppSpecOf(app)
	edit(spec)
	out, err := spec.App()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFingerprintSensitivity(t *testing.T) {
	key := func(app *dag.App) cacheKey { return cacheKey{app: app.Digest()} }
	base := key(workload.TextProcessing())
	if again := key(workload.TextProcessing()); again != base {
		t.Fatal("identical inputs produced different fingerprints")
	}
	if other := key(workload.VideoProcessing()); other == base {
		t.Fatal("different apps collided")
	}
	// A one-byte perturbation of a dataflow size must change the digest.
	tweaked := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) { s.Dataflows[0].SizeBytes++ })
	if other := key(tweaked); other == base {
		t.Fatal("perturbed dataflow collided")
	}
}

// TestFingerprintSeparatorInName asserts a separator byte inside a
// microservice name cannot realign two distinct apps onto one digest
// (name "m|5" + size 0 vs name "m" + size 5).
func TestFingerprintSeparatorInName(t *testing.T) {
	mk := func(name string, size int64) *dag.App {
		b := dag.Builder{Name: "x"}
		if err := b.Microservice(dag.Microservice{Name: name, ImageSize: units.Bytes(size)}); err != nil {
			t.Fatal(err)
		}
		a, err := b.App()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mk("m|5", 0)
	b := mk("m", 5)
	if a.Digest() == b.Digest() {
		t.Fatal("separator byte in a name realigned two distinct apps")
	}
}

// TestStress floods a small pool with hundreds of concurrent requests from
// many submitter goroutines; run under -race this exercises every shared
// structure (queue, cache, counters, metrics).
func TestStress(t *testing.T) {
	f := testFleet(t, Config{Workers: 4, QueueDepth: 512, CacheSize: 64})
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	for i := 0; i < 4; i++ {
		app, err := workload.Generate(workload.DefaultGeneratorConfig(8, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}

	const submitters = 8
	const perSubmitter = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	rejected := 0
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var pending []<-chan *Response
			for i := 0; i < perSubmitter; i++ {
				app := apps[(s*perSubmitter+i)%len(apps)]
				ch, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", s), App: app, Seed: int64(i)})
				if errors.Is(err, ErrQueueFull) {
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				pending = append(pending, ch)
			}
			for _, ch := range pending {
				resp := <-ch
				if resp.Err != nil {
					t.Error(resp.Err)
					return
				}
				mu.Lock()
				accepted++
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()

	stats := f.Stats()
	if got := int(stats.Completed); got != accepted {
		t.Fatalf("completed %d != drained %d", got, accepted)
	}
	if got := int(stats.Rejected); got != rejected {
		t.Fatalf("fleet counted %d rejections, submitters saw %d", got, rejected)
	}
	if accepted+rejected != submitters*perSubmitter {
		t.Fatalf("accounted %d of %d requests", accepted+rejected, submitters*perSubmitter)
	}
	if stats.InFlight != 0 {
		t.Fatalf("in-flight %d after drain", stats.InFlight)
	}
	if stats.Cache.Hits == 0 {
		t.Fatal("repeated app mix produced no cache hits")
	}
	// Per-tenant aggregates arrived in the metrics registry.
	total := 0.0
	for s := 0; s < submitters; s++ {
		total += f.Metrics().Counter(fmt.Sprintf("fleet_completed{tenant=t%d}", s))
	}
	if int(total) != accepted {
		t.Fatalf("metrics counted %v completions, want %d", total, accepted)
	}
}

// TestQueueFullRejection fills the waiter slots deterministically with a
// stalled worker pool and checks rejections are surfaced and counted.
func TestQueueFullRejection(t *testing.T) {
	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 2})
	defer func() {
		unblock()
		f.Close()
	}()

	app := workload.TextProcessing()
	okCount, fullCount := 0, 0
	for i := 0; i < 5; i++ {
		_, err := f.Submit(Request{App: app})
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrQueueFull):
			fullCount++
		default:
			t.Fatal(err)
		}
	}
	if okCount != 2 || fullCount != 3 {
		t.Fatalf("accepted %d rejected %d, want 2 and 3", okCount, fullCount)
	}
	if got := f.Stats().Rejected; got != 3 {
		t.Fatalf("rejection counter %d, want 3", got)
	}
}

// TestCloseDrains submits a batch, closes immediately, and checks every
// accepted request still gets exactly one response.
func TestCloseDrains(t *testing.T) {
	f := testFleet(t, Config{Workers: 2, QueueDepth: 128})
	var pending []<-chan *Response
	for i := 0; i < 40; i++ {
		ch, err := f.Submit(Request{App: workload.VideoProcessing(), Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ch)
	}
	f.Close()
	for i, ch := range pending {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed during drain: %v", i, resp.Err)
			}
		default:
			t.Fatalf("request %d not drained by Close", i)
		}
	}
	if _, err := f.Submit(Request{App: workload.VideoProcessing()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if got := f.Stats().Completed; got != 40 {
		t.Fatalf("completed %d, want 40", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, CacheSize: -1})
	for i := 0; i < 3; i++ {
		resp, err := f.Do(context.Background(), Request{App: workload.TextProcessing()})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		if resp.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
	}
	if stats := f.Stats().Cache; stats.Hits != 0 || stats.Entries != 0 {
		t.Fatalf("disabled cache has state: %+v", stats)
	}
}

// fpOf builds a distinct cache key from a short label, for cache tests.
func fpOf(s string) (k cacheKey) {
	copy(k.app[:], s)
	return k
}

// resident reports whether the cache holds key, without marking its entry
// used.
func (c *placementCache) resident(key cacheKey) bool {
	sh := c.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.byKey[key] != nil
}

// TestSecondChanceEviction pins the CLOCK policy on a one-shard cache: an
// entry hit since the hand last passed it survives one sweep, which clears
// its bit, and the first unreferenced entry the hand reaches is evicted.
func TestSecondChanceEviction(t *testing.T) {
	c := newPlacementCache(3)
	if len(c.shards) != 1 {
		t.Fatalf("a 3-entry cache has %d shards, want one ring", len(c.shards))
	}
	v := NewPlacementView(sim.Placement{"m": {Device: "d", Registry: "r"}})
	for _, k := range []string{"a", "b", "c"} {
		c.PutView(fpOf(k), v)
	}
	if c.Get(fpOf("a")) == nil { // a is referenced; the hand is on it
		t.Fatal("a missing")
	}
	c.PutView(fpOf("d"), v) // passes a, clearing its bit, and evicts b
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if c.resident(fpOf(k)) != want {
			t.Fatalf("after one sweep: %s resident %v, want %v", k, !want, want)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats %+v, want 1 eviction and 3 entries", s)
	}
	// a had its second chance: unreferenced since, it goes when the hand
	// comes round again, after c.
	c.PutView(fpOf("e"), v)
	c.PutView(fpOf("f"), v)
	for k, want := range map[string]bool{"a": false, "c": false, "d": true, "e": true, "f": true} {
		if c.resident(fpOf(k)) != want {
			t.Fatalf("after the second sweep: %s resident %v, want %v", k, !want, want)
		}
	}
	if s := c.Stats(); s.Evictions != 3 || s.Entries != 3 {
		t.Fatalf("stats %+v, want 3 evictions and 3 entries", s)
	}
	// The view handed to PutView may alias request-pooled scratch: reusing
	// that scratch must not corrupt the cached copy.
	v.assigns[0] = sim.Assignment{Device: "x", Registry: "y"}
	if a, _ := c.Get(fpOf("d")).view().Get("m"); a.Device != "d" {
		t.Fatal("cache entry mutated through the view it was stored from")
	}
}

// TestCacheShardsSumToCapacity: the shards hold exactly the configured
// number of entries between them, and a small cache is one ring.
func TestCacheShardsSumToCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 8, 9, 1023, 1024, 1030} {
		c := newPlacementCache(capacity)
		want := 8
		if capacity < 8 {
			want = 1
		}
		if len(c.shards) != want {
			t.Errorf("capacity %d: %d shards, want %d", capacity, len(c.shards), want)
		}
		// Eight keys per entry, spread evenly over the shards, fill each.
		v := NewPlacementView(sim.Placement{"m": {Device: "d", Registry: "r"}})
		for i := 0; i < 8*capacity; i++ {
			c.PutView(raceKey(i), v)
		}
		if s := c.Stats(); s.Entries != capacity || s.Evictions != int64(7*capacity) {
			t.Errorf("capacity %d: %+v after %d stores", capacity, s, 8*capacity)
		}
	}
}

// raceKey is a distinct cache key whose app digest starts with byte(i), so
// keys 0..7 land on eight different shards.
func raceKey(i int) (k cacheKey) {
	k.app[0], k.app[1] = byte(i), byte(i>>8)
	return k
}

// TestCacheConcurrentGetPut races lookups and stores over four times more
// keys than a small cache holds, then races first writes on keys that fit.
// Every returned entry must carry its own key and the view put under it, the
// cache must never hold more than its capacity, and of concurrent stores to
// an absent key the first wins: every writer then finds one entry.
func TestCacheConcurrentGetPut(t *testing.T) {
	const capacity, keys, writers = 16, 64, 8
	c := newPlacementCache(capacity)
	viewOf := func(k, g int) PlacementView {
		return NewPlacementView(sim.Placement{"m": {Device: fmt.Sprint("k", k), Registry: fmt.Sprint("g", g)}})
	}
	check := func(e *cacheEntry, k int) error {
		if e.key != raceKey(k) {
			return fmt.Errorf("Get(%d) returned the entry of another key", k)
		}
		if a, ok := e.view().Get("m"); !ok || a.Device != fmt.Sprint("k", k) {
			return fmt.Errorf("key %d holds the view %+v", k, a)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g*13) % keys
				e := c.Get(raceKey(k))
				if e == nil {
					c.PutView(raceKey(k), viewOf(k, g))
					continue
				}
				if err := check(e, k); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if s := c.Stats(); s.Entries > capacity {
				errs <- fmt.Errorf("cache holds %d entries, capacity %d", s.Entries, capacity)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != capacity || s.Evictions == 0 {
		t.Fatalf("after the churn: %+v, want a full cache of %d and evictions", s, capacity)
	}

	// Eight absent keys on eight shards: no store can evict another, so
	// every writer must find the entry the first store made.
	c = newPlacementCache(capacity)
	found := make([][writers]*cacheEntry, 8)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range found {
				c.PutView(raceKey(k), viewOf(k, g))
				found[k][g] = c.Get(raceKey(k))
			}
		}()
	}
	wg.Wait()
	for k := range found {
		first := found[k][0]
		if first == nil {
			t.Fatalf("key %d: stored and not found", k)
		}
		if err := check(first, k); err != nil {
			t.Fatal(err)
		}
		for g, e := range found[k] {
			if e != first {
				t.Fatalf("key %d: writer %d found another entry than writer 0: a later store replaced the first", k, g)
			}
		}
	}
}

// TestPutViewFirstWriteWins: a second PutView under a present key keeps the
// entry as it was — its placement and its stored result — so a result slot
// always describes the placement beside it.
func TestPutViewFirstWriteWins(t *testing.T) {
	c := newPlacementCache(4)
	key := fpOf("a")
	c.PutView(key, NewPlacementView(sim.Placement{"m": {Device: "d", Registry: "r"}}))
	e := c.Get(key)
	stored := &sim.Result{App: "a", Makespan: 1, TotalEnergy: 2}
	e.result.Store(stored)

	c.PutView(key, NewPlacementView(sim.Placement{"m": {Device: "x", Registry: "y"}}))
	again := c.Get(key)
	if again != e {
		t.Fatal("a second put replaced the entry")
	}
	if a, _ := again.view().Get("m"); a.Device != "d" || a.Registry != "r" {
		t.Fatalf("a second put changed the placement to %+v", a)
	}
	if got := again.result.Load(); got != stored {
		t.Fatalf("a second put changed the stored result to %+v", got)
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats %+v, want 1 entry and no eviction", s)
	}
}

// TestBatchAndSingleShareKeys pins that a *dag.App keys the caches the same
// way however it is submitted: the digest lives on the app, so a single
// submission and every item of a later batch — and a structurally equal app
// built separately — land on one placement entry and one compiled shape.
func TestBatchAndSingleShareKeys(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	app := workload.VideoProcessing()
	resp, err := f.Do(context.Background(), Request{Tenant: "t", App: app})
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	if resp.CacheHit {
		t.Fatal("first submission hit an empty placement cache")
	}

	reqs := []Request{{App: app}, {App: app}, {App: workload.VideoProcessing()}, {App: app}}
	ch, err := f.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for range reqs {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if !resp.CacheHit {
			t.Errorf("batch item %d missed the placement its single submission memoized", resp.Index)
		}
	}
	s := f.Stats()
	if s.Cache.Misses != 1 || s.Cache.Hits != int64(len(reqs)) {
		t.Errorf("placement cache misses=%d hits=%d, want 1 and %d", s.Cache.Misses, s.Cache.Hits, len(reqs))
	}
}

// TestCompileCountLaw pins what model_cache.compiles counts: one shape per
// placement miss and one per entry's first hit, none once the entry holds
// its answer. N distinct apps deployed three times each compile 2N shapes
// (app tables alike), and the third round adds none. With placement
// memoization off, every deploy compiles.
func TestCompileCountLaw(t *testing.T) {
	const n = 6
	apps := make([]*dag.App, n)
	for i := range apps {
		apps[i] = oneShot(t, 3+i, int64(300+i))
	}
	deployAll := func(f *Fleet) {
		t.Helper()
		for _, app := range apps {
			resp, err := f.Do(context.Background(), Request{App: app})
			if err != nil || resp.Err != nil {
				t.Fatal(err, resp.Err)
			}
		}
	}

	f := testFleet(t, Config{Workers: 2})
	deployAll(f)
	deployAll(f)
	mc := f.Stats().ModelCache
	if mc.Compiles != 2*n || mc.AppCompiles != mc.Compiles {
		t.Fatalf("%d apps deployed twice: %d shape and %d app-table compiles, want %d each", n, mc.Compiles, mc.AppCompiles, 2*n)
	}
	deployAll(f)
	if got := f.Stats().ModelCache.Compiles; got != mc.Compiles {
		t.Errorf("third round compiled %d shapes, want 0: every entry holds its answer", got-mc.Compiles)
	}

	off := testFleet(t, Config{Workers: 2, CacheSize: -1})
	for range 3 {
		deployAll(off)
	}
	if s := off.Stats(); s.ModelCache.Compiles != s.Completed || s.Completed != 3*n {
		t.Errorf("memoization off: %d compiles for %d deploys, want one each (%d)", s.ModelCache.Compiles, s.Completed, 3*n)
	}
}

// TestFleetCompilesClusterOnce: 8 workers sharing the fleet's one cluster
// under many distinct app shapes (with placement memoization off, so every
// request schedules) perform exactly one topo.Compile for the whole fleet —
// New's, and no worker compiles again — while every request compiles its
// own shape.
func TestFleetCompilesClusterOnce(t *testing.T) {
	const workers = 8
	f := testFleet(t, Config{Workers: workers, QueueDepth: 256, CacheSize: -1})

	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	for i := 0; i < 6; i++ {
		cfg := workload.DefaultGeneratorConfig(5, int64(i+1))
		app, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}

	var wg sync.WaitGroup
	for i := 0; i < 320; i++ {
		ch, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i%4), App: apps[i%len(apps)], Seed: int64(i)})
		if err != nil {
			continue // bounded queue; coverage doesn't need every request
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := <-ch; resp.Err != nil {
				t.Error(resp.Err)
			}
		}()
	}
	wg.Wait()

	s := f.Stats()
	if s.ModelCache.ClusterCompiles != 1 {
		t.Errorf("%d cluster-table compilations across %d workers, want 1 (stats: %+v)",
			s.ModelCache.ClusterCompiles, workers, s.ModelCache)
	}
	if s.ModelCache.Compiles != s.Completed {
		t.Errorf("%d shape compilations for %d deploys, want one each", s.ModelCache.Compiles, s.Completed)
	}
}

// TestWarmPathAllocs gates the steady-state request path — placement
// memoized, shape compiled, app digest stored — at no allocation per
// request, through DoBatch, the path the front door serves, with one item
// and with sixteen.
func TestWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := testFleet(t, Config{Workers: 1})
	ctx := context.Background()
	app := workload.TextProcessing()
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Tenant: "t", App: app}
	}
	check := func(resp *Response) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	single := func() {
		if err := f.DoBatch(ctx, reqs[:1], check); err != nil {
			t.Fatal(err)
		}
	}
	batch := func() {
		if err := f.DoBatch(ctx, reqs, check); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // fill the caches
		single()
		batch()
	}
	if got := testing.AllocsPerRun(200, single); got != 0 {
		t.Errorf("warm one-item DoBatch: %.1f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(50, batch) / float64(len(reqs)); got != 0 {
		t.Errorf("warm 16-item DoBatch: %.2f allocs per request, want 0", got)
	}
}
