package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/units"
	"deep/internal/workload"
)

// TestSharedModelCacheSingleflight hammers a few keys from many goroutines
// (run under -race in CI) and asserts each key compiled exactly once — the
// singleflight contract — with every caller handed the same model.
func TestSharedModelCacheSingleflight(t *testing.T) {
	const (
		keys       = 3
		goroutines = 16
		rounds     = 50
	)
	c := newSharedModelCache(64)
	apps := make([]*dag.App, keys)
	fps := make([]Fingerprint, keys)
	cd := DigestCluster(workload.Testbed())
	for i := range apps {
		cfg := workload.DefaultGeneratorConfig(4, int64(i+1))
		app, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = app
		fps[i] = cd.Fingerprint(app, "")
	}

	var compiles, firstSights [keys]atomic.Int64
	got := make([][]*costmodel.Model, goroutines)
	var wg sync.WaitGroup
	cluster := workload.Testbed()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*costmodel.Model, keys)
			for r := 0; r < rounds; r++ {
				k := (g + r) % keys
				shape, seen := c.getOrCompile(fps[k], nil, func() compiledShape {
					compiles[k].Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return compiledShape{model: costmodel.Compile(apps[k], cluster)}
				})
				if !seen {
					// First sight of the key: this caller alone compiles
					// privately and nothing was inserted.
					firstSights[k].Add(1)
					continue
				}
				m := shape.model
				if got[g][k] == nil {
					got[g][k] = m
				} else if got[g][k] != m {
					t.Errorf("goroutine %d key %d: model changed identity", g, k)
				}
			}
		}(g)
	}
	wg.Wait()

	for k := range compiles {
		if n := compiles[k].Load(); n != 1 {
			t.Errorf("key %d compiled %d times, want exactly 1", k, n)
		}
		if n := firstSights[k].Load(); n != 1 {
			t.Errorf("key %d was a first sight %d times, want exactly 1", k, n)
		}
	}
	ref := got[0]
	for g := 1; g < goroutines; g++ {
		for k := range ref {
			if got[g][k] != ref[k] {
				t.Errorf("goroutine %d key %d: different model than goroutine 0", g, k)
			}
		}
	}
	s := c.Stats()
	if s.Compiles != 2*keys {
		t.Errorf("stats report %d compiles, want %d (one private, one shared per key)", s.Compiles, 2*keys)
	}
	if s.FirstSight != keys || s.Misses != 2*keys {
		t.Errorf("stats report %d first sights and %d misses, want %d and %d", s.FirstSight, s.Misses, keys, 2*keys)
	}
	if want := int64(goroutines*rounds - 2*keys); s.Hits != want {
		t.Errorf("stats report %d hits, want %d", s.Hits, want)
	}
}

// TestFleetCompilesOncePerShape drives a worker pool much larger than the
// tenant mix with placement memoization off (every request schedules) and
// asserts the fleet-wide law: per distinct shape at most one first-sight
// compile (private to whichever worker saw it first) plus exactly one shared
// compile, whatever the worker count — the dedup the per-worker memo could
// not provide.
func TestFleetCompilesOncePerShape(t *testing.T) {
	f := testFleet(t, Config{Workers: 8, QueueDepth: 256, CacheSize: -1})
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		ch, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i%4), App: apps[i%len(apps)], Seed: int64(i)})
		if err != nil {
			// Bounded queue: drain synchronously and move on.
			continue
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
	if shared := s.ModelCache.Compiles - s.ModelCache.FirstSight; shared != int64(len(apps)) || s.ModelCache.FirstSight > int64(len(apps)) {
		t.Errorf("%d shared and %d first-sight compilations for %d shapes across 8 workers (stats: %+v)",
			shared, s.ModelCache.FirstSight, len(apps), s.ModelCache)
	}
	if s.ModelCache.Entries != len(apps) || s.ModelCache.AppEntries != len(apps) {
		t.Errorf("%d shape and %d app-table entries, want %d each", s.ModelCache.Entries, s.ModelCache.AppEntries, len(apps))
	}
	if s.ModelCache.Hits == 0 {
		t.Error("shared model cache recorded no hits")
	}
}

// TestClusterDigestCanonicalizesDuplicates: the cluster digest hashes only
// each name's first occurrence — the entry the compiled ClusterTable
// resolves the name to. A cluster carrying duplicate losers digests equal to
// the same cluster without them (identical compiled behavior, one shared
// table), while swapping which spec comes first changes the winner and must
// change the digest — digest equality coincides exactly with compiled
// semantics, which is what makes digest-keyed table sharing sound.
func TestClusterDigestCanonicalizesDuplicates(t *testing.T) {
	pm := energy.LinearModel{StaticW: 1, PullW: 2, ReceiveW: 3, ProcessingW: 4}
	specA := func() *device.Device { return device.New("d", dag.AMD64, 8, 10000, 8*units.GB, 64*units.GB, pm) }
	specB := func() *device.Device { return device.New("d", dag.ARM64, 2, 1000, units.GB, 8*units.GB, pm) }
	topology := func(t *testing.T) *netsim.Topology {
		t.Helper()
		top := netsim.NewTopology()
		top.AddNode("hubnode")
		top.AddNode("d")
		if err := top.AddLink(netsim.Link{From: "hubnode", To: "d", BW: 10 * units.MBps, RTT: 1}); err != nil {
			t.Fatal(err)
		}
		return top
	}
	build := func(devs ...*device.Device) *sim.Cluster {
		return &sim.Cluster{
			Devices:    devs,
			Registries: []sim.RegistryInfo{{Name: "hub", Node: "hubnode"}},
			Topology:   topology(t),
		}
	}

	base := DigestCluster(build(specA()))
	withLoser := DigestCluster(build(specA(), specB()))
	swapped := DigestCluster(build(specB(), specA()))

	if string(base) != string(withLoser) {
		t.Error("a duplicate losing entry changed the digest; identical compiled tables would not be shared")
	}
	if string(base) == string(swapped) {
		t.Error("swapping the winning spec kept the digest; differently-compiled clusters would share one table")
	}

	regBase := DigestCluster(&sim.Cluster{
		Registries: []sim.RegistryInfo{{Name: "r", Node: "hubnode", Shared: true}},
		Topology:   topology(t),
	})
	regWithLoser := DigestCluster(&sim.Cluster{
		Registries: []sim.RegistryInfo{{Name: "r", Node: "hubnode", Shared: true}, {Name: "r", Node: "elsewhere"}},
		Topology:   topology(t),
	})
	regSwapped := DigestCluster(&sim.Cluster{
		Registries: []sim.RegistryInfo{{Name: "r", Node: "elsewhere"}, {Name: "r", Node: "hubnode", Shared: true}},
		Topology:   topology(t),
	})
	if string(regBase) != string(regWithLoser) {
		t.Error("a duplicate losing registry changed the digest")
	}
	if string(regBase) == string(regSwapped) {
		t.Error("swapping the winning registry kept the digest")
	}
}

// TestClusterTableSingleflight hammers the cluster-table level from many
// goroutines (run under -race in CI) and asserts each digest compiled
// exactly once with every caller handed the same table.
func TestClusterTableSingleflight(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 50
	)
	c := newSharedModelCache(64)
	clusters := []*sim.Cluster{workload.Testbed(), workload.ScaledTestbed(2)}
	digests := make([]ClusterDigest, len(clusters))
	for i, cl := range clusters {
		digests[i] = DigestCluster(cl)
	}

	var compiles [2]atomic.Int64
	got := make([][]*topo.ClusterTable, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*topo.ClusterTable, len(clusters))
			for r := 0; r < rounds; r++ {
				k := (g + r) % len(clusters)
				tab := c.tableFor(digests[k], func() *topo.ClusterTable {
					compiles[k].Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return sim.CompileClusterTable(clusters[k])
				})
				if got[g][k] == nil {
					got[g][k] = tab
				} else if got[g][k] != tab {
					t.Errorf("goroutine %d digest %d: table changed identity", g, k)
				}
			}
		}(g)
	}
	wg.Wait()

	for k := range compiles {
		if n := compiles[k].Load(); n != 1 {
			t.Errorf("digest %d compiled %d times, want exactly 1", k, n)
		}
	}
	for g := 1; g < goroutines; g++ {
		for k := range got[0] {
			if got[g][k] != got[0][k] {
				t.Errorf("goroutine %d digest %d: different table than goroutine 0", g, k)
			}
		}
	}
	s := c.Stats()
	if s.ClusterCompiles != int64(len(clusters)) {
		t.Errorf("stats report %d cluster compiles, want %d", s.ClusterCompiles, len(clusters))
	}
	if s.ClusterMisses != int64(len(clusters)) {
		t.Errorf("stats report %d cluster misses, want %d", s.ClusterMisses, len(clusters))
	}
	if want := int64(goroutines*rounds - len(clusters)); s.ClusterHits != want {
		t.Errorf("stats report %d cluster hits, want %d", s.ClusterHits, want)
	}
	if s.ClusterEntries != len(clusters) {
		t.Errorf("stats report %d cluster entries, want %d", s.ClusterEntries, len(clusters))
	}
}

// TestFleetCompilesClusterOnce pins the two-level cache's outer level: 8
// workers sharing the fleet's one cluster under many distinct app shapes
// (with placement memoization off, so every request schedules) perform
// exactly one topo.Compile for the whole fleet — New's one cluster-table
// miss, and no worker asks again — while the inner level still compiles
// once per app shape.
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

	s := f.Stats().ModelCache
	if s.ClusterCompiles != 1 {
		t.Errorf("%d cluster-table compilations across %d workers, want 1 (stats: %+v)",
			s.ClusterCompiles, workers, s)
	}
	if s.ClusterMisses != 1 || s.ClusterHits != 0 {
		t.Errorf("cluster-table misses=%d hits=%d, want 1 and 0", s.ClusterMisses, s.ClusterHits)
	}
	if s.ClusterEntries != 1 {
		t.Errorf("%d cluster-table entries, want 1", s.ClusterEntries)
	}
	if shared := s.Compiles - s.FirstSight; shared != int64(len(apps)) || s.FirstSight > int64(len(apps)) {
		t.Errorf("%d shared and %d first-sight shape compilations for %d app shapes (stats: %+v)", shared, s.FirstSight, len(apps), s)
	}
}

// sharedShape is getOrCompile past the second-sight filter: a key the cache
// has not sighted is asked for twice, as its second caller would.
func sharedShape(c *sharedModelCache, key Fingerprint, compile func() compiledShape) compiledShape {
	shape, seen := c.getOrCompile(key, nil, compile)
	if !seen {
		shape, _ = c.getOrCompile(key, nil, compile)
	}
	return shape
}

// TestModelKeyChangesWithCluster pins the no-stale-reuse property: the
// model key folds the cluster digest in, so after a cluster change the same
// app maps to a different entry and a fresh compilation — a worker can
// never be handed a model compiled against another cluster shape.
func TestModelKeyChangesWithCluster(t *testing.T) {
	app := workload.VideoProcessing()
	small := DigestCluster(workload.Testbed())
	big := DigestCluster(workload.ScaledTestbed(2))
	k1, k2 := small.Fingerprint(app, ""), big.Fingerprint(app, "")
	if k1 == k2 {
		t.Fatal("model keys collide across different clusters")
	}

	c := newSharedModelCache(16)
	m1 := sharedShape(c, k1, func() compiledShape {
		return compiledShape{model: costmodel.Compile(app, workload.Testbed())}
	}).model
	m2 := sharedShape(c, k2, func() compiledShape {
		return compiledShape{model: costmodel.Compile(app, workload.ScaledTestbed(2))}
	}).model
	if m1 == m2 {
		t.Fatal("distinct cluster keys shared one compiled model")
	}
	if n1, n2 := m1.NumDevices(), m2.NumDevices(); n1 == n2 {
		t.Fatalf("expected different device counts, got %d and %d", n1, n2)
	}
	if got := sharedShape(c, k1, func() compiledShape {
		t.Fatal("unexpected recompilation of a cached key")
		return compiledShape{}
	}).model; got != m1 {
		t.Fatal("cached model identity changed")
	}
}

// TestModelCacheEviction: FIFO-bounded shards evict and recompile.
func TestModelCacheEviction(t *testing.T) {
	c := newSharedModelCache(modelCacheShards) // one entry per shard
	cd := DigestCluster(workload.Testbed())
	cluster := workload.Testbed()

	var keys []Fingerprint
	var apps []*dag.App
	for i := 0; i < 4; i++ {
		cfg := workload.DefaultGeneratorConfig(3, int64(100+i))
		app, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
		keys = append(keys, cd.Fingerprint(app, ""))
	}
	compiled := 0
	fill := func(i int) {
		sharedShape(c, keys[i], func() compiledShape {
			compiled++
			return compiledShape{model: costmodel.Compile(apps[i], cluster)}
		})
	}
	for i := range keys {
		fill(i)
	}
	if s := c.Stats(); s.Entries > modelCacheShards {
		t.Fatalf("cache grew past capacity: %d entries", s.Entries)
	}
	if compiled != len(keys) {
		t.Fatalf("expected %d compilations, got %d", len(keys), compiled)
	}
}

// TestAppTableSingleflight hammers the app-table level from many goroutines
// (run under -race in CI) and asserts each app digest compiled exactly once
// with every caller handed the same table.
func TestAppTableSingleflight(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 50
	)
	c := newSharedModelCache(64)
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}
	digests := make([]Fingerprint, len(apps))
	for i, app := range apps {
		digests[i] = app.Digest()
	}

	var compiles [2]atomic.Int64
	got := make([][]*appgraph.AppTable, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*appgraph.AppTable, len(apps))
			for r := 0; r < rounds; r++ {
				k := (g + r) % len(apps)
				tab := c.appTableFor(digests[k], func() *appgraph.AppTable {
					compiles[k].Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return appgraph.Compile(apps[k])
				})
				if got[g][k] == nil {
					got[g][k] = tab
				} else if got[g][k] != tab {
					t.Errorf("goroutine %d digest %d: table changed identity", g, k)
				}
			}
		}(g)
	}
	wg.Wait()

	for k := range compiles {
		if n := compiles[k].Load(); n != 1 {
			t.Errorf("app %d compiled %d times, want exactly 1", k, n)
		}
	}
	for g := 1; g < goroutines; g++ {
		for k := range got[0] {
			if got[g][k] != got[0][k] {
				t.Errorf("goroutine %d app %d: different table than goroutine 0", g, k)
			}
		}
	}
	s := c.Stats()
	if s.AppCompiles != int64(len(apps)) {
		t.Errorf("stats report %d app compiles, want %d", s.AppCompiles, len(apps))
	}
	if s.AppMisses != int64(len(apps)) {
		t.Errorf("stats report %d app misses, want %d", s.AppMisses, len(apps))
	}
	if want := int64(goroutines*rounds - len(apps)); s.AppHits != want {
		t.Errorf("stats report %d app hits, want %d", s.AppHits, want)
	}
	if s.AppEntries != len(apps) {
		t.Errorf("stats report %d app entries, want %d", s.AppEntries, len(apps))
	}
}

// TestFleetCompilesAppOnce pins the three-level cache's app level: 8 workers
// serve the same app on 8 churn epochs, each a cluster with a digest of its
// own (so nothing else is shared — every epoch's shape key differs), and the
// whole fleet performs exactly one shared appgraph.Compile: the DAG
// validation, topo order, and stage partition run once and every shared
// per-epoch shape compile layers over that one table. (Each of the 8 keys is
// also sighted once first, compiled into its worker's private scratch, app
// table included; those are FirstSight and touch no level.)
func TestFleetCompilesAppOnce(t *testing.T) {
	const workers, epochs = 8, 8
	f := testFleet(t, Config{
		Workers:    workers,
		QueueDepth: 256,
		CacheSize:  -1,
		NewCluster: func() *sim.Cluster { return workload.ScaledTestbed(epochs) },
	})

	app := workload.VideoProcessing()
	digests := map[string]bool{}
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch > 0 {
			// Each crash adds a device to the down set: a new effective digest.
			if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{fmt.Sprintf("medium-%02d", epoch-1)}}); err != nil {
				t.Fatal(err)
			}
		}
		digests[string(f.churn.Load().digest)] = true
		var wg sync.WaitGroup
		for i := 0; i < 40; i++ {
			ch, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i%4), App: app, Seed: int64(i)})
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
	}
	if len(digests) != epochs {
		t.Fatalf("%d epochs produced %d distinct cluster digests", epochs, len(digests))
	}

	s := f.Stats().ModelCache
	if s.FirstSight != epochs {
		t.Errorf("%d first sights for %d distinct shape keys (stats: %+v)", s.FirstSight, epochs, s)
	}
	// Net of the private compiles, which count on every level they stand in for.
	s.Compiles -= s.FirstSight
	s.AppCompiles -= s.FirstSight
	s.AppMisses -= s.FirstSight
	if s.AppCompiles != 1 {
		t.Errorf("%d shared appgraph.Compile runs across %d epochs, want exactly 1 (stats: %+v)",
			s.AppCompiles, epochs, s)
	}
	if s.AppEntries != 1 {
		t.Errorf("%d app-table entries, want 1", s.AppEntries)
	}
	// One cluster, compiled once; every epoch patched its table.
	if s.ClusterCompiles != 1 {
		t.Errorf("%d cluster-table compilations, want 1 (epochs patch)", s.ClusterCompiles)
	}
	// Every shape compile asked the app level for the same digest: one miss
	// (the compile), the rest hits.
	if s.AppMisses != 1 {
		t.Errorf("%d app-table misses, want 1", s.AppMisses)
	}
	if want := s.Compiles - 1; s.AppHits != want {
		t.Errorf("%d app-table hits, want %d (one per shape compile after the first)", s.AppHits, want)
	}
}
