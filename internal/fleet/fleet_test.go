package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"deep/internal/chaos"
	"deep/internal/dag"
	"deep/internal/energy"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/units"
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
// a first sight, a shared compile and a cache hit the fleet's placement is
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

func TestFingerprintSensitivity(t *testing.T) {
	cd := DigestCluster(workload.Testbed())
	base := cd.Fingerprint(workload.TextProcessing(), "deep")
	if again := cd.Fingerprint(workload.TextProcessing(), "deep"); again != base {
		t.Fatal("identical inputs produced different fingerprints")
	}
	if other := cd.Fingerprint(workload.VideoProcessing(), "deep"); other == base {
		t.Fatal("different apps collided")
	}
	if other := cd.Fingerprint(workload.TextProcessing(), "round-robin"); other == base {
		t.Fatal("different schedulers collided")
	}
	bigger := workload.ScaledTestbed(2)
	if other := DigestCluster(bigger).Fingerprint(workload.TextProcessing(), "deep"); other == base {
		t.Fatal("different clusters collided")
	}
	// A one-byte perturbation of a dataflow size must change the digest.
	tweaked := workload.TextProcessing()
	tweaked.Dataflows[0].Size++
	if other := cd.Fingerprint(tweaked, "deep"); other == base {
		t.Fatal("perturbed dataflow collided")
	}
}

// TestClusterDigestExactFloats: device speeds, power draws and link
// bandwidths are digested as exact floats, so clusters that differ only in a
// fraction get different digests (and never share tables or placements).
func TestClusterDigestExactFloats(t *testing.T) {
	withSpeed := func(speed units.MIPS) ClusterDigest {
		c := workload.Testbed()
		c.Devices[0].Speed = speed
		return DigestCluster(c)
	}
	if string(withSpeed(30000.25)) == string(withSpeed(30000.75)) {
		t.Fatal("device speeds 30000.25 and 30000.75 share a digest")
	}
	withIdle := func(w units.Watts) ClusterDigest {
		c := workload.Testbed()
		pm := c.Devices[0].Power.(energy.TableModel)
		pm.Fallback.StaticW = w
		c.Devices[0].Power = pm
		return DigestCluster(c)
	}
	if string(withIdle(5.001)) == string(withIdle(5.004)) {
		t.Fatal("idle draws 5.001 W and 5.004 W share a digest")
	}
	withBW := func(bw units.Bandwidth) ClusterDigest {
		c := workload.Testbed()
		if err := c.Topology.SetBandwidth(workload.HubNode, workload.MediumNode, bw); err != nil {
			t.Fatal(err)
		}
		return DigestCluster(c)
	}
	if string(withBW(1e6+0.25)) == string(withBW(1e6+0.75)) {
		t.Fatal("link bandwidths differing in the fraction share a digest")
	}
}

// TestFingerprintSeparatorInName asserts a separator byte inside a
// microservice name cannot realign two distinct apps onto one digest
// (name "m|5" + size 0 vs name "m" + size 5).
func TestFingerprintSeparatorInName(t *testing.T) {
	cd := DigestCluster(workload.Testbed())
	mk := func(name string, size int64) *dag.App {
		a := dag.NewApp("x")
		if err := a.AddMicroservice(&dag.Microservice{Name: name, ImageSize: units.Bytes(size)}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mk("m|5", 0)
	b := mk("m", 5)
	if cd.Fingerprint(a, "deep") == cd.Fingerprint(b, "deep") {
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

func TestDriveOpenLoop(t *testing.T) {
	f := testFleet(t, Config{Workers: 4, QueueDepth: 256})
	mix := CaseStudyMix()
	report, err := Drive(context.Background(), f, TrafficConfig{
		Arrivals: NewPoisson(2000),
		Mix:      mix,
		Requests: 300,
		Speedup:  10,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Attempts != 300 {
		t.Fatalf("attempts %d, want 300", report.Attempts)
	}
	if report.Completed+report.Rejected != report.Attempts {
		t.Fatalf("completed %d + rejected %d != attempts %d", report.Completed, report.Rejected, report.Attempts)
	}
	if report.Completed == 0 {
		t.Fatal("nothing completed")
	}
	// Two app shapes cycling through: almost everything after the first
	// two schedules must hit.
	if report.Cache.HitRate() < 0.5 {
		t.Fatalf("cache hit rate %.2f, want > 0.5 on a two-shape mix", report.Cache.HitRate())
	}
	if report.LatencyP50 <= 0 || report.LatencyMax < report.LatencyP50 {
		t.Fatalf("implausible latency quantiles: %+v", report)
	}
	for _, tenant := range []string{"video", "text"} {
		ts, ok := report.PerTenant[tenant]
		if !ok || ts.Completed == 0 {
			t.Fatalf("tenant %s missing from report: %+v", tenant, report.PerTenant)
		}
		if ts.MeanMakespan <= 0 || ts.Energy <= 0 {
			t.Fatalf("tenant %s has empty aggregates: %+v", tenant, ts)
		}
	}
	if report.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestDriveDurationBound(t *testing.T) {
	f := testFleet(t, Config{Workers: 2})
	report, err := Drive(context.Background(), f, TrafficConfig{
		Arrivals: NewPoisson(500),
		Mix:      CaseStudyMix(),
		Duration: 150 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Attempts == 0 {
		t.Fatal("duration-bounded drive made no attempts")
	}
	if report.Elapsed > 5*time.Second {
		t.Fatalf("drive ran %s for a 150ms bound", report.Elapsed)
	}
}

// TestDriveZeroRate asserts a process that will never produce an arrival
// ends the session instead of busy-looping or blocking forever.
func TestDriveZeroRate(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	done := make(chan *Report, 1)
	go func() {
		report, err := Drive(context.Background(), f, TrafficConfig{
			Arrivals: NewPoisson(0),
			Mix:      CaseStudyMix(),
			Requests: 10,
			Seed:     1,
		})
		if err != nil {
			t.Error(err)
		}
		done <- report
	}()
	select {
	case report := <-done:
		if report != nil && report.Attempts != 0 {
			t.Fatalf("zero-rate drive made %d attempts", report.Attempts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("zero-rate drive hung")
	}
}

// TestDriveSparseArrivalsHonorDeadline asserts a Duration bound is not
// overshot by one long inter-arrival gap.
func TestDriveSparseArrivalsHonorDeadline(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	start := time.Now()
	// Mean gap 10s >> the 200ms bound.
	report, err := Drive(context.Background(), f, TrafficConfig{
		Arrivals: NewPoisson(0.1),
		Mix:      CaseStudyMix(),
		Duration: 200 * time.Millisecond,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("200ms-bounded drive ran %s", took)
	}
	if report.Elapsed > 3*time.Second {
		t.Fatalf("report claims %s elapsed", report.Elapsed)
	}
}

// seededArrivals is a Poisson process that draws from its own source, not
// the driver's (which the mix sampling shares), so a test can recount the
// schedule.
type seededArrivals struct {
	p   *Poisson
	rng *rand.Rand
}

func (s *seededArrivals) Name() string { return "seeded-poisson" }

func (s *seededArrivals) Next(*rand.Rand) float64 { return s.p.Next(s.rng) }

// TestDriveOffersItsRate asserts the driver paces arrivals on an absolute
// clock. At 20 000/s the gaps average 50µs, so one relative timer per gap
// adds its overshoot to every later arrival and sends a small fraction of the
// schedule. The worker stays stalled until the window closes, so every
// submission past the one-slot queue is a cheap rejection and the driver has
// the CPU to itself at any GOMAXPROCS.
func TestDriveOffersItsRate(t *testing.T) {
	const rate, seed = 20000, 11
	const window = 200 * time.Millisecond
	p := NewPoisson(rate)
	scheduled := 0
	rng := rand.New(rand.NewSource(seed))
	for sum := p.Next(rng); sum < window.Seconds(); sum += p.Next(rng) {
		scheduled++
	}

	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 1})
	time.AfterFunc(window, unblock)
	report, err := Drive(context.Background(), f, TrafficConfig{
		Arrivals: &seededArrivals{p: p, rng: rand.New(rand.NewSource(seed))},
		Mix:      CaseStudyMix(),
		Duration: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := scheduled * 8 / 10; report.Attempts < want {
		t.Fatalf("offered %d of %d scheduled arrivals in %s, want at least %d", report.Attempts, scheduled, window, want)
	}
}

// TestDriveRejectsInvalidChaos asserts a hand-built schedule is validated
// before the first arrival, so no event fires out of sequence and no invalid
// delta reaches ApplyChurn.
func TestDriveRejectsInvalidChaos(t *testing.T) {
	cases := []struct {
		name   string
		events []chaos.Event
	}{
		{"out of order", []chaos.Event{
			{At: 2 * time.Millisecond, Kind: chaos.DeviceCrash, Target: "medium"},
			{At: time.Millisecond, Kind: chaos.DeviceRecover, Target: "medium"},
		}},
		{"double crash", []chaos.Event{
			{At: time.Millisecond, Kind: chaos.DeviceCrash, Target: "medium"},
			{At: 2 * time.Millisecond, Kind: chaos.DeviceCrash, Target: "medium"},
		}},
		{"factor 5", []chaos.Event{
			{At: time.Millisecond, Kind: chaos.LinkDegrade, A: "hub", B: "medium", Factor: 5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testFleet(t, Config{Workers: 1})
			report, err := Drive(context.Background(), f, TrafficConfig{
				Arrivals: NewPoisson(1000),
				Mix:      CaseStudyMix(),
				Requests: 10,
				Chaos:    &chaos.Schedule{Events: tc.events},
			})
			if err == nil {
				t.Fatalf("invalid schedule accepted (%d attempts)", report.Attempts)
			}
			if s := f.Stats(); s.Submitted != 0 || s.Churn.EpochsApplied != 0 {
				t.Fatalf("rejected session still submitted %d requests and applied %d epochs", s.Submitted, s.Churn.EpochsApplied)
			}
		})
	}
}

// TestDriveReportsPerSessionCacheStats asserts a second Drive on the same
// fleet reports only its own cache activity.
func TestDriveReportsPerSessionCacheStats(t *testing.T) {
	f := testFleet(t, Config{Workers: 2})
	cfg := TrafficConfig{
		Arrivals: NewPoisson(5000),
		Mix:      CaseStudyMix(),
		Requests: 50,
		Seed:     4,
	}
	warm, err := Drive(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses == 0 {
		t.Fatal("warm-up session missed nothing")
	}
	measured, err := Drive(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Cache.Misses != 0 {
		t.Fatalf("second session reports %d misses from the first", measured.Cache.Misses)
	}
	if total := measured.Cache.Hits + measured.Cache.Misses; int(total) > measured.Completed {
		t.Fatalf("session reports %d lookups for %d completions", total, measured.Completed)
	}
}

func TestDriveContextCancel(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// Rate 1 req/s: without cancellation this would take ~50s.
	report, err := Drive(ctx, f, TrafficConfig{
		Arrivals: NewPoisson(1),
		Mix:      CaseStudyMix(),
		Requests: 50,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Attempts >= 50 {
		t.Fatalf("cancellation did not stop the driver (attempts=%d)", report.Attempts)
	}
}

func TestSyntheticMixDeterminism(t *testing.T) {
	a, err := SyntheticMix(3, 2, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticMix(3, 2, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(a[0].Apps) != 2 {
		t.Fatalf("mix shape: %d tenants, %d apps", len(a), len(a[0].Apps))
	}
	cd := DigestCluster(workload.Testbed())
	for i := range a {
		for j := range a[i].Apps {
			fa := cd.Fingerprint(a[i].Apps[j], "deep")
			fb := cd.Fingerprint(b[i].Apps[j], "deep")
			if fa != fb {
				t.Fatalf("tenant %d app %d not deterministic", i, j)
			}
		}
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

// fpOf builds a distinct Fingerprint from a short label, for cache tests.
func fpOf(s string) (f Fingerprint) {
	copy(f[:], s)
	return f
}

func TestLRUEviction(t *testing.T) {
	c := newPlacementCache(2)
	v := NewPlacementView(sim.Placement{"m": {Device: "d", Registry: "r"}})
	c.PutView(fpOf("a"), v)
	c.PutView(fpOf("b"), v)
	if _, ok := c.GetView(fpOf("a")); !ok { // refresh "a"
		t.Fatal("a missing")
	}
	c.PutView(fpOf("c"), v) // evicts "b", the LRU entry
	if _, ok := c.GetView(fpOf("b")); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.GetView(fpOf("a")); !ok {
		t.Fatal("refreshed entry was evicted")
	}
	if _, ok := c.GetView(fpOf("c")); !ok {
		t.Fatal("newest entry missing")
	}
	stats := c.Stats()
	if stats.Evictions != 1 || stats.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 entries", stats)
	}
	// The view handed to PutView may alias request-pooled scratch: reusing
	// that scratch must not corrupt the cached copy.
	v.assigns[0] = sim.Assignment{Device: "x", Registry: "y"}
	again, _ := c.GetView(fpOf("a"))
	if a, _ := again.Get("m"); a.Device != "d" {
		t.Fatal("cache entry mutated through the view it was stored from")
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
	resp.Release()

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
		resp.Release()
	}
	s := f.Stats()
	if s.Cache.Misses != 1 || s.Cache.Hits != int64(len(reqs)) {
		t.Errorf("placement cache misses=%d hits=%d, want 1 and %d", s.Cache.Misses, s.Cache.Hits, len(reqs))
	}
	// One private compile on first sight, one shared compile on second, for
	// shape and app table alike; every later item is a hit on the one entry.
	if mc := s.ModelCache; mc.FirstSight != 1 || mc.Compiles != 2 || mc.AppCompiles != 2 || mc.Entries != 1 || mc.AppEntries != 1 {
		t.Errorf("first sights=%d shape compiles=%d app compiles=%d entries=%d/%d, want 1, 2, 2 and 1/1",
			mc.FirstSight, mc.Compiles, mc.AppCompiles, mc.Entries, mc.AppEntries)
	}
}

// TestWarmPathAllocs gates the steady-state request path — placement
// memoized, shape compiled, app digest memoized, response released — at two
// allocations per request, single and batched alike.
func TestWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := testFleet(t, Config{Workers: 1})
	ctx := context.Background()
	app := workload.TextProcessing()
	single := func() {
		resp, err := f.Do(ctx, Request{Tenant: "t", App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		resp.Release()
	}
	const batchSize = 16
	reqs := make([]Request, batchSize)
	for i := range reqs {
		reqs[i] = Request{Tenant: "t", App: app}
	}
	batch := func() {
		ch, err := f.SubmitBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for range reqs {
			resp := <-ch
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			resp.Release()
		}
	}
	for i := 0; i < 50; i++ { // fill the caches and the job pool
		single()
		batch()
	}
	if got := testing.AllocsPerRun(200, single); got > 2 {
		t.Errorf("warm single request: %.1f allocs, want <= 2", got)
	}
	if got := testing.AllocsPerRun(50, batch) / batchSize; got > 2 {
		t.Errorf("warm batch: %.2f allocs per request, want <= 2", got)
	}
}
