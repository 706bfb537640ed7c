package fleet

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/chaos"
	"deep/internal/costmodel"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

func scaled2() *sim.Cluster { return workload.ScaledTestbed(2) }

// TestApplyChurnEpochsAndInvalidation pins the ApplyChurn contract: every
// call bumps the epoch, crashing the devices a memoized placement uses drops
// that entry, unknown names are rejected without advancing the epoch, and a
// full recovery restores the base cluster's key so pre-churn cache keys come
// back.
func TestApplyChurnEpochsAndInvalidation(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()

	cold, err := f.Do(context.Background(), Request{App: app})
	if err != nil || cold.Err != nil {
		t.Fatal(err, cold.Err)
	}
	if cold.Epoch != 0 {
		t.Fatalf("pre-churn epoch %d, want 0", cold.Epoch)
	}

	// Crash every device the memoized placement references.
	used := map[string]bool{}
	for _, a := range cold.Placement.All() {
		used[a.Device] = true
	}
	var fail []string
	for d := range used {
		fail = append(fail, d)
	}
	epoch, invalidated, err := f.ApplyChurn(ChurnDelta{FailDevices: fail})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch %d after first churn, want 1", epoch)
	}
	if invalidated < 1 {
		t.Fatal("crashing the placement's devices invalidated no cache entries")
	}
	st := f.Stats().Churn
	if st.Epoch != 1 || st.DownDevices != len(fail) || st.EpochsApplied != 1 || st.Invalidated < 1 {
		t.Fatalf("unexpected churn stats %+v", st)
	}

	// The next request must re-schedule (entry gone) onto surviving devices.
	warm, err := f.Do(context.Background(), Request{App: app})
	if err != nil || warm.Err != nil {
		t.Fatal(err, warm.Err)
	}
	if warm.CacheHit {
		t.Fatal("request after invalidation still hit the cache")
	}
	if warm.Epoch != 1 {
		t.Fatalf("post-churn epoch %d, want 1", warm.Epoch)
	}
	for _, a := range warm.Placement.All() {
		if used[a.Device] {
			t.Fatalf("placement landed on crashed device %s", a.Device)
		}
	}

	// Unknown names are configuration errors and must not advance the epoch.
	if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{"no-such-device"}}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, _, err := f.ApplyChurn(ChurnDelta{FailRegistries: []string{"no-such-registry"}}); err == nil {
		t.Fatal("unknown registry accepted")
	}
	if _, _, err := f.ApplyChurn(ChurnDelta{Links: []LinkChange{{A: "nowhere", B: "medium-00", Factor: 0.5}}}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if got := f.Stats().Churn.Epoch; got != 1 {
		t.Fatalf("failed churn advanced the epoch to %d", got)
	}

	// Full recovery is pristine: the base key returns by identity, so the
	// placement memoized at epoch 1... is keyed by the churned key; the
	// original pre-churn entry was invalidated, but the post-recovery
	// schedule re-fills the base key and repeats hit again.
	if _, _, err := f.ApplyChurn(ChurnDelta{RecoverDevices: fail}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Churn; st.DownDevices != 0 || st.Epoch != 2 {
		t.Fatalf("recovery left churn stats %+v", st)
	}
	first, err := f.Do(context.Background(), Request{App: app})
	if err != nil || first.Err != nil {
		t.Fatal(err, first.Err)
	}
	again, err := f.Do(context.Background(), Request{App: app})
	if err != nil || again.Err != nil {
		t.Fatal(err, again.Err)
	}
	if !again.CacheHit {
		t.Fatal("recovered fleet does not serve its cache")
	}
	if !reflect.DeepEqual(again.Placement, cold.Placement) {
		t.Fatal("recovered fleet schedules differently from the pristine fleet")
	}
}

// TestRegistryOutageSteersPlacements pins graceful degradation around a
// registry outage: with the regional registry down, fresh placements pull
// everything from the hub, and recovery restores regional pulls.
func TestRegistryOutageSteersPlacements(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()

	if _, _, err := f.ApplyChurn(ChurnDelta{FailRegistries: []string{"regional"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := f.Do(context.Background(), Request{App: app})
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	for ms, a := range resp.Placement.All() {
		if a.Registry == "regional" {
			t.Fatalf("placement pulls %s from the downed regional registry", ms)
		}
	}
	if _, _, err := f.ApplyChurn(ChurnDelta{RecoverRegistries: []string{"regional"}}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Churn; st.DownRegistries != 0 {
		t.Fatalf("recovery left %d registries down", st.DownRegistries)
	}
}

// TestLinkDegradationChangesDigest pins the cache-key semantics of link
// churn: degrading a link re-keys the placement cache (the effective cluster
// changed even though no hardware left), and restoring it brings the
// pre-churn entries back by key identity.
func TestLinkDegradationChangesDigest(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.TextProcessing()

	if r, err := f.Do(context.Background(), Request{App: app}); err != nil || r.Err != nil {
		t.Fatal(err, r.Err)
	}
	warm, err := f.Do(context.Background(), Request{App: app})
	if err != nil || warm.Err != nil || !warm.CacheHit {
		t.Fatal("pre-churn warm request missed the cache")
	}

	if _, _, err := f.ApplyChurn(ChurnDelta{Links: []LinkChange{{A: "hub", B: "medium-00", Factor: 0.1}}}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Churn; st.DegradedLinks != 1 {
		t.Fatalf("degraded links %d, want 1", st.DegradedLinks)
	}
	degraded, err := f.Do(context.Background(), Request{App: app})
	if err != nil || degraded.Err != nil {
		t.Fatal(err, degraded.Err)
	}
	if degraded.CacheHit {
		t.Fatal("degraded cluster served the pristine cluster's placement")
	}

	if _, _, err := f.ApplyChurn(ChurnDelta{Links: []LinkChange{{A: "hub", B: "medium-00"}}}); err != nil {
		t.Fatal(err)
	}
	restored, err := f.Do(context.Background(), Request{App: app})
	if err != nil || restored.Err != nil {
		t.Fatal(err, restored.Err)
	}
	if !restored.CacheHit {
		t.Fatal("restored cluster did not recover its pre-churn cache entries")
	}
	if !reflect.DeepEqual(restored.Placement, warm.Placement) {
		t.Fatal("restored cluster serves a different placement")
	}
}

// TestChurnKeyIsCanonical pins that an epoch's key depends on the effective
// cluster, not on the route to it: two devices failed in one order, or two
// links degraded in one order, key the placement cache exactly as the same
// changes applied in the other order, so the first deploy after the reverse
// route hits the entry the first route filled.
func TestChurnKeyIsCanonical(t *testing.T) {
	routes := []struct {
		name          string
		first, second ChurnDelta
		recover       ChurnDelta
	}{
		{
			name:    "devices",
			first:   ChurnDelta{FailDevices: []string{"medium-00"}},
			second:  ChurnDelta{FailDevices: []string{"medium-01"}},
			recover: ChurnDelta{RecoverDevices: []string{"medium-00", "medium-01"}},
		},
		{
			name:    "links",
			first:   ChurnDelta{Links: []LinkChange{{A: "hub", B: "medium-00", Factor: 0.1}}},
			second:  ChurnDelta{Links: []LinkChange{{A: "medium-01", B: "hub", Factor: 0.3}}},
			recover: ChurnDelta{Links: []LinkChange{{A: "hub", B: "medium-00"}, {A: "hub", B: "medium-01"}}},
		},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
			app := workload.VideoProcessing()
			apply := func(deltas ...ChurnDelta) {
				t.Helper()
				for _, d := range deltas {
					if _, _, err := f.ApplyChurn(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			deploy := func() *Response {
				t.Helper()
				resp, err := f.Do(context.Background(), Request{App: app})
				if err != nil || resp.Err != nil {
					t.Fatal(err, resp.Err)
				}
				return resp
			}

			apply(route.first, route.second)
			forward := deploy()
			if forward.CacheHit {
				t.Fatal("the first deploy on the churned cluster hit the cache")
			}
			apply(route.recover)
			apply(route.second, route.first)
			reverse := deploy()
			if !reverse.CacheHit {
				t.Fatal("the reverse route to the same cluster missed the placement cache")
			}
			if !reflect.DeepEqual(reverse.Placement, forward.Placement) {
				t.Fatal("the reverse route serves a different placement")
			}
		})
	}
}

// TestChurnStressStaleNeverServed is the acceptance test for the stale
// gate, doubling as the -race stress test: 8 workers serve concurrent load
// while a chaos goroutine crashes and recovers devices (plus registry
// outages and link wobble) as fast as it can. Every successful response
// carries the epoch it was validated against; replaying the recorded
// per-epoch down sets proves no placement was ever served onto hardware
// that was down at its epoch.
func TestChurnStressStaleNeverServed(t *testing.T) {
	f := testFleet(t, Config{Workers: 8, QueueDepth: 512, NewCluster: func() *sim.Cluster {
		return workload.ScaledTestbed(4)
	}})
	devices := []string{
		"medium-00", "small-00", "medium-01", "small-01",
		"medium-02", "small-02", "medium-03", "small-03",
	}

	// Per-epoch ground truth, recorded as each churn lands. Epoch 0 is the
	// pristine state.
	type epochState struct{ devs, regs map[string]bool }
	states := map[int64]epochState{0: {}}
	var mu sync.Mutex
	record := func(epoch int64, devs, regs map[string]bool) {
		d := make(map[string]bool, len(devs))
		for k := range devs {
			d[k] = true
		}
		r := make(map[string]bool, len(regs))
		for k := range regs {
			r[k] = true
		}
		mu.Lock()
		states[epoch] = epochState{devs: d, regs: r}
		mu.Unlock()
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(7))
		down := map[string]bool{}
		regionalDown := false
		degraded := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			var delta ChurnDelta
			switch {
			case len(down) >= 4 || (len(down) > 0 && rng.Intn(2) == 0):
				// Recover a random down device.
				for d := range down {
					delta.RecoverDevices = []string{d}
					delete(down, d)
					break
				}
			default:
				// Crash a random healthy device.
				for {
					d := devices[rng.Intn(len(devices))]
					if !down[d] {
						delta.FailDevices = []string{d}
						down[d] = true
						break
					}
				}
			}
			if rng.Intn(8) == 0 {
				if regionalDown {
					delta.RecoverRegistries = []string{"regional"}
				} else {
					delta.FailRegistries = []string{"regional"}
				}
				regionalDown = !regionalDown
			}
			if rng.Intn(8) == 0 {
				lc := LinkChange{A: "hub", B: "medium-00", Factor: 0.2}
				if degraded {
					lc.Factor = 0 // restore
				}
				delta.Links = []LinkChange{lc}
				degraded = !degraded
			}
			epoch, _, err := f.ApplyChurn(delta)
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			regs := map[string]bool{}
			if regionalDown {
				regs["regional"] = true
			}
			record(epoch, down, regs)
			time.Sleep(300 * time.Microsecond)
		}
	}()

	const loaders = 8
	const perLoader = 25
	responses := make(chan *Response, loaders*perLoader)
	var loadWG sync.WaitGroup
	loadWG.Add(loaders)
	for g := 0; g < loaders; g++ {
		go func(g int) {
			defer loadWG.Done()
			for i := 0; i < perLoader; i++ {
				app := workload.VideoProcessing()
				if (g+i)%2 == 1 {
					app = workload.TextProcessing()
				}
				resp, err := f.Do(context.Background(), Request{
					Tenant: "stress", App: app, Seed: int64(g*perLoader + i),
				})
				if err != nil {
					t.Errorf("loader %d: %v", g, err)
					return
				}
				responses <- resp
			}
		}(g)
	}
	loadWG.Wait()
	close(stop)
	churnWG.Wait()
	close(responses)

	completed, failed := 0, 0
	for resp := range responses {
		if resp.Err != nil {
			// Under saturated churn the only acceptable failures are the
			// bounded-retry exhaustion and deadline expiry; anything else is
			// a broken pipeline.
			if !strings.Contains(resp.Err.Error(), "stale after") && !errors.Is(resp.Err, ErrDeadline) {
				t.Fatalf("unexpected failure under churn: %v", resp.Err)
			}
			failed++
			continue
		}
		completed++
		mu.Lock()
		st, ok := states[resp.Epoch]
		mu.Unlock()
		if !ok {
			t.Fatalf("response validated at unrecorded epoch %d", resp.Epoch)
		}
		for _, a := range resp.Placement.All() {
			if st.devs[a.Device] {
				t.Fatalf("epoch %d served a placement onto crashed device %s", resp.Epoch, a.Device)
			}
			if st.regs[a.Registry] {
				t.Fatalf("epoch %d served a placement pulling from downed registry %s", resp.Epoch, a.Registry)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no requests completed under churn")
	}
	if st := f.Stats().Churn; st.EpochsApplied == 0 {
		t.Fatal("stress run applied no churn")
	}
	t.Logf("completed=%d failed=%d churn=%+v", completed, failed, f.Stats().Churn)
}

// TestDriveWithChaos pins the traffic-driver integration: a generated chaos
// schedule replays against the fleet during an open-loop session and the
// report carries the churn section.
func TestDriveWithChaos(t *testing.T) {
	f := testFleet(t, Config{Workers: 4, QueueDepth: 512, NewCluster: func() *sim.Cluster {
		return workload.ScaledTestbed(2)
	}})
	schedule, err := chaos.Generate(chaos.Config{
		Seed:           3,
		Horizon:        300 * time.Millisecond,
		Devices:        []string{"medium-00", "small-00", "medium-01", "small-01"},
		MinLiveDevices: 2,
		CrashRate:      40,
		MeanDowntime:   30 * time.Millisecond,
		Registries:     []string{"regional"},
		OutageRate:     10,
		MeanOutage:     30 * time.Millisecond,
		Links:          [][2]string{{"hub", "medium-00"}},
		DegradeRate:    10,
		MeanDegrade:    30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if schedule.Len() == 0 {
		t.Fatal("empty chaos schedule")
	}
	report, err := Drive(context.Background(), f, TrafficConfig{
		Arrivals: NewPoisson(300),
		Mix:      CaseStudyMix(),
		Duration: 400 * time.Millisecond,
		Seed:     1,
		Chaos:    schedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Churn == nil {
		t.Fatal("chaos session produced no churn report")
	}
	if report.Churn.Events == 0 {
		t.Fatal("no chaos events fired during the session")
	}
	if report.Churn.EpochsApplied != int64(report.Churn.Events) {
		t.Fatalf("events=%d but epochs=%d", report.Churn.Events, report.Churn.EpochsApplied)
	}
	if report.Completed == 0 {
		t.Fatal("no requests completed under chaos")
	}
	if !strings.Contains(report.String(), "churn:") {
		t.Fatal("report rendering lost the churn section")
	}
}

// TestSubmitBatchAbandonedWhileWaiting pins the admitted-then-abandoned
// path: a batch whose caller cancels while it still waits for a worker has
// every item answered with the context error instead of being scheduled.
func TestSubmitBatchAbandonedWhileWaiting(t *testing.T) {
	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 4})

	ctx, cancel := context.WithCancel(context.Background())
	app := workload.TextProcessing()
	ch, err := f.SubmitBatch(ctx, []Request{{App: app}, {App: app}})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // abandon while waiting
	for i := 0; i < 2; i++ {
		resp := <-ch
		if !errors.Is(resp.Err, context.Canceled) || resp.Index != i {
			t.Fatalf("abandoned item %d answered %v (index %d), want context.Canceled", i, resp.Err, resp.Index)
		}
		if resp.Result != nil {
			t.Fatal("abandoned request was simulated anyway")
		}
		resp.Release()
	}
	unblock()
	if s := f.Stats(); s.Failed != 2 || s.InFlight != 0 || f.QueueLen() != 0 {
		t.Fatalf("failed %d, in flight %d, queued %d; want 2, 0, 0", s.Failed, s.InFlight, f.QueueLen())
	}
}

// TestRequestDeadline pins ErrDeadline: a request whose deadline expires
// while it waits for a worker fails typed when it expires — not when a worker
// frees up — and the counter records it.
func TestRequestDeadline(t *testing.T) {
	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 4})

	ch, err := f.Submit(Request{App: workload.TextProcessing(), Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch // the pool is still empty
	unblock()
	if !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("expired request failed with %v, want ErrDeadline", resp.Err)
	}
	if got := f.Stats().Churn.DeadlineExceeded; got != 1 {
		t.Fatalf("deadline counter %d, want 1", got)
	}
	// A generous deadline sails through.
	resp2, err := f.Do(context.Background(), Request{App: workload.TextProcessing(), Deadline: time.Minute})
	if err != nil || resp2.Err != nil {
		t.Fatal(err, resp2.Err)
	}
}

// TestDegradationLadder pins scheduleAttempt's rungs directly: attempt 0
// runs the exact scheduler, any retry falls back to best-response dynamics
// (degraded), and non-pass schedulers never downgrade.
func TestDegradationLadder(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	cluster := workload.Testbed()
	w := &workerState{
		scheduler: sched.NewDEEP(),
		exec:      sim.NewExec(),
	}
	app := workload.VideoProcessing()
	shape := compiledShape{model: costmodel.Compile(app, cluster)}
	j := &job{req: Request{App: app}}
	// attemptOn runs one rung and returns the placement it left in j.
	attemptOn := func(w *workerState, attempt int, deadline time.Time) (sim.Placement, bool, error) {
		degraded, err := f.scheduleAttempt(w, j, shape, attempt, deadline)
		return PlacementView{names: j.names, assigns: j.assigns}.Materialize(), degraded, err
	}

	exact, degraded, err := attemptOn(w, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("attempt 0 with no deadline ran degraded")
	}
	if w.exactDur <= 0 {
		t.Fatal("exact schedule did not record its duration")
	}

	retry, degraded, err := attemptOn(w, 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("retry attempt did not fall back to the degraded rung")
	}
	if len(retry) != len(exact) {
		t.Fatalf("degraded placement covers %d microservices, exact covers %d", len(retry), len(exact))
	}

	// Best-response reference: the degraded rung must equal DEEP with pair
	// games capped to one cell.
	want, err := (&sched.DEEP{MaxPairCells: 1}).ScheduleModel(shape.model)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(retry, want) {
		t.Fatal("degraded rung diverges from best-response dynamics")
	}

	// Deadline pressure steers attempt 0 onto the degraded rung when the
	// remaining budget is below the last exact duration.
	w.exactDur = time.Hour
	pressed, degraded, err := attemptOn(w, 0, time.Now().Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("deadline pressure did not downgrade")
	}
	if len(pressed) != len(exact) {
		t.Fatal("pressed placement incomplete")
	}

	// A non-pass scheduler has no cheaper rung: retries stay exact.
	w2 := &workerState{
		scheduler: sched.NewRoundRobin(),
		exec:      sim.NewExec(),
	}
	if _, degraded, err := attemptOn(w2, 1, time.Time{}); err != nil {
		t.Fatal(err)
	} else if degraded {
		t.Fatal("non-pass scheduler reported a downgrade")
	}
}

// TestDeltaForEvent pins the chaos-event translation table.
func TestDeltaForEvent(t *testing.T) {
	cases := []struct {
		ev   chaos.Event
		want ChurnDelta
	}{
		{chaos.Event{Kind: chaos.DeviceCrash, Target: "d"}, ChurnDelta{FailDevices: []string{"d"}}},
		{chaos.Event{Kind: chaos.DeviceRecover, Target: "d"}, ChurnDelta{RecoverDevices: []string{"d"}}},
		{chaos.Event{Kind: chaos.RegistryOutage, Target: "r"}, ChurnDelta{FailRegistries: []string{"r"}}},
		{chaos.Event{Kind: chaos.RegistryRecover, Target: "r"}, ChurnDelta{RecoverRegistries: []string{"r"}}},
		{chaos.Event{Kind: chaos.LinkDegrade, A: "a", B: "b", Factor: 0.5}, ChurnDelta{Links: []LinkChange{{A: "a", B: "b", Factor: 0.5}}}},
		{chaos.Event{Kind: chaos.LinkRestore, A: "a", B: "b"}, ChurnDelta{Links: []LinkChange{{A: "a", B: "b"}}}},
	}
	for _, tc := range cases {
		if got := DeltaForEvent(tc.ev); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("DeltaForEvent(%v) = %+v, want %+v", tc.ev, got, tc.want)
		}
	}
}

// TestChurnEpochShapeHygiene pins the eviction half of the churn story: when
// an epoch is abandoned — superseded by further churn or recovered from — the
// compiled shapes of that epoch leave the shape cache immediately
// instead of lingering until FIFO pressure evicts them, while the base
// epoch's shapes survive recovery warm.
func TestChurnEpochShapeHygiene(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()
	do := func() {
		t.Helper()
		resp, err := f.Do(context.Background(), Request{App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
	}
	// A shape is cached on its second sight, so each epoch's takes two.
	do()
	do() // base-epoch shape
	base := f.Stats().ModelCache.Entries
	if base != 1 {
		t.Fatalf("base shape not cached on second sight: %d entries", base)
	}

	if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{"medium-00"}}); err != nil {
		t.Fatal(err)
	}
	do()
	do() // epoch-1 shape, keyed by the churned key
	if got := f.Stats().ModelCache.Entries; got != base+1 {
		t.Fatalf("churned shape not cached: %d entries, want %d", got, base+1)
	}

	// Further churn abandons epoch 1: its shape must be purged even though
	// nothing evicted it.
	if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{"medium-01"}}); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Churn.ShapesPurged < 1 {
		t.Fatalf("superseded epoch purged no shapes: %+v", st.Churn)
	}
	if got := st.ModelCache.Entries; got != base {
		t.Fatalf("after supersede purge: %d entries, want %d", got, base)
	}

	do()
	do() // epoch-2 shape
	compiles := f.Stats().ModelCache.Compiles

	// Pristine recovery abandons epoch 2 and restores the base key by
	// identity: the epoch-2 shape is purged and the base shape serves warm,
	// with no recompilation.
	if _, _, err := f.ApplyChurn(ChurnDelta{RecoverDevices: []string{"medium-00", "medium-01"}}); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().ModelCache.Entries; got != base {
		t.Fatalf("after recovery purge: %d entries, want %d", got, base)
	}
	do()
	if got := f.Stats().ModelCache.Compiles; got != compiles {
		t.Fatalf("recovered fleet recompiled the base shape (%d -> %d compiles)", compiles, got)
	}
}
