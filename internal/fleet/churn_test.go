package fleet

import (
	"context"
	"errors"
	"fmt"
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

// TestApplyChurnEpochs pins the ApplyChurn contract: every call bumps the
// epoch, a crash moves requests to the new epoch's key (a miss, scheduled on
// surviving devices), unknown names are rejected without advancing the
// epoch, and a full recovery restores the base cluster's key by identity, so
// the very first deploy after it hits the pre-churn entry: churn changes the
// key and leaves the caches alone.
func TestApplyChurnEpochs(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()

	cold, err := f.Do(context.Background(), Request{App: app})
	if err != nil || cold.Err != nil {
		t.Fatal(err, cold.Err)
	}
	if cold.Epoch != 0 {
		t.Fatalf("pre-churn epoch %d, want 0", cold.Epoch)
	}
	want := cold.Placement.Materialize()

	// Crash every device the memoized placement references.
	used := map[string]bool{}
	for _, a := range want {
		used[a.Device] = true
	}
	var fail []string
	for d := range used {
		fail = append(fail, d)
	}
	epoch, _, err := f.ApplyChurn(ChurnDelta{FailDevices: fail})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch %d after first churn, want 1", epoch)
	}
	st := f.Stats()
	if st.Churn.Epoch != 1 || st.Churn.DownDevices != len(fail) || st.Churn.EpochsApplied != 1 {
		t.Fatalf("unexpected churn stats %+v", st.Churn)
	}
	if st.Cache.Entries != 1 {
		t.Fatalf("churn touched the placement cache: %d entries, want 1", st.Cache.Entries)
	}

	// The next request keys the churned epoch: a miss, scheduled onto
	// surviving devices.
	warm, err := f.Do(context.Background(), Request{App: app})
	if err != nil || warm.Err != nil {
		t.Fatal(err, warm.Err)
	}
	if warm.CacheHit {
		t.Fatal("request on the churned epoch hit the base key's entry")
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

	// Full recovery is pristine: the base key returns by identity, and the
	// pre-churn entry, valid for that key all along, answers the first
	// deploy.
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
	if !first.CacheHit {
		t.Fatal("first deploy after full recovery missed the pre-churn entry")
	}
	if got := first.Placement.Materialize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered fleet placed %v, pre-churn placement %v", got, want)
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

// gateSched is sched.NewDEEP whose first ScheduleModel call signals started
// and parks until release closes; later calls run straight through. A test
// uses it to land churn between a schedule and its stale gate.
type gateSched struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (s *gateSched) Name() string { return "gate" }
func (s *gateSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	s.once.Do(func() {
		close(s.started)
		<-s.release
	})
	return sched.NewDEEP().ScheduleModel(model)
}

// TestChurnRetryIsExactAndMemoized pins what a churn retry serves when churn
// races a schedule: the first schedule parks, a device its placement uses
// fails, and on release the stale gate rejects the placement (it names the
// down device), the request reschedules once on the latest epoch, and the
// answer is exactly NewDEEP's on that epoch's effective cluster. It is
// memoized, so the next deploy of the app is a cache hit on it.
func TestChurnRetryIsExactAndMemoized(t *testing.T) {
	gate := &gateSched{started: make(chan struct{}), release: make(chan struct{})}
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2,
		NewScheduler: func() sched.Scheduler { return gate }})
	app := workload.VideoProcessing()

	base, err := sched.Schedule(sched.NewDEEP(), app, scaled2())
	if err != nil {
		t.Fatal(err)
	}
	down := base[app.Microservices[0].Name].Device

	type answer struct {
		resp *Response
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := f.Do(context.Background(), Request{App: app})
		done <- answer{resp, err}
	}()
	<-gate.started
	if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{down}}); err != nil {
		close(gate.release)
		t.Fatal(err)
	}
	close(gate.release)
	got := <-done
	if got.err != nil || got.resp.Err != nil {
		t.Fatal(got.err, got.resp.Err)
	}
	retry := got.resp
	defer retry.Release()

	want, err := sched.Schedule(sched.NewDEEP(), app, effectiveCluster(scaled2, map[string]bool{down: true}, nil))
	if err != nil {
		t.Fatal(err)
	}
	for ms, a := range retry.Placement.All() {
		if a.Device == down {
			t.Fatalf("retry placed %s on the down device %s", ms, down)
		}
	}
	if st := f.Stats().Churn; st.StaleRejected != 1 || st.Reschedules != 1 {
		t.Fatalf("stale rejected %d, reschedules %d; want 1, 1", st.StaleRejected, st.Reschedules)
	}
	if retry.Degraded || retry.CacheHit || retry.Epoch != 1 {
		t.Fatalf("retry answered degraded=%v cache_hit=%v epoch=%d, want an exact fresh schedule at epoch 1",
			retry.Degraded, retry.CacheHit, retry.Epoch)
	}
	if got := retry.Placement.Materialize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retry placed %v, NewDEEP on the epoch's cluster %v", got, want)
	}

	again, err := f.Do(context.Background(), Request{App: app})
	if err != nil || again.Err != nil {
		t.Fatal(err, again.Err)
	}
	defer again.Release()
	if !again.CacheHit {
		t.Fatal("the retry's placement was not memoized")
	}
	if got := again.Placement.Materialize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cache hit placed %v, want the retry's %v", got, want)
	}
	if st := f.Stats().Churn; st.Reschedules != 1 {
		t.Fatalf("reschedules %d after the hit, want 1", st.Reschedules)
	}
}

// TestChurnStaleEntryNeverServed pins the stale gate as the one safety
// check: an entry that contradicts its own key cannot come out of a
// schedule, but one planted under the latest epoch's key, naming a device
// down at that epoch, is rejected on every attempt. The request fails after
// churnMaxAttempts and the entry is never served.
func TestChurnStaleEntryNeverServed(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()
	const down = "medium-00"
	if _, _, err := f.ApplyChurn(ChurnDelta{FailDevices: []string{down}}); err != nil {
		t.Fatal(err)
	}

	stale, err := sched.Schedule(sched.NewDEEP(), app, scaled2())
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range stale {
		a.Device = down
		stale[name] = a
	}
	names, assigns := sortedPlacement(stale, nil, nil)
	key := cacheKey{cluster: f.churn.Load().key, app: app.Digest()}
	f.cache.PutView(key, PlacementView{names: names, assigns: assigns})

	resp, err := f.Do(context.Background(), Request{App: app})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	want := fmt.Sprintf("stale after %d attempts", churnMaxAttempts)
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), want) {
		t.Fatalf("planted stale entry answered err=%v placement=%v, want %q", resp.Err, resp.Placement.Materialize(), want)
	}
	if resp.Placement.Len() != 0 || resp.Result != nil {
		t.Fatalf("a failed request carries placement %v, result %v", resp.Placement.Materialize(), resp.Result)
	}
	if st := f.Stats().Churn; st.StaleRejected != churnMaxAttempts || st.Reschedules != churnMaxAttempts-1 {
		t.Fatalf("stale rejected %d, reschedules %d; want %d, %d",
			st.StaleRejected, st.Reschedules, churnMaxAttempts, churnMaxAttempts-1)
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

// TestChurnFlipFlopServesWarm pins that churn leaves the caches alone: a
// device that fails, recovers and fails again returns the fleet to an epoch
// it has served, whose key (canonical in the down sets) names the same
// placement and shape entries, so the deploy is a placement hit and nothing
// is recompiled. After the second recovery the base key hits again.
func TestChurnFlipFlopServesWarm(t *testing.T) {
	f := testFleet(t, Config{Workers: 1, NewCluster: scaled2})
	app := workload.VideoProcessing()
	do := func() *Response {
		t.Helper()
		resp, err := f.Do(context.Background(), Request{App: app})
		if err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		return resp
	}
	churn := func(d ChurnDelta) {
		t.Helper()
		if _, _, err := f.ApplyChurn(d); err != nil {
			t.Fatal(err)
		}
	}
	// A shape is cached on its second sight, so each epoch's takes two.
	do()
	do()
	fail := ChurnDelta{FailDevices: []string{"medium-00"}}
	heal := ChurnDelta{RecoverDevices: []string{"medium-00"}}
	churn(fail)
	do()
	do()
	st := f.Stats()
	if st.ModelCache.Entries != 2 || st.Cache.Entries != 2 {
		t.Fatalf("two epochs' entries not cached: %d shapes, %d placements", st.ModelCache.Entries, st.Cache.Entries)
	}
	compiles := st.ModelCache.Compiles

	churn(heal)
	churn(fail)
	if resp := do(); !resp.CacheHit || resp.Epoch != 3 {
		t.Fatalf("re-entered epoch answered cache_hit=%v at epoch %d, want a hit at 3", resp.CacheHit, resp.Epoch)
	}
	if got := f.Stats().ModelCache.Compiles; got != compiles {
		t.Fatalf("re-entered epoch recompiled its shape (%d -> %d compiles)", compiles, got)
	}

	churn(heal)
	if resp := do(); !resp.CacheHit || resp.Epoch != 4 {
		t.Fatalf("recovered fleet answered cache_hit=%v at epoch %d, want a hit at 4", resp.CacheHit, resp.Epoch)
	}
	if got := f.Stats().ModelCache.Compiles; got != compiles {
		t.Fatalf("recovered fleet recompiled the base shape (%d -> %d compiles)", compiles, got)
	}
}
