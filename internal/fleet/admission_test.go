package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// trackJobs makes the fleet record every job its pool mints, so a test can
// count how many are still held by a request (putJob clears req.App on the
// way back to the pool). Only valid while every submission and Release
// happens on goroutines the test joins before counting.
func trackJobs(f *Fleet) func() (held int) {
	var minted []*job
	mint := f.jobPool.New
	f.jobPool.New = func() any {
		j := mint().(*job)
		minted = append(minted, j)
		return j
	}
	return func() (held int) {
		for _, j := range minted {
			if j.req.App != nil {
				held++
			}
		}
		return held
	}
}

// TestAdmissionTable pins what every exported admission entry point answers
// to every way a request can be turned away: the error, how many rejections
// Stats counts (an already-cancelled context is not counted, cancellation
// while blocked on a full queue is), and that every job drawn for the
// rejected request went back to the pool. The one cell outside the table is
// Do cancelled while it waits for its response, which admits the request
// first: TestDoCancelledWhileQueued.
func TestAdmissionTable(t *testing.T) {
	app := workload.TextProcessing()

	entries := []struct {
		name     string
		items    int64 // requests per call
		takesCtx bool
		blocks   bool // waits on a full queue instead of rejecting
		call     func(f *Fleet, ctx context.Context, req Request) error
	}{
		{"Submit", 1, false, false, func(f *Fleet, _ context.Context, req Request) error {
			_, err := f.Submit(req)
			return err
		}},
		{"SubmitCtx", 1, true, true, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.SubmitCtx(ctx, req)
			return err
		}},
		{"TrySubmitCtx", 1, true, false, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.TrySubmitCtx(ctx, req)
			return err
		}},
		{"SubmitBatch", 2, true, false, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.SubmitBatch(ctx, []Request{req, req})
			return err
		}},
		{"Do", 1, true, false, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.Do(ctx, req)
			return err
		}},
	}

	idle := func(t *testing.T) (*Fleet, int) { return testFleet(t, Config{Workers: 1}), 0 }
	closed := func(t *testing.T) (*Fleet, int) {
		f := testFleet(t, Config{Workers: 1})
		f.Close()
		return f, 0
	}
	// full holds one accepted request in a one-slot queue no worker drains
	// until the test ends.
	full := func(t *testing.T) (*Fleet, int) {
		block := make(chan struct{})
		f := testFleet(t, Config{Workers: 1, QueueShards: 1, QueueDepth: 1, NewCluster: func() *sim.Cluster {
			<-block
			return workload.Testbed()
		}})
		t.Cleanup(func() { close(block) }) // runs before testFleet's Close
		return f, 1
	}

	conditions := []struct {
		name          string
		fleet         func(*testing.T) (f *Fleet, fill int)
		req           Request
		cancelled     bool // the context is cancelled before the call
		cancelBlocked bool // the context is cancelled once the call blocks
		applies       func(takesCtx, blocks bool) bool
		wantErr       error
		wantText      string
		countsPerItem int64
	}{
		{name: "nil app", fleet: idle, req: Request{Tenant: "t"},
			applies: func(_, _ bool) bool { return true }, wantText: "without app"},
		{name: "closed fleet", fleet: closed, req: Request{App: app},
			applies: func(_, _ bool) bool { return true }, wantErr: ErrClosed, countsPerItem: 1},
		{name: "full queue", fleet: full, req: Request{App: app},
			applies: func(_, blocks bool) bool { return !blocks }, wantErr: ErrQueueFull, countsPerItem: 1},
		{name: "already-cancelled ctx", fleet: idle, req: Request{App: app}, cancelled: true,
			applies: func(takesCtx, _ bool) bool { return takesCtx }, wantErr: context.Canceled},
		{name: "cancelled while blocked", fleet: full, req: Request{App: app}, cancelBlocked: true,
			applies: func(_, blocks bool) bool { return blocks }, wantErr: context.Canceled, countsPerItem: 1},
	}

	for _, c := range conditions {
		for _, e := range entries {
			if !c.applies(e.takesCtx, e.blocks) {
				continue
			}
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				f, fill := c.fleet(t)
				held := trackJobs(f)
				for i := 0; i < fill; i++ {
					if _, err := f.Submit(Request{App: app}); err != nil {
						t.Fatal(err)
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if c.cancelled {
					cancel()
				}
				before := f.Stats()

				errc := make(chan error, 1)
				go func() { errc <- e.call(f, ctx, c.req) }()
				if c.cancelBlocked {
					// The call is blocked once it holds the admission read
					// lock and does not let go: Close's write lock stays out.
					for f.mu.TryLock() {
						f.mu.Unlock()
						time.Sleep(time.Millisecond)
					}
					cancel()
				}
				var err error
				select {
				case err = <-errc:
				case <-time.After(10 * time.Second):
					t.Fatal("admission call never returned")
				}

				switch {
				case c.wantErr != nil && !errors.Is(err, c.wantErr):
					t.Fatalf("error %v, want %v", err, c.wantErr)
				case c.wantErr == nil && (err == nil || !strings.Contains(err.Error(), c.wantText)):
					t.Fatalf("error %v, want one mentioning %q", err, c.wantText)
				}
				after := f.Stats()
				if got, want := after.Rejected-before.Rejected, c.countsPerItem*e.items; got != want {
					t.Errorf("Rejected grew by %d, want %d", got, want)
				}
				if after.Submitted != before.Submitted || after.InFlight != before.InFlight {
					t.Errorf("a rejected request was accounted as admitted: submitted %d -> %d, in flight %d -> %d",
						before.Submitted, after.Submitted, before.InFlight, after.InFlight)
				}
				if got := held(); got != fill {
					t.Errorf("%d jobs still hold a request, want %d (the rejected request's went back to the pool)", got, fill)
				}
			})
		}
	}
}

// recordingSched records every app it is asked to place and parks on the one
// named "slow" until released.
type recordingSched struct {
	mu      sync.Mutex
	seen    []string
	started chan struct{} // closed when the slow app reaches Schedule
	release chan struct{}
}

func (s *recordingSched) Name() string { return "recording" }
func (s *recordingSched) Schedule(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	s.mu.Lock()
	s.seen = append(s.seen, app.Name)
	s.mu.Unlock()
	if app.Name == "slow" {
		close(s.started)
		<-s.release
	}
	p := make(sim.Placement, len(app.Microservices))
	for _, ms := range app.Microservices {
		p[ms.Name] = sim.Assignment{Device: cluster.Devices[0].Name, Registry: cluster.Registries[0].Name}
	}
	return p, nil
}

// TestDoCancelledWhileQueued: Do carries its context into the queue, so a
// caller that hangs up while its request is parked behind a slow one gets
// ctx.Err() back and the scheduler never sees its app.
func TestDoCancelledWhileQueued(t *testing.T) {
	rec := &recordingSched{started: make(chan struct{}), release: make(chan struct{})}
	f := testFleet(t, Config{
		Workers:      1,
		CacheSize:    -1, // every request that is served must reach the scheduler
		NewScheduler: func() sched.Scheduler { return rec },
	})
	slow := workload.TextProcessing()
	slow.Name = "slow"
	slowDone, err := f.Submit(Request{App: slow})
	if err != nil {
		t.Fatal(err)
	}
	<-rec.started // the only worker is now busy

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, Request{App: workload.VideoProcessing()})
		errc <- err
	}()
	for f.Stats().Submitted < 2 { // Do's request is admitted and parked
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}

	close(rec.release)
	if resp := <-slowDone; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	f.Close() // drains the abandoned request
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) != 1 || rec.seen[0] != "slow" {
		t.Fatalf("scheduler saw %v, want only the slow app: the abandoned request was scheduled", rec.seen)
	}
	if s := f.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("completed %d failed %d, want 1 and 1 (the abandoned request fails with its context error)", s.Completed, s.Failed)
	}
}
