package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/costmodel"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/wire"
	"deep/internal/workload"
)

// idleJobsHolding counts the idle workers whose job still holds a request
// or a response: a worker empties its job once each item is answered. It
// takes each idle worker out of the pool and puts it back, so it is only
// valid while the fleet serves nothing that could take one meanwhile.
func idleJobsHolding(f *Fleet) (held int) {
	for range len(f.idle) {
		w := <-f.idle
		if w.job.req != (Request{}) || !reflect.DeepEqual(w.job.resp, Response{}) {
			held++
		}
		f.idle <- w
	}
	return held
}

// TestAdmissionTable pins what every exported admission entry point answers
// to every way a request can be turned away: the error, how many rejections
// Stats counts (an already-cancelled context is not counted), and that no
// idle worker's job is left holding a request. The cells outside the table are
// the waits that admit the request first: TestDoCancelledWhileQueued and
// TestRequestDeadline.
func TestAdmissionTable(t *testing.T) {
	app := workload.TextProcessing()

	entries := []struct {
		name     string
		items    int64 // requests per call
		takesCtx bool
		call     func(f *Fleet, ctx context.Context, req Request) error
	}{
		{"Submit", 1, false, func(f *Fleet, _ context.Context, req Request) error {
			_, err := f.Submit(req)
			return err
		}},
		{"SubmitBatch", 2, true, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.SubmitBatch(ctx, []Request{req, req})
			return err
		}},
		{"Do", 1, true, func(f *Fleet, ctx context.Context, req Request) error {
			_, err := f.Do(ctx, req)
			return err
		}},
		{"DoBatch", 2, true, func(f *Fleet, ctx context.Context, req Request) error {
			return f.DoBatch(ctx, []Request{req, req}, func(*Response) {})
		}},
	}

	// idle and closed: the one worker has served a request first, so its job
	// has been used.
	idle := func(t *testing.T) (*Fleet, int) {
		f := testFleet(t, Config{Workers: 1})
		if resp, err := f.Do(context.Background(), Request{App: app}); err != nil || resp.Err != nil {
			t.Fatal(err, resp.Err)
		}
		return f, 0
	}
	closed := func(t *testing.T) (*Fleet, int) {
		f, _ := idle(t)
		f.Close()
		return f, 0
	}
	// full: the only worker is busy and the one waiter slot is taken, until
	// the test ends. The first request filled in borrows the worker and parks
	// in the scheduler, the second waits.
	full := func(t *testing.T) (*Fleet, int) {
		hold := &holdSched{started: make(chan struct{}, 1), release: make(chan struct{})}
		f := testFleet(t, Config{Workers: 1, QueueDepth: 1, CacheSize: -1,
			NewScheduler: func() sched.Scheduler { return hold }})
		t.Cleanup(func() { close(hold.release) }) // runs before testFleet's Close
		waitIdle(t, f)
		return f, 2
	}

	conditions := []struct {
		name          string
		fleet         func(*testing.T) (f *Fleet, fill int)
		req           Request
		cancelled     bool // the context is cancelled before the call
		appliesNoCtx  bool
		wantErr       error
		wantText      string
		countsPerItem int64
	}{
		{name: "nil app", fleet: idle, req: Request{Tenant: "t"}, appliesNoCtx: true, wantText: "without app"},
		{name: "closed fleet", fleet: closed, req: Request{App: app}, appliesNoCtx: true, wantErr: ErrClosed, countsPerItem: 1},
		{name: "full queue", fleet: full, req: Request{App: app}, appliesNoCtx: true, wantErr: ErrQueueFull, countsPerItem: 1},
		{name: "already-cancelled ctx", fleet: idle, req: Request{App: app}, cancelled: true, wantErr: context.Canceled},
	}

	for _, c := range conditions {
		for _, e := range entries {
			if !e.takesCtx && !c.appliesNoCtx {
				continue
			}
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				f, fill := c.fleet(t)
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
				if got := idleJobsHolding(f); got != 0 {
					t.Errorf("%d idle workers' jobs still hold a request", got)
				}
			})
		}
	}
}

// holdSched parks every ScheduleModel call until release is closed, signalling
// each arrival on started — a worker held busy for as long as a test needs.
type holdSched struct {
	started chan struct{}
	release chan struct{}
}

func (s *holdSched) Name() string { return "hold" }
func (s *holdSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return firstOptions(model), nil
}

// firstOptions places every microservice at its first option in the model:
// the placement of a test scheduler that only needs a valid one. The model's
// options name live hardware only, so it stays valid under churn.
func firstOptions(model *costmodel.Model) sim.Placement {
	p := make(sim.Placement, model.NumMicroservices())
	for ms := range int32(model.NumMicroservices()) {
		p[model.MSName(ms)] = model.Assignment(model.Options(ms)[0])
	}
	return p
}

// waitIdle blocks until every worker has been set up and is in the pool, so
// a test's next Workers admissions borrow one each and take no waiter slot.
func waitIdle(t *testing.T, f *Fleet) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(f.idle) < f.Workers() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers idle after 5s", len(f.idle), f.Workers())
		}
		time.Sleep(time.Millisecond)
	}
}

// recordingSched records every app it is asked to place and parks on the one
// named "slow" until released.
type recordingSched struct {
	mu      sync.Mutex
	seen    []string
	started chan struct{} // closed when the slow app reaches ScheduleModel
	release chan struct{}
}

func (s *recordingSched) Name() string { return "recording" }
func (s *recordingSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	s.mu.Lock()
	s.seen = append(s.seen, model.App.Name)
	s.mu.Unlock()
	if model.App.Name == "slow" {
		close(s.started)
		<-s.release
	}
	return firstOptions(model), nil
}

// TestDoCancelledWhileQueued: Do carries its context into the queue, so a
// caller that hangs up while its request is parked behind a slow one gets
// its request answered failed with ctx.Err() — Do's own error is for
// admission only, as DoBatch's is — and the scheduler never sees its app.
func TestDoCancelledWhileQueued(t *testing.T) {
	rec := &recordingSched{started: make(chan struct{}), release: make(chan struct{})}
	f := testFleet(t, Config{
		Workers:      1,
		CacheSize:    -1, // every request that is served must reach the scheduler
		NewScheduler: func() sched.Scheduler { return rec },
	})
	slow := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) { s.Name = "slow" })
	slowDone, err := f.Submit(Request{App: slow})
	if err != nil {
		t.Fatal(err)
	}
	<-rec.started // the only worker is now busy

	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		resp *Response
		err  error
	}
	answers := make(chan answer, 1)
	go func() {
		resp, err := f.Do(ctx, Request{App: workload.VideoProcessing()})
		answers <- answer{resp, err}
	}()
	for f.Stats().Submitted < 2 { // Do's request is admitted and parked
		time.Sleep(time.Millisecond)
	}
	cancel()
	if a := <-answers; a.err != nil || a.resp == nil || !errors.Is(a.resp.Err, context.Canceled) {
		t.Fatalf("Do returned %+v, want a response failed with context.Canceled and no error", a)
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
