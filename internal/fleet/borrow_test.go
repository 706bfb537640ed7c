package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/costmodel"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// stalledFleet builds a fleet whose workers never finish setup until the
// returned unblock is called (idempotent; also run at cleanup, before
// testFleet's Close): the pool stays empty, so every admitted caller waits.
func stalledFleet(t *testing.T, cfg Config) (f *Fleet, unblock func()) {
	block := make(chan struct{})
	cfg.NewScheduler = func() sched.Scheduler {
		<-block
		return sched.NewDEEP()
	}
	f = testFleet(t, cfg)
	var once sync.Once
	unblock = func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	return f, unblock
}

// TestQueueLenCountsWaiters pins the bookkeeping the serving layer's
// Retry-After hints feed on: QueueLen counts the requests waiting for a
// worker — each waiting single request, and every item of a waiting batch
// — and the count falls back to zero once the waiters are served.
func TestQueueLenCountsWaiters(t *testing.T) {
	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 4})

	app := workload.TextProcessing()
	var pending []<-chan *Response
	for i := 0; i < 2; i++ {
		ch, err := f.Submit(Request{Tenant: "solo", App: app, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pending = append(pending, ch)
		if got := f.QueueLen(); got != i+1 {
			t.Fatalf("QueueLen after %d submits = %d, want %d", i+1, got, i+1)
		}
	}
	bch, err := f.SubmitBatch(context.Background(), []Request{{App: app}, {App: app}, {App: app}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.QueueLen(); got != 5 {
		t.Fatalf("QueueLen with two single waiters and a 3-item batch = %d, want 5", got)
	}

	unblock()
	for i := 0; i < 3; i++ {
		pending = append(pending, bch)
	}
	for i, ch := range pending {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never served", i)
		}
	}
	if got := f.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

// TestQueueDepthIsTheBound pins QueueDepth as the exact admission bound: with
// both workers held busy, QueueDepth 3 admits three waiters and no fourth,
// whatever the host's core count.
func TestQueueDepthIsTheBound(t *testing.T) {
	hold := &holdSched{started: make(chan struct{}, 2), release: make(chan struct{})}
	f := testFleet(t, Config{Workers: 2, QueueDepth: 3, CacheSize: -1,
		NewScheduler: func() sched.Scheduler { return hold }})
	released := false
	defer func() {
		if !released {
			close(hold.release)
		}
	}()
	waitIdle(t, f)

	app := workload.TextProcessing()
	var pending []<-chan *Response
	submit := func() error {
		ch, err := f.Submit(Request{App: app})
		if err == nil {
			pending = append(pending, ch)
		}
		return err
	}
	for i := 0; i < 2; i++ { // both workers borrowed and parked
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		<-hold.started
	}
	for i := 0; i < 3; i++ {
		if err := submit(); err != nil {
			t.Fatalf("waiter %d: %v", i+1, err)
		}
	}
	if err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th waiter: %v, want ErrQueueFull", err)
	}
	if got := f.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	close(hold.release)
	released = true
	for i, ch := range pending {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never served", i)
		}
	}
	if got := f.Stats().Completed; got != 5 {
		t.Fatalf("Completed = %d, want 5 (two borrowers, three waiters)", got)
	}
}

// TestCloseDrainsWaiters: Close called while callers wait on a busy pool
// still answers every one of them — a waiter receives the worker its
// predecessor returns — and afterwards the counters reconcile.
func TestCloseDrainsWaiters(t *testing.T) {
	hold := &holdSched{started: make(chan struct{}, 1), release: make(chan struct{})}
	f := testFleet(t, Config{Workers: 1, QueueDepth: 8, CacheSize: -1,
		NewScheduler: func() sched.Scheduler { return hold }})
	waitIdle(t, f)

	app := workload.VideoProcessing()
	first, err := f.Submit(Request{App: app})
	if err != nil {
		t.Fatal(err)
	}
	<-hold.started // the only worker is busy

	const waiters = 6
	answers := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				resp *Response
				err  error
			)
			if i%2 == 0 {
				resp, err = f.Do(context.Background(), Request{App: app, Seed: int64(i)})
			} else {
				var ch <-chan *Response
				if ch, err = f.Submit(Request{App: app, Seed: int64(i)}); err == nil {
					resp = <-ch
				}
			}
			if err == nil {
				err = resp.Err
			}
			answers <- err
		}(i)
	}
	for f.QueueLen() < waiters {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { f.Close(); close(closed) }()
	for { // until Close has stopped admission
		f.mu.RLock()
		closing := f.closed
		f.mu.RUnlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := f.Submit(Request{App: app}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during Close: %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a caller still held the worker")
	case <-time.After(20 * time.Millisecond):
	}
	close(hold.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}

	if resp := <-first; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	wg.Wait()
	close(answers)
	for err := range answers {
		if err != nil {
			t.Errorf("waiter answered with %v, want a served request", err)
		}
	}
	s := f.Stats()
	if s.Submitted != waiters+1 || s.Submitted != s.Completed+s.Failed || s.InFlight != 0 {
		t.Fatalf("after Close: submitted %d, completed %d, failed %d, in flight %d; want %d = completed + failed and none in flight",
			s.Submitted, s.Completed, s.Failed, s.InFlight, waiters+1)
	}
}

// barrierSched blocks every ScheduleModel call until `need` of them are in
// flight at once, then releases them all — provable worker concurrency.
type barrierSched struct {
	need int

	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func (s *barrierSched) Name() string { return "barrier" }
func (s *barrierSched) ScheduleModel(model *costmodel.Model) (sim.Placement, error) {
	s.mu.Lock()
	s.arrived++
	if s.arrived == s.need {
		close(s.release)
	}
	s.mu.Unlock()
	select {
	case <-s.release:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("barrier: only %d of %d schedulers arrived", s.arrived, s.need)
	}
	return firstOptions(model), nil
}

// TestBorrowConcurrency pins the pool's liveness property: concurrent
// callers each borrow their own worker and run at once. The barrier
// scheduler only completes if four Schedule calls are simultaneously in
// flight, so four Do calls from one tenant on four workers must all reach it
// together; a pool that served them one at a time would time out.
func TestBorrowConcurrency(t *testing.T) {
	bar := &barrierSched{need: 4, release: make(chan struct{})}
	f := testFleet(t, Config{
		Workers:      4,
		QueueDepth:   16,
		CacheSize:    -1, // every request must reach the scheduler
		NewScheduler: func() sched.Scheduler { return bar },
	})

	app := workload.TextProcessing()
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			resp, err := f.Do(context.Background(), Request{Tenant: "burst", App: app, Seed: int64(i)})
			if err == nil {
				err = resp.Err
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("request: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
}

// TestSubmitBatchOrderAndIndex pins the batch contract: exactly len(reqs)
// responses, streamed in submission order, each tagged with its index and
// owning its own result.
func TestSubmitBatchOrderAndIndex(t *testing.T) {
	f := testFleet(t, Config{Workers: 2})
	reqs := make([]Request, 5)
	for i := range reqs {
		reqs[i] = Request{Tenant: "batch", App: workload.VideoProcessing(), Seed: int64(i)}
	}
	ch, err := f.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp := <-ch
		if resp.Index != i {
			t.Fatalf("response %d carries index %d", i, resp.Index)
		}
		if resp.Err != nil {
			t.Fatalf("item %d: %v", i, resp.Err)
		}
		if resp.Tenant != "batch" || resp.Placement.Len() == 0 || resp.Result == nil {
			t.Fatalf("item %d implausible: %+v", i, resp)
		}
	}
	st := f.Stats()
	if st.Submitted != 5 || st.Completed != 5 {
		t.Fatalf("stats submitted %d completed %d, want 5/5", st.Submitted, st.Completed)
	}
}

// TestSubmitBatchQueueFull pins single-slot admission with per-item
// accounting: each waiting batch holds one waiter slot however many items
// it carries, QueueLen counts items, and a rejected batch counts every
// item as rejected while consuming nothing.
func TestSubmitBatchQueueFull(t *testing.T) {
	f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 2})

	app := workload.TextProcessing()
	batch := func(n int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Tenant: "b", App: app, Seed: int64(i)}
		}
		return reqs
	}
	ch1, err := f.SubmitBatch(context.Background(), batch(3))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := f.SubmitBatch(context.Background(), batch(3))
	if err != nil {
		t.Fatalf("second batch should hold the second slot: %v", err)
	}
	if got := f.QueueLen(); got != 6 {
		t.Fatalf("QueueLen = %d, want 6 (items, not slots)", got)
	}
	if _, err := f.SubmitBatch(context.Background(), batch(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third batch: %v, want ErrQueueFull", err)
	}
	if got := f.Stats().Rejected; got != 2 {
		t.Fatalf("rejected %d, want 2 (every item of the rejected batch)", got)
	}

	unblock()
	for _, ch := range []<-chan *Response{ch1, ch2} {
		for i := 0; i < 3; i++ {
			select {
			case resp := <-ch:
				if resp.Err != nil {
					t.Fatalf("batch item %d: %v", i, resp.Err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("batch never drained")
			}
		}
	}
	if got := f.Stats().Completed; got != 6 {
		t.Fatalf("completed %d, want 6", got)
	}
}

// TestSubmitBatchValidation pins the argument contract: empty batches and
// app-less items reject before admission, a canceled context
// rejects with its error, and a closed fleet answers ErrClosed.
func TestSubmitBatchValidation(t *testing.T) {
	f := testFleet(t, Config{Workers: 1})
	if _, err := f.SubmitBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	reqs := []Request{
		{Tenant: "v", App: workload.TextProcessing()},
		{Tenant: "v"}, // no app
	}
	if _, err := f.SubmitBatch(context.Background(), reqs); err == nil || !strings.Contains(err.Error(), "request 1") {
		t.Fatalf("app-less item: %v, want index-1 error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.SubmitBatch(ctx, []Request{{App: workload.TextProcessing()}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v, want context.Canceled", err)
	}
	f.Close()
	if _, err := f.SubmitBatch(context.Background(), []Request{{App: workload.TextProcessing()}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed fleet: %v, want ErrClosed", err)
	}
}
