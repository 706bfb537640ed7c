package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// TestQueueLenAggregatesShards pins the sharded admission bookkeeping the
// serving layer's Retry-After hints feed on: QueueLen sums waiters across
// all shards, QueueCap reports the aggregate bound, and a submit beyond it
// rejects — deterministically, because the only worker is stalled in
// cluster construction so nothing drains while the shards are stuffed.
func TestQueueLenAggregatesShards(t *testing.T) {
	block := make(chan struct{})
	stalled := func() *sim.Cluster {
		<-block
		return workload.Testbed()
	}
	f := testFleet(t, Config{Workers: 1, QueueShards: 2, QueueDepth: 4, NewCluster: stalled})
	unblocked := false
	defer func() {
		if !unblocked {
			close(block)
		}
		f.Close()
	}()

	if f.QueueShards() != 2 {
		t.Fatalf("QueueShards() = %d, want 2", f.QueueShards())
	}
	if f.QueueCap() != 4 {
		t.Fatalf("QueueCap() = %d, want 4 (2 shards x 2 deep)", f.QueueCap())
	}

	// One tenant/app pair hashes to one home shard; spillover must still
	// fill the sibling shard, so all four aggregate slots accept.
	app := workload.TextProcessing()
	var pending []<-chan *Response
	for i := 0; i < 4; i++ {
		ch, err := f.Submit(Request{Tenant: "solo", App: app, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v (spillover should fill sibling shards)", i, err)
		}
		pending = append(pending, ch)
		if got := f.QueueLen(); got != i+1 {
			t.Fatalf("QueueLen after %d submits = %d, want %d", i+1, got, i+1)
		}
	}
	if _, err := f.Submit(Request{Tenant: "solo", App: app, Seed: 99}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th submit: %v, want ErrQueueFull", err)
	}

	// Un-stall the worker; every accepted request must still drain.
	close(block)
	unblocked = true
	for i, ch := range pending {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
			resp.Release()
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never drained", i)
		}
	}
	if got := f.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

// barrierSched blocks every Schedule call until `need` of them are in
// flight at once, then releases them all — provable worker concurrency.
type barrierSched struct {
	need int

	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func (s *barrierSched) Name() string { return "barrier" }
func (s *barrierSched) Schedule(app *dag.App, cluster *sim.Cluster) (sim.Placement, error) {
	s.mu.Lock()
	s.arrived++
	if s.arrived == s.need {
		close(s.release)
	}
	s.mu.Unlock()
	select {
	case <-s.release:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("barrier: only %d of %d schedulers arrived (no work stealing?)", s.arrived, s.need)
	}
	p := make(sim.Placement, len(app.Microservices))
	for _, ms := range app.Microservices {
		p[ms.Name] = sim.Assignment{Device: cluster.Devices[0].Name, Registry: cluster.Registries[0].Name}
	}
	return p, nil
}

// TestWorkStealing pins the sharded queue's liveness property: a
// single-tenant burst lands on one home shard, yet all workers — each
// draining its own home shard first — must steal from the loaded sibling
// and run the burst concurrently. The barrier scheduler only completes if
// four Schedule calls are simultaneously in flight; without stealing the
// three non-home workers would idle and the barrier would time out.
func TestWorkStealing(t *testing.T) {
	bar := &barrierSched{need: 4, release: make(chan struct{})}
	f := testFleet(t, Config{
		Workers:      4,
		QueueShards:  4,
		QueueDepth:   16,
		CacheSize:    -1, // every request must reach the scheduler
		NewScheduler: func() sched.Scheduler { return bar },
	})

	app := workload.TextProcessing()
	var pending []<-chan *Response
	for i := 0; i < 4; i++ {
		ch, err := f.Submit(Request{Tenant: "burst", App: app, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ch)
	}
	for i, ch := range pending {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
			resp.Release()
		case <-time.After(15 * time.Second):
			t.Fatalf("request %d never completed (work stealing broken)", i)
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
		resp.Release()
	}
	st := f.Stats()
	if st.Submitted != 5 || st.Completed != 5 {
		t.Fatalf("stats submitted %d completed %d, want 5/5", st.Submitted, st.Completed)
	}
}

// TestSubmitBatchQueueFull pins single-slot admission with per-item
// accounting: each accepted batch holds one shard slot however many items
// it carries, QueueLen counts items, and a rejected batch counts every
// item as rejected while consuming nothing.
func TestSubmitBatchQueueFull(t *testing.T) {
	block := make(chan struct{})
	stalled := func() *sim.Cluster {
		<-block
		return workload.Testbed()
	}
	f := testFleet(t, Config{Workers: 1, QueueShards: 1, QueueDepth: 2, NewCluster: stalled})
	unblocked := false
	defer func() {
		if !unblocked {
			close(block)
		}
		f.Close()
	}()

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

	close(block)
	unblocked = true
	for _, ch := range []<-chan *Response{ch1, ch2} {
		for i := 0; i < 3; i++ {
			select {
			case resp := <-ch:
				if resp.Err != nil {
					t.Fatalf("batch item %d: %v", i, resp.Err)
				}
				resp.Release()
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
// app-less items reject before touching the queue, a canceled context
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

// TestResponseReleaseIdempotentOutsideRace pins the documented Release
// contract in non-race builds: releasing twice is a no-op, not a panic or a
// double pool put (which would hand one job to two submitters).
func TestResponseReleaseIdempotentOutsideRace(t *testing.T) {
	if raceEnabled {
		t.Skip("double release panics by design under -race")
	}
	f := testFleet(t, Config{Workers: 1})
	resp, err := f.Do(context.Background(), Request{App: workload.TextProcessing()})
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	resp.Release()
	resp.Release() // second release must be inert
}
