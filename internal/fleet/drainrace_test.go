package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep/internal/dag"
	"deep/internal/workload"
)

// TestDrainRaceStress interleaves the three things a serving fleet does at
// once in production — admission (Do and Submit), churn epochs, and drain
// (Close) — under the race detector, and pins the drain contract:
//
//   - every accepted request is answered (Do returns its response, a
//     Submit channel delivers; never a hang),
//   - calls that lose the race against Close get ErrClosed (or
//     ErrQueueFull), never a nil response or channel with nil error,
//   - after Close returns, the counters reconcile: everything submitted was
//     completed or failed, nothing is left in flight.
func TestDrainRaceStress(t *testing.T) {
	f := testFleet(t, Config{
		Workers:    2,
		QueueDepth: 8,
		CacheSize:  -1, // every request schedules for real, maximizing overlap
		NewCluster: scaled2,
	})
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing()}

	var (
		mu       sync.Mutex
		pending  []<-chan *Response
		accepted atomic.Int64
		closedN  atomic.Int64
		// Responses Do answered synchronously, ok and failed.
		doneDo, failedDo atomic.Int64
		stop             = make(chan struct{})
	)

	var wg sync.WaitGroup
	const submitters = 6
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := Request{Tenant: "stress", App: apps[(s+i)%len(apps)]}
				if i%4 == 3 {
					req.Deadline = time.Millisecond // exercise deadline failures under drain
				}
				var (
					ch   <-chan *Response
					resp *Response
					err  error
				)
				if i%2 == 0 {
					resp, err = f.Do(ctx, req)
				} else {
					ch, err = f.Submit(req)
				}
				switch {
				case err == nil && resp != nil:
					accepted.Add(1)
					if resp.Err != nil {
						failedDo.Add(1)
					} else {
						doneDo.Add(1)
					}
					resp.Release()
				case err == nil:
					if ch == nil {
						t.Error("accepted call returned neither response nor channel")
						return
					}
					accepted.Add(1)
					mu.Lock()
					pending = append(pending, ch)
					mu.Unlock()
				case errors.Is(err, ErrClosed):
					closedN.Add(1)
					return // the fleet is gone; this submitter is done
				case errors.Is(err, ErrQueueFull):
					// Backpressure, try again.
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(s)
	}

	// Churn epochs roll the whole run, including while Close drains the
	// queue: failures and recoveries of a device the placements use, so
	// stale-placement rescheduling and epoch-key changes interleave with
	// admission and drain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var delta ChurnDelta
			if i%2 == 0 {
				delta.FailDevices = []string{"medium-01"}
			} else {
				delta.RecoverDevices = []string{"medium-01"}
			}
			if _, _, err := f.ApplyChurn(delta); err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(30 * time.Millisecond) // let the mill grind
	f.Close()                         // races the submitters and the churner
	close(stop)
	wg.Wait()

	// Late calls against the closed fleet must deterministically report
	// ErrClosed on both entry points.
	if _, err := f.Do(context.Background(), Request{App: apps[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close: %v, want ErrClosed", err)
	}
	if _, err := f.Submit(Request{App: apps[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}

	// Every accepted request must have been served: Close waits for every
	// admitted caller, so each channel delivers without blocking beyond a
	// generous guard.
	guard := time.After(10 * time.Second)
	done, failed := int(doneDo.Load()), int(failedDo.Load())
	for _, ch := range pending {
		select {
		case resp := <-ch:
			if resp == nil {
				t.Fatal("accepted request delivered nil response")
			}
			if resp.Err != nil {
				failed++
			} else {
				done++
			}
		case <-guard:
			t.Fatalf("accepted request hung: %d/%d drained", done+failed, len(pending))
		}
	}

	st := f.Stats()
	if got := int64(done + failed); st.Submitted != got || accepted.Load() != got {
		t.Errorf("submitted %d, accepted %d, answered %d", st.Submitted, accepted.Load(), got)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Errorf("completed %d + failed %d != submitted %d", st.Completed, st.Failed, st.Submitted)
	}
	if int64(done) != st.Completed || int64(failed) != st.Failed {
		t.Errorf("delivered %d ok / %d failed, stats say %d / %d", done, failed, st.Completed, st.Failed)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after Close, want 0", st.InFlight)
	}
	if accepted.Load() == 0 {
		t.Fatal("stress run accepted nothing; test is vacuous")
	}
	t.Logf("accepted %d (%d ok, %d failed), %d submitters saw ErrClosed, churn epoch %d",
		accepted.Load(), done, failed, closedN.Load(), st.Churn.Epoch)
}
