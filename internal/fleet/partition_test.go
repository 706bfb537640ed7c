package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/wire"
	"deep/internal/workload"
)

// partitioned checks that resp's stages partition its latency: each stage
// is non-negative, the queue stage is the queue wait, and the stages sum to
// Latency exactly.
func partitioned(t *testing.T, what string, resp *Response) {
	t.Helper()
	for s, d := range resp.Stages.D {
		if d < 0 {
			t.Errorf("%s: stage %s is %v", what, obs.Stage(s), d)
		}
	}
	if resp.Stages.D[obs.StageQueue] != resp.QueueWait {
		t.Errorf("%s: queue stage %v != QueueWait %v", what, resp.Stages.D[obs.StageQueue], resp.QueueWait)
	}
	if sum := resp.Stages.Total(); sum != resp.Latency {
		t.Errorf("%s: stages sum to %v, latency %v (%+v)", what, sum, resp.Latency, resp.Stages)
	}
}

// TestStagesPartitionLatency pins the stage trace as a partition of each
// answer's latency on every path an answer can take: a miss, an entry's
// first hit and a hit answered from the entry; an infeasible app; a budget
// spent before scheduling and one spent before simulating; a schedule
// rejected as stale under churn and retried, and a planted stale entry
// rejected until the attempts run out; a batch; and a wait for a worker that
// times out. The churn retry races a device failure against a parked
// schedule, so it sees one ordering per run.
func TestStagesPartitionLatency(t *testing.T) {
	ctx := context.Background()
	do := func(t *testing.T, f *Fleet, req Request) *Response {
		t.Helper()
		resp, err := f.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(resp.Release)
		return resp
	}

	t.Run("answers", func(t *testing.T) {
		f := testFleet(t, Config{Workers: 1})
		waitIdle(t, f)
		app := workload.TextProcessing()
		for i, what := range []string{"miss", "first hit", "memoized hit"} {
			resp := do(t, f, Request{App: app})
			if resp.Err != nil || resp.CacheHit != (i > 0) {
				t.Fatalf("%s answered err=%v cache_hit=%v", what, resp.Err, resp.CacheHit)
			}
			partitioned(t, what, resp)
		}

		infeasible := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) {
			s.Name = "too-big"
			s.Microservices[0].MemoryBytes = 1 << 50
		})
		if resp := do(t, f, Request{App: infeasible}); resp.Err == nil {
			t.Fatal("an infeasible app was placed")
		} else {
			partitioned(t, "infeasible", resp)
		}

		// The worker is idle, so a 1 ns budget is spent only in process:
		// on a miss before scheduling, on a first hit before simulating.
		video := workload.VideoProcessing()
		resp := do(t, f, Request{App: video, Deadline: time.Nanosecond})
		if !errors.Is(resp.Err, ErrDeadline) || !strings.Contains(resp.Err.Error(), "scheduling") {
			t.Fatalf("budget spent on a miss answered %v, want ErrDeadline while scheduling", resp.Err)
		}
		partitioned(t, "deadline before scheduling", resp)
		if resp := do(t, f, Request{App: video}); resp.Err != nil || resp.CacheHit {
			t.Fatalf("video miss answered err=%v cache_hit=%v", resp.Err, resp.CacheHit)
		}
		resp = do(t, f, Request{App: video, Deadline: time.Nanosecond})
		if !errors.Is(resp.Err, ErrDeadline) || !strings.Contains(resp.Err.Error(), "simulating") {
			t.Fatalf("budget spent on a first hit answered %v, want ErrDeadline while simulating", resp.Err)
		}
		partitioned(t, "deadline before simulating", resp)

		reqs := []Request{{App: app}, {App: video}, {App: infeasible}, {App: workload.TextProcessing()}}
		if err := f.DoBatch(ctx, reqs, func(resp *Response) {
			partitioned(t, "batch item", resp)
		}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stale retry", func(t *testing.T) {
		gate := &gateSched{started: make(chan struct{}), release: make(chan struct{})}
		f := testFleet(t, Config{Workers: 1, NewCluster: scaled2,
			NewScheduler: func() sched.Scheduler { return gate }})
		app := workload.VideoProcessing()
		base, err := sched.Schedule(sched.NewDEEP(), app, scaled2())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Response, 1)
		go func() {
			resp, _ := f.Do(ctx, Request{App: app})
			done <- resp
		}()
		<-gate.started
		_, _, err = f.ApplyChurn(ChurnDelta{FailDevices: []string{base[app.Microservices[0].Name].Device}})
		close(gate.release)
		if err != nil {
			t.Fatal(err)
		}
		resp := <-done
		if resp == nil || resp.Err != nil {
			t.Fatalf("retried request answered %+v", resp)
		}
		if st := f.Stats().Churn; st.Reschedules != 1 {
			t.Fatalf("reschedules %d, want 1", st.Reschedules)
		}
		partitioned(t, "stale retry", resp)
	})

	t.Run("stale entry", func(t *testing.T) {
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
		f.cache.PutView(cacheKey{cluster: f.churn.Load().key, app: app.Digest()}, PlacementView{names: names, assigns: assigns})
		resp := do(t, f, Request{App: app})
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), "stale after") {
			t.Fatalf("planted stale entry answered %v", resp.Err)
		}
		partitioned(t, "stale entry", resp)
	})

	t.Run("wait timed out", func(t *testing.T) {
		f, unblock := stalledFleet(t, Config{Workers: 1, QueueDepth: 4})
		ch, err := f.Submit(Request{App: workload.TextProcessing(), Deadline: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		resp := <-ch
		unblock()
		if !errors.Is(resp.Err, ErrDeadline) {
			t.Fatalf("expired wait answered %v, want ErrDeadline", resp.Err)
		}
		partitioned(t, "fail", resp)
	})
}
