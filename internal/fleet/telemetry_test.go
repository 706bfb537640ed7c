package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"deep/internal/dag"
	"deep/internal/obs"
	"deep/internal/wire"
	"deep/internal/workload"
)

// perObservation records responses the way the fleet did before it batched
// its telemetry: every instrument updated once per response, into a
// registry of its own under the fleet's instrument names. It is the oracle
// a fleet's published telemetry must equal.
type perObservation struct {
	reg *obs.Registry
}

func (r perObservation) record(resp *Response) {
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		r.reg.Histogram("fleet_stage_seconds{stage=" + s.String() + "}").Observe(resp.Stages.D[s].Seconds())
	}
	r.reg.Histogram("fleet_request_latency_s").Observe(resp.Latency.Seconds())
	l := newTenantLabels(r.reg, resp.Tenant)
	if resp.Err != nil {
		l.failed.Add(1)
		return
	}
	l.completed.Add(1)
	if resp.CacheHit {
		l.cacheHits.Add(1)
	}
	l.latency.Observe(resp.Latency.Seconds())
	l.queueWait.Observe(resp.QueueWait.Seconds())
	l.makespan.Observe(resp.Result.Makespan)
	l.energy.Observe(float64(resp.Result.TotalEnergy))
}

// sameHistograms fails unless every histogram named in either registry
// (a missing one reads as empty) has the same count, buckets, min and max
// in both, and sums within 1e-9 relative; only names with the prefix are
// compared.
func sameHistograms(t *testing.T, what string, got, want *obs.Registry, prefix string) {
	t.Helper()
	names := map[string]bool{}
	for _, reg := range []*obs.Registry{got, want} {
		for _, name := range reg.HistogramNames() {
			if strings.HasPrefix(name, prefix) {
				names[name] = true
			}
		}
	}
	snap := func(reg *obs.Registry, name string) obs.HistogramSnapshot {
		var s obs.HistogramSnapshot
		if h, ok := reg.LookupHistogram(name); ok {
			h.Snapshot(&s)
		}
		return s
	}
	for name := range names {
		g, w := snap(got, name), snap(want, name)
		if g.Count != w.Count || g.Buckets != w.Buckets || g.Min != w.Min || g.Max != w.Max {
			t.Fatalf("%s: %s is count %d min %v max %v buckets %v, want %d %v %v %v",
				what, name, g.Count, g.Min, g.Max, g.Buckets, w.Count, w.Min, w.Max, w.Buckets)
		}
		if g.Sum != w.Sum && !(math.Abs(g.Sum-w.Sum) <= 1e-9*math.Abs(w.Sum)) {
			t.Fatalf("%s: %s sums to %v, want %v", what, name, g.Sum, w.Sum)
		}
	}
}

// counters returns every fleet_* counter of the registry by name.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "fleet_") {
			c, _ := reg.LookupCounter(name)
			out[name] = c.Value()
		}
	}
	return out
}

// pendingEmpty fails unless every worker of the fleet, taken from the idle
// pool, holds an empty pending batch.
func pendingEmpty(t *testing.T, f *Fleet) {
	t.Helper()
	workers := make([]*workerState, f.cfg.Workers)
	for i := range workers {
		workers[i] = <-f.idle
	}
	for _, w := range workers {
		if w.pending != (pending{}) {
			t.Errorf("worker %d holds unpublished telemetry after its calls returned", w.shard)
		}
		f.idle <- w
	}
}

// TestTelemetryPublishedPerCallMatchesPerObservation serves one request
// sequence two ways — as 1-item Do calls, and as DoBatch calls of mixed
// sizes whose items change tenant inside a batch, with infeasible apps
// failing among them — while a goroutine scrapes both fleets' /metrics
// rendering throughout. Each fleet's published histograms must equal a
// per-observation recording of the responses it handed out (count, buckets,
// min and max exactly, sums within float association), every fleet_*
// counter and Stats must agree between the two ways, the deterministic
// makespan and energy histograms must agree too, and every worker's pending
// batch must be empty once the calls return. A last batch whose caller
// cancels after its first item adds answers through fail, which publishes
// on its own, and the oracle must still hold.
func TestTelemetryPublishedPerCallMatchesPerObservation(t *testing.T) {
	infeasible := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) {
		s.Name = "too-big"
		s.Microservices[0].MemoryBytes = 1 << 50
	})
	generated, err := workload.Generate(workload.DefaultGeneratorConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	apps := []*dag.App{workload.VideoProcessing(), workload.TextProcessing(), infeasible, generated}
	var reqs []Request
	for i := 0; i < 90; i++ {
		reqs = append(reqs, Request{Tenant: fmt.Sprintf("t%d", i/3%4), App: apps[(i*7)%len(apps)]})
	}
	sizes := []int{1, 4, 16, 7, 2, 9, 3}

	single, batched := testFleet(t, Config{Workers: 2}), testFleet(t, Config{Workers: 3})
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, f := range []*Fleet{single, batched} {
				if err := f.Metrics().Obs().WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				_ = f.Stats()
			}
		}
	}()
	defer func() {
		close(stop)
		scraper.Wait()
	}()

	oracleSingle := perObservation{obs.NewRegistry()}
	oracleBatched := perObservation{obs.NewRegistry()}
	ctx := context.Background()
	failed := 0
	for _, req := range reqs {
		resp, err := single.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != nil {
			failed++
		}
		oracleSingle.record(resp)
	}
	for i, k := 0, 0; i < len(reqs); k++ {
		n := min(sizes[k%len(sizes)], len(reqs)-i)
		err := batched.DoBatch(ctx, reqs[i:i+n], func(resp *Response) {
			oracleBatched.record(resp)
		})
		if err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if failed == 0 || failed == len(reqs) {
		t.Fatalf("%d of %d requests failed; the sequence must mix both", failed, len(reqs))
	}

	pendingEmpty(t, single)
	pendingEmpty(t, batched)
	sameHistograms(t, "Do", single.Metrics().Obs(), oracleSingle.reg, "fleet_")
	sameHistograms(t, "DoBatch", batched.Metrics().Obs(), oracleBatched.reg, "fleet_")
	for _, family := range []string{"fleet_makespan_s", "fleet_energy_j"} {
		sameHistograms(t, "Do vs DoBatch", single.Metrics().Obs(), batched.Metrics().Obs(), family)
	}
	got, want := counters(batched.Metrics().Obs()), counters(single.Metrics().Obs())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fleet_* counters served as batches:\n%v\nas single deploys:\n%v", got, want)
	}
	for name, v := range counters(oracleSingle.reg) {
		if want[name] != v {
			t.Fatalf("%s = %v, per-observation recording reads %v", name, want[name], v)
		}
	}
	sg, sb := single.Stats(), batched.Stats()
	if sg.Submitted != sb.Submitted || sg.Completed != sb.Completed || sg.Failed != sb.Failed ||
		sb.InFlight != 0 || sg.InFlight != 0 || sg.Failed != int64(failed) || sg.Completed+sg.Failed != int64(len(reqs)) {
		t.Fatalf("stats as single deploys %+v, as batches %+v, want %d requests, %d failed", sg, sb, len(reqs), failed)
	}

	// Items a hung-up caller never reaches are answered by fail, which
	// publishes on its own; the worker still publishes the item it served.
	cctx, cancel := context.WithCancel(ctx)
	served := 0
	err = batched.DoBatch(cctx, reqs[:6], func(resp *Response) {
		cancel()
		if resp.Err == nil {
			served++
		}
		oracleBatched.record(resp)
	})
	cancel()
	if err != nil || served != 1 {
		t.Fatalf("cancelled batch: err %v, %d items served, want 1", err, served)
	}
	pendingEmpty(t, batched)
	sameHistograms(t, "cancelled DoBatch", batched.Metrics().Obs(), oracleBatched.reg, "fleet_")
	if st := batched.Stats(); st.Failed != int64(failed)+5 || st.InFlight != 0 {
		t.Fatalf("after the cancelled batch: %+v, want %d failed", st, failed+5)
	}
}
