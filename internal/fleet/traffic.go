package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"deep/internal/chaos"
	"deep/internal/dag"
	"deep/internal/workload"
)

// MixEntry is one application population in a traffic mix: a tenant name, a
// relative weight, and a pool of application templates the driver cycles
// through. A pool of size one models a tenant redeploying the same shape
// over and over (the placement-cache sweet spot); a large pool models
// ever-changing tenants that mostly miss.
type MixEntry struct {
	Tenant string
	Weight float64
	Apps   []*dag.App
}

// CaseStudyMix returns the paper's two case-study applications as a
// two-tenant mix: the video pipeline and the text pipeline, equally
// weighted.
func CaseStudyMix() []MixEntry {
	return []MixEntry{
		{Tenant: "video", Weight: 1, Apps: []*dag.App{workload.VideoProcessing()}},
		{Tenant: "text", Weight: 1, Apps: []*dag.App{workload.TextProcessing()}},
	}
}

// SyntheticMix generates tenants of synthetic applications from
// workload.GeneratorConfig: `tenants` tenants, each with a pool of
// `appsPerTenant` distinct random DAGs of `size` microservices. Weights are
// uniform. Deterministic in seed.
func SyntheticMix(tenants, appsPerTenant, size int, seed int64) ([]MixEntry, error) {
	if tenants < 1 || appsPerTenant < 1 {
		return nil, fmt.Errorf("fleet: mix needs at least one tenant and one app")
	}
	var mix []MixEntry
	for t := 0; t < tenants; t++ {
		entry := MixEntry{Tenant: fmt.Sprintf("tenant-%02d", t), Weight: 1}
		for a := 0; a < appsPerTenant; a++ {
			cfg := workload.DefaultGeneratorConfig(size, seed+int64(t*appsPerTenant+a))
			app, err := workload.Generate(cfg)
			if err != nil {
				return nil, err
			}
			entry.Apps = append(entry.Apps, app)
		}
		mix = append(mix, entry)
	}
	return mix, nil
}

// TrafficConfig drives an open-loop load generation run: arrivals fire on
// the arrival process's clock regardless of how the fleet is keeping up, so
// overload shows up as queue-full rejections rather than as a slowed-down
// driver — the behavior of real user traffic.
type TrafficConfig struct {
	// Arrivals is the inter-arrival process (required).
	Arrivals ArrivalProcess
	// Mix is the application population (required, at least one entry with
	// at least one app).
	Mix []MixEntry
	// Requests stops the driver after this many submission attempts
	// (rejections count as attempts). Zero means no request bound.
	Requests int
	// Duration stops the driver after this much wall time. Zero means no
	// time bound. At least one of Requests and Duration must be set.
	Duration time.Duration
	// Speedup divides every inter-arrival gap, replaying the same arrival
	// sequence faster than real time (default 1).
	Speedup float64
	// Seed drives arrival randomness and mix sampling.
	Seed int64
	// Chaos interleaves a fault schedule with the load: each event fires at
	// its offset (divided by Speedup, like arrivals) as an ApplyChurn
	// against the fleet, turning re-placement storms into a measured
	// scenario. Nil disables churn.
	Chaos *chaos.Schedule
}

// Drive runs an open-loop load generation session against the fleet and
// blocks until every accepted request has completed, returning the
// aggregated Report. The context cancels the driver early (in-flight
// requests still drain).
func Drive(ctx context.Context, f *Fleet, cfg TrafficConfig) (*Report, error) {
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("fleet: traffic needs an arrival process")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("fleet: traffic needs a non-empty mix")
	}
	for _, e := range cfg.Mix {
		if len(e.Apps) == 0 {
			return nil, fmt.Errorf("fleet: mix entry %q has no apps", e.Tenant)
		}
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("fleet: traffic needs a request or duration bound")
	}
	if cfg.Chaos != nil {
		// A hand-built schedule would otherwise fire out of sequence or
		// hand ApplyChurn an unpaired recovery or an out-of-range factor.
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: traffic chaos: %w", err)
		}
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}

	// Resolve weights once (non-positive defaults to 1) so sampling and
	// the total can never disagree.
	weights := make([]float64, len(cfg.Mix))
	var totalWeight float64
	for i, e := range cfg.Mix {
		weights[i] = e.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
		totalWeight += weights[i]
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func() (MixEntry, *dag.App) {
		x := rng.Float64() * totalWeight
		for i, e := range cfg.Mix {
			if x -= weights[i]; x <= 0 {
				return e, e.Apps[rng.Intn(len(e.Apps))]
			}
		}
		last := cfg.Mix[len(cfg.Mix)-1]
		return last, last.Apps[rng.Intn(len(last.Apps))]
	}

	start := time.Now()
	cacheBefore := f.cache.Stats()
	churnBefore := f.Stats().Churn
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	// Chaos replay runs beside the arrival loop on the same sped-up clock:
	// each event sleeps until its offset and applies its churn delta. The
	// goroutine stops at context cancellation or when the drain below is
	// done (events past the end of the session never fire).
	chaosDone := make(chan struct{})
	var chaosWG sync.WaitGroup
	eventsFired := 0
	var eventsMu sync.Mutex
	if cfg.Chaos != nil {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			if !timer.Stop() {
				<-timer.C
			}
			for _, ev := range cfg.Chaos.Events {
				at := start.Add(time.Duration(float64(ev.At) / cfg.Speedup))
				if wait := time.Until(at); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					case <-chaosDone:
						return
					}
				}
				if _, _, err := f.ApplyChurn(DeltaForEvent(ev)); err != nil {
					// A schedule naming unknown hardware is a configuration
					// bug; surface it without killing the session.
					fmt.Fprintf(os.Stderr, "fleet: chaos event %s: %v\n", ev, err)
					continue
				}
				eventsMu.Lock()
				eventsFired++
				eventsMu.Unlock()
			}
		}()
	}

	var pending []<-chan *Response
	attempts, rejected := 0, 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}

	// Arrival i is due at start + Σgaps/Speedup, the same absolute clock the
	// chaos replay uses: one relative timer per gap would add each timer's
	// overshoot to every later arrival and under-offer the asked rate. A
	// driver that has fallen behind submits everything already due at once.
	var offset float64 // seconds from start to the next arrival
drive:
	for cfg.Requests <= 0 || attempts < cfg.Requests {
		gap := cfg.Arrivals.Next(rng) / cfg.Speedup
		offset += gap
		due := time.Duration(offset * float64(time.Second))
		if math.IsInf(gap, 1) || !(gap >= 0) || due < 0 {
			// The process will never produce another arrival (e.g. a zero
			// rate, or a gap past time.Duration's range). Waiting forever
			// serves no one; the session is over.
			break drive
		}
		at := start.Add(due)
		// Never sleep past the deadline: a sparse arrival sequence must
		// not overshoot a Duration bound by one (unbounded) gap.
		if !deadline.IsZero() && !at.Before(deadline) {
			if wait := time.Until(deadline); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
				}
			}
			break drive
		}
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break drive
			}
		} else if ctx.Err() != nil {
			break drive
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		entry, app := pick()
		attempts++
		ch, err := f.Submit(Request{Tenant: entry.Tenant, App: app, Seed: int64(attempts)})
		switch {
		case err == nil:
			pending = append(pending, ch)
		case errors.Is(err, ErrQueueFull):
			rejected++
		case errors.Is(err, ErrClosed):
			break drive
		default:
			return nil, err
		}
	}

	// Open-loop generation is over; now drain every accepted request.
	responses := make([]*Response, 0, len(pending))
	for _, ch := range pending {
		responses = append(responses, <-ch)
	}
	close(chaosDone)
	chaosWG.Wait()
	elapsed := time.Since(start)
	// Report cache activity for this session only, not the fleet's
	// lifetime (a fleet may serve several Drive sessions).
	cache := f.cache.Stats()
	cache.Hits -= cacheBefore.Hits
	cache.Misses -= cacheBefore.Misses
	cache.Evictions -= cacheBefore.Evictions
	report := buildReport(cfg.Arrivals.Name(), attempts, rejected, elapsed, responses, cache)
	if cfg.Chaos != nil {
		report.Churn = buildChurnReport(eventsFired, churnBefore, f.Stats().Churn, responses)
	}
	// The report has copied out everything it needs; hand the pooled
	// responses back so the next session's warm path reuses them.
	for _, resp := range responses {
		resp.Release()
	}
	return report, nil
}

// buildChurnReport deltas the fleet's churn counters over the session and
// derives the post-churn latency picture from the drained responses: for
// every epoch observed in the session's responses, the first completed
// request validated at that epoch is the one that paid the re-placement
// cost, so the worst and mean of those firsts measure how hard churn hits
// the tail.
func buildChurnReport(events int, before, after ChurnStats, responses []*Response) *ChurnReport {
	r := &ChurnReport{
		Events:           events,
		EpochsApplied:    after.EpochsApplied - before.EpochsApplied,
		Invalidated:      after.Invalidated - before.Invalidated,
		StaleRejected:    after.StaleRejected - before.StaleRejected,
		Reschedules:      after.Reschedules - before.Reschedules,
		Downgrades:       after.Downgrades - before.Downgrades,
		DeadlineExceeded: after.DeadlineExceeded - before.DeadlineExceeded,
	}
	firstByEpoch := make(map[int64]time.Duration)
	for _, resp := range responses {
		if resp.Err != nil {
			continue
		}
		if resp.Degraded {
			r.DegradedResponses++
		}
		if resp.Epoch == 0 {
			continue
		}
		if _, seen := firstByEpoch[resp.Epoch]; !seen {
			firstByEpoch[resp.Epoch] = resp.Latency
		}
	}
	var sum time.Duration
	for _, lat := range firstByEpoch {
		sum += lat
		if lat > r.FirstPostChurnMax {
			r.FirstPostChurnMax = lat
		}
	}
	if n := len(firstByEpoch); n > 0 {
		r.FirstPostChurnMean = sum / time.Duration(n)
	}
	return r
}
