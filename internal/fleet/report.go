package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"deep/internal/obs"
	"deep/internal/units"
)

// StageStat summarizes one pipeline stage's wall time across the session's
// completed requests. Unlike the live fleet_stage_seconds histograms (which
// are bucket-granular), these are exact: computed post-hoc from the drained
// responses' stage traces.
type StageStat struct {
	Stage string        `json:"stage"`
	Mean  time.Duration `json:"mean"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// TenantStats aggregates one tenant's completed requests.
type TenantStats struct {
	Completed   int           `json:"completed"`
	Failed      int           `json:"failed"`
	CacheHits   int           `json:"cache_hits"`
	MeanLatency time.Duration `json:"mean_latency"`
	// MeanMakespan is the mean simulated application makespan in seconds
	// (virtual time, not wall time).
	MeanMakespan float64 `json:"mean_makespan_s"`
	// Energy is the total simulated energy across the tenant's runs.
	Energy units.Joules `json:"energy_j"`
}

// Report aggregates one load-generation session.
type Report struct {
	Arrivals string        `json:"arrivals"`
	Elapsed  time.Duration `json:"elapsed"`

	// Attempts counts every submission the driver tried; Rejected the
	// queue-full rejections among them.
	Attempts  int `json:"attempts"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// Throughput is completed requests per wall-clock second.
	Throughput float64 `json:"throughput_rps"`
	// OfferedRate is attempted submissions per wall-clock second.
	OfferedRate float64 `json:"offered_rps"`

	// Latency quantiles over completed requests (end-to-end service time).
	LatencyMean time.Duration `json:"latency_mean"`
	LatencyP50  time.Duration `json:"latency_p50"`
	LatencyP95  time.Duration `json:"latency_p95"`
	LatencyP99  time.Duration `json:"latency_p99"`
	LatencyMax  time.Duration `json:"latency_max"`
	// QueueWaitMean is the mean admission-queue residency over every
	// response that left the queue — failed requests waited too, so they
	// count here even though they are excluded from the service-latency
	// quantiles above.
	QueueWaitMean time.Duration `json:"queue_wait_mean"`

	// Stages is the per-stage wall-time breakdown (mean/p99/max) over
	// completed requests, in pipeline order.
	Stages []StageStat `json:"stages,omitempty"`

	Cache CacheStats `json:"cache"`
	// TotalEnergy is the simulated energy summed over every completed run.
	TotalEnergy units.Joules `json:"total_energy_j"`

	PerTenant map[string]TenantStats `json:"per_tenant"`

	// Churn summarizes fault-injection activity when the session ran with a
	// chaos schedule (TrafficConfig.Chaos); nil otherwise.
	Churn *ChurnReport `json:"churn,omitempty"`
}

// ChurnReport aggregates one session's fault-injection activity: how many
// chaos events landed, how much recompilation and re-placement they forced,
// and what the first request after each cluster epoch paid in latency.
type ChurnReport struct {
	// Events counts chaos events that applied successfully this session.
	Events int `json:"events"`
	// EpochsApplied counts ApplyChurn calls (each bumps the cluster epoch).
	EpochsApplied int64 `json:"epochs_applied"`
	// Invalidated counts placement-cache entries dropped because their
	// placements referenced hardware that went down.
	Invalidated int64 `json:"invalidated"`
	// StaleRejected counts placements (cached or fresh) rejected by the
	// stale gate because churn landed between schedule and validation.
	StaleRejected int64 `json:"stale_rejected"`
	// Reschedules counts retry attempts triggered by stale rejections.
	Reschedules int64 `json:"reschedules"`
	// Downgrades counts requests served by the best-response fallback
	// scheduler instead of the exact pass scheduler.
	Downgrades int64 `json:"downgrades"`
	// DeadlineExceeded counts requests that ran out of deadline mid-pipeline.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// DegradedResponses counts completed responses flagged Degraded.
	DegradedResponses int `json:"degraded_responses"`
	// FirstPostChurnMean / FirstPostChurnMax summarize the latency of the
	// first completed request at each distinct post-churn epoch — the
	// requests that paid the incremental-recompile and re-placement cost.
	FirstPostChurnMean time.Duration `json:"first_post_churn_mean"`
	FirstPostChurnMax  time.Duration `json:"first_post_churn_max"`
}

// buildReport folds a drained response set into a Report. cache holds this
// session's cache activity (already deltaed against the fleet's lifetime
// counters by the caller).
func buildReport(arrivals string, attempts, rejected int, elapsed time.Duration, responses []*Response, cache CacheStats) *Report {
	r := &Report{
		Arrivals:  arrivals,
		Elapsed:   elapsed,
		Attempts:  attempts,
		Rejected:  rejected,
		Cache:     cache,
		PerTenant: make(map[string]TenantStats),
	}
	var latencies []time.Duration
	var latencySum, waitSum time.Duration
	tenantLatency := make(map[string]time.Duration)
	tenantMakespan := make(map[string]float64)
	var stageSamples [obs.NumStages][]time.Duration
	for _, resp := range responses {
		ts := r.PerTenant[resp.Tenant]
		// Every response — failed or not — spent real time in the admission
		// queue; excluding failures here used to overstate queue health on
		// error-heavy runs.
		waitSum += resp.QueueWait
		if resp.Err != nil {
			r.Failed++
			ts.Failed++
			r.PerTenant[resp.Tenant] = ts
			continue
		}
		r.Completed++
		ts.Completed++
		if resp.CacheHit {
			ts.CacheHits++
		}
		latencies = append(latencies, resp.Latency)
		latencySum += resp.Latency
		tenantLatency[resp.Tenant] += resp.Latency
		tenantMakespan[resp.Tenant] += resp.Result.Makespan
		ts.Energy += resp.Result.TotalEnergy
		r.TotalEnergy += resp.Result.TotalEnergy
		r.PerTenant[resp.Tenant] = ts
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			stageSamples[s] = append(stageSamples[s], resp.Stages.D[s])
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.Throughput = float64(r.Completed) / secs
		r.OfferedRate = float64(attempts) / secs
	}
	if n := r.Completed + r.Failed; n > 0 {
		r.QueueWaitMean = waitSum / time.Duration(n)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		r.LatencyMean = latencySum / time.Duration(len(latencies))
		r.LatencyP50 = quantile(latencies, 0.50)
		r.LatencyP95 = quantile(latencies, 0.95)
		r.LatencyP99 = quantile(latencies, 0.99)
		r.LatencyMax = latencies[len(latencies)-1]
		r.Stages = make([]StageStat, 0, obs.NumStages)
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			samples := stageSamples[s]
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			var sum time.Duration
			for _, d := range samples {
				sum += d
			}
			r.Stages = append(r.Stages, StageStat{
				Stage: s.String(),
				Mean:  sum / time.Duration(len(samples)),
				P99:   quantile(samples, 0.99),
				Max:   samples[len(samples)-1],
			})
		}
	}
	for tenant, ts := range r.PerTenant {
		if ts.Completed > 0 {
			ts.MeanLatency = tenantLatency[tenant] / time.Duration(ts.Completed)
			ts.MeanMakespan = tenantMakespan[tenant] / float64(ts.Completed)
		}
		r.PerTenant[tenant] = ts
	}
	return r
}

// quantile returns the q-th quantile of an ascending-sorted slice using the
// nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the report as the deepfleet CLI prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arrivals=%s elapsed=%s\n", r.Arrivals, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "requests: attempted=%d completed=%d rejected=%d failed=%d\n",
		r.Attempts, r.Completed, r.Rejected, r.Failed)
	fmt.Fprintf(&b, "throughput: %.1f req/s completed (%.1f req/s offered)\n", r.Throughput, r.OfferedRate)
	fmt.Fprintf(&b, "latency: mean=%s p50=%s p95=%s p99=%s max=%s (queue wait mean=%s)\n",
		r.LatencyMean.Round(time.Microsecond), r.LatencyP50.Round(time.Microsecond),
		r.LatencyP95.Round(time.Microsecond), r.LatencyP99.Round(time.Microsecond),
		r.LatencyMax.Round(time.Microsecond), r.QueueWaitMean.Round(time.Microsecond))
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "stage %-12s mean=%-10s p99=%-10s max=%s\n",
			st.Stage, st.Mean.Round(time.Microsecond), st.P99.Round(time.Microsecond), st.Max.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "placement cache: %.1f%% hit rate (%d hits, %d misses, %d evictions, %d entries)\n",
		100*r.Cache.HitRate(), r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions, r.Cache.Entries)
	fmt.Fprintf(&b, "simulated energy: %s\n", r.TotalEnergy)
	if c := r.Churn; c != nil {
		fmt.Fprintf(&b, "churn: events=%d epochs=%d invalidated=%d stale-rejected=%d reschedules=%d downgrades=%d degraded=%d deadline-exceeded=%d\n",
			c.Events, c.EpochsApplied, c.Invalidated, c.StaleRejected, c.Reschedules, c.Downgrades, c.DegradedResponses, c.DeadlineExceeded)
		if c.FirstPostChurnMax > 0 {
			fmt.Fprintf(&b, "churn: first-post-churn latency mean=%s max=%s\n",
				c.FirstPostChurnMean.Round(time.Microsecond), c.FirstPostChurnMax.Round(time.Microsecond))
		}
	}
	tenants := make([]string, 0, len(r.PerTenant))
	for t := range r.PerTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		ts := r.PerTenant[t]
		fmt.Fprintf(&b, "tenant %-12s completed=%-5d failed=%-3d cache-hits=%-5d mean-latency=%-10s mean-makespan=%.1fs energy=%s\n",
			t, ts.Completed, ts.Failed, ts.CacheHits, ts.MeanLatency.Round(time.Microsecond), ts.MeanMakespan, ts.Energy)
	}
	return b.String()
}
