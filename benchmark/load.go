package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deep/internal/sim"
	wl "deep/internal/workload"
)

// env is what every run shares: where things are and how wide the loop is.
type env struct {
	daemonBin string
	outDir    string
	clients   int // C: client goroutines = connections = daemon workers
	buildS    float64
	ref       *reference // the host-speed yardstick, alive for the whole run
}

// checked is one fully decoded response kept for the after-phase checks.
type checked struct {
	req     *request
	deploys []*deployBody
}

// phase is what the closed loop observed.
type phase struct {
	samples   []sample
	attempted int64 // deploys sent
	failed    int64 // deploys answered non-200, with an item error, or undecodable
	reqBytes  int64
	respBytes int64
	requests  int64
	checked   []checked
	churnOps  []churnOp
	churnMS   []float64 // /v1/churn round trips
	reason    string    // first failure seen, for the one-line report
}

// errItem marks a failed item inside a 200 batch body; placement and app
// names are the generator's own and never contain it.
var errItem = []byte(`"error":`)

// drive runs the closed loop: clients goroutines, one connection each, each
// sending its next request only when the previous one has been answered.
// Request k of the shared sequence goes to whichever client is free next;
// next carries k from one slice to the following one. The loop ends when the
// sequence does (seq returns nil, or k reaches limit when limit > 0) or
// after dur (when dur > 0). keep retains samples and checked responses; the
// warm-up passes false.
func drive(parent context.Context, d *daemon, w *workload, seq func(int) *request, next *atomic.Int64, clients, limit int, dur time.Duration, keep bool) (*phase, error) {
	// One client's transport error ends the phase for all of them.
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveClient(ctx, d, w, seq, next, &parts[i], start, limit, dur, keep); err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	total := &phase{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total, nil
}

// merge adds what another client, or another slice, observed.
func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.reqBytes += q.reqBytes
	p.respBytes += q.respBytes
	p.requests += q.requests
	p.checked = append(p.checked, q.checked...)
	p.churnOps = append(p.churnOps, q.churnOps...)
	p.churnMS = append(p.churnMS, q.churnMS...)
	if p.reason == "" {
		p.reason = q.reason
	}
}

// driveClient is one client of the closed loop, recording into p.
func driveClient(ctx context.Context, d *daemon, w *workload, seq func(int) *request, next *atomic.Int64, p *phase, start time.Time, limit int, dur time.Duration, keep bool) error {
	c, err := dial(ctx, d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	var admin *conn
	if w.churn && keep {
		if admin, err = dial(ctx, d.admin); err != nil {
			return err
		}
		defer admin.close()
	}
	for {
		if dur > 0 && time.Since(start) >= dur {
			return nil
		}
		k := int(next.Add(1) - 1)
		if limit > 0 && k >= limit {
			return nil
		}
		req := seq(k)
		if req == nil {
			return nil
		}
		if admin != nil && k%churnEvery == 0 {
			t0 := time.Now()
			op, err := applyChurn(admin, (k/churnEvery)%2 == 0, churnDevice)
			if err != nil {
				return err
			}
			p.churnMS = append(p.churnMS, float64(time.Since(t0))/1e6)
			p.churnOps = append(p.churnOps, op)
		}
		t0 := time.Now()
		status, body, err := c.roundTrip(req.raw)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("request %d: %v", k, err)
		}
		items := int64(w.items)
		bad := int64(0)
		switch {
		case status != http.StatusOK || len(body) == 0:
			bad = items
			p.fail("request %d: status %d: %s", k, status, firstLine(body))
		case w.items > 1:
			if bad = int64(bytes.Count(body, errItem)); bad > 0 {
				p.fail("request %d: %d items answered with an error", k, bad)
			}
		}
		if keep && bad == 0 && k%checkEvery == 0 {
			deploys, err := decodeDeploys(body, w.items)
			if err != nil {
				bad = items
				p.fail("request %d: undecodable body: %v", k, err)
			} else {
				p.checked = append(p.checked, checked{req: req, deploys: deploys})
			}
		}
		p.requests++
		p.attempted += items
		p.failed += bad
		p.reqBytes += int64(len(req.raw) - req.off)
		p.respBytes += int64(len(body))
		if keep {
			p.samples = append(p.samples, sample{done: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), ok: int32(items - bad)})
		}
	}
}

func (p *phase) fail(format string, args ...any) {
	if p.reason == "" {
		p.reason = fmt.Sprintf(format, args...)
	}
}

// result is one workload's run: every declared metric, by name.
type result struct {
	workload  string
	attempted int64
	failed    int64
	reason    string // first failed check, "" when every output was correct
	metrics   map[string]float64
	notes     []string
}

// setupRepeats is how many times a run boots and warms the daemon; setup_s
// is their median, and the last boot serves the measured phase.
const setupRepeats = 3

// bootAndWarm is the set-up a deployment pays: exec the daemon, wait for
// /readyz, send the warm-up sequence. It returns the seconds that took.
func bootAndWarm(ctx context.Context, e *env, w *workload, in *inputs, logPath string) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, e.daemonBin, logPath, w, e.clients)
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, d.addr); err != nil {
		d.kill()
		return nil, 0, err
	}
	var next atomic.Int64
	warm, err := drive(ctx, d, w, in.warm, &next, e.clients, w.warmup, 0, false)
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("warm-up: %v", err)
	}
	if warm.failed > 0 {
		d.kill()
		return nil, 0, fmt.Errorf("warm-up: %d of %d deploys failed: %s", warm.failed, warm.attempted, warm.reason)
	}
	return d, time.Since(t0).Seconds(), nil
}

// runWorkload measures one workload against the real daemon: set-up (three
// times), then seconds slices of closed-loop load, one second each, with the
// host's speed taken on the reference workload before and after every one;
// then the placement-energy probes, the daemon's own counters, and a clean
// SIGTERM drain.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*result, *inputs, error) {
	wall := time.Duration(seconds)*1500*time.Millisecond + 60*time.Second
	ctx, cancel := context.WithTimeoutCause(ctx, wall, fmt.Errorf("%s exceeded its %s wall limit", w.name, wall))
	defer cancel()

	t0 := time.Now()
	in, err := buildInputs(w, seed, seconds, e.clients)
	if err != nil {
		return nil, nil, fmt.Errorf("generating requests: %v", err)
	}
	prepS := time.Since(t0).Seconds()

	before, err := e.ref.speed()
	if err != nil {
		return nil, nil, err
	}
	// between returns the host's speed over a span that began at the last
	// reading: the mean of that reading and a fresh one.
	between := func() (float64, error) {
		after, err := e.ref.speed()
		speed := (before + after) / 2
		before = after
		return speed, err
	}

	logPath := filepath.Join(e.outDir, w.name+".log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		return nil, nil, err
	}
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
			if before, err = e.ref.speed(); err != nil {
				return nil, nil, err
			}
		}
		var s float64
		if d, s, err = bootAndWarm(ctx, e, w, in, logPath); err != nil {
			return nil, nil, err
		}
		defer d.kill()
		speed, err := between()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s*speed)
	}

	cn, err := fetchClusterNames(ctx, d.addr)
	if err != nil {
		return nil, nil, err
	}

	ph := &phase{}
	var slices []sliceStats
	var speeds []float64
	var next atomic.Int64
	var genCPU float64
	for s := 0; s < seconds; s++ {
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return nil, nil, err
		}
		self0, _ := procCPU(os.Getpid()) // preflight read the same file
		p, err := drive(ctx, d, w, in.run, &next, e.clients, 0, time.Second, true)
		if err != nil {
			return nil, nil, fmt.Errorf("measured phase: %v", err)
		}
		cpu1, err := procCPU(d.pid())
		if err != nil {
			return nil, nil, err
		}
		self1, _ := procCPU(os.Getpid())
		speed, err := between()
		if err != nil {
			return nil, nil, err
		}
		if len(p.samples) == 0 {
			break // the sequence ran out
		}
		slices = append(slices, reduceSlice(p.samples, cpu1-cpu0, speed))
		speeds = append(speeds, speed)
		genCPU += self1 - self0
		ph.merge(p)
	}

	r := &result{workload: w.name, attempted: ph.attempted, failed: ph.failed, reason: ph.reason, metrics: map[string]float64{}}
	if len(slices) < seconds {
		r.notes = append(r.notes, fmt.Sprintf("the %d-request sequence ran out after %d of %d slices", ph.requests, len(slices), seconds))
	}
	ok := ph.attempted - ph.failed
	if ok == 0 {
		return nil, nil, fmt.Errorf("no deploy succeeded: %s", ph.reason)
	}

	// With every device recovered, ask for the probe placements and price
	// them on a cold-cache simulator of our own.
	if w.churn {
		admin, err := dial(ctx, d.admin)
		if err != nil {
			return nil, nil, err
		}
		op, err := applyChurn(admin, false, churnDevice)
		admin.close()
		if err != nil {
			return nil, nil, err
		}
		ph.churnOps = append(ph.churnOps, op)
	}
	churn := newChurnLog(ph.churnOps)
	for _, c := range ph.checked {
		for i, dep := range c.deploys {
			if dep == nil {
				continue // counted as a failed item by the loop already
			}
			if err := checkDeploy(dep, c.req.names[i], cn, churn); err != nil {
				r.failed++
				if r.reason == "" {
					r.reason = "output check: " + err.Error()
				}
			}
		}
	}
	energy, err := probeEnergy(ctx, d, w, in.probes, cn, churn, r)
	if err != nil {
		return nil, nil, err
	}

	t0 = time.Now()
	status, metricsText, err := get(ctx, d.addr, "/metrics")
	scrapeMS := float64(time.Since(t0)) / 1e6
	if err != nil || status != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /metrics: status %d, err %v", status, err)
	}
	stats, err := fetchStats(ctx, d.addr)
	if err != nil {
		return nil, nil, err
	}
	// The fleet's own conservation law: everything it accepted was answered.
	// (It never counts a rejected request as submitted.)
	if stats.InFlight != 0 || stats.Submitted != stats.Completed+stats.Failed {
		return nil, nil, fmt.Errorf("/v1/stats does not balance: submitted %d, completed %d, failed %d, in flight %d",
			stats.Submitted, stats.Completed, stats.Failed, stats.InFlight)
	}
	rss, err := procPeakRSSMB(d.pid())
	if err != nil {
		return nil, nil, err
	}
	if err := d.stop(); err != nil {
		return nil, nil, err
	}

	m := r.metrics
	m["setup_s"] = median(setups)
	m["throughput_rps"] = medianOf(slices, func(s sliceStats) float64 { return s.throughput })
	m["server_cpu_us_per_deploy"] = medianOf(slices, func(s sliceStats) float64 { return s.cpuUS })
	m["latency_p50_ms"] = medianOf(slices, func(s sliceStats) float64 { return s.p50MS })
	m["latency_p95_ms"] = medianOf(slices, func(s sliceStats) float64 { return s.p95MS })
	m["server_rss_mb"] = rss
	m["placement_energy_j"] = energy

	m["gen.error_rate"] = float64(r.failed) / float64(r.attempted)
	m["gen.host_speed"] = median(speeds)
	m["gen.latency_p99_ms"] = medianOf(slices, func(s sliceStats) float64 { return s.p99MS })
	m["gen.cpu_us_per_deploy"] = genCPU * 1e6 / float64(ok)
	m["gen.req_bytes"] = float64(ph.reqBytes) / float64(ph.requests)
	m["gen.resp_bytes"] = float64(ph.respBytes) / float64(ph.requests)
	m["gen.build_s"] = e.buildS
	m["gen.prep_s"] = prepS
	m["obs.scrape_ms"] = scrapeMS
	daemonCounters(m, metricsText, stats, ph)
	r.notes = append(r.notes, fmt.Sprintf("n=%d round trips (about %d a slice), %d deploys, %d slices, host speed %.2f",
		ph.requests, int(ph.requests)/len(slices), ph.attempted, len(slices), m["gen.host_speed"]))
	return r, in, nil
}

// daemonCounters fills in the per-layer metrics the daemon itself counted:
// its /metrics and /v1/stats after the phase, and the stamps in the sampled
// response bodies.
func daemonCounters(m map[string]float64, metricsText []byte, stats *fleetStats, ph *phase) {
	m["fleetd.accepted"] = sumSeries(metricsText, "fleetd_http_accepted")
	m["fleetd.rejected"] = sumSeries(metricsText, "fleetd_http_rejected")
	m["fleetd.shed"] = sumSeries(metricsText, "fleetd_http_shed")
	m["fleet.placement_hit_ratio"] = ratio(stats.Cache.Hits, stats.Cache.Hits+stats.Cache.Misses)
	m["fleet.placement_evictions"] = float64(stats.Cache.Evictions)
	m["fleet.shape_compiles"] = float64(stats.ModelCache.Compiles)
	m["fleet.app_compiles"] = float64(stats.ModelCache.AppCompiles)
	m["fleet.cluster_compiles"] = float64(stats.ModelCache.ClusterCompiles)
	m["fleet.failed"] = float64(stats.Failed)
	m["fleet.rejected"] = float64(stats.Rejected)
	var degraded, sampled int64
	var serverMS, queueMS []float64
	for _, c := range ph.checked {
		for _, dep := range c.deploys {
			if dep == nil {
				continue
			}
			sampled++
			if dep.Degraded {
				degraded++
			}
			serverMS = append(serverMS, dep.LatencyMS)
			queueMS = append(queueMS, dep.QueueWaitMS)
		}
	}
	m["fleet.degraded_ratio"] = ratio(degraded, sampled)
	m["fleet.server_latency_p50_ms"] = median(serverMS)
	m["fleet.queue_wait_p50_ms"] = median(queueMS)
	m["fleet.churn_epochs"] = float64(stats.Churn.EpochsApplied)
	m["fleet.churn_invalidated"] = float64(stats.Churn.Invalidated)
	m["fleet.churn_stale_rejected"] = float64(stats.Churn.StaleRejected)
	m["fleet.churn_reschedules"] = float64(stats.Churn.Reschedules)
	m["fleet.churn_downgrades"] = float64(stats.Churn.Downgrades)
	m["fleet.churn_shapes_purged"] = float64(stats.Churn.ShapesPurged)
	m["fleet.churn_apply_ms"] = median(ph.churnMS)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeEnergy deploys each probe app once and returns the mean energy of the
// returned placements under a cold-cache simulation. Probe deploys count as
// attempted, and as failed when they break an output check.
func probeEnergy(ctx context.Context, d *daemon, w *workload, probes []probe, cn *clusterNames, churn *churnLog, r *result) (float64, error) {
	c, err := dial(ctx, d.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	cluster := wl.ScaledTestbed(w.cluster)
	var joules []float64
	for i := range probes {
		p := &probes[i]
		r.attempted++
		status, body, err := c.roundTrip(p.req.raw)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %v", p.app.Name, err)
		}
		err = func() error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d: %s", status, firstLine(body))
			}
			deploys, err := decodeDeploys(body, 1)
			if err != nil {
				return err
			}
			if err := checkDeploy(deploys[0], p.req.names[0], cn, churn); err != nil {
				return err
			}
			placement := sim.Placement{}
			for ms, a := range deploys[0].Placement {
				placement[ms] = sim.Assignment{Device: a.Device, Registry: a.Registry}
			}
			res, err := sim.Run(p.app, cluster, placement, sim.Options{})
			if err != nil {
				return fmt.Errorf("simulating the returned placement: %v", err)
			}
			joules = append(joules, float64(res.TotalEnergy))
			return nil
		}()
		if err != nil {
			r.failed++
			if r.reason == "" {
				r.reason = fmt.Sprintf("probe %s: %v", p.app.Name, err)
			}
		}
	}
	if len(joules) == 0 {
		return 0, fmt.Errorf("no probe placement could be priced: %s", r.reason)
	}
	return mean(joules), nil
}

// fleetStats is the part of GET /v1/stats the harness reads.
type fleetStats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	InFlight  int64 `json:"in_flight"`
	Cache     struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	ModelCache struct {
		Compiles        int64 `json:"compiles"`
		AppCompiles     int64 `json:"app_compiles"`
		ClusterCompiles int64 `json:"cluster_compiles"`
	} `json:"model_cache"`
	Churn struct {
		EpochsApplied int64 `json:"epochs_applied"`
		Invalidated   int64 `json:"invalidated"`
		ShapesPurged  int64 `json:"shapes_purged"`
		StaleRejected int64 `json:"stale_rejected"`
		Reschedules   int64 `json:"reschedules"`
		Downgrades    int64 `json:"downgrades"`
	} `json:"churn"`
}

func fetchStats(ctx context.Context, addr string) (*fleetStats, error) {
	status, body, err := get(ctx, addr, "/v1/stats")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d, err %v", status, err)
	}
	var s fleetStats
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %v", err)
	}
	return &s, nil
}

// sumSeries adds up every sample of one family in a Prometheus text
// exposition, across its label sets.
func sumSeries(text []byte, family string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}
