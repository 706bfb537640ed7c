// Command deepfleetd serves the multi-tenant deployment API over HTTP: wire
// spec in, placement and simulated cost out, with the robustness contract a
// network front-end owes its callers — per-tenant rate limits and in-flight
// quotas, 429 backpressure with Retry-After, body-size and decode limits,
// health/readiness probes, and SIGTERM graceful drain that completes every
// accepted request before exit.
//
// Usage:
//
//	deepfleetd -addr :8080 -admin-addr 127.0.0.1:9091 -workers 8 -queue 256
//	deepfleetd -addr :0 -cluster 4 -rate 50 -burst 100 -max-inflight 32
//
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/v1/deploy -d @deploy.json
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:9091/v1/drain
//
// A deploy runs on its HTTP handler's goroutine: it borrows one of -workers
// fleet workers, or waits for one in one of -queue waiter slots (a batch
// takes one), and is answered 429 queue_full when none is free.
//
// The public address serves only deploy, read-only introspection, and
// probes. Operator endpoints — /v1/churn, /v1/drain, /debug/vars,
// /debug/pprof/*, /debug/slow — live on -admin-addr (keep it loopback-only;
// empty disables them entirely), so an internet-facing deployment cannot be
// drained, churned, or profile-pinned by its clients.
//
// On SIGTERM (or POST /v1/drain on the admin listener) the daemon stops
// admission (/readyz goes
// 503, deploys are shed with 503 draining), waits for every in-flight
// handler, closes the fleet (completing every accepted request), and exits —
// all bounded by -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deep/internal/fleet"
	"deep/internal/fleetd"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (:0 picks a random port, printed on stdout)")
	adminAddr := flag.String("admin-addr", "", "admin listener for /v1/churn, /v1/drain, and /debug/* — keep it loopback-only (empty disables)")
	workers := flag.Int("workers", 4, "scheduler/simulator worker pool size")
	queue := flag.Int("queue", 256, "waiter slots: deploys that may wait for a busy worker pool before 429")
	cacheSize := flag.Int("cache", fleet.DefaultCacheSize, "placement cache entries (0 disables: every deploy is compiled, scheduled and simulated)")
	scheduler := flag.String("scheduler", "deep", "scheduling method: deep|exclusive-hub|exclusive-regional|greedy-energy|min-ct|round-robin|random")
	clusterSize := flag.Int("cluster", 1, "testbed device pairs (1 = the paper's two-device testbed)")
	seed := flag.Int64("seed", 1, "randomness seed for randomized baseline schedulers")
	rate := flag.Float64("rate", 0, "per-tenant sustained deploys per second (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-tenant token bucket size (default max(rate, 1))")
	maxInFlight := flag.Int("max-inflight", 0, "per-tenant concurrent deploy quota (0 = unlimited)")
	maxBody := flag.Int64("max-body", 0, "request body limit in bytes (0 = 1 MiB default)")
	maxDeadline := flag.Duration("max-deadline", 30*time.Second, "cap on client-requested deploy deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "hard bound on graceful drain; exceeded means exit 1")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "deepfleetd:", err)
		os.Exit(1)
	}

	newScheduler := func() sched.Scheduler {
		for _, s := range sched.All(*seed) {
			if s.Name() == *scheduler {
				return s
			}
		}
		return nil
	}
	if newScheduler() == nil {
		fail(fmt.Errorf("unknown scheduler %q", *scheduler))
	}
	if *cacheSize <= 0 {
		*cacheSize = -1 // Config treats 0 as default; the flag promises 0 disables
	}

	f := fleet.New(fleet.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cacheSize,
		NewScheduler: newScheduler,
		NewCluster:   func() *sim.Cluster { return workload.ScaledTestbed(*clusterSize) },
	})

	srv, err := fleetd.New(fleetd.Config{
		Backend:      f,
		Registry:     f.Metrics().Obs(),
		Cluster:      workload.ScaledTestbed(*clusterSize),
		RatePerSec:   *rate,
		Burst:        *burst,
		MaxInFlight:  *maxInFlight,
		MaxBodyBytes: *maxBody,
		MaxDeadline:  *maxDeadline,
		ExpvarName:   "deepfleetd",
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The smoke harness parses this line to discover a :0 port; keep the
	// format stable.
	fmt.Printf("deepfleetd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fail(err)
		}
		// Parsed by the smoke harness like the public line; keep the format.
		fmt.Printf("deepfleetd: admin on %s\n", aln.Addr())
		adminSrv = &http.Server{Handler: srv.AdminHandler()}
		go func() { _ = adminSrv.Serve(aln) }()
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("deepfleetd: %s: draining\n", sig)
	case <-srv.Draining():
		fmt.Println("deepfleetd: drain requested: draining")
	case err := <-serveErr:
		fail(err)
	}

	// Drain sequence, bounded end to end by -drain-timeout:
	//  1. stop admission (readyz 503, deploys shed),
	//  2. wait for every in-flight handler — each holds an accepted fleet
	//     request and blocks until its response arrives,
	//  3. close the fleet, completing anything still queued.
	hardDeadline := time.Now().Add(*drainTimeout)
	srv.StartDrain()
	ctx, cancel := context.WithDeadline(context.Background(), hardDeadline)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fail(fmt.Errorf("drain exceeded %s waiting for in-flight requests: %w", *drainTimeout, err))
	}
	if adminSrv != nil {
		_ = adminSrv.Shutdown(ctx)
	}
	closed := make(chan struct{})
	go func() { f.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Until(hardDeadline)):
		fail(fmt.Errorf("drain exceeded %s waiting for fleet close", *drainTimeout))
	}
	st := f.Stats()
	fmt.Printf("deepfleetd: drained cleanly (%d completed, %d failed, %d rejected)\n",
		st.Completed, st.Failed, st.Rejected)
}
