// Command deepfleet runs the multi-tenant deployment service under open-loop
// load and prints a throughput/latency/cache report.
//
// Usage:
//
//	deepfleet -workers 8 -arrivals poisson -rate 200 -requests 2000
//	deepfleet -workers 4 -arrivals bursty -rate 100 -duration 5s -mix synthetic -tenants 8
//	deepfleet -workers 8 -arrivals diurnal -rate 150 -requests 1000 -cluster 4 -scheduler min-ct
//	deepfleet -workers 8 -rate 200 -requests 2000 -cluster 4 -churn -churn-crash-rate 5
//
// With -debug-addr a debug HTTP listener serves live observability while the
// run is in flight:
//
//	deepfleet -debug-addr :9090 -duration 30s ...
//	curl localhost:9090/metrics      # Prometheus text exposition
//	curl localhost:9090/debug/vars   # expvar JSON (registry under "deepfleet")
//	curl localhost:9090/debug/slow   # slow-request ring with stage breakdowns
//	go tool pprof localhost:9090/debug/pprof/profile
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"time"

	"deep"
)

// debugListener serves the observability surface on its own mux (the default
// mux would expose pprof on any future listener by side effect).
func debugListener(addr string, f *deep.Fleet) *http.Server {
	reg := f.Metrics().Obs()
	reg.PublishExpvar("deepfleet")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(f.SlowRequests())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "deepfleet: debug listener:", err)
		}
	}()
	return srv
}

func main() {
	workers := flag.Int("workers", 4, "scheduler/simulator worker pool size")
	queue := flag.Int("queue", 256, "admission queue depth")
	cacheSize := flag.Int("cache", 1024, "placement cache entries (0 disables)")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson|bursty|diurnal")
	rate := flag.Float64("rate", 100, "mean arrival rate in requests per second")
	requests := flag.Int("requests", 1000, "stop after this many submission attempts (0 = unbounded)")
	duration := flag.Duration("duration", 0, "stop after this wall time (0 = unbounded)")
	speedup := flag.Float64("speedup", 1, "replay arrivals this many times faster than real time")
	scheduler := flag.String("scheduler", "deep", "scheduling method: deep|exclusive-hub|exclusive-regional|greedy-energy|min-ct|round-robin|random")
	clusterSize := flag.Int("cluster", 1, "testbed device pairs (1 = the paper's two-device testbed)")
	mixKind := flag.String("mix", "casestudy", "application mix: casestudy|synthetic")
	tenants := flag.Int("tenants", 4, "synthetic mix: number of tenants")
	appsPer := flag.Int("apps-per-tenant", 2, "synthetic mix: distinct app shapes per tenant")
	appSize := flag.Int("app-size", 6, "synthetic mix: microservices per app")
	seed := flag.Int64("seed", 1, "randomness seed (arrivals, mix sampling, synthetic DAGs)")
	churn := flag.Bool("churn", false, "inject a seeded fault schedule (device crashes, registry outages, link degradation) during the run")
	crashRate := flag.Float64("churn-crash-rate", 2, "churn: mean device crashes per second")
	downtime := flag.Duration("churn-downtime", 500*time.Millisecond, "churn: mean device downtime")
	outageRate := flag.Float64("churn-outage-rate", 0.5, "churn: mean registry outages per second")
	degradeRate := flag.Float64("churn-degrade-rate", 0.5, "churn: mean link degradations per second")
	debugAddr := flag.String("debug-addr", "", "serve /metrics (Prometheus), /debug/vars, /debug/pprof, and /debug/slow on this address (empty disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "capture requests slower than this in the slow ring (0 = rolling p99)")
	slowRing := flag.Int("slow-ring", 0, "slow-request ring capacity (0 = default 64, negative disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "deepfleet:", err)
		os.Exit(1)
	}

	if *requests <= 0 && *duration <= 0 {
		fail(fmt.Errorf("need -requests or -duration"))
	}
	if *cacheSize <= 0 {
		// Config treats 0 as "use the default"; the flag promises 0
		// disables.
		*cacheSize = -1
	}

	schedulerByName := func() deep.Scheduler {
		for _, s := range deep.AllSchedulers(*seed) {
			if s.Name() == *scheduler {
				return s
			}
		}
		return nil
	}
	if schedulerByName() == nil {
		fail(fmt.Errorf("unknown scheduler %q", *scheduler))
	}

	proc, err := deep.NewArrivals(*arrivals, *rate)
	if err != nil {
		fail(err)
	}

	var mix []deep.MixEntry
	switch *mixKind {
	case "casestudy":
		mix = deep.CaseStudyMix()
	case "synthetic":
		mix, err = deep.SyntheticMix(*tenants, *appsPer, *appSize, *seed)
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown mix %q (want casestudy|synthetic)", *mixKind))
	}

	// The chaos schedule is generated against the same cluster shape the
	// fleet will build, so every event names real hardware. The horizon
	// covers the session: the -duration bound (scaled back to schedule time
	// under -speedup), or the expected length of a -requests bound.
	var chaosSchedule *deep.ChaosSchedule
	if *churn {
		sample := deep.ScaledTestbed(*clusterSize)
		var devs []string
		var links [][2]string
		for _, d := range sample.Devices {
			devs = append(devs, d.Name)
			links = append(links, [2]string{"hub", d.Name})
		}
		horizon := *duration
		if horizon > 0 {
			horizon = time.Duration(float64(horizon) * *speedup)
		} else {
			horizon = time.Duration(float64(*requests) / *rate * float64(time.Second))
		}
		chaosSchedule, err = deep.GenerateChaos(deep.ChaosConfig{
			Seed:           *seed,
			Horizon:        horizon,
			Devices:        devs,
			MinLiveDevices: (len(devs) + 1) / 2,
			CrashRate:      *crashRate,
			MeanDowntime:   *downtime,
			Registries:     []string{"regional"},
			OutageRate:     *outageRate,
			MeanOutage:     *downtime,
			Links:          links,
			DegradeRate:    *degradeRate,
			MeanDegrade:    *downtime,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("deepfleet: churn enabled: %d chaos events over %s (seed %d)\n",
			chaosSchedule.Len(), horizon, *seed)
	}

	f := deep.NewFleet(deep.FleetConfig{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheSize:     *cacheSize,
		NewScheduler:  schedulerByName,
		NewCluster:    func() *deep.Cluster { return deep.ScaledTestbed(*clusterSize) },
		SlowThreshold: *slowThreshold,
		SlowRingSize:  *slowRing,
	})
	defer f.Close()

	if *debugAddr != "" {
		srv := debugListener(*debugAddr, f)
		defer srv.Close()
		fmt.Printf("deepfleet: debug listener on %s (/metrics, /debug/vars, /debug/pprof, /debug/slow)\n", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cacheLabel := strconv.Itoa(*cacheSize)
	if *cacheSize < 0 {
		cacheLabel = "off"
	}
	fmt.Printf("deepfleet: workers=%d queue=%d cache=%s arrivals=%s cluster-pairs=%d scheduler=%s\n",
		*workers, *queue, cacheLabel, *arrivals, *clusterSize, *scheduler)
	start := time.Now()
	report, err := deep.DriveFleet(ctx, f, deep.TrafficConfig{
		Arrivals: proc,
		Mix:      mix,
		Requests: *requests,
		Duration: *duration,
		Speedup:  *speedup,
		Seed:     *seed,
		Chaos:    chaosSchedule,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("drive finished in %s\n\n%s", time.Since(start).Round(time.Millisecond), report)
}
