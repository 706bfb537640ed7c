package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"deep/internal/dag"
	"deep/internal/wire"
	wl "deep/internal/workload"
)

const (
	tenantCount = 8    // tenants the load is spread over
	checkEvery  = 64   // every 64th response is fully decoded and checked
	churnEvery  = 1000 // churn_zipf: request index k with k%1000 == 0 churns first
	churnDevice = "medium-00"
	probeCount  = 64 // most apps the placement-energy probe deploys
)

// A workload is one traffic mix against one daemon configuration. See
// README.md for why each exists.
type workload struct {
	name    string
	why     string
	cluster int    // daemon -cluster: device pairs of the scaled testbed
	path    string // POST target
	items   int    // deploys per request (16 on the batch endpoint)
	warmup  int    // requests sent before measuring

	// microservices is the synthetic app size; 0 means the two case-study
	// apps.
	microservices int
	// pool is how many distinct request bodies the sequence draws from; 0
	// means every request has a body of its own, never repeated.
	pool int
	// perSecond sizes a never-repeating sequence: perSecond requests for
	// every second measured, twice what the daemon answers at the seed, so
	// the sequence outlasts the clock unless the program gets twice as fast
	// (then the phase ends early and says so).
	perSecond int
	// zipf, when non-zero, draws the sequence Zipf(s) from the pool.
	zipf float64
	// churn makes the client that draws k%churnEvery == 0 fail or recover
	// churnDevice on the admin port first.
	churn bool
}

var workloads = []*workload{
	{
		name: "warm_single", cluster: 1, path: "/v1/deploy", items: 1, warmup: 6000, pool: 2 * tenantCount,
		why: "every deploy hits the placement cache, so socket, JSON decode, DAG build and digest are the whole cost and the solver is idle",
	},
	{
		name: "warm_batch", cluster: 1, path: "/v1/deploy:batch", items: 16, warmup: 1000, pool: tenantCount,
		why: "the same cached apps in 16-item envelopes: socket cost amortised 16x and the only workload with real admission-queue wait",
	},
	{
		name: "cold_unique", cluster: 12, path: "/v1/deploy", items: 1, warmup: 1200, microservices: 16, perSecond: 4000,
		why: "never-repeated 16-microservice apps on 24 devices: every cache misses, so appgraph, costmodel and the exact Nash solver dominate",
	},
	{
		name: "churn_zipf", cluster: 4, path: "/v1/deploy", items: 1, warmup: 5000, microservices: 9, pool: 2048, zipf: 1.1, churn: true,
		why: "Zipf draws from 2048 apps (2x the placement cache) while a used device fails and recovers: partial hit ratio beside cluster writes",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one pre-built HTTP/1.1 request.
type request struct {
	raw   []byte     // request line, headers and JSON payload
	off   int        // where the payload starts in raw
	names [][]string // per item, the microservice names its placement must cover
}

func (r *request) payload() []byte { return r.raw[r.off:] }

// probe is one app of the placement-energy pass: its single-deploy request
// and the in-memory app the returned placement is simulated on.
type probe struct {
	req request
	app *dag.App
}

// inputs is everything a run sends, made from the seed before the daemon
// boots.
type inputs struct {
	warm   func(k int) *request // warm-up sequence
	run    func(k int) *request // measured sequence; nil once exhausted
	probes []probe
}

// Envelope shapes of the deploy API as a client writes them.
type deployEnvelope struct {
	Tenant string        `json:"tenant"`
	Seed   int64         `json:"seed"`
	App    *wire.AppSpec `json:"app"`
}

type batchEnvelope struct {
	Tenant string      `json:"tenant"`
	Items  []batchItem `json:"items"`
}

type batchItem struct {
	Seed int64         `json:"seed"`
	App  *wire.AppSpec `json:"app"`
}

// rawRequest frames a payload as a keep-alive HTTP/1.1 request.
func rawRequest(method, path string, payload []byte) request {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: deepfleetd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(payload))
	return request{raw: append([]byte(head), payload...), off: len(head)}
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i%tenantCount) }

func msNames(app *dag.App) []string {
	names := make([]string, len(app.Microservices))
	for i, m := range app.Microservices {
		names[i] = m.Name
	}
	return names
}

func singleRequest(tenant string, seed int64, app *dag.App) (request, error) {
	payload, err := json.Marshal(deployEnvelope{Tenant: tenant, Seed: seed, App: wire.AppSpecOf(app)})
	if err != nil {
		return request{}, err
	}
	r := rawRequest("POST", "/v1/deploy", payload)
	r.names = [][]string{msNames(app)}
	return r, nil
}

func synthetic(microservices int, seed int64) (*dag.App, error) {
	return wl.Generate(wl.DefaultGeneratorConfig(microservices, seed))
}

// syntheticRequests builds n single-deploy requests for synthetic apps with
// generator seeds base, base+1, …, in parallel but into fixed slots, so the
// result depends on the seeds alone.
func syntheticRequests(w *workload, seed, base int64, n, parallel int) ([]request, error) {
	out := make([]request, n)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < n; i += parallel {
				app, err := synthetic(w.microservices, base+int64(i))
				if err == nil {
					out[i], err = singleRequest(tenantName(i), seed, app)
				}
				if err != nil {
					errs[p] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// zipfOrder draws n pool indices Zipf(s)-distributed, rank 0 the hottest.
func zipfOrder(rng *rand.Rand, s float64, pool, n int) []uint16 {
	z := rand.NewZipf(rng, s, 1, uint64(pool-1))
	order := make([]uint16, n)
	for i := range order {
		order[i] = uint16(z.Uint64())
	}
	return order
}

// buildInputs generates a workload's requests from the seed; seconds sizes a
// never-repeating sequence. The placement-energy probes do not depend on the
// seed: they are the quality guard, compared across runs and commits, so
// every run must ask for the same placements.
func buildInputs(w *workload, seed int64, seconds, parallel int) (*inputs, error) {
	in := &inputs{}
	cyclic := func(pool []request) func(int) *request {
		return func(k int) *request { return &pool[k%len(pool)] }
	}
	switch {
	case w.microservices == 0:
		apps := wl.Apps()
		var pool []request
		if w.items == 1 {
			for t := 0; t < tenantCount; t++ {
				for _, app := range apps {
					r, err := singleRequest(tenantName(t), seed, app)
					if err != nil {
						return nil, err
					}
					pool = append(pool, r)
				}
			}
		} else {
			for t := 0; t < tenantCount; t++ {
				env := batchEnvelope{Tenant: tenantName(t)}
				var names [][]string
				for i := 0; i < w.items; i++ {
					app := apps[i%len(apps)]
					env.Items = append(env.Items, batchItem{Seed: seed, App: wire.AppSpecOf(app)})
					names = append(names, msNames(app))
				}
				payload, err := json.Marshal(env)
				if err != nil {
					return nil, err
				}
				r := rawRequest("POST", w.path, payload)
				r.names = names
				pool = append(pool, r)
			}
		}
		in.warm, in.run = cyclic(pool), cyclic(pool)
		for _, app := range apps {
			r, err := singleRequest(tenantName(0), 0, app)
			if err != nil {
				return nil, err
			}
			in.probes = append(in.probes, probe{req: r, app: app})
		}
		return in, nil

	case w.pool == 0:
		// Measured and warm-up apps come from disjoint generator seeds, so
		// warming up caches nothing the measured phase then asks for.
		run, err := syntheticRequests(w, seed, seed*1_000_000, w.perSecond*seconds, parallel)
		if err != nil {
			return nil, err
		}
		warm, err := syntheticRequests(w, seed, seed*1_000_000+900_000, w.warmup, parallel)
		if err != nil {
			return nil, err
		}
		in.warm = cyclic(warm)
		in.run = func(k int) *request {
			if k >= len(run) {
				return nil
			}
			return &run[k]
		}

	default:
		pool, err := syntheticRequests(w, seed, seed*1_000_000, w.pool, parallel)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		// A run that gets past 1<<18 draws wraps around, which a Zipf
		// stream does not notice.
		order := zipfOrder(rng, w.zipf, w.pool, 1<<18)
		warmOrder := zipfOrder(rng, w.zipf, w.pool, w.warmup)
		in.warm = func(k int) *request { return &pool[warmOrder[k%len(warmOrder)]] }
		in.run = func(k int) *request { return &pool[order[k%len(order)]] }
	}

	for i := 0; i < probeCount; i++ {
		// Negative generator seeds: no load sequence ever uses them, so
		// each probe is a fresh solve on the fully recovered cluster.
		app, err := synthetic(w.microservices, -int64(i+1))
		if err != nil {
			return nil, err
		}
		r, err := singleRequest(tenantName(i), 0, app)
		if err != nil {
			return nil, err
		}
		in.probes = append(in.probes, probe{req: r, app: app})
	}
	return in, nil
}
