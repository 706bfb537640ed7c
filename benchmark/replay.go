package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/fleetd"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/wire"
	wl "deep/internal/workload"
)

// replaySample is how many requests of a workload's sequence the traced
// replay walks: the first 2000.
const replaySample = 2000

// Span names of the replay, in handler order. A metric is the span's name
// plus "_us". The six fleet stages are obs.Stage's, under the fleet's name.
const (
	spanRoundTrip = "nethttp.roundtrip"
	spanHandler   = "fleetd.handler"
	spanEnvelope  = "fleetd.envelope_decode"
	spanDecode    = "wire.decode"
	spanBuild     = "wire.build"
	spanDo        = "fleet.do"
	spanEncode    = "fleetd.encode"
)

var handlerParts = []string{spanEnvelope, spanDecode, spanBuild, spanDo, spanEncode}

var stageSpans = [obs.NumStages]string{
	obs.StageQueue:       "fleet.queue",
	obs.StageFingerprint: "fleet.fingerprint",
	obs.StageCompile:     "fleet.compile",
	obs.StageCacheLookup: "fleet.cache_lookup",
	obs.StageSchedule:    "fleet.schedule",
	obs.StageSim:         "fleet.sim",
}

// stack is the daemon's serving stack built in-process, configured as
// cmd/deepfleetd configures it for the workload.
type stack struct {
	fleet   *fleet.Fleet
	handler http.Handler
}

func newStack(w *workload, workers int) (*stack, error) {
	f := fleet.New(fleet.Config{
		Workers:      workers,
		QueueDepth:   256,
		NewScheduler: func() sched.Scheduler { return sched.NewDEEP() },
		NewCluster:   func() *sim.Cluster { return wl.ScaledTestbed(w.cluster) },
	})
	srv, err := fleetd.New(fleetd.Config{
		Backend:  f,
		Registry: f.Metrics().Obs(),
		Cluster:  wl.ScaledTestbed(w.cluster),
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return &stack{fleet: f, handler: srv.Handler()}, nil
}

// walk is what one pass of the replay measured.
type walk struct {
	loopNS  int64                // wall time of the pass
	deploys int64                // deploys walked
	mallocs uint64               // heap allocations during the fleet.do calls
	stageNS [obs.NumStages]int64 // the fleet's own stage stamps, summed over deploys
}

// heapAllocs is runtime.MemStats.Mallocs without the stop-the-world read.
func heapAllocs(samples []metrics.Sample) uint64 {
	metrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

// replay walks each request through the layers in handler order, timing
// every call from here, outside the program. Three things cannot be timed in
// one execution — the socket round trip contains the handler, the handler
// contains the decode and fleet calls — so each runs on a stack of its own
// that sees the same sequence once: all three then hit and miss their caches
// alike. With rec == nil nothing is timed or recorded (the spans-off pass
// that trace.overhead_ratio compares against).
func replay(ctx context.Context, w *workload, reqs []*request, workers int, rec *recorder) (walk, error) {
	var stacks [3]*stack
	for i := range stacks {
		s, err := newStack(w, workers)
		if err != nil {
			return walk{}, err
		}
		defer s.fleet.Close()
		stacks[i] = s
	}
	socket, recorded, direct := stacks[0], stacks[1], stacks[2]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return walk{}, err
	}
	httpSrv := &http.Server{Handler: socket.handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln) // returns ErrServerClosed on the Close below
	}()
	defer func() {
		httpSrv.Close()
		<-served
	}()
	cl, err := dial(ctx, ln.Addr().String())
	if err != nil {
		return walk{}, err
	}
	defer cl.close()

	begin := time.Now()
	clock := func() int64 {
		if rec == nil {
			return 0
		}
		return int64(time.Since(begin))
	}
	var out walk
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	for k, req := range reqs {
		if err := context.Cause(ctx); err != nil {
			return walk{}, err
		}
		if w.churn && k%churnEvery == 0 {
			delta := fleet.ChurnDelta{RecoverDevices: []string{churnDevice}}
			if (k/churnEvery)%2 == 0 {
				delta = fleet.ChurnDelta{FailDevices: []string{churnDevice}}
			}
			for _, s := range stacks {
				if _, _, err := s.fleet.ApplyChurn(delta); err != nil {
					return walk{}, err
				}
			}
		}

		t0 := clock()
		status, _, err := cl.roundTrip(req.raw)
		t1 := clock()
		if err != nil || status != http.StatusOK {
			return walk{}, fmt.Errorf("replay request %d over the socket: status %d, err %v", k, status, err)
		}

		hreq := httptest.NewRequest("POST", w.path, bytes.NewReader(req.payload()))
		hrec := httptest.NewRecorder()
		t2 := clock()
		recorded.handler.ServeHTTP(hrec, hreq)
		t3 := clock()
		if hrec.Code != http.StatusOK {
			return walk{}, fmt.Errorf("replay request %d on the handler: status %d", k, hrec.Code)
		}

		var parts [5]int64 // handlerParts order
		t4 := clock()
		tenant, items, err := decodeEnvelope(req.payload(), w.items > 1)
		t5 := clock()
		parts[0] = t5 - t4
		if err != nil {
			return walk{}, fmt.Errorf("replay request %d: %v", k, err)
		}
		freqs := make([]fleet.Request, len(items))
		for i, it := range items {
			t6 := clock()
			spec, err := wire.DecodeAppSpec(it.App)
			t7 := clock()
			if err != nil {
				return walk{}, fmt.Errorf("replay request %d: %v", k, err)
			}
			app, err := spec.App()
			t8 := clock()
			if err != nil {
				return walk{}, fmt.Errorf("replay request %d: %v", k, err)
			}
			parts[1] += t7 - t6
			parts[2] += t8 - t7
			freqs[i] = fleet.Request{Tenant: tenant, App: app, Seed: it.Seed}
		}

		var a0 uint64
		if rec != nil {
			a0 = heapAllocs(allocs)
		}
		t9 := clock()
		resps, err := submit(ctx, direct.fleet, freqs)
		t10 := clock()
		if rec != nil {
			out.mallocs += heapAllocs(allocs) - a0
		}
		parts[3] = t10 - t9
		if err != nil {
			return walk{}, fmt.Errorf("replay request %d: %v", k, err)
		}
		// On the timeline the stages are laid end to end, so an envelope's
		// queue span is the wait of the envelope itself, its first item's:
		// every later item's stamped wait is the earlier items' busy time,
		// which their own stage spans already show.
		var stages [obs.NumStages]int64
		for i, r := range resps {
			for s, d := range r.Stages.D {
				out.stageNS[s] += int64(d)
				if obs.Stage(s) != obs.StageQueue || i == 0 {
					stages[s] += int64(d)
				}
			}
		}

		t11 := clock()
		err = encode(io.Discard, tenant, resps, w.items > 1)
		t12 := clock()
		parts[4] = t12 - t11
		if err != nil {
			return walk{}, fmt.Errorf("replay request %d: %v", k, err)
		}
		out.deploys += int64(len(items))

		if rec != nil {
			// The request's timeline: the round trip as measured, the handler
			// inside it, the handler's parts inside that, the fleet's own
			// stage stamps inside fleet.do. Children start where their parent
			// does and follow one another.
			root := rec.add(k, 0, spanRoundTrip, t0, t1-t0)
			h := rec.add(k, root, spanHandler, t0, t3-t2)
			at := t0
			for i, name := range handlerParts {
				id := rec.add(k, h, name, at, parts[i])
				if name == spanDo {
					sat := at
					for s, d := range stages {
						rec.add(k, id, stageSpans[s], sat, d)
						sat += d
					}
				}
				at += parts[i]
			}
		}
	}
	out.loopNS = int64(time.Since(begin))
	return out, nil
}

// envelopeItem is one deploy of a decoded request envelope.
type envelopeItem struct {
	Seed int64
	App  json.RawMessage
}

// decodeEnvelope is the handler's strict decode of the request envelope.
func decodeEnvelope(payload []byte, batch bool) (tenant string, items []envelopeItem, err error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if !batch {
		var req fleetd.DeployRequest
		if err := dec.Decode(&req); err != nil {
			return "", nil, err
		}
		return req.Tenant, []envelopeItem{{Seed: req.Seed, App: req.App}}, nil
	}
	var req fleetd.DeployBatchRequest
	if err := dec.Decode(&req); err != nil {
		return "", nil, err
	}
	for _, it := range req.Items {
		items = append(items, envelopeItem{Seed: it.Seed, App: it.App})
	}
	return req.Tenant, items, nil
}

// submit is fleet.do: admit the request (one Submit, or one SubmitBatch for
// an envelope) and wait for every response.
func submit(ctx context.Context, f *fleet.Fleet, reqs []fleet.Request) ([]*fleet.Response, error) {
	var ch <-chan *fleet.Response
	var err error
	if len(reqs) == 1 {
		ch, err = f.Submit(reqs[0])
	} else {
		ch, err = f.SubmitBatch(ctx, reqs)
	}
	if err != nil {
		return nil, err
	}
	resps := make([]*fleet.Response, len(reqs))
	for i := range resps {
		resps[i] = <-ch
		if resps[i].Err != nil {
			return nil, resps[i].Err
		}
	}
	return resps, nil
}

// encode is the handler's response path: copy each fleet response into its
// wire form, release it, and marshal.
func encode(w io.Writer, tenant string, resps []*fleet.Response, batch bool) error {
	outs := make([]fleetd.DeployResponse, len(resps))
	for i, r := range resps {
		outs[i] = fleetd.DeployResponse{
			Tenant:      r.Tenant,
			App:         r.App,
			Epoch:       r.Epoch,
			CacheHit:    r.CacheHit,
			Degraded:    r.Degraded,
			QueueWaitMS: float64(r.QueueWait) / float64(time.Millisecond),
			LatencyMS:   float64(r.Latency) / float64(time.Millisecond),
			Placement:   make(map[string]fleetd.AssignmentSpec, r.Placement.Len()),
			MakespanS:   r.Result.Makespan,
			EnergyJ:     float64(r.Result.TotalEnergy),
		}
		for ms, a := range r.Placement.All() {
			outs[i].Placement[ms] = fleetd.AssignmentSpec{Device: a.Device, Registry: a.Registry}
		}
		r.Release()
	}
	if !batch {
		return json.NewEncoder(w).Encode(outs[0])
	}
	body := fleetd.DeployBatchResponse{Tenant: tenant, Results: make([]fleetd.DeployBatchResult, len(outs))}
	for i := range outs {
		body.Results[i] = fleetd.DeployBatchResult{Index: i, Deploy: &outs[i]}
	}
	return json.NewEncoder(w).Encode(body)
}

// tracedReplay runs the replay over the first sample requests of a workload
// and fills in the per-layer metrics that come from it, at reference speed
// like the load phase's, so that the two can be set against each other.
func tracedReplay(ctx context.Context, e *env, w *workload, in *inputs, sample int, r *result) (*recorder, error) {
	var reqs []*request
	for k := 0; k < sample; k++ {
		req := in.run(k)
		if req == nil {
			break
		}
		reqs = append(reqs, req)
	}

	// A short untimed pass first, so neither compared pass pays for the
	// process's first page faults and heap growth.
	_, err := replay(ctx, w, reqs[:min(len(reqs), 100)], e.clients, nil)
	if err != nil {
		return nil, err
	}
	// The host's speed is read before and after each compared pass; a pass
	// is then scaled by the mean of its two readings.
	runtime.GC()
	speed0, err := e.ref.speed()
	if err != nil {
		return nil, err
	}
	off, err := replay(ctx, w, reqs, e.clients, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	speed1, err := e.ref.speed()
	if err != nil {
		return nil, err
	}
	rec := &recorder{workload: w.name}
	on, err := replay(ctx, w, reqs, e.clients, rec)
	if err != nil {
		return nil, err
	}
	speed2, err := e.ref.speed()
	if err != nil {
		return nil, err
	}
	offSpeed, onSpeed := (speed0+speed1)/2, (speed1+speed2)/2

	m := r.metrics
	layers := byLayer(rec.spans)
	perDeploy := func(ns int64) float64 { return float64(ns) / 1e3 / float64(on.deploys) * onSpeed }
	for _, name := range append([]string{spanRoundTrip, spanHandler}, handlerParts...) {
		m[name+"_us"] = perDeploy(layers[name].totalNS)
	}
	for s, name := range stageSpans {
		m[name+"_us"] = perDeploy(on.stageNS[s])
	}
	m["fleetd.self_us"] = perDeploy(layers[spanHandler].selfNS)
	m["fleet.self_us"] = perDeploy(layers[spanDo].selfNS)
	m["fleet.allocs_per_deploy"] = float64(on.mallocs) / float64(on.deploys)
	m["nethttp.residual_us"] = m["server_cpu_us_per_deploy"] - m[spanHandler+"_us"]
	var explained int64
	for _, name := range handlerParts {
		explained += layers[name].totalNS
	}
	m["trace.explained_ratio"] = float64(explained) / float64(layers[spanHandler].totalNS)
	m["trace.overhead_ratio"] = float64(on.loopNS) * onSpeed / (float64(off.loopNS) * offSpeed)

	modules, err := moduleCosts(w, reqs)
	if err != nil {
		return nil, err
	}
	after, err := e.ref.speed()
	if err != nil {
		return nil, err
	}
	for name, us := range modules {
		m[name] = us * (speed2 + after) / 2
	}
	return rec, nil
}

// perCallUS times n calls of fn and returns the mean in microseconds.
func perCallUS(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / 1e3 / float64(n)
}

// moduleCosts times one call of each compile, solve and simulate module on
// the sample's distinct apps (at most probeCount of them). These are costs
// per call; how often a deploy pays them is the fleet.*_us stage means and
// the fleet.*_compiles counts.
func moduleCosts(w *workload, reqs []*request) (map[string]float64, error) {
	m := map[string]float64{}
	seen := map[string]bool{}
	var apps []*dag.App
	for _, req := range reqs {
		_, items, err := decodeEnvelope(req.payload(), w.items > 1)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			if seen[string(it.App)] || len(apps) == probeCount {
				continue
			}
			seen[string(it.App)] = true
			spec, err := wire.DecodeAppSpec(it.App)
			if err != nil {
				return nil, err
			}
			app, err := spec.App()
			if err != nil {
				return nil, err
			}
			apps = append(apps, app)
		}
	}
	reps := max(1, 128/len(apps))

	cluster := wl.ScaledTestbed(w.cluster)
	view := topo.View{Devices: cluster.Devices, Topology: cluster.Topology, SourceNode: cluster.SourceNode}
	for _, r := range cluster.Registries {
		view.Registries = append(view.Registries, topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared})
	}
	var tab *topo.ClusterTable
	m["topo.compile_us"] = perCallUS(32, func() { tab = topo.Compile(view) })
	failed := view
	failed.Devices = nil
	for _, d := range cluster.Devices {
		if d.Name != churnDevice {
			failed.Devices = append(failed.Devices, d)
		}
	}
	m["topo.patch_us"] = perCallUS(32, func() { tab.Patch(failed, topo.Delta{}) })

	scheduler := sched.NewDEEP()
	exec := sim.NewExec()
	var compileApp, compileShape, schedule, simulate []float64
	for _, app := range apps {
		var at *appgraph.AppTable
		compileApp = append(compileApp, perCallUS(reps, func() { at = appgraph.Compile(app) }))
		var model *costmodel.Model
		var plan *sim.Plan
		compileShape = append(compileShape, perCallUS(reps, func() { model, plan = costmodel.CompileShapeOn(at, cluster, tab) }))
		var placement sim.Placement
		var err error
		schedule = append(schedule, perCallUS(reps, func() {
			if p, e := scheduler.ScheduleModel(model); e != nil {
				err = e
			} else {
				placement = p
			}
		}))
		if err != nil {
			return nil, fmt.Errorf("scheduling %s: %v", app.Name, err)
		}
		warm := sim.Options{WarmCaches: true}
		if _, err := exec.Run(plan, placement, warm); err != nil {
			return nil, fmt.Errorf("simulating %s: %v", app.Name, err)
		}
		simulate = append(simulate, perCallUS(reps, func() { _, err = exec.Run(plan, placement, warm) }))
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %v", app.Name, err)
		}
	}
	m["appgraph.compile_us"] = mean(compileApp)
	m["costmodel.compile_shape_us"] = mean(compileShape)
	m["sched.schedule_us"] = mean(schedule)
	m["sim.exec_us"] = mean(simulate)
	return m, nil
}
