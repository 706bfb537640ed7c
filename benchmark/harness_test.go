package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// harness starts its reference process.
func TestMain(m *testing.M) {
	if n, err := strconv.Atoi(os.Getenv(referenceEnv)); err == nil {
		if err := referenceMain(n); err != nil {
			fmt.Fprintln(os.Stderr, "reference process:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// small returns a copy of a workload with a short warm-up and, when its
// sequence never repeats, perSecond requests for each second.
func small(w *workload, perSecond int) *workload {
	c := *w
	c.warmup = 40
	if c.perSecond > 0 {
		c.perSecond = perSecond
	}
	return &c
}

func TestFoldSeed(t *testing.T) {
	for seed, want := range map[int64]int64{
		1: 1, 7: 7, seedSpace: seedSpace,
		0: seedSpace, -1: seedSpace - 1, seedSpace + 1: 1, 1<<32 - 1: 967295,
	} {
		if got := foldSeed(seed); got != want {
			t.Errorf("foldSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	for _, seed := range []int64{math.MinInt64, math.MaxInt64} {
		if got := foldSeed(seed); got < 1 || got > seedSpace {
			t.Errorf("foldSeed(%d) = %d, outside 1..%d", seed, got, seedSpace)
		}
	}
}

func TestBodyGenerationIsSeeded(t *testing.T) {
	for _, w := range workloads {
		w := small(w, 200)
		gen := func(seed int64) *inputs {
			in, err := buildInputs(w, seed, 1, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return in
		}
		a, again, b := gen(3), gen(3), gen(4)
		differs := false
		for k := 0; k < 200; k++ {
			if !bytes.Equal(a.run(k).raw, again.run(k).raw) || !bytes.Equal(a.warm(k).raw, again.warm(k).raw) {
				t.Fatalf("%s: request %d differs between two generations from seed 3", w.name, k)
			}
			differs = differs || !bytes.Equal(a.run(k).raw, b.run(k).raw)
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 generate the same sequence", w.name)
		}
		// The energy probes are the cross-run quality guard: same for every seed.
		if len(a.probes) == 0 || len(a.probes) != len(b.probes) {
			t.Fatalf("%s: %d and %d probes", w.name, len(a.probes), len(b.probes))
		}
		for i := range a.probes {
			if !bytes.Equal(a.probes[i].req.raw, b.probes[i].req.raw) {
				t.Errorf("%s: probe %d depends on the seed", w.name, i)
			}
		}
	}
}

func TestColdUniqueNeverRepeats(t *testing.T) {
	w := small(workloadByName("cold_unique"), 100)
	in, err := buildInputs(w, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for k := 0; k < w.warmup; k++ {
		seen[string(in.warm(k).payload())] = true
	}
	for k := 0; k < 300; k++ {
		p := string(in.run(k).payload())
		if seen[p] {
			t.Fatalf("request %d repeats an earlier body", k)
		}
		seen[p] = true
	}
	if in.run(300) != nil {
		t.Error("the sequence does not end after perSecond requests for each of the 3 seconds")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestReduceSlice(t *testing.T) {
	ms := int64(time.Millisecond)
	// 100 round trips over one second, 1 ms each but for a 30 ms straggler;
	// two of them failed; the daemon burned 0.49 CPU seconds.
	var samples []sample
	for i := int64(1); i <= 100; i++ {
		s := sample{done: i * 10 * ms, lat: ms, ok: 1}
		if i == 50 {
			s.lat = 30 * ms
		}
		if i == 7 || i == 8 {
			s.ok = 0
		}
		samples = append(samples, s)
	}
	got := reduceSlice(samples, 0.49, 1)
	want := sliceStats{throughput: 98, cpuUS: 5000, p50MS: 1, p95MS: 1, p99MS: 1}
	if got != want {
		t.Errorf("at speed 1: %+v, want %+v", got, want)
	}
	// The same slice on a host twice as fast as the reference: at reference
	// speed it would have taken twice as long.
	got = reduceSlice(samples, 0.49, 2)
	want = sliceStats{throughput: 49, cpuUS: 10000, p50MS: 2, p95MS: 2, p99MS: 2}
	if got != want {
		t.Errorf("at speed 2: %+v, want %+v", got, want)
	}
	// An envelope counts its items; of 100 sorted round trips p95 is the 95th
	// and p99 the 99th.
	for i := range samples {
		samples[i].ok = 16
		if i >= 94 {
			samples[i].lat = int64(i) * ms // 94..99 ms; the 30 ms straggler sorts below them
		}
	}
	got = reduceSlice(samples, 1.6, 1)
	want = sliceStats{throughput: 1600, cpuUS: 1000, p50MS: 1, p95MS: 94, p99MS: 98}
	if got != want {
		t.Errorf("batch: %+v, want %+v", got, want)
	}
	if got := reduceSlice([]sample{{done: 5, lat: 5}}, 1, 1); got != (sliceStats{}) {
		t.Errorf("a slice without a successful deploy = %+v, want zeros", got)
	}
}

func TestMedianOverSlices(t *testing.T) {
	// One stalled slice out of five moves neither median.
	slices := []sliceStats{
		{throughput: 100, p99MS: 2}, {throughput: 104, p99MS: 2.2}, {throughput: 12, p99MS: 90},
		{throughput: 98, p99MS: 1.9}, {throughput: 101, p99MS: 2.1},
	}
	if got := medianOf(slices, func(s sliceStats) float64 { return s.throughput }); got != 100 {
		t.Errorf("median throughput = %v, want 100", got)
	}
	if got := medianOf(slices, func(s sliceStats) float64 { return s.p99MS }); got != 2.1 {
		t.Errorf("median p99 = %v, want 2.1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 140},   // sticks out by 40
		{ID: 5, Parent: 3, Name: "b1", Start: 20, End: 45},   // inside b
		{ID: 6, Parent: 2, Name: "a1", Start: 200, End: 300}, // wholly outside a
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 30, 3: 5, 4: 50, 5: 25, 6: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := byLayer(spans)
	if layers["root"].totalNS != 100 || layers["root"].selfNS != 40 {
		t.Errorf("byLayer root = %+v", layers["root"])
	}
}

func TestProcParsers(t *testing.T) {
	// The command name holds spaces and a ')': fields count from the last one.
	stat := []byte("4242 (deep fleetd) x) S 1 4242 4242 0 -1 4194560 911 0 0 0 1234 766 0 0 20 0 9 0 88 1 2 3\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 20 {
		t.Errorf("parseStatCPU = %v, %v; want 20 s (1234+766 ticks)", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("a short stat line must not parse")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("a stat line without a command must not parse")
	}
	status := []byte("Name:\tdeepfleetd\nVmPeak:\t 1300000 kB\nVmHWM:\t   16384 kB\nVmRSS:\t   12000 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 16384 {
		t.Errorf("parseStatusKB(VmHWM) = %v, %v; want 16384", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field must not parse")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
}

func TestChurnChecker(t *testing.T) {
	// Replies arrive out of epoch order; the log sorts them.
	log := newChurnLog([]churnOp{
		{epoch: 3, fail: []string{"medium-00"}},
		{epoch: 1, fail: []string{"medium-00"}},
		{epoch: 2, recover: []string{"medium-00"}},
		{epoch: 4, recover: []string{"medium-00"}},
	})
	for epoch, down := range map[int64]bool{0: false, 1: true, 2: false, 3: true, 4: false, 9: false} {
		if got := log.downAt(epoch)["medium-00"]; got != down {
			t.Errorf("medium-00 down at epoch %d = %v, want %v", epoch, got, down)
		}
	}

	cn := &clusterNames{
		devices:    map[string]bool{"medium-00": true, "small-00": true},
		registries: map[string]bool{"hub": true, "regional": true},
	}
	names := []string{"a", "b"}
	good := func() *deployBody {
		return &deployBody{
			Epoch:     2,
			Placement: map[string]assignment{"a": {"medium-00", "hub"}, "b": {"small-00", "regional"}},
			MakespanS: 1, EnergyJ: 1,
		}
	}
	if err := checkDeploy(good(), names, cn, log); err != nil {
		t.Errorf("a correct deploy fails the check: %v", err)
	}
	for name, breakIt := range map[string]func(*deployBody){
		"down at epoch":    func(d *deployBody) { d.Epoch = 3 },
		"missing ms":       func(d *deployBody) { delete(d.Placement, "b") },
		"extra ms":         func(d *deployBody) { d.Placement["c"] = assignment{"small-00", "hub"} },
		"wrong ms":         func(d *deployBody) { delete(d.Placement, "b"); d.Placement["z"] = assignment{"small-00", "hub"} },
		"unknown device":   func(d *deployBody) { d.Placement["a"] = assignment{"large-00", "hub"} },
		"unknown registry": func(d *deployBody) { d.Placement["a"] = assignment{"small-00", "ghcr"} },
		"zero energy":      func(d *deployBody) { d.EnergyJ = 0 },
		"NaN makespan":     func(d *deployBody) { d.MakespanS = math.NaN() },
	} {
		d := good()
		breakIt(d)
		if err := checkDeploy(d, names, cn, log); err == nil {
			t.Errorf("%s: passes the check", name)
		}
	}
}

func TestSumSeries(t *testing.T) {
	text := []byte("# TYPE fleetd_http_accepted counter\n" +
		"fleetd_http_accepted{tenant=\"tenant-0\"} 120\n" +
		"fleetd_http_accepted{tenant=\"tenant-1\"} 30.5\n" +
		"fleetd_http_accepted_total 7\n" +
		"fleetd_http_rejected{tenant=\"tenant-0\"} 2\n")
	if got := sumSeries(text, "fleetd_http_accepted"); got != 150.5 {
		t.Errorf("sumSeries = %v, want 150.5", got)
	}
}

// TestBenchmarkJSONInStep holds BENCHMARK.json to what the runner emits.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, runner has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d emitted", kind, len(declared), len(defs))
		}
		for i, def := range defs {
			d := declared[i]
			if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
				t.Errorf("%s %d: declared %+v, runner has %+v", kind, i, d, def)
			}
			if bounded && (d.Bound == nil || *d.Bound != def.bound) {
				t.Errorf("%s %s: bound declared %v, runner has %v", kind, def.name, d.Bound, def.bound)
			}
			if !bounded && d.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, def.name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestSmoke boots the real daemon and runs two one-second slices of every
// workload end to end, traced replay included: every declared metric must
// come out finite and no deploy may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots cmd/deepfleetd")
	}
	if err := preflight(); err != nil {
		t.Skip(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()
	e := &env{daemonBin: filepath.Join(dir, "deepfleetd"), outDir: dir, clients: 2}
	if err := buildDaemon(ctx, "..", e.daemonBin); err != nil {
		t.Fatal(err)
	}
	var err error
	if e.ref, err = startReference(e.clients); err != nil {
		t.Fatal(err)
	}
	defer e.ref.close()
	var spans []span
	for _, w := range workloads {
		w := small(w, 4000)
		r, in, err := runWorkload(ctx, e, w, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rec, err := tracedReplay(ctx, e, w, in, 300, r)
		if err != nil {
			t.Fatalf("%s: traced replay: %v", w.name, err)
		}
		spans = append(spans, rec.spans...)
		if r.failed != 0 || r.metrics["gen.error_rate"] != 0 {
			t.Errorf("%s: %d of %d deploys failed: %s", w.name, r.failed, r.attempted, r.reason)
		}
		for _, def := range allMetrics() {
			v, ok := r.metrics[def.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (emitted: %v)", w.name, def.name, v, ok)
			}
		}
		for _, def := range endToEnd {
			if !(r.metrics[def.name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.name, r.metrics[def.name])
			}
		}
		if len(r.metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(r.metrics), len(endToEnd)+len(perLayer))
		}
		if w.churn && (r.metrics["fleet.churn_epochs"] < 2 || r.metrics["fleet.churn_apply_ms"] <= 0) {
			t.Errorf("%s: churn did not run: %v epochs", w.name, r.metrics["fleet.churn_epochs"])
		}
		log, err := os.ReadFile(filepath.Join(dir, w.name+".log"))
		if err != nil || strings.Count(string(log), drainedMark) != setupRepeats {
			t.Errorf("%s: log shows %d clean drains, want %d (err %v)", w.name, strings.Count(string(log), drainedMark), setupRepeats, err)
		}
	}
	path := filepath.Join(dir, "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil || bytes.Count(written, []byte("\n")) != len(spans) {
		t.Errorf("spans.jsonl has %d lines for %d spans (err %v)", bytes.Count(written, []byte("\n")), len(spans), err)
	}
}
