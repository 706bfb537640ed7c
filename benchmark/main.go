// Command benchmark is the front-door benchmark: it boots the real
// cmd/deepfleetd binary on loopback, drives four seeded closed-loop
// workloads at it over keep-alive HTTP/1.1, checks what comes back, and then
// replays a sample of each workload in-process through every layer's public
// functions to say where a request's time goes. README.md has the load
// model, the metric definitions and how to read the output.
//
//	bash benchmark/run.sh                  # four workloads, then the traced replay
//	bash benchmark/run.sh -agree           # the set twice; PASS/FAIL per metric
//	bash benchmark/run.sh --workload cold_unique --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if n, err := strconv.Atoi(os.Getenv(referenceEnv)); err == nil {
		if err := referenceMain(n); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: reference process:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	root     string
	out      string
	workload string
	seed     int64
	seconds  int
	trace    bool
	agree    bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	o := &options{}
	var trace string
	fs.StringVar(&o.root, "root", "", "checkout holding cmd/deepfleetd (default: . or ..)")
	fs.StringVar(&o.out, "out", "", "directory for daemon logs and spans.jsonl (default <root>/.bench_build/out)")
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the result JSON as the last line (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "the only input to request generation; any integer, folded into 1..1000000")
	fs.IntVar(&o.seconds, "seconds", 16, "one-second slices of load measured per workload")
	fs.StringVar(&trace, "trace", "1", "1: finish with the traced replay and report the per-layer metrics; 0: skip it")
	fs.BoolVar(&o.agree, "agree", false, "run the set twice and compare every end-to-end metric against its bound")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var err error
	if o.trace, err = strconv.ParseBool(trace); err != nil {
		return nil, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	o.seed = foldSeed(o.seed)
	if o.seconds < 1 || o.seconds > 60 {
		return nil, fmt.Errorf("-seconds %d: want 1..60", o.seconds)
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "deepfleetd")); err == nil {
				o.root = dir
				break
			}
		}
		if o.root == "" {
			return nil, errors.New("cmd/deepfleetd not found in . or ..; pass -root")
		}
	}
	if o.root, err = filepath.Abs(o.root); err != nil {
		return nil, err
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "out")
	}
	return o, nil
}

// seedSpace is how many distinct request sequences there are. Generator
// seeds are seed*1e6+i, so the seed itself has to stay small.
const seedSpace = 1_000_000

// foldSeed maps any integer a caller passes as -seed (0, negative, 64-bit
// random) into 1..seedSpace; seeds already in that range stand for themselves.
func foldSeed(seed int64) int64 {
	return ((seed-1)%seedSpace+seedSpace)%seedSpace + 1
}

func run(ctx context.Context, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := preflight(); err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	// C clients on C connections against C daemon workers; the generator
	// itself is held to C threads so it cannot crowd the daemon out.
	e := &env{daemonBin: filepath.Join(o.out, "deepfleetd"), outDir: o.out, clients: min(runtime.NumCPU(), 4)}
	runtime.GOMAXPROCS(e.clients)
	t0 := time.Now()
	if err := buildDaemon(ctx, o.root, e.daemonBin); err != nil {
		return err
	}
	e.buildS = time.Since(t0).Seconds()
	if e.ref, err = startReference(e.clients); err != nil {
		return err
	}
	defer e.ref.close()

	todo := workloads
	if o.workload != "" {
		todo = []*workload{workloadByName(o.workload)}
	}
	if o.agree {
		return agree(ctx, e, todo, o)
	}

	results, spans, err := runSet(ctx, e, todo, o, o.trace)
	if len(spans) > 0 {
		path := filepath.Join(o.out, "spans.jsonl")
		if werr := writeSpans(path, spans); werr != nil {
			return werr
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
	}
	if err != nil {
		return err
	}
	return report(results, o)
}

// runSet runs the workloads one after another, printing each as it ends.
func runSet(ctx context.Context, e *env, todo []*workload, o *options, trace bool) ([]*result, []span, error) {
	var results []*result
	var spans []span
	for _, w := range todo {
		r, in, err := runWorkload(ctx, e, w, o.seed, o.seconds)
		if err != nil {
			return results, spans, fmt.Errorf("%s: %v", w.name, err)
		}
		if trace {
			rec, err := tracedReplay(ctx, e, w, in, replaySample, r)
			if err != nil {
				return results, spans, fmt.Errorf("%s: traced replay: %v", w.name, err)
			}
			spans = append(spans, rec.spans...)
		}
		printResult(r, trace)
		results = append(results, r)
	}
	return results, spans, nil
}

// printResult prints one "workload metric value unit" line per metric, then
// the budget table when the replay ran.
func printResult(r *result, trace bool) {
	for _, note := range r.notes {
		fmt.Printf("# %s: %s\n", r.workload, note)
	}
	for _, def := range allMetrics() {
		if v, ok := r.metrics[def.name]; ok {
			fmt.Printf("%s %s %s %s\n", r.workload, def.name, formatValue(v), def.unit)
		}
	}
	if trace {
		printBudget(r)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printBudget prints where a deploy's time goes: microseconds per deploy,
// and each row as a share of the handler's time and of the daemon's CPU.
func printBudget(r *result) {
	m := r.metrics
	handler, cpu := m["fleetd.handler_us"], m["server_cpu_us_per_deploy"]
	fmt.Printf("# budget %s: per deploy, handler %.1f us, server CPU %.1f us\n", r.workload, handler, cpu)
	fmt.Printf("# %-28s %10s %9s %9s\n", "layer", "us", "%handler", "%cpu")
	rows := []struct{ indent, name string }{
		{"", "nethttp.roundtrip_us"},
		{"", "nethttp.residual_us"},
		{"", "fleetd.handler_us"},
		{"  ", "fleetd.envelope_decode_us"},
		{"  ", "wire.decode_us"},
		{"  ", "wire.build_us"},
		{"  ", "fleet.do_us"},
		{"    ", "fleet.queue_us"},
		{"    ", "fleet.fingerprint_us"},
		{"    ", "fleet.compile_us"},
		{"    ", "fleet.cache_lookup_us"},
		{"    ", "fleet.schedule_us"},
		{"    ", "fleet.sim_us"},
		{"    ", "fleet.self_us"},
		{"  ", "fleetd.encode_us"},
		{"  ", "fleetd.self_us"},
	}
	for _, row := range rows {
		v := m[row.name]
		fmt.Printf("# %-28s %10.1f %8.1f%% %8.1f%%\n", row.indent+strings.TrimSuffix(row.name, "_us"), v, 100*v/handler, 100*v/cpu)
	}
}

// report ends a run: the contract's result JSON as the last line, and a
// non-zero exit when any output was wrong.
func report(results []*result, o *options) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	var reason string
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.failed > 0 && reason == "" {
			reason = fmt.Sprintf("%s: %d of %d deploys failed: %s", r.workload, r.failed, r.attempted, r.reason)
		}
		for _, def := range defs {
			v, ok := r.metrics[def.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is missing or not finite", r.workload, def.name)
			}
			name := def.name
			if o.workload == "" {
				name = r.workload + "." + name
			}
			out.Metrics[name] = value{Value: v, Unit: def.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if reason != "" {
		return errors.New(reason)
	}
	return nil
}

// agree runs the set twice on the same build and holds every end-to-end
// metric of the second run to its bound around the first.
func agree(ctx context.Context, e *env, todo []*workload, o *options) error {
	var sets [2][]*result
	for i := range sets {
		fmt.Printf("# set %d of 2\n", i+1)
		rs, _, err := runSet(ctx, e, todo, o, false)
		if err != nil {
			return err
		}
		sets[i] = rs
	}
	fails := 0
	fmt.Printf("# %-12s %-26s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, def := range endToEnd {
			va, vb := a.metrics[def.name], b.metrics[def.name]
			diff := math.Abs(vb-va) / va
			verdict := "PASS"
			if !(diff <= def.bound) {
				verdict = "FAIL"
				fails++
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %7.2f%% %5.1f%% %s\n", a.workload, def.name, va, vb, 100*diff, 100*def.bound, verdict)
		}
		if a.failed+b.failed > 0 {
			fmt.Printf("%-14s %-26s %14d %14d %22s\n", a.workload, "failed deploys", a.failed, b.failed, "FAIL")
			fails++
		}
	}
	if fails > 0 {
		return fmt.Errorf("-agree: %d comparisons outside their bound", fails)
	}
	return nil
}
