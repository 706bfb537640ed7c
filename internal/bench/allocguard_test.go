package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: deep
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSchedule/deep/video/testbed/cold-8         	   72714	     17066 ns/op	    9232 B/op	     175 allocs/op
BenchmarkSchedule/deep/video/testbed/warm-8         	  451887	      2754 ns/op	    2184 B/op	      18 allocs/op
BenchmarkFleetThroughput/workers=4/cache=false-8    	    3000	     72966 ns/op	 13706 req/s	   26416 B/op	     414 allocs/op
BenchmarkFingerprintPerRequest 	  300000	      3900 ns/op	     120 B/op	       3 allocs/op
PASS
ok  	deep	7.856s
`

func TestParseBenchAllocs(t *testing.T) {
	got, err := ParseBenchAllocs(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"deep/video/testbed/cold": 175,
		"deep/video/testbed/warm": 18,
		"workers=4/cache=false":   414,
		"FingerprintPerRequest":   3,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d cases, want %d: %v", len(got), len(want), got)
	}
	for name, allocs := range want {
		if got[name] != allocs {
			t.Errorf("%s = %v allocs/op, want %v", name, got[name], allocs)
		}
	}
}

func TestCheckAllocRegressions(t *testing.T) {
	baselines := map[string]float64{
		"deep/video/testbed/warm": 18,
		"workers=4/cache=false":   414,
		"not/measured":            5,
	}
	measured := map[string]float64{
		"deep/video/testbed/warm": 50,  // 2.8x: regression
		"workers=4/cache=false":   500, // 1.2x: within budget
		"unknown/case":            9999,
	}
	regs := CheckAllocRegressions(measured, baselines, 2)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Case != "deep/video/testbed/warm" || regs[0].Measured != 50 {
		t.Fatalf("unexpected regression: %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "2.78x") {
		t.Errorf("severity missing from %q", regs[0].String())
	}
	if regs := CheckAllocRegressions(measured, baselines, 3); len(regs) != 0 {
		t.Errorf("ratio 3 should pass, got %v", regs)
	}
}

func TestLoadAllocBaselines(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	os.WriteFile(a, []byte(`{"results":[
		{"case":"x/warm","ns_per_op":10,"allocs_per_op":7},
		{"case":"throughput-only","req_per_s":1000}
	]}`), 0o644)
	os.WriteFile(b, []byte(`{"results":[{"case":"x/warm","allocs_per_op":9}]}`), 0o644)
	got, err := LoadAllocBaselines(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["x/warm"] != 9 {
		t.Fatalf("baselines = %v, want x/warm=9 (later file wins)", got)
	}
}

// TestRecordedBaselinesParse keeps the guard honest against the real
// recorded files: both BENCH JSONs must load and cover the cases CI runs.
func TestRecordedBaselinesParse(t *testing.T) {
	root := "../.."
	got, err := LoadAllocBaselines(
		filepath.Join(root, "BENCH_sched.json"),
		filepath.Join(root, "BENCH_sim.json"),
		filepath.Join(root, "BENCH_fleet.json"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deep/video/testbed/warm",
		"deep/synthetic12/scaled50/warm",
		"deep/synthetic16/scaled24/warm",
		"sim/video/testbed/warm",
		"sim/synthetic12/scaled50/cold",
		"sim/video/testbed/exec_cold",
		"workers=4/cache=false",
		"workers=4/cache=true",
		"trace",   // BenchmarkStageRecord/trace
		"batch16", // BenchmarkStageRecord/batch16
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("recorded baselines missing %q (have %d cases)", want, len(got))
		}
	}
}
