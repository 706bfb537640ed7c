package dag

import (
	"math/rand"
	"strings"
	"testing"

	"deep/internal/units"
)

func diamond(t *testing.T) *App {
	t.Helper()
	a := NewApp("diamond")
	for _, n := range []string{"src", "left", "right", "sink"} {
		if err := a.AddMicroservice(&Microservice{Name: n, ImageSize: units.MB}); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]string{{"src", "left"}, {"src", "right"}, {"left", "sink"}, {"right", "sink"}}
	for _, e := range edges {
		if err := a.AddDataflow(e[0], e[1], 10*units.MB); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestValidateOK(t *testing.T) {
	a := diamond(t)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDuplicateMicroservice(t *testing.T) {
	a := NewApp("x")
	if err := a.AddMicroservice(&Microservice{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddMicroservice(&Microservice{Name: "m"}); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	a := NewApp("x")
	if err := a.AddMicroservice(&Microservice{}); err == nil {
		t.Error("expected empty-name error")
	}
}

func TestNegativeImageSizeRejected(t *testing.T) {
	a := NewApp("x")
	if err := a.AddMicroservice(&Microservice{Name: "m", ImageSize: -1}); err == nil {
		t.Error("expected negative size error")
	}
}

// TestNegativeFieldsRejected: a negative size or requirement becomes a
// negative transfer or compute time downstream, so each is refused by name
// and leaves the app untouched.
func TestNegativeFieldsRejected(t *testing.T) {
	cases := []struct {
		field string
		ms    Microservice
	}{
		{"cores", Microservice{Req: Requirements{Cores: -1}}},
		{"CPU load", Microservice{Req: Requirements{CPU: -1e7}}},
		{"memory", Microservice{Req: Requirements{Memory: -1}}},
		{"storage", Microservice{Req: Requirements{Storage: -1}}},
		{"external input", Microservice{ExternalInput: -5e12}},
	}
	for _, tc := range cases {
		a := NewApp("x")
		tc.ms.Name = "m"
		err := a.AddMicroservice(&tc.ms)
		want := `dag: x: microservice "m" has negative ` + tc.field
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.field, err, want)
		}
		if len(a.Microservices) != 0 || a.Microservice("m") != nil {
			t.Errorf("%s: rejected microservice was added", tc.field)
		}
	}
}

// TestDirectWritesAreRechecked: an app whose exported slices were written
// without the mutation methods has a stale name index; the graph walks
// resolve against the slices and repeat the mutation methods' checks.
func TestDirectWritesAreRechecked(t *testing.T) {
	a := diamond(t)
	a.Microservices = append(a.Microservices, &Microservice{Name: "tail"})
	a.Dataflows = append(a.Dataflows, Dataflow{From: "sink", To: "tail"})
	order, err := a.TopoOrder()
	if err != nil || order[len(order)-1] != "tail" {
		t.Fatalf("appended vertex and edge not walked: %v, %v", order, err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.Dataflows = append(a.Dataflows, Dataflow{From: "tail", To: "nowhere"})
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), `dataflow to unknown microservice "nowhere"`) {
		t.Errorf("dangling dataflow: %v", err)
	}
	a.Dataflows = a.Dataflows[:len(a.Dataflows)-1]
	a.Microservices = append(a.Microservices, &Microservice{Name: "src"})
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), `duplicate microservice "src"`) {
		t.Errorf("duplicated name: %v", err)
	}
}

func TestDataflowValidation(t *testing.T) {
	a := NewApp("x")
	_ = a.AddMicroservice(&Microservice{Name: "m"})
	if err := a.AddDataflow("nope", "m", 1); err == nil {
		t.Error("unknown source should error")
	}
	if err := a.AddDataflow("m", "nope", 1); err == nil {
		t.Error("unknown target should error")
	}
	if err := a.AddDataflow("m", "m", 1); err == nil {
		t.Error("self-loop should error")
	}
	_ = a.AddMicroservice(&Microservice{Name: "n"})
	if err := a.AddDataflow("m", "n", -5); err == nil {
		t.Error("negative size should error")
	}
}

func TestCycleDetected(t *testing.T) {
	a := NewApp("cyc")
	for _, n := range []string{"a", "b", "c"} {
		_ = a.AddMicroservice(&Microservice{Name: n})
	}
	_ = a.AddDataflow("a", "b", 1)
	_ = a.AddDataflow("b", "c", 1)
	_ = a.AddDataflow("c", "a", 1)
	if _, err := a.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := a.Validate(); err == nil {
		t.Error("Validate should reject cycles")
	}
}

func TestDisconnectedRejected(t *testing.T) {
	a := NewApp("disc")
	_ = a.AddMicroservice(&Microservice{Name: "a"})
	_ = a.AddMicroservice(&Microservice{Name: "b"})
	if err := a.Validate(); err == nil {
		t.Error("disconnected graph should be rejected")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	a := NewApp("dup")
	_ = a.AddMicroservice(&Microservice{Name: "a"})
	_ = a.AddMicroservice(&Microservice{Name: "b"})
	_ = a.AddDataflow("a", "b", 1)
	_ = a.AddDataflow("a", "b", 2)
	if err := a.Validate(); err == nil {
		t.Error("duplicate edge should be rejected")
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	a := diamond(t)
	first, err := a.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _ := a.TopoOrder()
		if strings.Join(again, ",") != strings.Join(first, ",") {
			t.Fatalf("nondeterministic topo order: %v vs %v", again, first)
		}
	}
	// src must precede left/right, which must precede sink.
	pos := map[string]int{}
	for i, n := range first {
		pos[n] = i
	}
	if !(pos["src"] < pos["left"] && pos["src"] < pos["right"] && pos["left"] < pos["sink"] && pos["right"] < pos["sink"]) {
		t.Errorf("invalid topological order %v", first)
	}
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		a := NewApp("rand")
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			_ = a.AddMicroservice(&Microservice{Name: names[i]})
		}
		// Edges only from lower to higher index: guaranteed acyclic.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					_ = a.AddDataflow(names[i], names[j], 1)
				}
			}
		}
		order, err := a.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pos := map[string]int{}
		for i, nm := range order {
			pos[nm] = i
		}
		for _, e := range a.Dataflows {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("trial %d: edge %s->%s violates order", trial, e.From, e.To)
			}
		}
	}
}

func TestStages(t *testing.T) {
	a := diamond(t)
	stages, err := a.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("want 3 stages, got %d: %v", len(stages), stages)
	}
	if len(stages[0]) != 1 || stages[0][0] != "src" {
		t.Errorf("stage 0 = %v", stages[0])
	}
	if len(stages[1]) != 2 {
		t.Errorf("stage 1 = %v", stages[1])
	}
	if len(stages[2]) != 1 || stages[2][0] != "sink" {
		t.Errorf("stage 2 = %v", stages[2])
	}
}

func TestStagesCoverAllOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		a := NewApp("rand")
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			_ = a.AddMicroservice(&Microservice{Name: names[i]})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					_ = a.AddDataflow(names[i], names[j], 1)
				}
			}
		}
		stages, err := a.Stages()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, s := range stages {
			for _, m := range s {
				seen[m]++
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: stages cover %d of %d microservices", trial, len(seen), n)
		}
		for m, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: %s appears %d times", trial, m, c)
			}
		}
		// Every edge crosses from an earlier stage to a strictly later one.
		level := map[string]int{}
		for li, s := range stages {
			for _, m := range s {
				level[m] = li
			}
		}
		for _, e := range a.Dataflows {
			if level[e.From] >= level[e.To] {
				t.Fatalf("trial %d: edge %s->%s does not advance stages", trial, e.From, e.To)
			}
		}
	}
}

func TestInputsOutputs(t *testing.T) {
	a := diamond(t)
	in := a.Inputs("sink")
	if len(in) != 2 {
		t.Errorf("sink inputs = %v", in)
	}
	out := a.Outputs("src")
	if len(out) != 2 {
		t.Errorf("src outputs = %v", out)
	}
	if got := a.Inputs("src"); len(got) != 0 {
		t.Errorf("src should have no inputs: %v", got)
	}
}

func TestSupportsArch(t *testing.T) {
	m := &Microservice{Name: "m"}
	if !m.SupportsArch(AMD64) || !m.SupportsArch(ARM64) {
		t.Error("empty arch list should support everything")
	}
	m.Arches = []Arch{AMD64}
	if !m.SupportsArch(AMD64) {
		t.Error("should support amd64")
	}
	if m.SupportsArch(ARM64) {
		t.Error("should not support arm64")
	}
}

func TestMicroserviceLookup(t *testing.T) {
	a := diamond(t)
	if a.Microservice("left") == nil {
		t.Error("lookup failed")
	}
	if a.Microservice("nope") != nil {
		t.Error("lookup of unknown should return nil")
	}
}
