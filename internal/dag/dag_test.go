package dag

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"deep/internal/units"
)

// build builds an app of unit-sized vertices and edges through a Builder,
// failing the test on an add-time error and returning App's result.
func build(t *testing.T, name string, names []string, edges [][2]string) (*App, error) {
	t.Helper()
	b := Builder{Name: name}
	for _, n := range names {
		if err := b.Microservice(Microservice{Name: n, ImageSize: units.MB}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := b.Dataflow(e[0], e[1], 10*units.MB); err != nil {
			t.Fatal(err)
		}
	}
	return b.App()
}

// mustBuild is build for a graph that must be accepted.
func mustBuild(t *testing.T, name string, names []string, edges [][2]string) *App {
	t.Helper()
	a, err := build(t, name, names, edges)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func diamond(t *testing.T) *App {
	t.Helper()
	return mustBuild(t, "diamond", []string{"src", "left", "right", "sink"},
		[][2]string{{"src", "left"}, {"src", "right"}, {"left", "sink"}, {"right", "sink"}})
}

// topoNames is the app's topological order by name.
func topoNames(a *App) []string {
	var names []string
	for _, v := range a.Order().Topo {
		names = append(names, a.Microservices[v].Name)
	}
	return names
}

func TestValidateOK(t *testing.T) {
	diamond(t) // fails the test if Builder.App refuses it
}

func TestDuplicateMicroservice(t *testing.T) {
	b := Builder{Name: "x"}
	if err := b.Microservice(Microservice{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Microservice(Microservice{Name: "m"}); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	var b Builder
	if err := b.Microservice(Microservice{}); err == nil {
		t.Error("expected empty-name error")
	}
}

func TestNegativeImageSizeRejected(t *testing.T) {
	var b Builder
	if err := b.Microservice(Microservice{Name: "m", ImageSize: -1}); err == nil {
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
		b := Builder{Name: "x"}
		tc.ms.Name = "m"
		err := b.Microservice(tc.ms)
		want := `dag: x: microservice "m" has negative ` + tc.field
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.field, err, want)
		}
		if _, err := b.App(); err == nil || err.Error() != "dag: x: no microservices" {
			t.Errorf("%s: rejected microservice was added (App: %v)", tc.field, err)
		}
	}
}

func TestDataflowValidation(t *testing.T) {
	b := Builder{Name: "x"}
	_ = b.Microservice(Microservice{Name: "m"})
	if err := b.Dataflow("nope", "m", 1); err == nil {
		t.Error("unknown source should error")
	}
	if err := b.Dataflow("m", "nope", 1); err == nil {
		t.Error("unknown target should error")
	}
	if err := b.Dataflow("m", "m", 1); err == nil {
		t.Error("self-loop should error")
	}
	_ = b.Microservice(Microservice{Name: "n"})
	if err := b.Dataflow("m", "n", -5); err == nil {
		t.Error("negative size should error")
	}
}

func TestCycleDetected(t *testing.T) {
	a, err := build(t, "cyc", []string{"a", "b", "c"}, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}})
	if a != nil || err == nil || err.Error() != "dag: cyc: cycle detected" {
		t.Errorf("cycle built: %v, %v", a, err)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	if _, err := build(t, "disc", []string{"a", "b"}, nil); err == nil {
		t.Error("disconnected graph should be rejected")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	if _, err := build(t, "dup", []string{"a", "b"}, [][2]string{{"a", "b"}, {"a", "b"}}); err == nil {
		t.Error("duplicate edge should be rejected")
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	first := topoNames(diamond(t))
	for i := 0; i < 10; i++ {
		again := topoNames(diamond(t))
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
		a := randomDAG(t, rng, 2+rng.Intn(10), 0.3)
		order := topoNames(a)
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
	stages := diamond(t).Stages()
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
		a := randomDAG(t, rng, n, 0.4)
		stages := a.Stages()
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

// randomDAG builds an n-vertex DAG whose edges run from lower to higher
// index: each vertex after the first gets one from a random earlier vertex,
// so the graph is connected, and every other pair an edge with probability p.
func randomDAG(t *testing.T, rng *rand.Rand, n int, p float64) *App {
	t.Helper()
	b := Builder{Name: "rand"}
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		if err := b.Microservice(Microservice{Name: names[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 1; j < n; j++ {
		parent := rng.Intn(j)
		for i := 0; i < j; i++ {
			if i == parent || rng.Float64() < p {
				if err := b.Dataflow(names[i], names[j], 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOrderIsTheIndexFormOfTheNames: Order reports the topological order
// and the stages as positions in Microservices — ranks ascend by name, Topo
// is a topological order, levels rebuild Stages — and a cyclic graph has no
// order: the Builder rejects it.
func TestOrderIsTheIndexFormOfTheNames(t *testing.T) {
	a := mustBuild(t, "order", []string{"d", "b", "a", "c", "e"},
		[][2]string{{"d", "b"}, {"d", "a"}, {"b", "c"}, {"a", "c"}, {"d", "e"}})
	ord := a.Order()
	if want := []string{"d", "a", "b", "c", "e"}; !reflect.DeepEqual(topoNames(a), want) {
		t.Fatalf("Topo names %v, want %v", topoNames(a), want)
	}
	got := make([][]string, ord.Stages)
	for r, v := range ord.ByName {
		if ord.Rank[v] != int32(r) {
			t.Fatalf("Rank[%d] = %d, want %d", v, ord.Rank[v], r)
		}
		if r > 0 && a.Microservices[ord.ByName[r-1]].Name >= a.Microservices[v].Name {
			t.Fatalf("ByName not ascending at %d", r)
		}
		got[ord.Level[v]] = append(got[ord.Level[v]], a.Microservices[v].Name)
	}
	if want := [][]string{{"d"}, {"a", "b", "e"}, {"c"}}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(a.Stages(), want) {
		t.Fatalf("levels give %v, Stages %v, want %v", got, a.Stages(), want)
	}
	for i, e := range a.Dataflows {
		if a.Microservices[ord.ByName[ord.From[i]]].Name != e.From || a.Microservices[ord.ByName[ord.To[i]]].Name != e.To {
			t.Fatalf("edge %d ranks (%d, %d) do not name %s->%s", i, ord.From[i], ord.To[i], e.From, e.To)
		}
	}

	if cyclic, err := build(t, "cyclic", []string{"x", "y"}, [][2]string{{"x", "y"}, {"y", "x"}}); cyclic != nil || err == nil || err.Error() != "dag: cyclic: cycle detected" {
		t.Fatalf("cyclic graph: %v, %v", cyclic, err)
	}
}
