package appgraph

import (
	"reflect"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
)

func buildApp(t *testing.T) *dag.App {
	t.Helper()
	a := dag.NewApp("vid")
	add := func(m *dag.Microservice) {
		t.Helper()
		if err := a.AddMicroservice(m); err != nil {
			t.Fatal(err)
		}
	}
	add(&dag.Microservice{Name: "src", ImageSize: 10 * units.MB, ExternalInput: 2 * units.MB, Arches: []dag.Arch{dag.AMD64}})
	add(&dag.Microservice{Name: "det", ImageSize: 30 * units.MB, Arches: []dag.Arch{dag.AMD64, dag.ARM64}})
	add(&dag.Microservice{Name: "agg", ImageSize: 5 * units.MB})
	flow := func(from, to string, size units.Bytes) {
		t.Helper()
		if err := a.AddDataflow(from, to, size); err != nil {
			t.Fatal(err)
		}
	}
	flow("src", "det", 1*units.MB)
	flow("src", "agg", 3*units.MB)
	flow("det", "agg", 2*units.MB)
	return a
}

func TestCompileTable(t *testing.T) {
	a := buildApp(t)
	tab := Compile(a)

	if tab.App() != a {
		t.Fatal("App() does not round-trip")
	}
	// Sorted name table, ids by position.
	wantNames := []string{"agg", "det", "src"}
	if !reflect.DeepEqual(tab.MSNames(), wantNames) {
		t.Fatalf("MSNames %v, want %v", tab.MSNames(), wantNames)
	}
	if tab.NumMicroservices() != 3 {
		t.Fatalf("NumMicroservices %d, want 3", tab.NumMicroservices())
	}
	for i, n := range wantNames {
		id, ok := tab.MSID(n)
		if !ok || id != int32(i) {
			t.Fatalf("MSID(%q) = %d,%v, want %d,true", n, id, ok, i)
		}
		if got := tab.Microservices()[id].Name; got != n {
			t.Fatalf("Microservices()[%d].Name = %q, want %q", id, got, n)
		}
	}

	// Scalars follow the interned handles.
	if got := tab.ImageSizes()[2]; got != 10*units.MB {
		t.Fatalf("ImageSizes[src] = %v, want 10MB", got)
	}
	if got := tab.ExtInputs()[2]; got != 2*units.MB {
		t.Fatalf("ExtInputs[src] = %v, want 2MB", got)
	}

	srcID, _ := tab.MSID("src")
	detID, _ := tab.MSID("det")
	aggID, _ := tab.MSID("agg")

	// Edge rows in declaration order.
	wantIn := make([][]Edge, 3)
	wantIn[aggID] = []Edge{{MS: srcID, Size: 3 * units.MB}, {MS: detID, Size: 2 * units.MB}}
	wantIn[detID] = []Edge{{MS: srcID, Size: 1 * units.MB}}
	if !reflect.DeepEqual(tab.Inputs(), wantIn) {
		t.Fatalf("Inputs %v, want %v", tab.Inputs(), wantIn)
	}

	// Structure mirrors the dag walks exactly.
	if err := tab.ValidateErr(); err != nil {
		t.Fatalf("ValidateErr = %v, want nil", err)
	}
	topo, err := tab.Topo()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{srcID, detID, aggID}; !reflect.DeepEqual(topo, want) {
		t.Fatalf("Topo %v, want %v", topo, want)
	}
	stages, err := tab.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{srcID}, {detID}, {aggID}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("Stages %v, want %v", stages, want)
	}

	// Jitter tags match the simulator's historical byte stream.
	tags := tab.PhaseTags()
	if got, want := string(tags[PhaseDeploy][srcID]), "|vid|src|deploy"; got != want {
		t.Fatalf("deploy tag %q, want %q", got, want)
	}
	if got, want := string(tags[PhaseTransfer][detID]), "|vid|det|transfer"; got != want {
		t.Fatalf("transfer tag %q, want %q", got, want)
	}
	if got, want := string(tags[PhaseProcess][aggID]), "|vid|agg|process"; got != want {
		t.Fatalf("process tag %q, want %q", got, want)
	}
}

// TestCompileErrorParity pins that compile captures the dag walks' errors
// verbatim — same error values a direct call returns (the memo guarantees
// value identity).
func TestCompileErrorParity(t *testing.T) {
	a := dag.NewApp("cyclic")
	for _, n := range []string{"x", "y"} {
		if err := a.AddMicroservice(&dag.Microservice{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"x", "y"}, {"y", "x"}} {
		if err := a.AddDataflow(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}

	tab := Compile(a)
	if tab.ValidateErr() == nil {
		t.Fatal("cycle compiled without a validation error")
	}
	if got := a.Validate(); got != tab.ValidateErr() {
		t.Fatalf("ValidateErr %v is not the verbatim dag error %v", tab.ValidateErr(), got)
	}
	if _, err := tab.Topo(); err == nil {
		t.Fatal("cycle produced a topo order")
	} else if direct, derr := a.TopoOrder(); derr != err || direct != nil {
		t.Fatalf("Topo error %v not verbatim (%v)", err, derr)
	}
	if _, err := tab.Stages(); err == nil {
		t.Fatal("cycle produced stages")
	}
}

// TestCompileDuplicateNames: first occurrence wins in the handle table and
// validation still reports the duplicate.
func TestCompileDuplicateNames(t *testing.T) {
	first := &dag.Microservice{Name: "dup", ImageSize: 1 * units.MB}
	second := &dag.Microservice{Name: "dup", ImageSize: 9 * units.MB}
	a := &dag.App{Name: "dups", Microservices: []*dag.Microservice{first, second}}

	tab := Compile(a)
	if tab.NumMicroservices() != 1 {
		t.Fatalf("NumMicroservices %d, want 1 after compaction", tab.NumMicroservices())
	}
	id, _ := tab.MSID("dup")
	if tab.Microservices()[id] != first {
		t.Fatal("duplicate interning did not keep the first occurrence")
	}
	if tab.ImageSizes()[id] != 1*units.MB {
		t.Fatalf("ImageSizes[dup] = %v, want the first occurrence's 1MB", tab.ImageSizes()[id])
	}
	if tab.ValidateErr() == nil {
		t.Fatal("duplicate names must still fail validation")
	}
}

// TestScratchCompileMatchesFresh: a table compiled into a scratch that last
// held a larger app (and a larger one compiled over a smaller) is deep-equal
// to a fresh Compile, every row down to nil-versus-empty — broken apps
// included, whose rows exist so the compilers can report the error.
func TestScratchCompileMatchesFresh(t *testing.T) {
	big := dag.NewApp("big")
	for i := 0; i < 12; i++ {
		if err := big.AddMicroservice(&dag.Microservice{Name: string(rune('a' + i)), ImageSize: units.Bytes(i) * units.MB}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j += 3 {
			if err := big.AddDataflow(string(rune('a'+j)), string(rune('a'+i)), units.Bytes(i+j)*units.KB); err != nil {
				t.Fatal(err)
			}
		}
	}
	cyclic := dag.NewApp("cyclic")
	for _, n := range []string{"x", "y"} {
		if err := cyclic.AddMicroservice(&dag.Microservice{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"x", "y"}, {"y", "x"}} {
		if err := cyclic.AddDataflow(e[0], e[1], units.KB); err != nil {
			t.Fatal(err)
		}
	}
	small := []*dag.App{
		buildApp(t),
		cyclic,
		{Name: "dups", Microservices: []*dag.Microservice{{Name: "dup"}, {Name: "dup"}}},
		{Name: "dangling", Microservices: []*dag.Microservice{{Name: "only"}}, Dataflows: []dag.Dataflow{{From: "only", To: "gone", Size: units.KB}}},
		dag.NewApp("empty"),
	}
	wantBig := Compile(big)
	var s Scratch
	for _, app := range small {
		s.Compile(big)
		if got, want := s.Compile(app), Compile(app); !reflect.DeepEqual(got, want) {
			t.Errorf("%s over a larger app:\ngot  %+v\nwant %+v", app.Name, got, want)
		}
		if got := s.Compile(big); !reflect.DeepEqual(got, wantBig) {
			t.Errorf("larger app over %s differs from a fresh compile", app.Name)
		}
	}
}
