package appgraph

import (
	"reflect"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
)

func buildApp(t *testing.T) *dag.App {
	t.Helper()
	b := dag.Builder{Name: "vid"}
	add := func(m dag.Microservice) {
		t.Helper()
		if err := b.Microservice(m); err != nil {
			t.Fatal(err)
		}
	}
	add(dag.Microservice{Name: "src", ImageSize: 10 * units.MB, ExternalInput: 2 * units.MB, Arches: []dag.Arch{dag.AMD64}})
	add(dag.Microservice{Name: "det", ImageSize: 30 * units.MB, Arches: []dag.Arch{dag.AMD64, dag.ARM64}})
	add(dag.Microservice{Name: "agg", ImageSize: 5 * units.MB})
	flow := func(from, to string, size units.Bytes) {
		t.Helper()
		if err := b.Dataflow(from, to, size); err != nil {
			t.Fatal(err)
		}
	}
	flow("src", "det", 1*units.MB)
	flow("src", "agg", 3*units.MB)
	flow("det", "agg", 2*units.MB)
	return mustApp(t, &b)
}

// mustApp builds what b holds.
func mustApp(t *testing.T, b *dag.Builder) *dag.App {
	t.Helper()
	a, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
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
	if want := []int32{srcID, detID, aggID}; !reflect.DeepEqual(tab.Topo(), want) {
		t.Fatalf("Topo %v, want %v", tab.Topo(), want)
	}
	if want := [][]int32{{srcID}, {detID}, {aggID}}; !reflect.DeepEqual(tab.Stages(), want) {
		t.Fatalf("Stages %v, want %v", tab.Stages(), want)
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

// TestScratchCompileMatchesFresh: a table compiled into a scratch that last
// held a larger app (and a larger one compiled over a smaller) is deep-equal
// to a fresh Compile, every row down to nil-versus-empty.
func TestScratchCompileMatchesFresh(t *testing.T) {
	big := dag.Builder{Name: "big"}
	for i := 0; i < 12; i++ {
		if err := big.Microservice(dag.Microservice{Name: string(rune('a' + i)), ImageSize: units.Bytes(i) * units.MB}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j += 3 {
			if err := big.Dataflow(string(rune('a'+j)), string(rune('a'+i)), units.Bytes(i+j)*units.KB); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantBig := Compile(mustApp(t, &big))
	only := dag.Builder{Name: "only"}
	if err := only.Microservice(dag.Microservice{Name: "only"}); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for _, app := range []*dag.App{buildApp(t), mustApp(t, &only)} {
		s.Compile(wantBig.App())
		if got, want := s.Compile(app), Compile(app); !reflect.DeepEqual(got, want) {
			t.Errorf("%s over a larger app:\ngot  %+v\nwant %+v", app.Name, got, want)
		}
		if got := s.Compile(wantBig.App()); !reflect.DeepEqual(got, wantBig) {
			t.Errorf("larger app over %s differs from a fresh compile", app.Name)
		}
	}
}
