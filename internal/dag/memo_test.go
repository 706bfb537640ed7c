package dag

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func memoApp(t *testing.T, names []string, edges [][2]string) *App {
	t.Helper()
	a := NewApp("memo")
	for _, n := range names {
		if err := a.AddMicroservice(&Microservice{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := a.AddDataflow(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestMemoRefreshesAfterMutation pins the memoization contract: results are
// cached between calls, and every mutation method invalidates the cache so
// the next Validate/TopoOrder/Stages reflects the new graph.
func TestMemoRefreshesAfterMutation(t *testing.T) {
	a := memoApp(t, []string{"a", "b"}, [][2]string{{"a", "b"}})

	order, err := a.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("topo order %v, want %v", order, want)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	stages, err := a.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a"}, {"b"}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages %v, want %v", stages, want)
	}

	// Memoized: repeated calls return the same backing slices.
	again, _ := a.TopoOrder()
	if &again[0] != &order[0] {
		t.Error("TopoOrder recomputed between mutations")
	}

	// AddMicroservice invalidates: the new vertex must appear, and the
	// now-disconnected graph must fail validation.
	if err := a.AddMicroservice(&Microservice{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	order, err = a.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("post-mutation topo order %v, want %v", order, want)
	}
	if err := a.Validate(); err == nil {
		t.Fatal("disconnected app validated after AddMicroservice; memo went stale")
	}

	// AddDataflow invalidates: reconnecting the graph must make Validate
	// pass again and shift c's stage.
	if err := a.AddDataflow("b", "c", 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("reconnected app still failing validation: %v", err)
	}
	stages, err = a.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a"}, {"b"}, {"c"}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("post-mutation stages %v, want %v", stages, want)
	}
}

// TestMemoCachesErrors: error results memoize too, and mutation clears them.
func TestMemoCachesErrors(t *testing.T) {
	a := memoApp(t, []string{"x", "y"}, [][2]string{{"x", "y"}, {"y", "x"}})
	err1 := a.Validate()
	if err1 == nil {
		t.Fatal("cycle validated")
	}
	if err2 := a.Validate(); err2 != err1 {
		t.Error("memoized Validate returned a different error value")
	}
	if _, err := a.TopoOrder(); err == nil {
		t.Fatal("cycle produced a topo order")
	}
	// Breaking the cycle is impossible without edge removal, but adding a
	// vertex must at least recompute (still cyclic, possibly a fresh error
	// value).
	if err := a.AddMicroservice(&Microservice{Name: "z"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err == nil {
		t.Fatal("cycle validated after mutation")
	}
}

// TestMemoConcurrentReads: memoized walks are safe under concurrent readers
// (run with -race in CI).
func TestMemoConcurrentReads(t *testing.T) {
	a := memoApp(t, []string{"a", "b", "c"}, [][2]string{{"a", "b"}, {"b", "c"}})
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 10*time.Millisecond {
				if err := a.Validate(); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.TopoOrder(); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.Stages(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoSurvivesDirectFieldReassignment: reassigning the exported slices
// without the mutation methods (as callers that corrupt or hand-build apps
// do) must not serve stale walks — the shape check at each read drops the
// memo.
func TestMemoSurvivesDirectFieldReassignment(t *testing.T) {
	a := memoApp(t, []string{"a", "b"}, [][2]string{{"a", "b"}})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stages(); err != nil {
		t.Fatal(err)
	}
	a.Microservices = nil // bypasses AddMicroservice's invalidation
	if err := a.Validate(); err == nil {
		t.Fatal("memo served a stale nil validation error for an emptied app")
	}

	// Shrink the graph to a single vertex, again by direct writes: the
	// walks must reflect the new shape, not the memoized two-vertex one.
	a.Microservices = a.Microservices[:0]
	a.Microservices = append(a.Microservices, &Microservice{Name: "a"})
	a.Dataflows = nil
	order, err := a.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("stale topo order %v, want [a]", order)
	}
	stages, err := a.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 || len(stages[0]) != 1 || stages[0][0] != "a" {
		t.Fatalf("stale stages %v, want [[a]]", stages)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("single-vertex app should validate: %v", err)
	}
}

// TestOrderIsTheIndexFormOfTheNames: Order reports what TopoOrder and Stages
// report, as positions in Microservices — ranks ascend by name, Topo names
// TopoOrder, levels rebuild Stages — and shares TopoOrder's error.
func TestOrderIsTheIndexFormOfTheNames(t *testing.T) {
	a := memoApp(t, []string{"d", "b", "a", "c", "e"},
		[][2]string{{"d", "b"}, {"d", "a"}, {"b", "c"}, {"a", "c"}, {"d", "e"}})
	ord, err := a.Order()
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := a.TopoOrder()
	stages, _ := a.Stages()
	for i, v := range ord.Topo {
		if a.Microservices[v].Name != topo[i] {
			t.Fatalf("Topo[%d] is %q, TopoOrder says %q", i, a.Microservices[v].Name, topo[i])
		}
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
	if want := [][]string{{"d"}, {"a", "b", "e"}, {"c"}}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stages, want) {
		t.Fatalf("levels give %v, Stages %v, want %v", got, stages, want)
	}

	cyclic := memoApp(t, []string{"x", "y"}, [][2]string{{"x", "y"}, {"y", "x"}})
	_, topoErr := cyclic.TopoOrder()
	if ord, err := cyclic.Order(); ord != nil || err == nil || err != topoErr {
		t.Fatalf("Order on a cycle: %v, %v; TopoOrder's error %v", ord, err, topoErr)
	}
	if _, err := cyclic.Stages(); err != topoErr {
		t.Fatalf("Stages error %v is not TopoOrder's %v", err, topoErr)
	}
}
