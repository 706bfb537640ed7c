package netsim

import (
	"math"
	"math/rand"
	"testing"

	"deep/internal/units"
)

func topo(t *testing.T) *Topology {
	t.Helper()
	tp := NewTopology()
	for _, n := range []string{"hub", "regional", "medium", "small"} {
		tp.AddNode(n)
	}
	if err := tp.AddLink(Link{From: "hub", To: "medium", BW: 22 * units.MBps}); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(Link{From: "regional", To: "medium", BW: 25 * units.MBps, SharedCapacity: true}); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddDuplex("medium", "small", 12*units.MBps); err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTopologyBasics(t *testing.T) {
	tp := topo(t)
	if got := tp.Nodes(); len(got) != 4 || got[0] != "hub" {
		t.Errorf("nodes = %v", got)
	}
	if bw := tp.Bandwidth("hub", "medium"); bw != 22*units.MBps {
		t.Errorf("bw = %v", bw)
	}
	if bw := tp.Bandwidth("medium", "hub"); bw != 0 {
		t.Errorf("reverse link should not exist, bw = %v", bw)
	}
	if bw := tp.Bandwidth("medium", "medium"); !math.IsInf(float64(bw), 1) {
		t.Errorf("loopback should be infinite, got %v", bw)
	}
}

func TestAddLinkValidation(t *testing.T) {
	tp := NewTopology()
	tp.AddNode("a")
	if err := tp.AddLink(Link{From: "a", To: "b", BW: 1}); err == nil {
		t.Error("unknown node should error")
	}
	if err := tp.AddLink(Link{From: "nope", To: "a", BW: 1}); err == nil {
		t.Error("unknown node should error")
	}
	tp.AddNode("b")
	if err := tp.AddLink(Link{From: "a", To: "b", BW: 0}); err == nil {
		t.Error("zero bandwidth should error")
	}
}

func TestTransferTime(t *testing.T) {
	tp := topo(t)
	got := tp.TransferTime("hub", "medium", 220*units.MB)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("220MB at 22MB/s = %v, want 10", got)
	}
	if got := tp.TransferTime("small", "hub", units.MB); !math.IsInf(got, 1) {
		t.Errorf("unreachable should be +Inf, got %v", got)
	}
	if got := tp.TransferTime("medium", "medium", units.GB); got != 0 {
		t.Errorf("loopback transfer should be 0, got %v", got)
	}
}

func TestFairShareTime(t *testing.T) {
	tp := topo(t)
	base := tp.FairShareTime("regional", "medium", 100*units.MB, 1)
	double := tp.FairShareTime("regional", "medium", 100*units.MB, 2)
	if math.Abs(double-2*base) > 1e-9 {
		t.Errorf("shared link with 2 transfers should halve bandwidth: %v vs %v", double, base)
	}
	// Hub link is not shared: concurrency does not matter.
	h1 := tp.FairShareTime("hub", "medium", 100*units.MB, 1)
	h4 := tp.FairShareTime("hub", "medium", 100*units.MB, 4)
	if h1 != h4 {
		t.Errorf("non-shared link should ignore concurrency: %v vs %v", h1, h4)
	}
	if got := tp.FairShareTime("regional", "medium", 100*units.MB, 0); got != base {
		t.Errorf("concurrent<1 should clamp to 1: %v", got)
	}
}

func TestRTTIncluded(t *testing.T) {
	tp := NewTopology()
	tp.AddNode("a")
	tp.AddNode("b")
	_ = tp.AddLink(Link{From: "a", To: "b", BW: units.MBps, RTT: 0.5})
	got := tp.TransferTime("a", "b", units.MB)
	if math.Abs(got-1.5) > 1e-9 {
		t.Errorf("transfer time with RTT = %v, want 1.5", got)
	}
}

func TestCloneAndSetBandwidth(t *testing.T) {
	tp := topo(t)
	c := tp.Clone()
	if err := c.SetBandwidth("hub", "medium", 44*units.MBps); err != nil {
		t.Fatal(err)
	}
	if tp.Bandwidth("hub", "medium") != 22*units.MBps {
		t.Error("clone mutation leaked into original")
	}
	if c.Bandwidth("hub", "medium") != 44*units.MBps {
		t.Error("SetBandwidth did not apply")
	}
	if err := c.SetBandwidth("x", "y", units.MBps); err == nil {
		t.Error("missing link should error")
	}
	if err := c.SetBandwidth("hub", "medium", 0); err == nil {
		t.Error("non-positive bandwidth should error")
	}
}

func TestSharedLinkSchedulerSingle(t *testing.T) {
	s := SharedLinkScheduler{Capacity: 10 * units.MBps}
	out := s.Schedule([]Transfer{{ID: "a", Start: 0, Size: 100 * units.MB}})
	if len(out) != 1 {
		t.Fatalf("len = %d", len(out))
	}
	if math.Abs(out[0].Finish-10) > 1e-6 {
		t.Errorf("finish = %v, want 10", out[0].Finish)
	}
}

func TestSharedLinkSchedulerTwoOverlapping(t *testing.T) {
	s := SharedLinkScheduler{Capacity: 10 * units.MBps}
	// Both start at 0, equal sizes: both should finish at 2*size/capacity.
	out := s.Schedule([]Transfer{
		{ID: "a", Start: 0, Size: 50 * units.MB},
		{ID: "b", Start: 0, Size: 50 * units.MB},
	})
	for _, c := range out {
		if math.Abs(c.Finish-10) > 1e-6 {
			t.Errorf("%s finish = %v, want 10", c.ID, c.Finish)
		}
	}
}

func TestSharedLinkSchedulerStaggered(t *testing.T) {
	s := SharedLinkScheduler{Capacity: 10 * units.MBps}
	// a: 100MB at t=0. b: 30MB at t=5.
	// t in [0,5): a alone at 10MB/s -> 50MB done, 50MB left.
	// t in [5,11): both at 5MB/s. b finishes its 30MB at t=11; a transfers
	// 30MB, leaving 20MB, then runs alone: 2 more seconds -> 13.
	out := s.Schedule([]Transfer{
		{ID: "a", Start: 0, Size: 100 * units.MB},
		{ID: "b", Start: 5, Size: 30 * units.MB},
	})
	byID := map[string]Completion{}
	for _, c := range out {
		byID[c.ID] = c
	}
	if math.Abs(byID["b"].Finish-11) > 1e-6 {
		t.Errorf("b finish = %v, want 11", byID["b"].Finish)
	}
	if math.Abs(byID["a"].Finish-13) > 1e-6 {
		t.Errorf("a finish = %v, want 13", byID["a"].Finish)
	}
}

func TestSharedLinkSchedulerConservation(t *testing.T) {
	// Property: total bytes / capacity = busy time; makespan >= that when
	// all arrive at 0 and >= longest solo transfer.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		s := SharedLinkScheduler{Capacity: units.Bandwidth(1 + rng.Float64()*100)}
		n := 1 + rng.Intn(8)
		var transfers []Transfer
		var total float64
		for i := 0; i < n; i++ {
			size := units.Bytes(1 + rng.Intn(1000))
			transfers = append(transfers, Transfer{ID: string(rune('a' + i)), Start: 0, Size: size})
			total += float64(size)
		}
		out := s.Schedule(transfers)
		if len(out) != n {
			t.Fatalf("trial %d: %d completions for %d transfers", trial, len(out), n)
		}
		want := total / float64(s.Capacity)
		got := MakespanOf(out)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("trial %d: makespan %v, want %v (work conservation)", trial, got, want)
		}
	}
}

func TestSharedLinkSchedulerZeroCapacity(t *testing.T) {
	s := SharedLinkScheduler{}
	out := s.Schedule([]Transfer{{ID: "a", Size: 1}})
	if !math.IsInf(out[0].Finish, 1) {
		t.Errorf("zero capacity should never finish, got %v", out[0].Finish)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if MakespanOf(nil) != 0 {
		t.Error("empty makespan should be 0")
	}
}
