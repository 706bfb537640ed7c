package netsim

import (
	"math"
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
