// Package netsim models the network channels of the paper's Section III-B:
// nodes interconnected by bandwidth-limited links (RTT neglected, as in the
// paper), including a fair-share model for concurrent transfers over a
// shared capacity — the congestion effect that makes hybrid registry
// selection a non-trivial game.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"deep/internal/units"
)

// Link is a directed network channel h_kj with a bandwidth.
type Link struct {
	From, To string
	BW       units.Bandwidth
	// SharedCapacity marks the link's source as a shared uplink, such as a
	// single regional registry server's NIC. It is part of the cluster's
	// digest and wire spec; the simulator and the cost model price the
	// sharing from the registry's own Shared flag (sim.RegistryInfo).
	SharedCapacity bool
	// RTT in seconds; the paper neglects it (default 0), but the model
	// supports it for sensitivity studies.
	RTT float64
}

// Topology is a set of named nodes and directed links.
type Topology struct {
	mu    sync.RWMutex
	nodes map[string]bool
	links map[[2]string]Link
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{nodes: make(map[string]bool), links: make(map[[2]string]Link)}
}

// AddNode registers a node; re-adding is a no-op.
func (t *Topology) AddNode(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[name] = true
}

// Nodes returns the sorted node names.
func (t *Topology) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddLink registers a directed link between existing nodes.
func (t *Topology) AddLink(l Link) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.nodes[l.From] {
		return fmt.Errorf("netsim: unknown node %q", l.From)
	}
	if !t.nodes[l.To] {
		return fmt.Errorf("netsim: unknown node %q", l.To)
	}
	if l.BW <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth on %s->%s", l.From, l.To)
	}
	t.links[[2]string{l.From, l.To}] = l
	return nil
}

// AddDuplex registers links in both directions with the same bandwidth.
func (t *Topology) AddDuplex(a, b string, bw units.Bandwidth) error {
	if err := t.AddLink(Link{From: a, To: b, BW: bw}); err != nil {
		return err
	}
	return t.AddLink(Link{From: b, To: a, BW: bw})
}

// LinkBetween returns the link from a to b. Transfers within one node use an
// implicit infinite-bandwidth loopback.
func (t *Topology) LinkBetween(a, b string) (Link, bool) {
	if a == b {
		return Link{From: a, To: b, BW: units.Bandwidth(math.Inf(1))}, true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, ok := t.links[[2]string{a, b}]
	return l, ok
}

// Bandwidth returns BW_kj between two nodes, 0 when no link exists, and +Inf
// for loopback.
func (t *Topology) Bandwidth(a, b string) units.Bandwidth {
	l, ok := t.LinkBetween(a, b)
	if !ok {
		return 0
	}
	return l.BW
}

// TransferTime returns the seconds to move size bytes from a to b over an
// otherwise idle network, +Inf when unreachable.
func (t *Topology) TransferTime(a, b string, size units.Bytes) float64 {
	l, ok := t.LinkBetween(a, b)
	if !ok {
		return math.Inf(1)
	}
	return l.RTT + l.BW.Seconds(size)
}

// Clone returns a deep copy of the topology; useful for what-if analyses.
func (t *Topology) Clone() *Topology {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := NewTopology()
	for n := range t.nodes {
		c.nodes[n] = true
	}
	for k, l := range t.links {
		c.links[k] = l
	}
	return c
}

// SetBandwidth rescales an existing link's bandwidth, for sweeps.
func (t *Topology) SetBandwidth(a, b string, bw units.Bandwidth) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]string{a, b}
	l, ok := t.links[k]
	if !ok {
		return fmt.Errorf("netsim: no link %s->%s", a, b)
	}
	if bw <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth")
	}
	l.BW = bw
	t.links[k] = l
	return nil
}
