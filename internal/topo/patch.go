package topo

import (
	"deep/internal/energy"
	"deep/internal/units"
)

// Delta narrows an incremental recompile (Patch). Patch discovers joined,
// departed, and renamed-node devices and registries on its own by diffing
// the old table against the new view; Delta only needs to name the topology
// nodes whose links changed *in place* — bandwidth degradation or
// restoration on routes between nodes that exist in both views — because an
// in-place link change is invisible to a name-set diff.
type Delta struct {
	// TouchedNodes lists topology nodes whose incident links changed since
	// the table being patched was compiled. Every link row or column
	// involving a touched node is recompiled from the view's topology;
	// everything else is copied from the old table.
	TouchedNodes []string
}

// Patch compiles the view incrementally against this table: link rows that
// cannot have changed — both endpoints present in the old table, neither
// listed in the delta — are copied instead of re-derived, so a churn step
// that adds, removes, or fails Δ devices costs O(Δ·devices) topology
// lookups plus memory copies, not the full O(devices²) LinkBetween scan of
// Compile. The result is a fresh immutable table, element-for-element equal
// to Compile(v) (pinned by the equivalence test in patch_test.go); the old
// table is not modified, so readers of previous epochs are never disturbed.
//
// Every table is built here — Compile is Patch against the empty table — and
// the build ends by deriving the twin classes from the finished link tables,
// so each churn epoch's table carries its own.
//
// Correctness depends on the caller's honesty: a link mutated between the
// two compiles whose endpoints are absent from delta.TouchedNodes is served
// stale from the old table.
func (t *ClusterTable) Patch(v View, delta Delta) *ClusterTable {
	n := newTable(v)
	nd, nr := len(n.devNames), len(n.regNames)

	touched := make(map[string]bool, len(delta.TouchedNodes))
	for _, node := range delta.TouchedNodes {
		touched[node] = true
	}

	// reuse[d] is the old table's id for new device d when every link
	// incident to it is unchanged — it was in the old table under the same
	// interned handle and is not touched — else -1. A device whose handle
	// changed is treated as new: its idle power (and only its own rows) must
	// be re-derived. oldReg[r] is the old table's id for new registry r when
	// its node is unchanged and untouched — the condition for copying its
	// link row — else -1. One backing holds both.
	scratch := make([]int32, nd+nr)
	reuse, oldReg := scratch[:nd], scratch[nd:]
	for d := 0; d < nd; d++ {
		reuse[d] = -1
		if od, ok := t.oldDevice(n, d); ok && !touched[n.devNames[d]] {
			reuse[d] = od
		}
	}
	for r := 0; r < nr; r++ {
		oldReg[r] = -1
		if or, ok := t.regIndex[n.regNames[r]]; ok &&
			t.regNodes[or] == n.regNodes[r] && !touched[n.regNodes[r]] {
			oldReg[r] = or
		}
	}

	ond := len(t.devNames)
	n.regLink = make([]Link, nr*nd)
	for r := 0; r < nr; r++ {
		for d := 0; d < nd; d++ {
			if or, od := oldReg[r], reuse[d]; or >= 0 && od >= 0 {
				n.regLink[r*nd+d] = t.regLink[int(or)*ond+int(od)]
			} else {
				n.regLink[r*nd+d] = compileLink(v.Topology, n.regNodes[r], n.devNames[d])
			}
		}
	}
	n.devLink = make([]Link, nd*nd)
	for f := 0; f < nd; f++ {
		for d := 0; d < nd; d++ {
			if of, od := reuse[f], reuse[d]; of >= 0 && od >= 0 {
				n.devLink[f*nd+d] = t.devLink[int(of)*ond+int(od)]
			} else {
				n.devLink[f*nd+d] = compileLink(v.Topology, n.devNames[f], n.devNames[d])
			}
		}
	}
	n.hasSource = v.SourceNode != ""
	n.srcNode = v.SourceNode
	n.srcLink = make([]Link, nd)
	if n.hasSource {
		srcReusable := t.srcNode == v.SourceNode && !touched[v.SourceNode]
		for d := 0; d < nd; d++ {
			if srcReusable && reuse[d] >= 0 {
				n.srcLink[d] = t.srcLink[reuse[d]]
			} else {
				n.srcLink[d] = compileLink(v.Topology, v.SourceNode, n.devNames[d])
			}
		}
	}

	n.idleW = make([]units.Watts, nd)
	for d := 0; d < nd; d++ {
		if od, ok := t.oldDevice(n, d); ok {
			n.idleW[d] = t.idleW[od]
		} else {
			n.idleW[d] = n.devices[d].Power.Power(energy.Idle, "")
		}
	}
	n.findTwins()
	return n
}

// oldDevice returns this table's id for the new table n's device d, when
// this table holds that device under the same interned handle.
func (t *ClusterTable) oldDevice(n *ClusterTable, d int) (int32, bool) {
	od, ok := t.devIndex[n.devNames[d]]
	return od, ok && t.devices[od] == n.devices[d]
}
