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

	// oldDev[d] is the old table's id for new device d, or -1 when the
	// device joined (or was renamed) since the old compile. A device whose
	// interned handle changed is treated as new: its idle power (and only
	// its own rows) must be re-derived.
	oldDev := make([]int32, nd)
	for d := 0; d < nd; d++ {
		if od, ok := t.devIndex[n.devNames[d]]; ok && t.devices[od] == n.devices[d] {
			oldDev[d] = od
		} else {
			oldDev[d] = -1
		}
	}
	// devReusable[d]: every link incident to this device is unchanged.
	devReusable := make([]bool, nd)
	for d := 0; d < nd; d++ {
		devReusable[d] = oldDev[d] >= 0 && !touched[n.devNames[d]]
	}

	// oldReg[r] is the old table's id for new registry r when its node is
	// unchanged and untouched — the condition for copying its link row.
	oldReg := make([]int32, nr)
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
			if or := oldReg[r]; or >= 0 && devReusable[d] {
				n.regLink[r*nd+d] = t.regLink[int(or)*ond+int(oldDev[d])]
			} else {
				n.regLink[r*nd+d] = compileLink(v.Topology, n.regNodes[r], n.devNames[d])
			}
		}
	}
	n.devLink = make([]Link, nd*nd)
	for f := 0; f < nd; f++ {
		for d := 0; d < nd; d++ {
			if devReusable[f] && devReusable[d] {
				n.devLink[f*nd+d] = t.devLink[int(oldDev[f])*ond+int(oldDev[d])]
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
			if srcReusable && devReusable[d] {
				n.srcLink[d] = t.srcLink[oldDev[d]]
			} else {
				n.srcLink[d] = compileLink(v.Topology, v.SourceNode, n.devNames[d])
			}
		}
	}

	n.idleW = make([]units.Watts, nd)
	for d := 0; d < nd; d++ {
		if oldDev[d] >= 0 {
			n.idleW[d] = t.idleW[oldDev[d]]
		} else {
			n.idleW[d] = n.devices[d].Power.Power(energy.Idle, "")
		}
	}
	return n
}
