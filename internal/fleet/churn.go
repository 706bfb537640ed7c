package fleet

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"deep/internal/chaos"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/units"
)

// LinkChange is one in-place bandwidth change in a churn delta: the link
// between A and B (both directions, where they exist) is set to Factor times
// its base bandwidth. A Factor outside (0, 1) restores the base bandwidth.
type LinkChange struct {
	A, B   string
	Factor float64
}

// ChurnDelta is one batch of live cluster changes applied atomically by
// Fleet.ApplyChurn: devices and registries leaving (crash) or returning
// (recover) service, and links degrading or restoring. Names refer to the
// fleet's base cluster; a crash is a removal from the effective cluster view,
// not a removal from the base — recovery restores the exact base state, so a
// fully recovered fleet serves its pre-churn caches again.
type ChurnDelta struct {
	FailDevices       []string
	RecoverDevices    []string
	FailRegistries    []string
	RecoverRegistries []string
	Links             []LinkChange
}

// DeltaForEvent translates one chaos event into the churn delta that applies
// it.
func DeltaForEvent(ev chaos.Event) ChurnDelta {
	switch ev.Kind {
	case chaos.DeviceCrash:
		return ChurnDelta{FailDevices: []string{ev.Target}}
	case chaos.DeviceRecover:
		return ChurnDelta{RecoverDevices: []string{ev.Target}}
	case chaos.RegistryOutage:
		return ChurnDelta{FailRegistries: []string{ev.Target}}
	case chaos.RegistryRecover:
		return ChurnDelta{RecoverRegistries: []string{ev.Target}}
	case chaos.LinkDegrade:
		return ChurnDelta{Links: []LinkChange{{A: ev.A, B: ev.B, Factor: ev.Factor}}}
	case chaos.LinkRestore:
		return ChurnDelta{Links: []LinkChange{{A: ev.A, B: ev.B}}}
	default:
		return ChurnDelta{}
	}
}

// churnState is one epoch's immutable view of the churned cluster: the down
// sets, the incrementally patched cluster table, and the key that is the
// cluster half of every cache key (epoch 0 carries the base cluster's own
// table and the zero key). Workers adopt a state by pointer (one atomic load
// per request), so everything here must stay read-only after publication.
type churnState struct {
	epoch    int64
	downDevs map[string]bool
	downRegs map[string]bool
	degraded map[[2]string]float64
	table    *topo.ClusterTable
	key      [sha256.Size]byte
}

// pristine reports whether the state is the base cluster exactly: nothing
// down, nothing degraded.
func (st *churnState) pristine() bool {
	return len(st.downDevs) == 0 && len(st.downRegs) == 0 && len(st.degraded) == 0
}

// staleAssigns reports whether a placement (in compiled view form) references
// hardware that is down in this state — the per-request gate that keeps
// cached placements off crashed devices.
func (st *churnState) staleAssigns(assigns []sim.Assignment) bool {
	if len(st.downDevs) == 0 && len(st.downRegs) == 0 {
		return false
	}
	for _, a := range assigns {
		if st.downDevs[a.Device] || st.downRegs[a.Registry] {
			return true
		}
	}
	return false
}

// ChurnStats is a point-in-time view of the fleet's churn machinery.
type ChurnStats struct {
	// Epoch is the current cluster epoch (0 = the base cluster, bumped once
	// per ApplyChurn).
	Epoch int64 `json:"epoch"`
	// DownDevices/DownRegistries/DegradedLinks describe the current state.
	DownDevices    int `json:"down_devices"`
	DownRegistries int `json:"down_registries"`
	DegradedLinks  int `json:"degraded_links"`
	// EpochsApplied counts ApplyChurn calls.
	EpochsApplied int64 `json:"epochs_applied"`
	// StaleRejected counts placements caught referencing down hardware at
	// the response gate; Reschedules the retry attempts those rejections
	// triggered; DeadlineExceeded the requests failed with ErrDeadline.
	StaleRejected    int64 `json:"stale_rejected"`
	Reschedules      int64 `json:"reschedules"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
}

// ApplyChurn applies one delta to the fleet's effective cluster view: it
// patches the compiled cluster table incrementally from the previous epoch's
// table (O(changed·devices) link recompiles instead of Compile's full
// O(devices²) scan), computes the new epoch's key, bumps the cluster epoch,
// and publishes the new state for workers to adopt on their next request. It
// returns the new epoch. The middle result is always 0; it is kept for
// benchmark/replay.go (ROADMAP item 1b).
//
// Churn changes the key and leaves the caches alone: every cache entry was
// written by a schedule on the state its key names, so it stays valid for
// that key. A full recovery restores the base key, and the pre-churn entries
// hit again.
//
// Deltas are serialized; the request path never blocks on one (workers read
// the published state atomically). All names must exist in the base cluster;
// failing an already-down target or recovering a healthy one is a no-op for
// that target, so replaying overlapping chaos schedules is safe.
func (f *Fleet) ApplyChurn(delta ChurnDelta) (epoch int64, _ int, err error) {
	f.churnMu.Lock()
	defer f.churnMu.Unlock()
	prev := f.churn.Load()

	for _, lists := range [][]string{delta.FailDevices, delta.RecoverDevices} {
		for _, name := range lists {
			if _, ok := f.baseTable.DevID(name); !ok {
				return 0, 0, fmt.Errorf("fleet: churn names unknown device %q", name)
			}
		}
	}
	for _, lists := range [][]string{delta.FailRegistries, delta.RecoverRegistries} {
		for _, name := range lists {
			if _, ok := f.baseTable.RegID(name); !ok {
				return 0, 0, fmt.Errorf("fleet: churn names unknown registry %q", name)
			}
		}
	}
	for _, lc := range delta.Links {
		if _, okAB := f.base.Topology.LinkBetween(lc.A, lc.B); !okAB {
			if _, okBA := f.base.Topology.LinkBetween(lc.B, lc.A); !okBA {
				return 0, 0, fmt.Errorf("fleet: churn names unknown link %s<->%s", lc.A, lc.B)
			}
		}
	}

	next := &churnState{
		epoch:    prev.epoch + 1,
		downDevs: copySet(prev.downDevs, len(delta.FailDevices)),
		downRegs: copySet(prev.downRegs, len(delta.FailRegistries)),
		degraded: make(map[[2]string]float64, len(prev.degraded)+len(delta.Links)),
	}
	for k, v := range prev.degraded {
		next.degraded[k] = v
	}
	for _, name := range delta.FailDevices {
		next.downDevs[name] = true
	}
	for _, name := range delta.RecoverDevices {
		delete(next.downDevs, name)
	}
	for _, name := range delta.FailRegistries {
		next.downRegs[name] = true
	}
	for _, name := range delta.RecoverRegistries {
		delete(next.downRegs, name)
	}

	// Link changes mutate the fleet's private chaos topology (a lazy clone of
	// the base — the base is never touched, so restoring reads base
	// bandwidths). Every mutated endpoint lands in TouchedNodes, so the
	// incremental patch below recompiles exactly the incident link rows.
	var touchedNodes []string
	for _, lc := range delta.Links {
		key := [2]string{lc.A, lc.B}
		if lc.A > lc.B {
			key = [2]string{lc.B, lc.A}
		}
		factor := lc.Factor
		if factor <= 0 || factor >= 1 {
			delete(next.degraded, key)
			factor = 1
		} else {
			next.degraded[key] = factor
		}
		if f.chaosTopo == nil {
			f.chaosTopo = f.base.Topology.Clone()
		}
		for _, dir := range [2][2]string{{lc.A, lc.B}, {lc.B, lc.A}} {
			if l, ok := f.base.Topology.LinkBetween(dir[0], dir[1]); ok {
				bw := l.BW
				if factor < 1 {
					bw = units.Bandwidth(float64(l.BW) * factor)
				}
				if err := f.chaosTopo.SetBandwidth(dir[0], dir[1], bw); err != nil {
					return 0, 0, fmt.Errorf("fleet: degrading %s->%s: %w", dir[0], dir[1], err)
				}
			}
		}
		touchedNodes = append(touchedNodes, lc.A, lc.B)
	}

	if next.pristine() {
		// Full recovery restores the base table and the zero key by
		// identity, so every pre-churn cache entry (placements, compiled
		// shapes) is warm again immediately.
		next.table = f.baseTable
	} else {
		next.table = prev.table.Patch(f.churnView(next), topo.Delta{TouchedNodes: touchedNodes})
		next.key = effectiveKey(next)
	}

	f.churnEpochs.Add(1)
	f.churn.Store(next)
	return next.epoch, 0, nil
}

// churnView assembles the effective cluster view for a churn state: the base
// cluster minus down devices and registries, over the chaos topology when any
// link has ever been mutated.
func (f *Fleet) churnView(st *churnState) topo.View {
	v := topo.View{Topology: f.base.Topology, SourceNode: f.base.SourceNode}
	if f.chaosTopo != nil {
		v.Topology = f.chaosTopo
	}
	v.Devices = f.base.Devices
	if len(st.downDevs) > 0 {
		v.Devices = nil
		for _, d := range f.base.Devices {
			if !st.downDevs[d.Name] {
				v.Devices = append(v.Devices, d)
			}
		}
	}
	for _, r := range f.base.Registries {
		if !st.downRegs[r.Name] {
			v.Registries = append(v.Registries, topo.Registry{Name: r.Name, Node: r.Node, Shared: r.Shared})
		}
	}
	return v
}

// effectiveKey hashes a churned state's sorted down sets and degradations.
// A fleet has one base cluster, so these alone tell its epochs apart. The key
// is canonical, so two routes to the same effective cluster (crash A then B,
// or B then A) key the same cache entries, and it costs O(churn).
func effectiveKey(st *churnState) (key [sha256.Size]byte) {
	h := sha256.New()
	for _, name := range sortedKeys(st.downDevs) {
		h.Write([]byte("down|" + name + "\n"))
	}
	for _, name := range sortedKeys(st.downRegs) {
		h.Write([]byte("downreg|" + name + "\n"))
	}
	if len(st.degraded) > 0 {
		keys := make([][2]string, 0, len(st.degraded))
		for k := range st.degraded {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			h.Write([]byte("deg|" + k[0] + "|" + k[1] + "|" +
				strconv.FormatFloat(st.degraded[k], 'g', -1, 64) + "\n"))
		}
	}
	h.Sum(key[:0])
	return key
}

func copySet(m map[string]bool, extra int) map[string]bool {
	out := make(map[string]bool, len(m)+extra)
	for k := range m {
		out[k] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// churnMaxAttempts bounds the stale-placement retry loop: the first attempt
// plus two re-schedules. Churn faster than three epochs within one request's
// service time is a thrashing cluster, not a recoverable race.
const churnMaxAttempts = 3
