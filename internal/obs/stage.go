package obs

import (
	"fmt"
	"strings"
	"time"
)

// Stage identifies one segment of the fleet's request path. The taxonomy
// follows the path's actual order: admission-queue residency, request
// fingerprinting, compiled-shape resolution (app-table / cost-model /
// simulator-plan compile, amortized to a cache lookup when warm), placement
// -cache lookup, scheduling (the Nash pass, zero on placement-cache hits),
// and simulator execution.
type Stage uint8

const (
	// StageQueue is time spent in the admission queue before a worker
	// picked the request up.
	StageQueue Stage = iota
	// StageFingerprint is reading the app's canonical digest: a field the
	// dag.App was built with, so ~0 on every request.
	StageFingerprint
	// StageCompile is the app-table/model/plan compilation into the
	// worker's scratch; 0 on a hit answered from its placement entry.
	StageCompile
	// StageCacheLookup is the placement-cache probe.
	StageCacheLookup
	// StageSchedule is the scheduling pass plus the cache fill; ~0 on
	// placement-cache hits.
	StageSchedule
	// StageSim is plan rebinding plus simulator execution.
	StageSim
	// NumStages bounds the enum; StageTrace arrays are indexed by Stage.
	NumStages
)

// stageNames are the exposition labels, indexed by Stage.
var stageNames = [NumStages]string{
	"queue", "fingerprint", "compile", "cache_lookup", "schedule", "sim_exec",
}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageTrace is one request's per-stage wall-time breakdown. It is a plain
// fixed-size value — workers keep one and reset it per request, responses
// carry a copy — so stamping and copying allocate nothing.
type StageTrace struct {
	D [NumStages]time.Duration
}

// Reset zeroes the trace for the next request.
func (t *StageTrace) Reset() { *t = StageTrace{} }

// Total sums the stamped stages.
func (t *StageTrace) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.D {
		sum += d
	}
	return sum
}

// MarshalJSON renders the trace keyed by stage name (durations in
// nanoseconds), so exported slow requests and responses read as
// {"queue":...,"sim_exec":...} instead of a bare positional array.
func (t StageTrace) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", s.String(), int64(t.D[s]))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// StageSet aggregates stage traces into one histogram per stage (recorded
// in seconds), interned in a registry as name{stage="..."} so exposition
// renders them as one labeled Prometheus family.
type StageSet struct {
	hists [NumStages]*Histogram
}

// NewStageSet interns the per-stage histograms under the given family name
// (e.g. "fleet_stage_seconds").
func NewStageSet(r *Registry, name string) *StageSet {
	ss := &StageSet{}
	for s := Stage(0); s < NumStages; s++ {
		ss.hists[s] = r.Histogram(name + "{stage=" + s.String() + "}")
	}
	return ss
}

// RecordAt folds one trace into the per-stage histograms on the caller's
// shard.
func (ss *StageSet) RecordAt(shard int, t *StageTrace) {
	for s := Stage(0); s < NumStages; s++ {
		ss.hists[s].ObserveAt(shard, t.D[s].Seconds())
	}
}
