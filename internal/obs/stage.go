package obs

import (
	"fmt"
	"strings"
	"time"
)

// Stage identifies one segment of the fleet's request path. The taxonomy
// follows the path's actual order: waiting for a worker, reading the cache
// key, the placement-cache lookup, shape compilation into the worker's
// scratch (appgraph, cost model and simulator plan; only on a miss and on an
// entry's first hit), scheduling (the Nash pass, only on a miss), and
// simulator execution. A hit answered from its placement entry stamps only
// the wait, the key and the lookup.
type Stage uint8

const (
	// StageQueue is time from admission until a worker runs the request:
	// ~0 when the caller borrowed an idle worker, the wait in a waiter slot
	// otherwise. A request that never runs has its whole latency here.
	StageQueue Stage = iota
	// StageFingerprint is building the cache key: loading the churn epoch
	// and reading the digest the dag.App was built with, which hashes
	// nothing.
	StageFingerprint
	// StageCompile is the shape compilation into the worker's scratch; 0 on
	// a hit answered from its placement entry.
	StageCompile
	// StageCacheLookup is the placement-cache probe; on a hit it runs
	// through the stale-placement gate up to the answer, or up to the
	// shape compile of an entry whose answer is not stored yet.
	StageCacheLookup
	// StageSchedule is the scheduling pass plus the cache fill; 0 on
	// placement-cache hits.
	StageSchedule
	// StageSim is simulator execution of the placement on the compiled
	// plan, up to the detached copy of its result the answer carries; 0 on
	// a hit answered from its placement entry.
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
// renders them as one labeled Prometheus family. Traces reach it through a
// StageBatch and FlushAt.
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

// StageBatch accumulates stage traces in plain memory, one HistogramBatch
// per stage, for one StageSet.FlushAt to publish. The zero value is empty.
type StageBatch struct {
	hists [NumStages]HistogramBatch
}

// Observe notes every stage of one trace.
func (b *StageBatch) Observe(t *StageTrace) {
	for s := Stage(0); s < NumStages; s++ {
		b.hists[s].Observe(t.D[s].Seconds())
	}
}

// FlushAt publishes the batch into the per-stage histograms on the given
// shard and empties it.
func (ss *StageSet) FlushAt(shard int, b *StageBatch) {
	for s := Stage(0); s < NumStages; s++ {
		ss.hists[s].FlushAt(shard, &b.hists[s])
	}
}
