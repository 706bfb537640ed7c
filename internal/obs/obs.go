// Package obs is DEEP's low-overhead telemetry substrate: the instruments a
// long-lived service can keep on its hottest path without perturbing the
// numbers they report. Counters, gauges, and fixed-bucket log-scaled
// histograms are sharded across cache-line-padded cells — a record is one or
// two uncontended atomic operations on the caller's own shard, no locks, no
// allocations, no shared cache lines between workers — and reads merge the
// shards into a snapshot. A hot path that serves requests in runs notes them
// into plain-memory batches instead (HistogramBatch, StageBatch) and
// publishes each run with one FlushAt, so a request's record costs no atomic
// operation at all and the run pays one flush per instrument. On top of the
// instruments sit per-request stage tracing (StageTrace / StageSet, whose
// traces arrive through a StageBatch), a bounded slow-request ring that captures
// the full stage breakdown of tail outliers (SlowRing), and exposition:
// Prometheus text format, expvar, and an http.Handler for a debug listener.
//
// The package deliberately has no dependencies beyond the standard library
// and holds no global state: everything hangs off a Registry, so two fleets
// (or a fleet and its tests) never share instruments by accident.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// NumShards is the number of independently padded cells each instrument
// spreads its writes across. Writers pick a shard with AddAt/ObserveAt —
// fleet workers pass their worker index — so two workers never bounce one
// cache line between cores. Eight shards cover the worker-pool sizes the
// benchmarks record; pools larger than that alias shards (still correct,
// merely sharing lines pairwise). Must be a power of two: shard indices are
// masked, never bounds-checked, on the record path.
const NumShards = 8

const shardMask = NumShards - 1

// pad pushes sibling shards onto distinct cache lines. 64 bytes covers
// x86-64 and the common arm64 line size.
type pad [56]byte

// counterCell is one shard of a Counter: a float64 accumulated with
// compare-and-swap (monitor deltas are floats), padded to a full line.
type counterCell struct {
	bits atomic.Uint64 // float64 bits
	_    pad
}

// Counter is a sharded, monotonically accumulating float64 counter. The
// zero value is ready to use, but instruments normally come interned from a
// Registry so exposition can find them.
type Counter struct {
	cells [NumShards]counterCell
}

// Add accumulates delta on shard 0 — for callers without a natural shard
// identity (cold paths, single-goroutine tools).
func (c *Counter) Add(delta float64) { c.AddAt(0, delta) }

// AddAt accumulates delta on the given shard (masked into range). With one
// writer per shard — the fleet's worker-indexed usage — the CAS never
// retries and the record is a single uncontended atomic.
func (c *Counter) AddAt(shard int, delta float64) {
	cell := &c.cells[shard&shardMask]
	for {
		old := cell.bits.Load()
		if cell.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value merges the shards.
func (c *Counter) Value() float64 {
	var sum float64
	for i := range c.cells {
		sum += math.Float64frombits(c.cells[i].bits.Load())
	}
	return sum
}

// Gauge is a last-write-wins float64 with a set flag (monitor's Gauge
// reports whether the gauge was ever written). Gauges are set from slow
// paths (scrape hooks, periodic stats), so they are not sharded.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the gauge and whether it was ever set.
func (g *Gauge) Value() (float64, bool) {
	if !g.set.Load() {
		return 0, false
	}
	return math.Float64frombits(g.bits.Load()), true
}

// Registry interns named instruments for exposition. Lookups on the record
// path are sync.Map loads (no lock, no allocation once interned); creation
// takes the registry lock once per name. Names may carry an embedded label
// set in the monitor's "name{key=value,...}" convention — the Prometheus
// renderer splits and quotes it.
type Registry struct {
	mu         sync.Mutex
	counters   sync.Map // name -> *Counter
	gauges     sync.Map // name -> *Gauge
	histograms sync.Map // name -> *Histogram

	// collect hooks run before every exposition pass (WritePrometheus,
	// Expvar, Snapshot) so sources that keep state elsewhere — the fleet's
	// admission atomics, cache counters — can publish point-in-time gauges.
	collectMu sync.Mutex
	collect   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter interns the named counter.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	c := &Counter{}
	r.counters.Store(name, c)
	return c
}

// Gauge interns the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	g := &Gauge{}
	r.gauges.Store(name, g)
	return g
}

// Histogram interns the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	h := NewHistogram()
	r.histograms.Store(name, h)
	return h
}

// LookupCounter returns the named counter without creating it.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	v, ok := r.counters.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Counter), true
}

// LookupGauge returns the named gauge without creating it.
func (r *Registry) LookupGauge(name string) (*Gauge, bool) {
	v, ok := r.gauges.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Gauge), true
}

// LookupHistogram returns the named histogram without creating it.
func (r *Registry) LookupHistogram(name string) (*Histogram, bool) {
	v, ok := r.histograms.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Histogram), true
}

// OnCollect registers a hook run before every exposition pass. Hooks must
// be fast and must not call back into exposition.
func (r *Registry) OnCollect(fn func()) {
	r.collectMu.Lock()
	r.collect = append(r.collect, fn)
	r.collectMu.Unlock()
}

// runCollect invokes the registered collect hooks.
func (r *Registry) runCollect() {
	r.collectMu.Lock()
	hooks := r.collect
	r.collectMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// CounterNames returns the interned counter names, sorted.
func (r *Registry) CounterNames() []string { return sortedKeys(&r.counters) }

// GaugeNames returns the interned gauge names, sorted.
func (r *Registry) GaugeNames() []string { return sortedKeys(&r.gauges) }

// HistogramNames returns the interned histogram names, sorted.
func (r *Registry) HistogramNames() []string { return sortedKeys(&r.histograms) }

func sortedKeys(m *sync.Map) []string {
	var names []string
	m.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}
