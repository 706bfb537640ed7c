package wire

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"deep/internal/dag"
	"deep/internal/obs"
)

// Bounds of the spec table. It sits behind a public port, so everything a
// client can make it hold is capped: entries (256 in all, the size of the
// fleet's app-table level it feeds), bytes per retained body, and the
// first-sight filter, which is a fixed array.
const (
	internShards   = 8
	internShardCap = 32
	// internMaxBody is the largest body the table retains. Case-study specs
	// are 1–3 KiB; the front door accepts bodies up to 1 MiB, and 256 of
	// those would pin a quarter of a gigabyte.
	internMaxBody = 64 << 10
	// internSeenSlots sizes each shard's first-sight filter.
	internSeenSlots = 256
)

// Interner is a content-addressed table from raw app-spec bytes to the
// validated *dag.App they decode to, with the app's digest already memoized.
// A service deploys the same few applications over and over; for a repeated
// body the table replaces the strict decode, the DAG build and validation,
// and the sha256 pass with one hash and one byte comparison.
//
// Bodies are keyed by a 64-bit maphash under a per-process random seed, and a
// hit is served only after bytes.Equal against the stored body, so a hash
// collision — accidental or constructed — costs a miss, never an aliased
// spec. A miss decodes the body as a caller without the table would — the
// scanner for a canonical body, DecodeAppSpec and AppSpec.App for the rest —
// so every strictness check and error string is unchanged; rejected bodies
// are never stored.
//
// Admission is on second sight: the first time a body is seen only its hash
// is remembered, in a fixed-size filter, and the body and app are retained
// when the same hash arrives again. Never-repeated or flooding bodies
// therefore cannot evict hot specs or grow memory. Each of the 8 shards is a
// 32-slot CLOCK ring, so a body that keeps hitting survives a run of
// admissions that evicts its idle neighbours.
//
// Interned apps are shared by every request that carries the same body and
// must be treated as read-only. All methods are safe for concurrent use.
type Interner struct {
	// hash is maphash.Bytes under a per-process seed; tests replace it to
	// force collisions.
	hash   func([]byte) uint64
	shards [internShards]internShard

	hits     *obs.Counter
	misses   *obs.Counter
	admitted *obs.Counter
	evicted  *obs.Counter
	retained atomic.Int64 // body bytes currently held
}

type internShard struct {
	mu     sync.Mutex
	byHash map[uint64]*internEntry
	ring   [internShardCap]*internEntry
	hand   int
	// seen is the first-sight filter, direct-mapped by hash: a slot holds
	// the last hash that landed on it.
	seen [internSeenSlots]uint64
}

// internEntry is immutable after admission except for the CLOCK bit.
type internEntry struct {
	hash uint64
	body []byte
	app  *dag.App
	used bool // referenced since the hand last passed; guarded by the shard lock
}

// NewInterner returns an empty table whose counters <name>_hits, _misses,
// _admitted, _evicted and gauge <name>_bytes are interned in reg.
func NewInterner(reg *obs.Registry, name string) *Interner {
	seed := maphash.MakeSeed()
	in := &Interner{
		hash:     func(b []byte) uint64 { return maphash.Bytes(seed, b) },
		hits:     reg.Counter(name + "_hits"),
		misses:   reg.Counter(name + "_misses"),
		admitted: reg.Counter(name + "_admitted"),
		evicted:  reg.Counter(name + "_evicted"),
	}
	for i := range in.shards {
		in.shards[i].byHash = make(map[uint64]*internEntry, internShardCap)
	}
	bytesGauge := reg.Gauge(name + "_bytes")
	reg.OnCollect(func() { bytesGauge.Set(float64(in.retained.Load())) })
	return in
}

// App returns the validated application the body decodes to: the shared
// interned one when the table holds these exact bytes, otherwise a fresh
// decode — by scanApp when the body is canonical, else by DecodeAppSpec +
// AppSpec.App, whose error it returns verbatim. fast reports that the
// reference decoder did not run. body may be reused once App returns.
func (in *Interner) App(body []byte) (app *dag.App, fast bool, err error) {
	h := in.hash(body)
	sh := &in.shards[h%internShards]
	sh.mu.Lock()
	if e := sh.byHash[h]; e != nil && bytes.Equal(e.body, body) {
		e.used = true
		sh.mu.Unlock()
		in.hits.Add(1)
		return e.app, true, nil
	}
	sh.mu.Unlock()
	in.misses.Add(1)

	app, fast = scanApp(body)
	if !fast {
		spec, err := DecodeAppSpec(body)
		if err != nil {
			return nil, false, err
		}
		if app, err = spec.App(); err != nil {
			return nil, false, err
		}
	}
	// Hash the app here, on the decoding goroutine, so the fleet's workers
	// (and every later request sharing an interned app) find it memoized.
	app.Digest()
	if len(body) <= internMaxBody {
		in.admit(sh, h, body, app)
	}
	return app, fast, nil
}

// admit records one sighting of an accepted body: the first stores its hash
// in the filter, the second retains the body and app, evicting the first
// ring entry not referenced since the hand last passed it.
func (in *Interner) admit(sh *internShard, h uint64, body []byte, app *dag.App) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seen := &sh.seen[(h/internShards)%internSeenSlots]; *seen != h {
		*seen = h
		return
	}
	if sh.byHash[h] != nil {
		// A different body owns this hash (or a concurrent request just
		// admitted this one); the incumbent stays.
		return
	}
	for cur := sh.ring[sh.hand]; cur != nil && cur.used; cur = sh.ring[sh.hand] {
		cur.used = false
		sh.hand = (sh.hand + 1) % internShardCap
	}
	if old := sh.ring[sh.hand]; old != nil {
		delete(sh.byHash, old.hash)
		in.retained.Add(-int64(len(old.body)))
		in.evicted.Add(1)
	}
	e := &internEntry{hash: h, body: bytes.Clone(body), app: app}
	sh.ring[sh.hand] = e
	sh.hand = (sh.hand + 1) % internShardCap
	sh.byHash[h] = e
	in.retained.Add(int64(len(body)))
	in.admitted.Add(1)
}
