package wire

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"deep/internal/clockring"
	"deep/internal/dag"
	"deep/internal/obs"
)

// Bounds of the spec table. It sits behind a public port, so everything a
// client can make it hold is capped: entries (SpecTableEntries in all),
// bodies per key, bytes per retained body, and the first-sight filter, which
// is a fixed array.
const (
	internShards   = clockring.Shards
	internShardCap = 128
	// internMaxBody is the largest body the table retains. Case-study specs
	// are 1–3 KiB; the front door accepts bodies up to 1 MiB, and a full
	// table of those would pin a gigabyte. At this bound it pins 64 MiB.
	internMaxBody = 64 << 10
	// internSeenSlots sizes each shard's first-sight filter.
	internSeenSlots = 256
	// internKeyLen is how much of a body its key hashes: a probe at the
	// envelope scanner's cursor hashes this many bytes, not knowing yet
	// where the spec ends.
	internKeyLen = 64
	// internWays bounds the bodies one key holds, so a probe compares at
	// most this many stored bodies against the buffer.
	internWays = 4
)

// SpecTableEntries is how many app specs the table holds: as many as the
// fleet's placement cache holds placements by default (fleet.DefaultCacheSize),
// so a spec whose placement is memoized is, in steady state, not decoded
// again either.
const SpecTableEntries = internShards * internShardCap

// Interner is a content-addressed table from raw app-spec bytes to the
// validated *dag.App they decode to, built once, its digest stored with it.
// A service deploys the same few applications over and over; for a repeated
// body the table replaces the strict decode, the DAG build and validation,
// and the sha256 pass with one short hash and one byte comparison.
//
// A body is keyed by a 64-bit maphash, under a per-process random seed, of
// its first internKeyLen bytes (of all of it, if shorter). A key chains at
// most internWays bodies; a further body on a full key is not admitted, so
// the bodies already there stay. A hit is served only after a byte-for-byte
// comparison with the stored body, so a hash collision or a shared prefix —
// accidental or constructed — costs a miss, never an aliased spec. A miss
// decodes the body as a caller without the table would — the scanner for a
// canonical body, DecodeAppSpec and AppSpec.App for the rest — so every
// strictness check and error string is unchanged; rejected bodies are never
// stored.
//
// Because the key needs no more than the first internKeyLen bytes, the
// envelope scanners of a table (Interner.ScanDeploy, ScanDeployBatch) look a
// stored spec up where it starts in the request buffer, before they know
// where it ends: a stored body that the app scanner accepted, matched byte
// for byte at the cursor, stands in for walking the spec (see probe).
//
// Admission is on second sight of the whole body: the first time a body is
// seen only its full-body maphash is remembered, in a fixed-size filter, and
// the entry — one copy of the body, and the app — is retained when the same
// hash arrives again. Never-repeated or flooding bodies — those sharing a
// key's prefix included — therefore cannot evict hot specs or grow memory.
// Each of the 8 shards is a 128-slot CLOCK ring (package clockring), so a
// body that keeps hitting survives a run of admissions that evicts its idle
// neighbours, and a hit takes only its shard's read lock.
//
// An entry keeps one copy of its body. For a canonical body it is the string
// the scanner cut the app's names from, which the app holds anyway; a body
// only the reference decoder accepts is copied once, when it is admitted.
//
// Interned apps are shared by every request that carries the same body and
// must be treated as read-only. All methods are safe for concurrent use.
type Interner struct {
	// hash is maphash.Bytes under a per-process seed, applied to a key's
	// at most internKeyLen bytes; tests replace it to force collisions.
	hash func([]byte) uint64
	// seed hashes whole bodies for the first-sight filter.
	seed   maphash.Seed
	shards [internShards]internShard

	hits     *obs.Counter
	misses   *obs.Counter
	admitted *obs.Counter
	evicted  *obs.Counter
	retained atomic.Int64 // body bytes currently held
	entries  atomic.Int64 // entries currently held
}

type internShard struct {
	mu sync.RWMutex
	// byKey heads each key's chain of at most internWays entries.
	byKey map[uint64]*internEntry
	ring  clockring.Ring[*internEntry]
	// seen is the first-sight filter, direct-mapped by full-body hash: a
	// slot holds the last hash that landed on it.
	seen [internSeenSlots]uint64
}

// internEntry is immutable after admission except for the CLOCK bit, which a
// hit marks under the shard's read lock, and the chain link, which only the
// write lock changes.
type internEntry struct {
	clockring.Used
	key uint64
	// body is the admitted spec, byte for byte; for a canonical body it is
	// the string app's names are substrings of.
	body string
	app  *dag.App
	// canonical records that scanApp accepted body, so the envelope
	// scanner, which would have walked it, may skip it instead.
	canonical bool
	next      *internEntry
}

// internProbe is what an envelope scanner of a table learned at an "app"
// value: the key of the bytes at the cursor and the stored entry that
// matched there, if any. It travels in the DeployItem to Interner.ItemApp,
// so a miss neither hashes nor looks up a second time.
type internProbe struct {
	entry *internEntry
	key   uint64
	keyed bool // key is the hash of the internKeyLen bytes at the cursor
}

// NewInterner returns an empty table whose counters <name>_hits, _misses,
// _admitted, _evicted and gauges <name>_entries and _bytes are interned in
// reg.
func NewInterner(reg *obs.Registry, name string) *Interner {
	keySeed := maphash.MakeSeed()
	in := &Interner{
		hash:     func(b []byte) uint64 { return maphash.Bytes(keySeed, b) },
		seed:     maphash.MakeSeed(),
		hits:     reg.Counter(name + "_hits"),
		misses:   reg.Counter(name + "_misses"),
		admitted: reg.Counter(name + "_admitted"),
		evicted:  reg.Counter(name + "_evicted"),
	}
	for i := range in.shards {
		in.shards[i].byKey = make(map[uint64]*internEntry, internShardCap)
		in.shards[i].ring = clockring.New[*internEntry](internShardCap)
	}
	entriesGauge := reg.Gauge(name + "_entries")
	bytesGauge := reg.Gauge(name + "_bytes")
	reg.OnCollect(func() {
		entriesGauge.Set(float64(in.entries.Load()))
		bytesGauge.Set(float64(in.retained.Load()))
	})
	return in
}

// App returns the validated application the body decodes to: the shared
// interned one when the table holds these exact bytes, otherwise a fresh
// decode — by scanApp when the body is canonical, else by DecodeAppSpec +
// AppSpec.App, whose error it returns verbatim. fast reports that the
// reference decoder did not run. body may be reused once App returns.
func (in *Interner) App(body []byte) (app *dag.App, fast bool, err error) {
	key := in.hash(body[:min(len(body), internKeyLen)])
	sh := &in.shards[key%internShards]
	sh.mu.RLock()
	for e := sh.byKey[key]; e != nil; e = e.next {
		if e.body == string(body) {
			e.Mark()
			sh.mu.RUnlock()
			in.hits.Add(1)
			return e.app, true, nil
		}
	}
	sh.mu.RUnlock()
	return in.decode(body, key)
}

// ItemApp is App for the spec of an item: the item's probe, when a scanner
// of this table made one, answers a hit without touching the table again
// and hands a miss its key. An item from anywhere else is App(item.App).
func (in *Interner) ItemApp(item DeployItem) (app *dag.App, fast bool, err error) {
	if e := item.held(); e != nil {
		in.hits.Add(1)
		return e.app, true, nil
	}
	if p := item.probe; p.keyed && len(item.App) >= internKeyLen {
		return in.decode(item.App, p.key)
	}
	// Unprobed, or shorter than the probed bytes and so keyed by all of
	// itself.
	return in.App(item.App)
}

// held returns the entry whose body item.App is, when the probe found one:
// the probe matched the entry's bytes where the span starts, so a span as
// long is the entry's body.
func (item *DeployItem) held() *internEntry {
	if e := item.probe.entry; e != nil && len(e.body) == len(item.App) {
		return e
	}
	return nil
}

// probe looks for a stored body at buf[pos:], under the key of the next
// internKeyLen bytes. It reports the entry whose body is there byte for byte
// and is exactly one object (no whitespace after it); a body in JSON has one
// end, so at most one stored body qualifies, and it is the span the walk
// would return if the walk accepts. A probe with fewer than internKeyLen
// bytes left reports nothing and no key.
func (in *Interner) probe(buf []byte, pos int) internProbe {
	rest := buf[pos:]
	if len(rest) < internKeyLen {
		return internProbe{}
	}
	key := in.hash(rest[:internKeyLen])
	sh := &in.shards[key%internShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for e := sh.byKey[key]; e != nil; e = e.next {
		if n := len(e.body); n <= len(rest) && e.body[n-1] == '}' && e.body == string(rest[:n]) {
			e.Mark()
			return internProbe{entry: e, key: key, keyed: true}
		}
	}
	return internProbe{key: key, keyed: true}
}

// decode is the miss path of App and ItemApp, for a body under key.
func (in *Interner) decode(body []byte, key uint64) (*dag.App, bool, error) {
	in.misses.Add(1)
	app, text, fast := scanApp(body)
	if !fast {
		spec, err := DecodeAppSpec(body)
		if err != nil {
			return nil, false, err
		}
		if app, err = spec.App(); err != nil {
			return nil, false, err
		}
	}
	if len(body) <= internMaxBody {
		in.admit(key, body, text, app)
	}
	return app, fast, nil
}

// admit records one sighting of an accepted body: the first stores its
// full-body hash in the filter, the second retains the body and app, evicting
// the first ring entry not referenced since the hand last passed it — unless
// the key already chains internWays bodies. text is the scanner's copy of a
// canonical body, kept as the entry's body; it is "" when the reference
// decoder built app, and then the body is copied only if it is retained.
func (in *Interner) admit(key uint64, body []byte, text string, app *dag.App) {
	h := maphash.Bytes(in.seed, body)
	sh := &in.shards[key%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seen := &sh.seen[h%internSeenSlots]; *seen != h {
		*seen = h
		return
	}
	ways := 0
	for e := sh.byKey[key]; e != nil; e = e.next {
		if e.body == string(body) {
			return // a concurrent request just admitted it
		}
		ways++
	}
	if ways == internWays {
		return // the residents stay
	}
	canonical := text != ""
	if !canonical {
		text = string(body)
	}
	e := &internEntry{key: key, body: text, app: app, canonical: canonical}
	if old := sh.ring.Put(e); old != nil {
		// The victim may chain under key itself: unlink it before e is
		// linked at the head.
		sh.unlink(old)
		in.retained.Add(-int64(len(old.body)))
		in.entries.Add(-1)
		in.evicted.Add(1)
	}
	e.next = sh.byKey[key]
	sh.byKey[key] = e
	in.retained.Add(int64(len(body)))
	in.entries.Add(1)
	in.admitted.Add(1)
}

// unlink removes e from its key's chain.
func (sh *internShard) unlink(e *internEntry) {
	switch head := sh.byKey[e.key]; {
	case head != e:
		for p := head; p != nil; p = p.next {
			if p.next == e {
				p.next = e.next
				break
			}
		}
	case e.next != nil:
		sh.byKey[e.key] = e.next
	default:
		delete(sh.byKey, e.key)
	}
	e.next = nil
}
