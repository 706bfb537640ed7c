package fleet

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"deep/internal/clockring"
	"deep/internal/costmodel"
	"deep/internal/sim"
)

// cacheKey keys the placement cache. A fleet serves one cluster with one
// scheduling method, so what a placement and its answer depend on is the app
// and the churn epoch's effective cluster: cluster is the churn state's key
// (zero for the base cluster) and app the app's stored dag.App.Digest. The
// key is a plain comparable value, so building one costs no hash and no
// allocation.
type cacheKey struct {
	cluster [sha256.Size]byte
	app     [sha256.Size]byte
}

// placementCache is a concurrency-safe table of memoized placements with the
// spec table's design (package clockring): clockring.Shards shards by the app
// digest's first byte, one below clockring.Shards entries, each a map under a
// read-write lock bounded by one CLOCK ring. Entries are stored in compiled
// form — parallel sorted-name and assignment slices rather than Go maps — so
// a cached placement is immutable by construction and a lookup shares the
// entry's slices with the caller instead of cloning a mutable map. An entry
// also holds the placement's simulated answer once its first hit has stored
// it, which every later hit serves as it stands, and a slot for the serving
// layer's encoding of that answer (Encoded).
//
// An entry answers for its key: it is written only by a schedule on the
// churn state whose key it carries, so churn never sweeps the cache. An
// epoch's entries that churn leaves behind age out through the CLOCK bound,
// and serve again as hits when the epoch's key returns.
//
// Hits and misses are counted by the fleet's workers in their pending
// telemetry and added here once per Do or DoBatch (count); evictions are
// counted under the shard's write lock.
type placementCache struct {
	shards       []cacheShard // none when caching is disabled
	hits, misses atomic.Int64
}

// cacheShard is one shard: its entries by key, bounded by its ring, both
// under mu, and the evictions its ring made.
type cacheShard struct {
	mu        sync.RWMutex
	byKey     map[cacheKey]*cacheEntry
	ring      clockring.Ring[*cacheEntry]
	evictions int64
}

type cacheEntry struct {
	clockring.Used
	key cacheKey
	// names (sorted) and assigns are parallel: the compiled, read-only form
	// of the memoized placement.
	names   []string
	assigns []sim.Assignment
	// result is the placement's simulated answer on its key's cluster, nil
	// until the entry's first hit fills it (Fleet.process: a fleet simulates
	// without jitter, so the answer is a function of the key). A stored
	// result is immutable. Two first hits may race; the first to store wins,
	// and both serve the winner.
	result atomic.Pointer[sim.Result]
	// encoded holds what the serving layer derives from result, for it to
	// reuse (Response.Encoded). It lives and dies with the entry.
	encoded Encoded
}

// Encoded is a write-once slot for the bytes a serving layer encodes from a
// placement entry's stored answer. The fleet never reads or writes them: it
// only hands the slot out beside the result it describes (Response.Encoded).
type Encoded struct{ p atomic.Pointer[[]byte] }

// Load returns the stored bytes, nil while the slot is empty. They are
// shared by every response for the entry's key: read-only.
func (e *Encoded) Load() []byte {
	if p := e.p.Load(); p != nil {
		return *p
	}
	return nil
}

// Store fills an empty slot with a copy of b; the first write wins, and a
// later one is dropped.
func (e *Encoded) Store(b []byte) {
	if e.p.Load() != nil {
		return
	}
	stored := append([]byte(nil), b...)
	e.p.CompareAndSwap(nil, &stored)
}

// view returns the entry's placement, aliasing its immutable slices.
func (e *cacheEntry) view() PlacementView {
	return PlacementView{names: e.names, assigns: e.assigns}
}

// newPlacementCache returns a cache holding up to capacity placements.
// capacity <= 0 disables caching entirely (every Get misses, PutView is a
// no-op).
func newPlacementCache(capacity int) *placementCache {
	if capacity <= 0 {
		return &placementCache{}
	}
	n := clockring.Shards
	if capacity < n {
		n = 1
	}
	c := &placementCache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		size := capacity / n
		if i < capacity%n {
			size++
		}
		c.shards[i].byKey = make(map[cacheKey]*cacheEntry, size)
		c.shards[i].ring = clockring.New[*cacheEntry](size)
	}
	return c
}

// shard returns the key's shard: the app digest is uniform, so its first
// byte spreads apps evenly.
func (c *placementCache) shard(key cacheKey) *cacheShard {
	return &c.shards[int(key.app[0])%len(c.shards)]
}

// Get returns the key's entry, nil on a miss; the caller counts which. A hit
// takes the shard's read lock and marks the entry used. The entry's placement
// and result are immutable and stay valid even past eviction (evicting drops
// the cache's reference, never mutates the entry), so a hit costs zero
// allocations.
func (c *placementCache) Get(key cacheKey) *cacheEntry {
	if len(c.shards) == 0 {
		return nil
	}
	sh := c.shard(key)
	sh.mu.RLock()
	e := sh.byKey[key]
	if e != nil {
		e.Mark()
	}
	sh.mu.RUnlock()
	return e
}

// PutView memoizes a placement, evicting the entry the shard's CLOCK hand
// stops at when the shard is full. The entry gets its own copies of the
// slices — a view handed in may alias its worker's scratch, and entries
// must stay immutable for the lifetime of every view ever served from them. A
// key already present keeps its entry (first write wins): an entry's
// placement never changes, so its result slot always describes it. Two
// schedules of one key agree anyway.
func (c *placementCache) PutView(key cacheKey, v PlacementView) {
	if len(c.shards) == 0 {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.byKey[key]; ok {
		e.Mark()
		return
	}
	entry := &cacheEntry{
		key:     key,
		names:   append([]string(nil), v.names...),
		assigns: append([]sim.Assignment(nil), v.assigns...),
	}
	if old := sh.ring.Put(entry); old != nil {
		delete(sh.byKey, old.key)
		sh.evictions++
	}
	sh.byKey[key] = entry
}

// count adds the lookups a worker's Do or DoBatch made to the counters. A
// disabled cache counts none, and a count of zero adds nothing, so a warm
// batch, which misses nothing, makes one atomic add.
func (c *placementCache) count(hits, misses int64) {
	if len(c.shards) > 0 && hits > 0 {
		c.hits.Add(hits)
	}
	if len(c.shards) > 0 && misses > 0 {
		c.misses.Add(misses)
	}
}

// CacheStats is a point-in-time view of the placement cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// Stats snapshots the cache counters, summing the shards.
func (c *placementCache) Stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		s.Evictions += sh.evictions
		s.Entries += len(sh.byKey)
		sh.mu.RUnlock()
	}
	return s
}

// compiledShape bundles what the fleet compiles for one request on one
// churn epoch's cluster: the scheduler's cost model and the simulator's
// executor plan. It is compiled into the borrowing worker's recycled scratch
// (Fleet.shape), valid until that worker's next compile, so it is never
// cached or referenced from a Response: the worker's one scheduling pass is
// retargeted at its model, and its Exec runs its plan. choices is the
// placement that pass computed on the model, in the ids model and plan
// share; nil on a shape compiled for a cache entry's placement, or
// scheduled by a scheduler without passes.
type compiledShape struct {
	model   *costmodel.Model
	plan    *sim.Plan
	choices []sim.Choice
}

// run simulates the answer's placement on the shape's plan: by its pass's
// ids when it has them, else by the placement's names.
func (s *compiledShape) run(e *sim.Exec, view PlacementView) (*sim.Result, error) {
	if s.choices != nil {
		return e.RunChoices(s.plan, s.choices, sim.Options{})
	}
	return e.RunIndexed(s.plan, view.names, view.assigns, sim.Options{})
}

// ModelCacheStats counts the fleet's compiles. Compiles and AppCompiles are
// both the number of shapes compiled: every shape compiles its own app
// table. ClusterCompiles counts full cluster-table compiles: a fleet
// compiles its one cluster's table in New, so it stays at 1 (churn epochs
// patch it).
type ModelCacheStats struct {
	Compiles        int64 `json:"compiles"`
	ClusterCompiles int64 `json:"cluster_compiles"`
	AppCompiles     int64 `json:"app_compiles"`
}
