package fleet

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/sim"
)

// cacheKey keys both fleet caches, the compiled shapes and the placements.
// A fleet serves one cluster with one scheduling method, so what a cached
// shape or placement depends on is the app and the churn epoch's effective
// cluster: cluster is the churn state's key (zero for the base cluster) and
// app the app's stored dag.App.Digest. The key is a plain comparable
// value, so building one costs no hash and no allocation.
type cacheKey struct {
	cluster [sha256.Size]byte
	app     [sha256.Size]byte
}

// word folds the i-th 8-byte word of both halves. Each half is a raw sha256
// digest (or zero), so any word is uniform; on the base cluster it is the
// app digest's own bytes.
func (k cacheKey) word(i int) uint64 {
	return binary.LittleEndian.Uint64(k.cluster[8*i:]) ^ binary.LittleEndian.Uint64(k.app[8*i:])
}

// placementCache is a concurrency-safe LRU of memoized placements. Entries
// are stored in compiled form — parallel sorted-name and assignment slices
// rather than Go maps — so a cached placement is immutable by construction
// and a lookup shares the entry's slices with the caller instead of cloning a
// mutable map. An entry also holds the placement's simulated answer once its
// first hit has stored it, which every later hit serves as it stands, and a
// slot for the serving layer's encoding of that answer (Encoded).
//
// An entry answers for its key: it is written only by a schedule on the
// churn state whose key it carries, so churn never sweeps the cache. An
// epoch's entries that churn leaves behind age out through the LRU bound, and
// serve again as hits when the epoch's key returns.
type placementCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[cacheKey]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key cacheKey
	// names (sorted) and assigns are parallel: the compiled, read-only form
	// of the memoized placement.
	names   []string
	assigns []sim.Assignment
	// result is the placement's simulated answer on its key's cluster, nil
	// until the entry's first hit fills it (Fleet.process; only when
	// Config.SimOptions.Jitter is zero, so the answer is a function of the
	// key). A stored result is immutable. Two first hits may race; the first
	// to store wins, and both serve the winner.
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

// newPlacementCache returns an LRU holding up to capacity placements.
// capacity <= 0 disables caching entirely (every Get misses, PutView is a
// no-op).
func newPlacementCache(capacity int) *placementCache {
	return &placementCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[cacheKey]*list.Element),
	}
}

// Get returns the key's entry, recording a hit or miss; nil on a miss. The
// entry's placement and result are immutable and stay valid even past
// eviction (evicting drops the cache's reference, never mutates the entry),
// so a hit costs zero allocations.
func (c *placementCache) Get(key cacheKey) *cacheEntry {
	if c.capacity <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// PutView memoizes a placement, evicting the least recently used entry when
// full. The entry gets its own copies of the slices — a view handed in may
// alias request-pooled scratch, and entries must stay immutable for the
// lifetime of every view ever served from them. A key already present keeps
// its entry (first write wins): an entry's placement never changes, so its
// result slot always describes it. Two schedules of one key agree anyway.
func (c *placementCache) PutView(key cacheKey, v PlacementView) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	entry := &cacheEntry{
		key:     key,
		names:   append([]string(nil), v.names...),
		assigns: append([]sim.Assignment(nil), v.assigns...),
	}
	c.byKey[key] = c.order.PushFront(entry)
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached placements.
func (c *placementCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time view of the placement cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *placementCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}

// compiledShape bundles everything the fleet compiles once per cache key,
// an app on one churn epoch's cluster: the scheduler's cost model and the
// simulator's executor plan. Both are immutable and safe to share across the
// whole worker pool: a fleet simulates cold, so a run keeps its layer caches
// in the worker's own Exec and never writes the plan or the cluster behind
// it.
//
// That holds for a shape from the shared cache. A private shape is the
// other kind: compiled into one worker's recycled scratch on the fleet's
// first sight of its key (Fleet.shape), valid until that worker's next first
// sight, and so never cached or referenced from a Response. Nothing
// downstream tells the two kinds apart: the worker's one scheduling pass is
// retargeted at either, and its Exec runs either plan.
type compiledShape struct {
	model *costmodel.Model
	plan  *sim.Plan
}

// sharedModelCache is the fleet-wide two-level compiled-shape cache.
//
// The outer level holds app tables (appgraph.AppTable) — the validated DAG
// structure, topo order, stages, edge rows — keyed by app digest with a
// singleflight fill, so one app compiled against N churn epochs' clusters
// pays the DAG walks once instead of once per epoch. The cluster side needs
// no level: the fleet compiles its one cluster's table in New, and each churn
// epoch patches it. The inner level holds compiled shapes (cost model +
// simulator plan), read-mostly, sharded by key across independently locked
// shards so workers rarely contend, also singleflight-filled — the first
// worker to miss a key compiles (fused, over the app table and the epoch's
// cluster table) while every other worker asking for the same key blocks on
// that one compilation instead of redundantly compiling its own copy. Hot
// tenants therefore compile once per fleet, not once per worker.
//
// Admission to the inner level is by second sight: each shard keeps a small
// direct-mapped filter of key hashes, and a key that is neither cached nor
// in the filter is only remembered there — its caller compiles it privately
// (Fleet.shape) and nothing is inserted. At the edge most dataflows are seen
// once; they no longer cost a cache slot, an app-table slot and ~80 KB of
// retained tables each, nor evict the shapes that do return. A key that
// comes back while its hash survives in the filter is compiled fresh and
// shared exactly as before.
//
// Compiled tables, models, and plans are immutable and safe for concurrent
// ScheduleModel and Exec.Run calls, which is what makes sharing them across
// the pool sound; the churn epoch's key is half of every key, so a worker on
// another epoch can never be handed a stale shape, and churn purges nothing:
// an abandoned epoch's shapes age out through the FIFO bound, or serve warm
// when its key returns.
type sharedModelCache struct {
	shards []modelShard

	// App-table level, keyed by app digest, FIFO-bounded.
	appsMu   sync.Mutex
	apps     map[[sha256.Size]byte]*appEntry
	appOrder [][sha256.Size]byte

	hits       atomic.Int64
	misses     atomic.Int64
	compiles   atomic.Int64
	firstSight atomic.Int64

	appHits     atomic.Int64
	appMisses   atomic.Int64
	appCompiles atomic.Int64
}

// appEntry is a singleflight cell for one compiled app table.
type appEntry struct {
	once  sync.Once
	table *appgraph.AppTable
}

// appTableCap bounds the app-table level.
const appTableCap = 256

// modelShard is one lock domain: a FIFO-bounded map of fill entries and the
// second-sight filter in front of it.
type modelShard struct {
	mu       sync.Mutex
	capacity int
	byKey    map[cacheKey]*modelEntry
	order    []cacheKey
	// sighted[h%len] == h records that a key hashing to h missed here and
	// has not been overwritten by a later miss since. Direct-mapped and
	// fixed-size: a flood of one-shot keys can only forget other one-shot
	// keys, never grow.
	sighted [shapeFilterSlots / modelCacheShards]uint64
}

// modelEntry is a singleflight cell: once guards the one compilation, and
// shape is safe to read after once.Do returns.
type modelEntry struct {
	once  sync.Once
	shape compiledShape
}

// modelCacheShards balances lock contention against shard-capacity
// granularity.
const modelCacheShards = 8

// newSharedModelCache builds a cache holding up to capacity models across
// all shards (at least one per shard).
func newSharedModelCache(capacity int) *sharedModelCache {
	c := &sharedModelCache{shards: make([]modelShard, modelCacheShards)}
	per := capacity / modelCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = modelShard{
			capacity: per,
			byKey:    make(map[cacheKey]*modelEntry),
		}
	}
	c.apps = make(map[[sha256.Size]byte]*appEntry)
	return c
}

// appTableFor returns the compiled app table for the digest, running compile
// at most once per cached digest fleet-wide: concurrent callers for the same
// app all block on the first caller's compilation and share its result —
// the DAG walks run once even when workers compile the app against several
// churn epochs' clusters simultaneously.
func (c *sharedModelCache) appTableFor(ad [sha256.Size]byte, compile func() *appgraph.AppTable) *appgraph.AppTable {
	c.appsMu.Lock()
	e, ok := c.apps[ad]
	if !ok {
		e = &appEntry{}
		if len(c.appOrder) >= appTableCap {
			oldest := c.appOrder[0]
			c.appOrder = c.appOrder[1:]
			delete(c.apps, oldest)
		}
		c.apps[ad] = e
		c.appOrder = append(c.appOrder, ad)
	}
	c.appsMu.Unlock()
	if ok {
		c.appHits.Add(1)
	} else {
		c.appMisses.Add(1)
	}
	// Fill outside the lock: a slow app compilation never blocks lookups of
	// other apps, only callers of this digest.
	e.once.Do(func() {
		c.appCompiles.Add(1)
		e.table = compile()
	})
	return e.table
}

func (c *sharedModelCache) shard(key cacheKey) *modelShard {
	return &c.shards[key.word(0)%uint64(len(c.shards))]
}

// getOrCompile returns the compiled shape for the key, running compile at
// most once per cached key fleet-wide: concurrent callers for the same key
// all block on the first caller's compilation and share its result.
//
// seen is false on the first sight of a key: nothing was compiled or
// inserted, the key's hash was noted, and the caller compiles a private
// shape, app table included, for this one request — counted here, on its
// behalf, as one shape and one app table compiled outside every level.
func (c *sharedModelCache) getOrCompile(key cacheKey, compile func() compiledShape) (shape compiledShape, seen bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.byKey[key]
	if !ok {
		// The shard index took the key's first word; the filter takes the
		// next (never zero, the empty slot).
		h := key.word(1) | 1
		if slot := &sh.sighted[h%uint64(len(sh.sighted))]; *slot != h {
			*slot = h
			sh.mu.Unlock()
			c.misses.Add(1)
			c.firstSight.Add(1)
			c.compiles.Add(1)
			c.appMisses.Add(1)
			c.appCompiles.Add(1)
			return compiledShape{}, false
		}
		e = &modelEntry{}
		if len(sh.order) >= sh.capacity {
			oldest := sh.order[0]
			sh.order = sh.order[1:]
			delete(sh.byKey, oldest)
		}
		sh.byKey[key] = e
		sh.order = append(sh.order, key)
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	// Fill outside the shard lock: a slow compilation never blocks lookups
	// of other keys in the same shard, only callers of this key.
	e.once.Do(func() {
		c.compiles.Add(1)
		e.shape = compile()
	})
	return e.shape, true
}

// ModelCacheStats is a point-in-time view of the shared compiled-shape
// cache, both levels. A hit counts any lookup that found an existing entry,
// including one still being compiled by another worker (the caller waits
// instead of recompiling); Compiles counts actual compilations, so Misses ==
// Compiles means the singleflight never duplicated work. FirstSight counts
// the misses whose key was new to the second-sight filter: each was compiled
// into a worker's private scratch (counted in Compiles and AppCompiles like
// any other) and inserted nowhere, so Misses - FirstSight shapes were
// compiled to be shared.
// ClusterCompiles counts full cluster-table compiles: a fleet compiles its
// one cluster's table in New, so it stays at 1 (churn epochs patch it). The
// App* counters track the app-table level: with workers compiling one app
// against N epochs' clusters, AppCompiles stays at 1.
type ModelCacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Compiles int64 `json:"compiles"`
	Entries  int   `json:"entries"`

	FirstSight int64 `json:"first_sight"`

	ClusterCompiles int64 `json:"cluster_compiles"`

	AppHits     int64 `json:"app_hits"`
	AppMisses   int64 `json:"app_misses"`
	AppCompiles int64 `json:"app_compiles"`
	AppEntries  int   `json:"app_entries"`
}

// Stats snapshots the cache counters.
func (c *sharedModelCache) Stats() ModelCacheStats {
	s := ModelCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Compiles:    c.compiles.Load(),
		FirstSight:  c.firstSight.Load(),
		AppHits:     c.appHits.Load(),
		AppMisses:   c.appMisses.Load(),
		AppCompiles: c.appCompiles.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.byKey)
		sh.mu.Unlock()
	}
	c.appsMu.Lock()
	s.AppEntries = len(c.apps)
	c.appsMu.Unlock()
	return s
}
