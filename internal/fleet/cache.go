package fleet

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

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

// Stats snapshots the cache counters.
func (c *placementCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
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
