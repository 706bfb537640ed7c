package fleet

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"deep/internal/appgraph"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/sim"
	"deep/internal/topo"
)

// Fingerprint is a canonical digest of a (application DAG, cluster,
// scheduler) triple. Two deployment requests with equal fingerprints are
// guaranteed to receive the same placement from any deterministic scheduler,
// which is what makes placements safe to memoize: the Nash best-response
// iteration converges to the same fixed point for identical inputs. It is a
// raw comparable digest (not hex text) so computing one on the per-request
// hot path allocates nothing.
type Fingerprint [sha256.Size]byte

// FingerprintOf computes the canonical fingerprint. Every input the
// schedulers read is folded into the digest — microservice requirements,
// image sizes, architectures, dataflow edges, device specs and power models,
// registries, topology links — so structurally identical requests collide
// (hit the cache) and any divergence, however small, does not.
func FingerprintOf(app *dag.App, cluster *sim.Cluster, scheduler string) Fingerprint {
	return DigestCluster(cluster).Fingerprint(app, scheduler)
}

// ClusterDigest is the precomputed canonical digest of one cluster. The
// cluster side of a fingerprint is by far its most expensive part (device
// power models, the topology link matrix) and is invariant for a churn
// epoch's whole lifetime, so the fleet digests its cluster once and each
// epoch derives its digest from that one.
type ClusterDigest []byte

// DigestCluster canonically digests a cluster.
func DigestCluster(c *sim.Cluster) ClusterDigest {
	h := sha256.New()
	writeClusterFingerprint(h, c)
	return ClusterDigest(h.Sum(nil))
}

// ModelKey digests only the inputs a compiled cost model depends on — the
// application and the cluster — so one compiled model serves every
// scheduler on the same request shape.
func (cd ClusterDigest) ModelKey(app *dag.App) Fingerprint {
	return cd.Fingerprint(app, "")
}

// Fingerprint combines the precomputed cluster digest with an application
// and scheduler name into the full cache key.
func (cd ClusterDigest) Fingerprint(app *dag.App, scheduler string) Fingerprint {
	return fingerprint(cd, app.Digest(), scheduler)
}

// fingerprint combines a cluster digest, an app digest (dag.App.Digest,
// memoized on the app), and a scheduler name into a cache key. Both inner
// digests are fixed-length, so the concatenation cannot realign. The record
// is built on the stack and hashed in one shot, so a request's two keys
// (model key and placement fingerprint) cost two short sha256 passes and no
// allocation.
func fingerprint(cd ClusterDigest, appDigest [sha256.Size]byte, scheduler string) Fingerprint {
	var rec [128]byte
	buf := append(rec[:0], "sched="...)
	buf = append(buf, scheduler...)
	buf = append(buf, '\n')
	buf = append(buf, cd...)
	buf = append(buf, appDigest[:]...)
	return sha256.Sum256(buf)
}

// quoted formats a name unambiguously for the (cold-path) cluster records.
func quoted(s string) string { return strconv.Quote(s) }

func writeClusterFingerprint(w io.Writer, c *sim.Cluster) {
	// Duplicate device and registry names are dropped before hashing,
	// keeping the first occurrence in declaration order — the entry the
	// compiled substrate (topo.ClusterTable, Cluster.Device/Registry
	// interning) resolves the name to. Digesting the losers too would let
	// two clusters with different winners collide (sorting the records
	// erases declaration order), handing a digest-keyed consumer a shared
	// table whose semantics differ from its own cluster's; digesting only
	// the winners makes digest equality coincide exactly with compiled
	// behavior.
	devices := make([]string, 0, len(c.Devices))
	devSeen := make(map[string]bool, len(c.Devices))
	for _, d := range c.Devices {
		if devSeen[d.Name] {
			continue
		}
		devSeen[d.Name] = true
		// Name plus class key: devices share a price class exactly when
		// their records differ only in the name. Names are quoted so
		// separator bytes inside them cannot realign records.
		devices = append(devices, "dev|"+quoted(d.Name)+"|"+d.ClassKey())
	}
	sort.Strings(devices)
	for _, d := range devices {
		fmt.Fprintln(w, d)
	}
	regs := make([]string, 0, len(c.Registries))
	regSeen := make(map[string]bool, len(c.Registries))
	for _, r := range c.Registries {
		if regSeen[r.Name] {
			continue
		}
		regSeen[r.Name] = true
		regs = append(regs, fmt.Sprintf("reg|%s|%s|%t", quoted(r.Name), quoted(r.Node), r.Shared))
	}
	sort.Strings(regs)
	for _, r := range regs {
		fmt.Fprintln(w, r)
	}
	nodes := c.Topology.Nodes() // already sorted
	for _, a := range nodes {
		for _, b := range nodes {
			if l, ok := c.Topology.LinkBetween(a, b); ok {
				fmt.Fprintf(w, "link|%s|%s|%s|%g|%t\n", quoted(a), quoted(b),
					strconv.FormatFloat(float64(l.BW), 'g', -1, 64), l.RTT, l.SharedCapacity)
			}
		}
	}
	fmt.Fprintf(w, "source|%s\n", quoted(c.SourceNode))
	for _, name := range sortedLayerKeys(c.Layers) {
		for _, l := range c.Layers[name] {
			fmt.Fprintf(w, "layer|%s|%s|%d\n", quoted(name), quoted(l.Digest), l.Size)
		}
	}
}

func sortedLayerKeys(m map[string][]sim.Layer) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// placementCache is a concurrency-safe LRU of memoized placements. Entries
// are stored in compiled form — parallel sorted-name and assignment slices
// rather than Go maps — so a cached placement is immutable by construction
// and a lookup shares the entry's slices with the caller instead of cloning a
// mutable map.
type placementCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[Fingerprint]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key Fingerprint
	// names (sorted) and assigns are parallel: the compiled, read-only form
	// of the memoized placement.
	names   []string
	assigns []sim.Assignment
}

// newPlacementCache returns an LRU holding up to capacity placements.
// capacity <= 0 disables caching entirely (every GetView misses, PutView is a
// no-op).
func newPlacementCache(capacity int) *placementCache {
	return &placementCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[Fingerprint]*list.Element),
	}
}

// GetView returns the memoized placement's compiled view, recording a hit or
// miss: the returned view aliases the entry's immutable slices, which stay
// valid even past eviction (evicting drops the cache's reference, never
// mutates the slices), so a hit costs zero allocations.
func (c *placementCache) GetView(key Fingerprint) (PlacementView, bool) {
	if c.capacity <= 0 {
		return PlacementView{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return PlacementView{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return PlacementView{names: e.names, assigns: e.assigns}, true
}

// PutView memoizes a placement, evicting the least recently used entry when
// full. The entry gets its own copies of the slices — a view handed in may
// alias request-pooled scratch, and entries must stay immutable for the
// lifetime of every view ever served from them.
func (c *placementCache) PutView(key Fingerprint, v PlacementView) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.names = append([]string(nil), v.names...)
		e.assigns = append([]sim.Assignment(nil), v.assigns...)
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

// InvalidateIf drops every entry whose compiled assignments satisfy pred and
// returns how many were dropped. ApplyChurn uses it to evict placements that
// reference newly crashed hardware; the scan is O(entries) but runs only on
// churn events, never on the request path.
func (c *placementCache) InvalidateIf(pred func(assigns []sim.Assignment) bool) int {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if pred(e.assigns) {
			c.order.Remove(el)
			delete(c.byKey, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// Remove drops one entry by key, reporting whether it existed. The request
// path uses it to purge a placement caught stale at the response gate.
func (c *placementCache) Remove(key Fingerprint) bool {
	if c.capacity <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.byKey, key)
	return true
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

// compiledShape bundles everything the fleet compiles once per (app,
// cluster) pair: the scheduler's cost model and the simulator's executor
// plan. Both are immutable and safe to share across the whole worker pool: a
// fleet simulates cold, so a run keeps its layer caches in the worker's own
// Exec and never writes the plan or the cluster behind it.
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

// sharedModelCache is the fleet-wide three-level compiled-shape cache.
//
// Two outer levels hold the two substrates. Cluster tables
// (topo.ClusterTable) — sorted name tables, interned devices, the dense link
// tables — are keyed by cluster digest with a singleflight fill, so N
// applications arriving on one cluster pay the O(devices²) topology scan
// once instead of once per (app, compiler). App tables (appgraph.AppTable) —
// the validated DAG structure, topo order, stages, edge rows — are keyed by
// app digest the same way, so N clusters × 1 app pay the DAG walks once
// instead of once per (cluster, compiler). The inner level holds compiled
// shapes (cost model + simulator plan), read-mostly, sharded by fingerprint
// across independently locked shards so workers rarely contend, also
// singleflight-filled — the first worker to miss a key compiles (fused, over
// the two shared substrates) while every other worker asking for the same
// key blocks on that one compilation instead of redundantly compiling its
// own copy. Hot tenants therefore compile once per fleet, not once per
// worker.
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
// the pool sound; cluster identity is part of every key (ModelKey folds the
// cluster digest in), so a worker on another churn epoch can never be handed
// a stale shape.
type sharedModelCache struct {
	shards []modelShard

	// Cluster-table level, keyed by raw cluster digest bytes. A fleet
	// compiles one (its cluster's, in New; churn epochs patch that table
	// instead), so one lock suffices; the FIFO bound only matters when
	// callers churn through reconfigured clusters.
	tablesMu   sync.Mutex
	tables     map[string]*tableEntry
	tableOrder []string

	// App-table level, keyed by app digest. Apps churn faster than clusters
	// (one per tenant shape), so the FIFO bound is wider.
	appsMu   sync.Mutex
	apps     map[Fingerprint]*appEntry
	appOrder []Fingerprint

	hits       atomic.Int64
	misses     atomic.Int64
	compiles   atomic.Int64
	firstSight atomic.Int64

	tableHits     atomic.Int64
	tableMisses   atomic.Int64
	tableCompiles atomic.Int64

	appHits     atomic.Int64
	appMisses   atomic.Int64
	appCompiles atomic.Int64
}

// tableEntry is a singleflight cell for one cluster table.
type tableEntry struct {
	once  sync.Once
	table *topo.ClusterTable
}

// clusterTableCap bounds the cluster-table level.
const clusterTableCap = 64

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
	byKey    map[Fingerprint]*modelEntry
	order    []Fingerprint
	// sighted[h%len] == h records that a key hashing to h missed here and
	// has not been overwritten by a later miss since. Direct-mapped and
	// fixed-size: a flood of one-shot keys can only forget other one-shot
	// keys, never grow.
	sighted [shapeFilterSlots / modelCacheShards]uint64
}

// modelEntry is a singleflight cell: once guards the one compilation, and
// shape is safe to read after once.Do returns. cd tags the entry with the
// cluster digest its key folded in (written once at insertion, under the
// shard lock) so churn-epoch hygiene can purge every shape of an abandoned
// epoch without being able to invert the fingerprint.
type modelEntry struct {
	once  sync.Once
	shape compiledShape
	cd    string
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
			byKey:    make(map[Fingerprint]*modelEntry),
		}
	}
	c.tables = make(map[string]*tableEntry)
	c.apps = make(map[Fingerprint]*appEntry)
	return c
}

// tableFor returns the compiled cluster table for the digest, running
// compile at most once per cached digest fleet-wide: concurrent callers for
// the same cluster all block on the first caller's compilation and share its
// result.
func (c *sharedModelCache) tableFor(cd ClusterDigest, compile func() *topo.ClusterTable) *topo.ClusterTable {
	key := string(cd)
	c.tablesMu.Lock()
	e, ok := c.tables[key]
	if !ok {
		e = &tableEntry{}
		if len(c.tableOrder) >= clusterTableCap {
			oldest := c.tableOrder[0]
			c.tableOrder = c.tableOrder[1:]
			delete(c.tables, oldest)
		}
		c.tables[key] = e
		c.tableOrder = append(c.tableOrder, key)
	}
	c.tablesMu.Unlock()
	if ok {
		c.tableHits.Add(1)
	} else {
		c.tableMisses.Add(1)
	}
	// Fill outside the lock: a slow table compilation never blocks lookups
	// of other clusters, only callers of this digest.
	e.once.Do(func() {
		c.tableCompiles.Add(1)
		e.table = compile()
	})
	return e.table
}

// appTableFor returns the compiled app table for the digest, running compile
// at most once per cached digest fleet-wide: concurrent callers for the same
// app all block on the first caller's compilation and share its result —
// the DAG walks run once even when workers compile the app against several
// churn epochs' clusters simultaneously.
func (c *sharedModelCache) appTableFor(ad Fingerprint, compile func() *appgraph.AppTable) *appgraph.AppTable {
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

func (c *sharedModelCache) shard(key Fingerprint) *modelShard {
	// Fingerprint is a raw sha256 digest, so any byte is uniform; fold the
	// first eight into the shard index.
	var h uint64
	for i := 0; i < 8; i++ {
		h = h<<8 | uint64(key[i])
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// getOrCompile returns the compiled shape for the key, running compile at
// most once per cached key fleet-wide: concurrent callers for the same key
// all block on the first caller's compilation and share its result. cd is
// the cluster digest the key folded in; it tags the entry for churn-epoch
// purging and costs an allocation only on insertion, never on a hit.
//
// seen is false on the first sight of a key: nothing was compiled or
// inserted, the key's hash was noted, and the caller compiles a private
// shape, app table included, for this one request — counted here, on its
// behalf, as one shape and one app table compiled outside every level.
func (c *sharedModelCache) getOrCompile(key Fingerprint, cd ClusterDigest, compile func() compiledShape) (shape compiledShape, seen bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.byKey[key]
	if !ok {
		// The shard index took the key's first eight bytes; the filter
		// takes the next eight (never zero, the empty slot).
		h := binary.LittleEndian.Uint64(key[8:16]) | 1
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
		e = &modelEntry{cd: string(cd)}
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

// purgeForCluster drops every compiled shape tagged with the given cluster
// digest and returns how many were dropped. ApplyChurn calls it when an epoch
// is abandoned (superseded or recovered from) so the dead epoch's shapes stop
// occupying cache slots until FIFO pressure happens to evict them. A caller
// already holding an entry keeps using it safely (entries are immutable after
// fill); a worker racing this purge on the old epoch may re-insert one stray
// shape, which the next purge or FIFO eviction reclaims — the stale-placement
// gate keeps it from ever serving a wrong answer.
func (c *sharedModelCache) purgeForCluster(cd ClusterDigest) int {
	if len(cd) == 0 {
		return 0
	}
	tag := string(cd)
	purged := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		kept := sh.order[:0]
		for _, k := range sh.order {
			if e, ok := sh.byKey[k]; ok && e.cd == tag {
				delete(sh.byKey, k)
				purged++
				continue
			}
			kept = append(kept, k)
		}
		sh.order = kept
		sh.mu.Unlock()
	}
	return purged
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
// The Cluster* counters track the cluster-table level the same way: a fleet
// compiles its one cluster's table in New, so ClusterCompiles stays at 1
// (churn epochs patch it). The App* counters track the app-table level: with
// workers compiling one app against N epochs' clusters, AppCompiles stays
// at 1.
type ModelCacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Compiles int64 `json:"compiles"`
	Entries  int   `json:"entries"`

	FirstSight int64 `json:"first_sight"`

	ClusterHits     int64 `json:"cluster_hits"`
	ClusterMisses   int64 `json:"cluster_misses"`
	ClusterCompiles int64 `json:"cluster_compiles"`
	ClusterEntries  int   `json:"cluster_entries"`

	AppHits     int64 `json:"app_hits"`
	AppMisses   int64 `json:"app_misses"`
	AppCompiles int64 `json:"app_compiles"`
	AppEntries  int   `json:"app_entries"`
}

// Stats snapshots the cache counters.
func (c *sharedModelCache) Stats() ModelCacheStats {
	s := ModelCacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Compiles:        c.compiles.Load(),
		FirstSight:      c.firstSight.Load(),
		ClusterHits:     c.tableHits.Load(),
		ClusterMisses:   c.tableMisses.Load(),
		ClusterCompiles: c.tableCompiles.Load(),
		AppHits:         c.appHits.Load(),
		AppMisses:       c.appMisses.Load(),
		AppCompiles:     c.appCompiles.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.byKey)
		sh.mu.Unlock()
	}
	c.tablesMu.Lock()
	s.ClusterEntries = len(c.tables)
	c.tablesMu.Unlock()
	c.appsMu.Lock()
	s.AppEntries = len(c.apps)
	c.appsMu.Unlock()
	return s
}
