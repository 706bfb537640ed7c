package device

import (
	"sync"

	"deep/internal/units"
)

// LayerCache is an LRU cache of container image layers keyed by digest, with
// byte-budget eviction. A warm cache is what makes repeated deployments
// cheap — one of the effects the registry-caching literature in the paper's
// related work targets.
//
// The recency list lives in a slice linked by index, with a free list for
// the slots evictions vacate, and Flush and Reset keep that slice and the
// index map: a cache that is emptied and refilled every run allocates
// nothing once it has held its largest fill.
type LayerCache struct {
	mu       sync.Mutex
	capacity units.Bytes
	used     units.Bytes
	index    map[string]int32
	nodes    []cacheNode
	// head is the most recently used node and tail the least; free heads
	// the chain of vacated slots. -1 ends every chain.
	head, tail, free int32
}

type cacheNode struct {
	digest     string
	size       units.Bytes
	prev, next int32
}

// NewLayerCache returns a cache with the given byte capacity.
func NewLayerCache(capacity units.Bytes) *LayerCache {
	return &LayerCache{
		capacity: capacity,
		index:    make(map[string]int32),
		head:     -1, tail: -1, free: -1,
	}
}

// Has reports whether the digest is cached, updating recency.
func (c *LayerCache) Has(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[digest]; ok {
		c.toFront(i)
		return true
	}
	return false
}

// Contains reports presence without touching recency.
func (c *LayerCache) Contains(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[digest]
	return ok
}

// Put inserts a layer, evicting least-recently-used layers as needed.
// Layers larger than the whole capacity are not cached; Put then returns
// false. Re-putting an existing digest refreshes recency.
func (c *LayerCache) Put(digest string, size units.Bytes) bool {
	if size < 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[digest]; ok {
		c.toFront(i)
		return true
	}
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		c.evictTail()
	}
	i := c.free
	if i >= 0 {
		c.free = c.nodes[i].next
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, cacheNode{})
	}
	c.nodes[i] = cacheNode{digest: digest, size: size, prev: -1, next: -1}
	c.pushFront(i)
	c.index[digest] = i
	c.used += size
	return true
}

// evictTail removes the least recently used entry; the caller holds the
// lock and has checked that the cache is not empty.
func (c *LayerCache) evictTail() {
	i := c.tail
	n := &c.nodes[i]
	c.unlink(i)
	delete(c.index, n.digest)
	c.used -= n.size
	*n = cacheNode{next: c.free}
	c.free = i
}

// toFront marks node i most recently used.
func (c *LayerCache) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *LayerCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *LayerCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Used returns the bytes currently cached.
func (c *LayerCache) Used() units.Bytes {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached layers.
func (c *LayerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Flush empties the cache.
func (c *LayerCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset(c.capacity)
}

// Reset empties the cache and sets its byte budget, keeping its storage.
func (c *LayerCache) Reset(capacity units.Bytes) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset(capacity)
}

func (c *LayerCache) reset(capacity units.Bytes) {
	c.capacity = capacity
	c.used = 0
	clear(c.index)
	clear(c.nodes) // drop the digests
	c.nodes = c.nodes[:0]
	c.head, c.tail, c.free = -1, -1, -1
}
