// Package clockring is the eviction policy of both caches on a deploy's
// path, the front door's spec table (wire.Interner) and the fleet's placement
// cache. Each splits into Shards shards, and each shard bounds its entries
// with one CLOCK (second-chance) ring: a hit marks its entry used under the
// shard's read lock, and only an insert, under the write lock, moves the
// hand. So a hit writes nothing shared but the bit, and only when it was
// clear, and an entry that keeps hitting survives a run of inserts that
// evicts its idle neighbours.
package clockring

import "sync/atomic"

// Shards is how many shards each table splits into.
const Shards = 8

// Used is an entry's referenced bit. Embed it in the type a Ring holds.
type Used struct{ b atomic.Bool }

// Mark records a reference. It stores only when the bit is clear, so the
// hits on a hot entry leave its cache line shared.
func (u *Used) Mark() {
	if !u.b.Load() {
		u.b.Store(true)
	}
}

func (u *Used) used() *Used { return u }

// Entry is what a Ring holds: a pointer to a type that embeds Used.
type Entry interface {
	comparable
	used() *Used
}

// Ring is one shard's ring of entries. Put must run under the shard's write
// lock; Mark may run under its read lock.
type Ring[E Entry] struct {
	slots []E
	hand  int
}

// New returns an empty ring of n slots; n must be positive.
func New[E Entry](n int) Ring[E] {
	return Ring[E]{slots: make([]E, n)}
}

// Put stores e in place of the first entry, from the hand on, not used since
// the hand last passed it, clearing the bits of those it passes, and returns
// that entry for the caller to drop from its index: the zero E while the ring
// is filling.
func (r *Ring[E]) Put(e E) (victim E) {
	var empty E
	for {
		victim = r.slots[r.hand]
		if victim == empty || !victim.used().b.Swap(false) {
			break
		}
		r.hand = (r.hand + 1) % len(r.slots)
	}
	r.slots[r.hand] = e
	r.hand = (r.hand + 1) % len(r.slots)
	return victim
}
