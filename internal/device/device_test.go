package device

import (
	"math"
	"testing"

	"deep/internal/dag"
	"deep/internal/energy"
	"deep/internal/units"
)

func testDevice() *Device {
	return New("d0", dag.AMD64, 4, 1000, 8*units.GB, 32*units.GB, energy.LinearModel{StaticW: 2})
}

func TestCanRun(t *testing.T) {
	d := testDevice()
	ok := &dag.Microservice{Name: "m", ImageSize: units.GB, Req: dag.Requirements{Cores: 2, Memory: units.GB, Storage: units.GB}}
	if err := d.CanRun(ok); err != nil {
		t.Errorf("CanRun(ok): %v", err)
	}
	cases := []*dag.Microservice{
		{Name: "arch", Arches: []dag.Arch{dag.ARM64}},
		{Name: "cores", Req: dag.Requirements{Cores: 8}},
		{Name: "mem", Req: dag.Requirements{Memory: 16 * units.GB}},
		{Name: "store", ImageSize: 20 * units.GB, Req: dag.Requirements{Storage: 20 * units.GB}},
	}
	for _, m := range cases {
		if err := d.CanRun(m); err == nil {
			t.Errorf("CanRun(%s) should fail", m.Name)
		}
	}
}

// TestClassKey: the key ignores the name and nothing a plan prices —
// exact speed and exact power draws included.
func TestClassKey(t *testing.T) {
	base := testDevice().ClassKey()
	if got := testDevice().WithName("other").ClassKey(); got != base {
		t.Errorf("renamed device changed class key: %q vs %q", got, base)
	}
	for name, mutate := range map[string]func(*Device){
		"arch":      func(d *Device) { d.Arch = dag.ARM64 },
		"cores":     func(d *Device) { d.Cores++ },
		"speed":     func(d *Device) { d.Speed += 0.25 },
		"memory":    func(d *Device) { d.Memory++ },
		"storage":   func(d *Device) { d.Storage++ },
		"power":     func(d *Device) { d.Power = energy.LinearModel{StaticW: 2, PullW: 1} },
		"milliwatt": func(d *Device) { d.Power = energy.LinearModel{StaticW: 2.001} },
	} {
		d := testDevice()
		mutate(d)
		if d.ClassKey() == base {
			t.Errorf("%s change kept the class key %q", name, base)
		}
	}
}

// TestSameClass: SameClass is exactly class-key equality — signed zeros,
// NaN payloads and equal-content maps included — and devices sharing one
// spec's power model are compared without rendering a key.
func TestSameClass(t *testing.T) {
	table := func(proc units.Watts) energy.TableModel {
		return energy.TableModel{
			Fallback: energy.LinearModel{StaticW: 2, ProcessingW: 3},
			ProcessW: map[string]units.Watts{"a": proc, "b": 4},
		}
	}
	shared := table(5)
	withPower := func(pm energy.PowerModel) *Device {
		d := testDevice()
		d.Power = pm
		return d
	}
	withSpeed := func(bits uint64) *Device {
		d := testDevice()
		d.Speed = units.MIPS(math.Float64frombits(bits))
		return d
	}
	devs := []*Device{
		testDevice(), testDevice().WithName("other"),
		withPower(shared), withPower(shared), withPower(table(5)), withPower(table(6)),
		withPower(energy.LinearModel{StaticW: 0}), withPower(energy.LinearModel{StaticW: units.Watts(math.Copysign(0, -1))}),
		withSpeed(0x7ff8000000000001), withSpeed(0x7ff8000000000002),
		withSpeed(0), withSpeed(1 << 63),
	}
	for i, a := range devs {
		for j, b := range devs {
			if got, want := a.SameClass(b), a.ClassKey() == b.ClassKey(); got != want {
				t.Errorf("devices %d, %d: SameClass = %v, keys %q vs %q", i, j, got, a.ClassKey(), b.ClassKey())
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { devs[2].SameClass(devs[3]) }); n != 0 {
		t.Errorf("SameClass on a shared power model allocated %v times: it rendered keys", n)
	}
}

func TestProcessingTime(t *testing.T) {
	d := testDevice() // 1000 MI/s
	if got := d.ProcessingTime(5000); got != 5 {
		t.Errorf("ProcessingTime = %v, want 5", got)
	}
}

func TestSpecConstructors(t *testing.T) {
	pm := energy.LinearModel{StaticW: 1}
	med := MediumIntelSpec(pm)
	if med.Arch != dag.AMD64 || med.Cores != 8 || med.Memory != 16*units.GB {
		t.Errorf("medium spec wrong: %v", med)
	}
	small := SmallARMSpec(pm)
	if small.Arch != dag.ARM64 || small.Cores != 4 || small.Storage != 32*units.GB {
		t.Errorf("small spec wrong: %v", small)
	}
	if small.Speed >= med.Speed {
		t.Error("small device should be slower than medium")
	}
}

func TestLayerCacheBasics(t *testing.T) {
	c := NewLayerCache(100)
	if c.Has("a") {
		t.Error("empty cache should miss")
	}
	if !c.Put("a", 40) {
		t.Fatal("put failed")
	}
	if !c.Has("a") {
		t.Error("should hit after put")
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Errorf("used=%v len=%v", c.Used(), c.Len())
	}
}

func TestLayerCacheEviction(t *testing.T) {
	c := NewLayerCache(100)
	c.Put("a", 40)
	c.Put("b", 40)
	c.Has("a") // make a most-recent
	if !c.Put("c", 40) {
		t.Fatal("put c failed")
	}
	// b was LRU and must have been evicted.
	if c.Contains("b") {
		t.Error("b should be evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Error("a and c should remain")
	}
	if c.Used() > c.capacity {
		t.Errorf("used %v exceeds capacity %v", c.Used(), c.capacity)
	}
}

func TestLayerCacheOversized(t *testing.T) {
	c := NewLayerCache(10)
	if c.Put("big", 11) {
		t.Error("oversized layer should not cache")
	}
	if c.Put("neg", -1) {
		t.Error("negative size should not cache")
	}
}

func TestLayerCacheRePutRefreshes(t *testing.T) {
	c := NewLayerCache(100)
	c.Put("a", 50)
	c.Put("b", 50)
	c.Put("a", 50) // refresh recency; no size change
	if c.Used() != 100 {
		t.Errorf("used = %v", c.Used())
	}
	c.Put("c", 50) // should evict b, not a
	if !c.Contains("a") || c.Contains("b") {
		t.Error("refresh did not update recency")
	}
}

func TestLayerCacheFlush(t *testing.T) {
	c := NewLayerCache(100)
	c.Put("a", 10)
	c.Flush()
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("flush did not clear")
	}
}

func TestLayerCacheInvariantNeverOverCapacity(t *testing.T) {
	c := NewLayerCache(1000)
	for i := 0; i < 500; i++ {
		d := string(rune('a'+i%26)) + string(rune('0'+i%10))
		c.Put(d, units.Bytes(50+i%200))
		if c.Used() > c.capacity {
			t.Fatalf("iteration %d: used %v > capacity %v", i, c.Used(), c.capacity)
		}
	}
}

// TestLayerCacheMatchesReferenceLRU drives the index-linked cache and a
// plain recency-ordered slice through one random sequence of lookups,
// inserts and flushes: contents, byte use and eviction order must agree at
// every step, so vacated slots reused from the free list never corrupt the
// recency chain.
func TestLayerCacheMatchesReferenceLRU(t *testing.T) {
	type ref struct {
		digest string
		size   units.Bytes
	}
	var lru []ref // front = most recent
	var used units.Bytes
	const capacity = 300
	find := func(d string) int {
		for i, e := range lru {
			if e.digest == d {
				return i
			}
		}
		return -1
	}
	touch := func(i int) {
		e := lru[i]
		lru = append(lru[:i], lru[i+1:]...)
		lru = append([]ref{e}, lru...)
	}

	c := NewLayerCache(capacity)
	rng := uint64(7)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 5000; step++ {
		d := string(rune('a' + next(12)))
		switch op := next(10); {
		case op < 4:
			want := find(d) >= 0
			if want {
				touch(find(d))
			}
			if got := c.Has(d); got != want {
				t.Fatalf("step %d: Has(%s) = %v, want %v", step, d, got, want)
			}
		case op < 9:
			size := units.Bytes(10 + next(120))
			if i := find(d); i >= 0 {
				touch(i)
			} else {
				for used+size > capacity {
					used -= lru[len(lru)-1].size
					lru = lru[:len(lru)-1]
				}
				lru = append([]ref{{d, size}}, lru...)
				used += size
			}
			if !c.Put(d, size) {
				t.Fatalf("step %d: Put(%s, %d) refused", step, d, size)
			}
		default:
			lru, used = lru[:0], 0
			c.Flush()
		}
		if c.Used() != used || c.Len() != len(lru) {
			t.Fatalf("step %d: used=%v len=%d, want %v and %d", step, c.Used(), c.Len(), used, len(lru))
		}
		for _, e := range lru {
			if !c.Contains(e.digest) {
				t.Fatalf("step %d: %s evicted out of LRU order", step, e.digest)
			}
		}
	}
}

// TestLayerCacheRefillAllocationFree: Reset keeps the cache's storage, so
// emptying it and refilling it to the same shape allocates nothing — what a
// cold simulation run does with each device's scratch cache.
func TestLayerCacheRefillAllocationFree(t *testing.T) {
	c := NewLayerCache(0)
	digests := []string{"a", "b", "c", "d", "e", "f"}
	fill := func() {
		c.Reset(100)
		for _, d := range digests {
			if !c.Has(d) {
				c.Put(d, 30) // evicts as it goes: 3 fit
			}
		}
	}
	fill()
	if c.capacity != 100 || c.Len() != 3 || !c.Contains("f") || c.Contains("a") {
		t.Fatalf("refill: capacity %v, %d entries", c.capacity, c.Len())
	}
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("Reset and refill allocate %v times, want 0", n)
	}
}
