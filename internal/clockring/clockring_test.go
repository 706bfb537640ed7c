package clockring

import "testing"

type entry struct {
	Used
	name string
}

// TestPutSecondChance: while the ring fills, Put evicts nothing; once it is
// full, the hand passes over a used entry, clearing its bit, and replaces
// the first unused one.
func TestPutSecondChance(t *testing.T) {
	r := New[*entry](3)
	a, b, c, d, e := &entry{name: "a"}, &entry{name: "b"}, &entry{name: "c"}, &entry{name: "d"}, &entry{name: "e"}
	for _, x := range []*entry{a, b, c} {
		if v := r.Put(x); v != nil {
			t.Fatalf("filling ring evicted %s", v.name)
		}
	}
	a.Mark()
	b.Mark()
	if v := r.Put(d); v != c {
		t.Fatalf("evicted %v, want c, the first entry not used", v)
	}
	if a.used().b.Load() || b.used().b.Load() {
		t.Fatal("the hand passed a used entry without clearing its bit")
	}
	// The hand is on a, unused since it passed: a goes next.
	if v := r.Put(e); v != a {
		t.Fatalf("evicted %v, want a after its second chance", v)
	}
}
