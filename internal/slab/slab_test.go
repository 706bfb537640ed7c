package slab

import "testing"

// sameBacking reports whether a is a window onto b's backing array.
func sameBacking[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	b = b[:cap(b)]
	for i := range b {
		if &b[i] == &a[0] {
			return true
		}
	}
	return false
}

func TestGrow(t *testing.T) {
	s := make([]int, 3, 8)
	s[0], s[1], s[2] = 1, 2, 3
	if g := Grow(s, 6); len(g) != 6 || !sameBacking(g, s) {
		t.Errorf("Grow within capacity: len %d, same backing %v; want a reslice to 6", len(g), sameBacking(g, s))
	}
	if g := Grow(s, 2); len(g) != 2 || !sameBacking(g, s) {
		t.Errorf("Grow to a shorter length: len %d, want a reslice to 2", len(g))
	}
	g := Grow(s, 9)
	if len(g) != 9 || sameBacking(g, s) {
		t.Fatalf("Grow past capacity: len %d, same backing %v; want a new slice of 9", len(g), sameBacking(g, s))
	}
	for i, v := range g {
		if v != 0 {
			t.Errorf("reallocated element %d = %d, want zero", i, v)
		}
	}
	if g := Grow([]int(nil), 0); len(g) != 0 {
		t.Errorf("Grow(nil, 0) has len %d", len(g))
	}
}

func TestCut(t *testing.T) {
	var s Slab[int]
	if got := s.Cut(0); got != nil {
		t.Errorf("Cut(0) on the zero slab = %v, want nil", got)
	}
	s.Reset(10)
	a, empty, b := s.Cut(4), s.Cut(0), s.Cut(6)
	if len(a) != 4 || cap(a) != 4 || len(b) != 6 || cap(b) != 6 {
		t.Fatalf("cuts are %d/%d and %d/%d (len/cap), want len == cap", len(a), cap(a), len(b), cap(b))
	}
	if empty != nil {
		t.Errorf("Cut(0) on a sized slab = %v, want nil", empty)
	}
	if len(s.Rest()) != 0 {
		t.Errorf("%d elements left after cutting all 10", len(s.Rest()))
	}
	// Neighbours are adjacent, and appending to one moves it off the slab
	// instead of overwriting the next.
	for i := range b {
		b[i] = 7
	}
	if &a[0] != &s.buf[0] || &b[0] != &s.buf[4] {
		t.Fatal("cuts are not back to back on the slab")
	}
	_ = append(a, 99)
	if b[0] != 7 {
		t.Errorf("append to a cut overwrote its neighbour: b[0] = %d", b[0])
	}

	// Cutting more than Reset made available panics; it never reallocates
	// behind the caller's back.
	defer func() {
		if recover() == nil {
			t.Error("over-cut did not panic")
		}
	}()
	s.Reset(3)
	s.Cut(2)
	s.Cut(2)
}

func TestResetRecycles(t *testing.T) {
	var s Slab[int]
	s.Reset(8)
	first := s.Cut(8)
	first[0] = 42

	s.Reset(5) // smaller: same backing, earlier cuts are invalidated, not zeroed
	again := s.Cut(5)
	if !sameBacking(again, first) || again[0] != 42 {
		t.Errorf("a smaller Reset did not recycle the backing (same %v, stale value %d)", sameBacking(again, first), again[0])
	}
	if allocs := testing.AllocsPerRun(20, func() {
		s.Reset(8)
		s.Cut(3)
		s.Cut(5)
	}); allocs != 0 {
		t.Errorf("Reset + Cut within capacity allocate %.1f objects", allocs)
	}

	s.Reset(20) // larger: a new backing
	if grown := s.Cut(20); sameBacking(grown, first) {
		t.Error("a larger Reset kept the old backing")
	}
}

// TestRestAppendCut pins the idiom for rows whose length is known only once
// built: append to Rest()[:0], then Cut what was appended. The rows must land
// inside the slab, back to back.
func TestRestAppendCut(t *testing.T) {
	var s Slab[int]
	s.Reset(6)
	build := func(vals ...int) []int {
		row := s.Rest()[:0]
		row = append(row, vals...)
		return s.Cut(len(row))
	}
	r1 := build(1, 2, 3)
	r2 := build()
	r3 := build(4, 5)
	if r2 != nil {
		t.Errorf("an empty row is %v, want nil", r2)
	}
	for _, c := range []struct {
		row  []int
		at   int
		want []int
	}{{r1, 0, []int{1, 2, 3}}, {r3, 3, []int{4, 5}}} {
		if len(c.row) != len(c.want) || cap(c.row) != len(c.want) {
			t.Fatalf("row %v has len %d cap %d, want %d", c.row, len(c.row), cap(c.row), len(c.want))
		}
		if &c.row[0] != &s.buf[c.at] {
			t.Errorf("row %v is not at slab offset %d", c.row, c.at)
		}
		for i, v := range c.want {
			if c.row[i] != v {
				t.Errorf("row at offset %d = %v, want %v", c.at, c.row, c.want)
			}
		}
	}
	if len(s.Rest()) != 1 {
		t.Errorf("%d elements left, want 1", len(s.Rest()))
	}
}
