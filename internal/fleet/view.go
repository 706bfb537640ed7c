package fleet

import (
	"iter"
	"sort"

	"deep/internal/sim"
)

// PlacementView is a read-only indexed view of a placement: parallel
// sorted-name and assignment slices instead of a Go map. It is the form
// placements already take inside the memo (cacheEntry), so serving a cached
// placement shares the entry's immutable slices with the response instead of
// materializing a fresh map per request.
//
// A view delivered on a Response lives as long as the Response does (see
// Response): inside DoBatch's callback a miss's view is the worker's
// scratch, so Materialize it to keep the placement past the callback.
type PlacementView struct {
	names   []string
	assigns []sim.Assignment
}

// NewPlacementView compiles a placement map into its indexed view form. It
// allocates; the request path never calls it (tests and stub backends do).
func NewPlacementView(p sim.Placement) PlacementView {
	var v PlacementView
	v.names = make([]string, 0, len(p))
	for name := range p {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	v.assigns = make([]sim.Assignment, len(v.names))
	for i, name := range v.names {
		v.assigns[i] = p[name]
	}
	return v
}

// Len returns the number of placed microservices.
func (v PlacementView) Len() int { return len(v.names) }

// At returns the i-th (name, assignment) pair in sorted name order.
func (v PlacementView) At(i int) (string, sim.Assignment) {
	return v.names[i], v.assigns[i]
}

// Get returns the assignment for a microservice by binary search.
func (v PlacementView) Get(name string) (sim.Assignment, bool) {
	lo, hi := 0, len(v.names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.names) && v.names[lo] == name {
		return v.assigns[lo], true
	}
	return sim.Assignment{}, false
}

// All iterates the view in sorted name order.
func (v PlacementView) All() iter.Seq2[string, sim.Assignment] {
	return func(yield func(string, sim.Assignment) bool) {
		for i, name := range v.names {
			if !yield(name, v.assigns[i]) {
				return
			}
		}
	}
}

// Materialize rebuilds a caller-owned placement map from the view. Use it to
// keep a placement past DoBatch's callback.
func (v PlacementView) Materialize() sim.Placement {
	p := make(sim.Placement, len(v.names))
	for i, name := range v.names {
		p[name] = v.assigns[i]
	}
	return p
}

// sortedPlacement compiles a map into parallel name and assignment slices,
// ascending by name, reusing (and growing) the provided scratch: the
// alloc-free counterpart of NewPlacementView for schedulers that answer
// with a map. Names are insertion-sorted — placements are request-sized — so
// no sort closure allocates.
func sortedPlacement(p sim.Placement, names []string, assigns []sim.Assignment) ([]string, []sim.Assignment) {
	names = names[:0]
	for name := range p {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	assigns = assigns[:0]
	for _, name := range names {
		assigns = append(assigns, p[name])
	}
	return names, assigns
}
