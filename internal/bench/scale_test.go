package bench

import (
	"strings"
	"testing"
)

func TestScaleSweep(t *testing.T) {
	rows, err := ScaleSweep([]int{4, 8, 16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeepEnergy <= 0 || r.RandomEnergy <= 0 {
			t.Errorf("n=%d: degenerate energies %+v", r.Microservices, r)
		}
		// DEEP must not lose to random placement.
		if r.DeepEnergy > r.RandomEnergy*1.001 {
			t.Errorf("n=%d: DEEP %.0f worse than random %.0f", r.Microservices, r.DeepEnergy, r.RandomEnergy)
		}
	}
	if out := FormatScaleSweep(rows); !strings.Contains(out, "saving") {
		t.Error("format broken")
	}
}
