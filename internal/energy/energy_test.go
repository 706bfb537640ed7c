package energy

import (
	"testing"

	"deep/internal/units"
)

func TestLinearModel(t *testing.T) {
	m := LinearModel{StaticW: 3, PullW: 2, ReceiveW: 1, ProcessingW: 20}
	cases := []struct {
		state State
		want  units.Watts
	}{
		{Idle, 3},
		{Pulling, 5},
		{Receiving, 4},
		{Processing, 23},
	}
	for _, c := range cases {
		if got := m.Power(c.state, "x"); got != c.want {
			t.Errorf("Power(%s) = %v, want %v", c.state, got, c.want)
		}
	}
}

func TestTableModelLookupAndFallback(t *testing.T) {
	m := TableModel{
		Fallback:  LinearModel{StaticW: 2, ProcessingW: 8},
		ProcessW:  map[string]units.Watts{"train": 40},
		TransferW: map[string]units.Watts{"train": 6},
	}
	if got := m.Power(Processing, "train"); got != 40 {
		t.Errorf("table process power = %v", got)
	}
	if got := m.Power(Pulling, "train"); got != 6 {
		t.Errorf("table transfer power = %v", got)
	}
	if got := m.Power(Processing, "unknown"); got != 10 {
		t.Errorf("fallback process power = %v", got)
	}
	if got := m.Power(Idle, "train"); got != 2 {
		t.Errorf("idle power = %v", got)
	}
}
