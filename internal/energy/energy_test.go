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

// flatModel has no Draws method, so Draws asks it once per state.
type flatModel struct{}

func (flatModel) Power(state State, ms string) units.Watts { return units.Watts(len(state) + len(ms)) }

// TestDrawsMatchesPower: one Draws call gives what Power gives in the three
// active states, for each model with its own Draws and for one without.
func TestDrawsMatchesPower(t *testing.T) {
	table := TableModel{
		Fallback:  LinearModel{StaticW: 2.5, PullW: 0.3, ReceiveW: 0.7, ProcessingW: 8},
		ProcessW:  map[string]units.Watts{"train": 40, "both": 11},
		TransferW: map[string]units.Watts{"fetch": 6, "both": 3},
	}
	for _, m := range []PowerModel{table, LinearModel{StaticW: 3, PullW: 2, ReceiveW: 1, ProcessingW: 20}, flatModel{}} {
		for _, ms := range []string{"train", "fetch", "both", "other", ""} {
			pull, recv, proc := Draws(m, ms)
			if pull != m.Power(Pulling, ms) || recv != m.Power(Receiving, ms) || proc != m.Power(Processing, ms) {
				t.Errorf("%T %q: Draws = %v %v %v, Power = %v %v %v", m, ms, pull, recv, proc,
					m.Power(Pulling, ms), m.Power(Receiving, ms), m.Power(Processing, ms))
			}
		}
	}
}
