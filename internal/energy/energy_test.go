package energy

import (
	"math"
	"sync"
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

func TestMeterIntegration(t *testing.T) {
	m := NewMeter(LinearModel{StaticW: 2, ProcessingW: 8})
	e, err := m.Record(0, 10, Processing, "ms1")
	if err != nil {
		t.Fatal(err)
	}
	if e != 100 { // (2+8) W * 10 s
		t.Errorf("interval energy = %v, want 100J", e)
	}
	if _, err := m.Record(10, 5, Idle, ""); err != nil {
		t.Fatal(err)
	}
	if got := m.Total(); got != 110 {
		t.Errorf("total = %v, want 110J", got)
	}
}

func TestMeterNegativeDuration(t *testing.T) {
	m := NewMeter(LinearModel{})
	if _, err := m.Record(0, -1, Idle, ""); err == nil {
		t.Error("negative duration should error")
	}
}

func TestMeterConcurrentSafety(t *testing.T) {
	m := NewMeter(LinearModel{StaticW: 1})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = m.Record(float64(i), 1, Processing, "ms")
		}(i)
	}
	wg.Wait()
	if got := m.Total(); math.Abs(float64(got)-50) > 1e-9 {
		t.Errorf("concurrent total = %v, want 50", got)
	}
}
