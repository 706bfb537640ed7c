package units

import (
	"math"
	"testing"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1000, "1KB"},
		{1500, "1.5KB"},
		{5 * GB, "5GB"},
		{Bytes(5.78 * float64(GB)), "5.78GB"},
		{170 * MB, "170MB"},
		{2 * TB, "2TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBandwidthSeconds(t *testing.T) {
	if got := (10 * MBps).Seconds(100 * MB); math.Abs(got-10) > 1e-9 {
		t.Errorf("100MB over 10MB/s = %v, want 10s", got)
	}
	if got := Bandwidth(0).Seconds(1); !math.IsInf(got, 1) {
		t.Errorf("zero bandwidth should give +Inf, got %v", got)
	}
	if got := (10 * MBps).Seconds(0); got != 0 {
		t.Errorf("zero size should take 0s, got %v", got)
	}
	if got := (10 * MBps).Seconds(-5); got != 0 {
		t.Errorf("negative size should take 0s, got %v", got)
	}
}

func TestMIPSSeconds(t *testing.T) {
	if got := MIPS(1000).Seconds(MI(5000)); math.Abs(got-5) > 1e-9 {
		t.Errorf("5000MI at 1000MI/s = %v, want 5", got)
	}
	if got := MIPS(0).Seconds(MI(1)); !math.IsInf(got, 1) {
		t.Errorf("zero speed should give +Inf, got %v", got)
	}
	if got := MIPS(100).Seconds(0); got != 0 {
		t.Errorf("zero load should take 0s, got %v", got)
	}
}

func TestEnergy(t *testing.T) {
	e := Watts(10).Over(60)
	if e != 600 {
		t.Errorf("10W over 60s = %v, want 600J", e)
	}
	if e.Kilojoules() != 0.6 {
		t.Errorf("Kilojoules = %v, want 0.6", e.Kilojoules())
	}
	if got := Joules(18).String(); got != "18J" {
		t.Errorf("Joules(18).String() = %q", got)
	}
	if got := Joules(3264).String(); got != "3.26kJ" {
		t.Errorf("Joules(3264).String() = %q", got)
	}
	if got := Watts(10.5).String(); got != "10.5W" {
		t.Errorf("Watts(10.5).String() = %q", got)
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{25 * MBps, "25MB/s"},
		{1.5 * GBps, "1.5GB/s"},
		{800 * KBps, "800KB/s"},
		{500, "500B/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bandwidth(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}
