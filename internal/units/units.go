// Package units provides the physical and information-theoretic quantities
// used throughout DEEP: byte sizes, bandwidths, processing loads (millions of
// instructions), processing speeds, power, and energy. All quantities are
// strongly typed so that a bandwidth cannot be confused with a size, and all
// support human-readable formatting.
package units

import (
	"math"
	"strconv"
	"strings"
)

// Bytes is a size in bytes.
type Bytes int64

// Common byte sizes.
const (
	Byte Bytes = 1
	KB         = 1000 * Byte
	MB         = 1000 * KB
	GB         = 1000 * MB
	TB         = 1000 * GB

	KiB = 1024 * Byte
	MiB = 1024 * KiB
	GiB = 1024 * MiB
)

// String formats the size with an adaptive decimal unit.
func (b Bytes) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= TB:
		return trimFloat(float64(b)/float64(TB)) + "TB"
	case abs >= GB:
		return trimFloat(float64(b)/float64(GB)) + "GB"
	case abs >= MB:
		return trimFloat(float64(b)/float64(MB)) + "MB"
	case abs >= KB:
		return trimFloat(float64(b)/float64(KB)) + "KB"
	}
	return strconv.FormatInt(int64(b), 10) + "B"
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// Common bandwidths.
const (
	BytePerSecond Bandwidth = 1
	KBps                    = 1000 * BytePerSecond
	MBps                    = 1000 * KBps
	GBps                    = 1000 * MBps
)

// Seconds returns the time, in seconds, to transfer size at bandwidth bw.
// Transferring anything over a zero or negative bandwidth yields +Inf.
func (bw Bandwidth) Seconds(size Bytes) float64 {
	if size <= 0 {
		return 0
	}
	if bw <= 0 {
		return math.Inf(1)
	}
	return float64(size) / float64(bw)
}

// String formats the bandwidth with an adaptive unit.
func (bw Bandwidth) String() string {
	switch {
	case bw >= GBps:
		return trimFloat(float64(bw/GBps)) + "GB/s"
	case bw >= MBps:
		return trimFloat(float64(bw/MBps)) + "MB/s"
	case bw >= KBps:
		return trimFloat(float64(bw/KBps)) + "KB/s"
	}
	return trimFloat(float64(bw)) + "B/s"
}

// MI is a processing load in millions of instructions, the unit the paper
// uses for CPU(m_i).
type MI float64

// MIPS is a processing speed in millions of instructions per second, the
// unit the paper uses for device speed CPU_j.
type MIPS float64

// Seconds returns the time, in seconds, to process load mi at speed s.
func (s MIPS) Seconds(mi MI) float64 {
	if mi <= 0 {
		return 0
	}
	if s <= 0 {
		return math.Inf(1)
	}
	return float64(mi) / float64(s)
}

// Watts is instantaneous power.
type Watts float64

// Joules is energy.
type Joules float64

// Kilojoules returns the energy in kJ.
func (j Joules) Kilojoules() float64 { return float64(j) / 1000 }

// String formats energy in J or kJ.
func (j Joules) String() string {
	if math.Abs(float64(j)) >= 1000 {
		return trimFloat(float64(j)/1000) + "kJ"
	}
	return trimFloat(float64(j)) + "J"
}

// Over returns the energy consumed by drawing power w for d seconds.
func (w Watts) Over(seconds float64) Joules {
	return Joules(float64(w) * seconds)
}

// String formats power.
func (w Watts) String() string { return trimFloat(float64(w)) + "W" }
