// Package device models the heterogeneous capacity-constrained edge devices
// of the paper's Section III-B: cores, processing speed in MI/s, memory,
// storage, an architecture, a power model, and a local image-layer cache.
package device

import (
	"fmt"
	"math"
	"reflect"

	"deep/internal/dag"
	"deep/internal/energy"
	"deep/internal/units"
)

// Device is one physical edge device d_j.
type Device struct {
	Name    string
	Arch    dag.Arch
	Cores   int
	Speed   units.MIPS  // CPU_j: effective millions of instructions per second
	Memory  units.Bytes // MEM_j
	Storage units.Bytes // STOR_j
	Power   energy.PowerModel

	cache *LayerCache
}

// New constructs a device with a layer cache sized to its storage.
func New(name string, arch dag.Arch, cores int, speed units.MIPS, mem, store units.Bytes, pm energy.PowerModel) *Device {
	return &Device{
		Name: name, Arch: arch, Cores: cores, Speed: speed,
		Memory: mem, Storage: store, Power: pm,
		cache: NewLayerCache(store),
	}
}

// Cache returns the device's image layer cache.
func (d *Device) Cache() *LayerCache { return d.cache }

// CanRun reports whether the device satisfies the microservice's
// architecture and static resource requirements.
func (d *Device) CanRun(m *dag.Microservice) error {
	if !m.SupportsArch(d.Arch) {
		return fmt.Errorf("device %s: %s has no %s image", d.Name, m.Name, d.Arch)
	}
	if m.Req.Cores > d.Cores {
		return fmt.Errorf("device %s: %s needs %d cores, have %d", d.Name, m.Name, m.Req.Cores, d.Cores)
	}
	if m.Req.Memory > d.Memory {
		return fmt.Errorf("device %s: %s needs %s memory, have %s", d.Name, m.Name, m.Req.Memory, d.Memory)
	}
	need := m.Req.Storage + m.ImageSize
	if need > d.Storage {
		return fmt.Errorf("device %s: %s needs %s storage, have %s", d.Name, m.Name, need, d.Storage)
	}
	return nil
}

// ProcessingTime returns T_p for the given load on this device.
func (d *Device) ProcessingTime(load units.MI) float64 {
	return d.Speed.Seconds(load)
}

// WithName renames the device in place and returns it, for building
// clusters that replicate a spec under distinct names.
func (d *Device) WithName(name string) *Device {
	d.Name = name
	return d
}

// ClassKey renders everything a compiled plan prices on this device — arch,
// cores, memory, storage, and exact speed and power model (%#v skips the
// units' rounding String methods) — as its cluster-digest record minus the
// name.
func (d *Device) ClassKey() string {
	return fmt.Sprintf("%s|%d|%v|%d|%d|%#v", d.Arch, d.Cores, float64(d.Speed), d.Memory, d.Storage, d.Power)
}

// SameClass reports d.ClassKey() == o.ClassKey(), rendering the keys only
// when the fields cannot decide (never, for devices cloned from one spec).
func (d *Device) SameClass(o *Device) bool {
	a, b := float64(d.Speed), float64(o.Speed)
	sameSpeed := math.Float64bits(a) == math.Float64bits(b)
	// Distinct floats render distinctly, -0 included, unless both are NaN.
	if d.Arch != o.Arch || d.Cores != o.Cores || d.Memory != o.Memory || d.Storage != o.Storage ||
		!sameSpeed && !(math.IsNaN(a) && math.IsNaN(b)) {
		return false
	}
	return sameSpeed && samePower(d.Power, o.Power) || d.ClassKey() == o.ClassKey()
}

// samePower reports bit-identical models sharing their maps: they render alike.
func samePower(a, b energy.PowerModel) bool {
	switch a := a.(type) {
	case energy.LinearModel:
		b, ok := b.(energy.LinearModel)
		return ok && sameBits(a.StaticW, b.StaticW) && sameBits(a.PullW, b.PullW) &&
			sameBits(a.ReceiveW, b.ReceiveW) && sameBits(a.ProcessingW, b.ProcessingW)
	case energy.TableModel:
		b, ok := b.(energy.TableModel)
		return ok && samePower(a.Fallback, b.Fallback) &&
			reflect.ValueOf(a.ProcessW).UnsafePointer() == reflect.ValueOf(b.ProcessW).UnsafePointer() &&
			reflect.ValueOf(a.TransferW).UnsafePointer() == reflect.ValueOf(b.TransferW).UnsafePointer()
	}
	return false
}

func sameBits(a, b units.Watts) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// String renders the device spec.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s, %d cores, %.0f MI/s, %s mem, %s storage)",
		d.Name, d.Arch, d.Cores, float64(d.Speed), d.Memory, d.Storage)
}

// Calibrated testbed devices. Speeds and power are calibrated so the
// simulator lands inside the paper's Table II ranges (see
// internal/workload/calibration.go for the derivation).

// MediumIntelSpec describes the paper's medium device: an 8-core Intel
// i7-7700 with 16 GB memory and 64 GB storage.
func MediumIntelSpec(pm energy.PowerModel) *Device {
	return New("medium", dag.AMD64, 8, 30000, 16*units.GB, 64*units.GB, pm)
}

// SmallARMSpec describes the paper's small device: a 4-core Raspberry Pi 4
// with 8 GB memory and 32 GB storage.
func SmallARMSpec(pm energy.PowerModel) *Device {
	return New("small", dag.ARM64, 4, 10000, 8*units.GB, 32*units.GB, pm)
}
