package sim

import (
	"slices"
	"sort"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/netsim"
	"deep/internal/units"
)

// Assignment places one microservice: which device executes it and which
// registry its image is deployed from — the paper's (sched(m_i),
// regist(m_i)) pair.
type Assignment struct {
	Device   string
	Registry string
}

// Placement maps every microservice of an application to its assignment.
type Placement map[string]Assignment

// Choice is an Assignment in compiled form: Device and Registry index a
// cluster table's device and registry tables. A placement in this form is a
// slice indexed by microservice id (Exec.RunChoices).
type Choice struct {
	Device   int32
	Registry int32
}

// RegistryInfo describes one image registry available to the cluster.
type RegistryInfo struct {
	Name string // e.g. "hub", "regional"
	Node string // topology node the registry is reachable at
	// Shared marks pulls from this registry as sharing its uplink capacity
	// (set for the regional registry's single server).
	Shared bool
}

// Layer is one content-addressed image layer.
type Layer struct {
	Digest string
	Size   units.Bytes
}

// Cluster bundles the infrastructure a simulation runs against.
type Cluster struct {
	Devices    []*device.Device
	Registries []RegistryInfo
	Topology   *netsim.Topology
	// SourceNode is the topology node external inputs (camera feeds, S3
	// datasets) are delivered from. Empty disables external inputs.
	SourceNode string
	// Layers optionally decomposes each microservice's image into layers
	// (keyed by microservice name). Microservices without an entry are
	// treated as a single layer covering the whole image. Layer digests
	// shared between images enable cache reuse.
	Layers map[string][]Layer
}

// Device returns the first device with the name, or nil.
func (c *Cluster) Device(name string) *device.Device {
	for _, d := range c.Devices {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Registry returns the first registry with the name and whether one exists.
func (c *Cluster) Registry(name string) (RegistryInfo, bool) {
	for _, r := range c.Registries {
		if r.Name == name {
			return r, true
		}
	}
	return RegistryInfo{}, false
}

// LayersOf returns the image layers of a microservice, defaulting to a
// single synthetic layer spanning the image.
func (c *Cluster) LayersOf(m *dag.Microservice) []Layer {
	if ls, ok := c.Layers[m.Name]; ok {
		return ls
	}
	return []Layer{defaultLayer(m)}
}

// defaultLayer is the synthetic layer of an image the cluster does not
// decompose: one layer spanning the image.
func defaultLayer(m *dag.Microservice) Layer {
	return Layer{Digest: "sha256:" + m.Name, Size: m.ImageSize}
}

// MicroserviceResult is the simulated outcome for one microservice: the
// paper's CT decomposition and energy.
type MicroserviceResult struct {
	Name     string
	Device   string
	Registry string

	DeployTime   float64 // T_d: image pull (0 on a warm cache)
	TransferTime float64 // T_c: input dataflow transmission
	ProcessTime  float64 // T_p: execution
	WaitTime     float64 // serialization delay behind other microservices
	CT           float64 // T_d + T_c + T_p (the paper's completion time)

	Start  float64 // virtual time the microservice's pipeline began
	Finish float64 // virtual time processing completed

	Energy      units.Joules // E_a: active energy over the CT phases
	StaticShare units.Joules // E_s: static-energy share attributed to CT

	BytesPulled units.Bytes // actual bytes downloaded (cache-aware)
	CacheHit    bool        // true when every layer was already cached
}

// TotalEnergy returns Ea + Es for the microservice.
func (r MicroserviceResult) TotalEnergy() units.Joules { return r.Energy + r.StaticShare }

// Result is the outcome of simulating one application run.
type Result struct {
	App           string
	Microservices []MicroserviceResult
	Makespan      float64

	// TotalEnergy is the paper's EC_total: the sum over microservices of
	// active plus attributed static energy.
	TotalEnergy units.Joules

	// EnergyByDevice reports each device's metered energy: one entry per
	// device of the cluster, in ascending name order.
	EnergyByDevice []DeviceEnergy

	// BytesFromRegistry aggregates downloaded bytes per registry: one
	// entry per registry the placement names, in ascending name order.
	BytesFromRegistry []RegistryBytes
}

// DeviceEnergy is one device's metered energy in a Result.
type DeviceEnergy struct {
	Device string
	Energy units.Joules
}

// RegistryBytes is what one registry served in a Result.
type RegistryBytes struct {
	Registry string
	Bytes    units.Bytes
}

// EnergyOf returns a device's metered energy, and whether the result has
// the device.
func (r *Result) EnergyOf(device string) (units.Joules, bool) {
	for _, e := range r.EnergyByDevice {
		if e.Device == device {
			return e.Energy, true
		}
	}
	return 0, false
}

// BytesFrom returns the bytes pulled from a registry: 0 for one the
// placement does not name.
func (r *Result) BytesFrom(registry string) units.Bytes {
	for _, b := range r.BytesFromRegistry {
		if b.Registry == registry {
			return b.Bytes
		}
	}
	return 0
}

// Clone returns a deep copy of the result. The compiled executor reuses its
// Result buffer across runs; callers that hand a result to another goroutine
// or keep it past the next run clone it first.
func (r *Result) Clone() *Result {
	c := *r
	c.Microservices = append([]MicroserviceResult(nil), r.Microservices...)
	c.EnergyByDevice = slices.Clone(r.EnergyByDevice)
	c.BytesFromRegistry = slices.Clone(r.BytesFromRegistry)
	return &c
}

// ByName returns the result row for a microservice and whether it exists.
func (r *Result) ByName(name string) (MicroserviceResult, bool) {
	for _, m := range r.Microservices {
		if m.Name == name {
			return m, true
		}
	}
	return MicroserviceResult{}, false
}

// Sorted returns the microservice results ordered by name.
func (r *Result) Sorted() []MicroserviceResult {
	out := make([]MicroserviceResult, len(r.Microservices))
	copy(out, r.Microservices)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
