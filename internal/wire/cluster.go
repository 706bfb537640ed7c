package wire

import (
	"bytes"
	"fmt"
	"sort"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/netsim"
	"deep/internal/sim"
	"deep/internal/units"
)

// ClusterSpec is the wire form of the infrastructure a fleet runs against:
// devices, registries, the link topology, the external-input source node,
// and optional per-microservice image layer decompositions.
type ClusterSpec struct {
	Version    int                    `json:"version"`
	Devices    []DeviceSpec           `json:"devices"`
	Registries []RegistrySpec         `json:"registries,omitempty"`
	Nodes      []string               `json:"nodes,omitempty"`
	Links      []LinkSpec             `json:"links,omitempty"`
	SourceNode string                 `json:"source_node,omitempty"`
	Layers     map[string][]LayerSpec `json:"layers,omitempty"`
}

// DeviceSpec is the wire form of one edge device.
type DeviceSpec struct {
	Name         string    `json:"name"`
	Arch         string    `json:"arch"`
	Cores        int       `json:"cores"`
	SpeedMIPS    float64   `json:"speed_mips"`
	MemoryBytes  int64     `json:"memory_bytes"`
	StorageBytes int64     `json:"storage_bytes"`
	Power        PowerSpec `json:"power"`
}

// PowerSpec is the wire form of a device power model. Kind "linear" uses
// only the four state watts; kind "table" adds per-microservice processing
// and transfer draws with the linear fields as fallback.
type PowerSpec struct {
	Kind        string             `json:"kind"`
	StaticW     float64            `json:"static_w"`
	PullW       float64            `json:"pull_w,omitempty"`
	ReceiveW    float64            `json:"receive_w,omitempty"`
	ProcessingW float64            `json:"processing_w,omitempty"`
	ProcessW    map[string]float64 `json:"process_w,omitempty"`
	TransferW   map[string]float64 `json:"transfer_w,omitempty"`
}

// RegistrySpec is the wire form of one image registry.
type RegistrySpec struct {
	Name   string `json:"name"`
	Node   string `json:"node"`
	Shared bool   `json:"shared,omitempty"`
}

// LinkSpec is the wire form of one directed network channel.
type LinkSpec struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	BWBytesPerS float64 `json:"bw_bytes_per_s"`
	RTTSeconds  float64 `json:"rtt_seconds,omitempty"`
	Shared      bool    `json:"shared,omitempty"`
}

// LayerSpec is the wire form of one content-addressed image layer.
type LayerSpec struct {
	Digest    string `json:"digest"`
	SizeBytes int64  `json:"size_bytes"`
}

// DecodeClusterSpec parses a ClusterSpec from JSON, rejecting unknown fields,
// trailing data, and unsupported versions.
func DecodeClusterSpec(data []byte) (*ClusterSpec, error) {
	var s ClusterSpec
	if err := DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("wire: decoding cluster spec: %w", err)
	}
	if err := checkVersion("cluster", s.Version, ClusterSpecVersion); err != nil {
		return nil, err
	}
	return &s, nil
}

// Cluster materializes the spec as an in-memory cluster, building the
// topology and device handles.
func (s *ClusterSpec) Cluster() (*sim.Cluster, error) {
	if err := checkVersion("cluster", s.Version, ClusterSpecVersion); err != nil {
		return nil, err
	}
	if len(s.Devices) == 0 {
		return nil, fmt.Errorf("wire: cluster spec without devices")
	}
	topo := netsim.NewTopology()
	for _, n := range s.Nodes {
		topo.AddNode(n)
	}
	for _, l := range s.Links {
		topo.AddNode(l.From)
		topo.AddNode(l.To)
	}
	if s.SourceNode != "" {
		topo.AddNode(s.SourceNode)
	}
	devices := make([]*device.Device, 0, len(s.Devices))
	for i := range s.Devices {
		ds := &s.Devices[i]
		if ds.Name == "" {
			return nil, fmt.Errorf("wire: device %d without a name", i)
		}
		arch := dag.Arch(ds.Arch)
		if arch != dag.AMD64 && arch != dag.ARM64 {
			return nil, fmt.Errorf("wire: device %q: unknown architecture %q", ds.Name, ds.Arch)
		}
		pm, err := ds.Power.model()
		if err != nil {
			return nil, fmt.Errorf("wire: device %q: %w", ds.Name, err)
		}
		devices = append(devices, device.New(ds.Name, arch, ds.Cores, units.MIPS(ds.SpeedMIPS),
			units.Bytes(ds.MemoryBytes), units.Bytes(ds.StorageBytes), pm))
		topo.AddNode(ds.Name)
	}
	for _, rs := range s.Registries {
		if rs.Node == "" {
			return nil, fmt.Errorf("wire: registry %q without a node", rs.Name)
		}
		topo.AddNode(rs.Node)
	}
	for _, l := range s.Links {
		err := topo.AddLink(netsim.Link{
			From: l.From, To: l.To,
			BW:             units.Bandwidth(l.BWBytesPerS),
			RTT:            l.RTTSeconds,
			SharedCapacity: l.Shared,
		})
		if err != nil {
			return nil, fmt.Errorf("wire: link %s->%s: %w", l.From, l.To, err)
		}
	}
	c := &sim.Cluster{
		Devices:    devices,
		Topology:   topo,
		SourceNode: s.SourceNode,
	}
	for _, rs := range s.Registries {
		c.Registries = append(c.Registries, sim.RegistryInfo{Name: rs.Name, Node: rs.Node, Shared: rs.Shared})
	}
	if len(s.Layers) > 0 {
		c.Layers = make(map[string][]sim.Layer, len(s.Layers))
		for ms, ls := range s.Layers {
			rows := make([]sim.Layer, 0, len(ls))
			for _, l := range ls {
				rows = append(rows, sim.Layer{Digest: l.Digest, Size: units.Bytes(l.SizeBytes)})
			}
			c.Layers[ms] = rows
		}
	}
	return c, nil
}

// model materializes the power spec. A negative draw is refused: it makes
// energies negative, and a contended price could then fall below its solo
// price, which the scheduler's pure-equilibrium proof for pair stages rules
// out (sched's pairStage.bestPure).
func (p *PowerSpec) model() (energy.PowerModel, error) {
	var negative string
	switch {
	case p.StaticW < 0:
		negative = "static_w"
	case p.PullW < 0:
		negative = "pull_w"
	case p.ReceiveW < 0:
		negative = "receive_w"
	case p.ProcessingW < 0:
		negative = "processing_w"
	}
	if negative != "" {
		return nil, fmt.Errorf("negative %s", negative)
	}
	linear := energy.LinearModel{
		StaticW:     units.Watts(p.StaticW),
		PullW:       units.Watts(p.PullW),
		ReceiveW:    units.Watts(p.ReceiveW),
		ProcessingW: units.Watts(p.ProcessingW),
	}
	switch p.Kind {
	case "", "linear":
		return linear, nil
	case "table":
		tm := energy.TableModel{Fallback: linear}
		var err error
		if tm.ProcessW, err = drawTable("process_w", p.ProcessW); err != nil {
			return nil, err
		}
		if tm.TransferW, err = drawTable("transfer_w", p.TransferW); err != nil {
			return nil, err
		}
		return tm, nil
	default:
		return nil, fmt.Errorf("unknown power model kind %q (want linear|table)", p.Kind)
	}
}

// drawTable materializes a per-microservice draw table (nil when empty),
// refusing a negative entry by the smallest such microservice name, so the
// error is the same on every decode.
func drawTable(field string, table map[string]float64) (map[string]units.Watts, error) {
	if len(table) == 0 {
		return nil, nil
	}
	out := make(map[string]units.Watts, len(table))
	bad, found := "", false
	for k, v := range table {
		if v < 0 && (!found || k < bad) {
			bad, found = k, true
		}
		out[k] = units.Watts(v)
	}
	if found {
		return nil, fmt.Errorf("negative %s for microservice %q", field, bad)
	}
	return out, nil
}

// ClusterSpecOf encodes an in-memory cluster as its wire form, stamped with
// the current version. Power models must be the energy package's linear or
// table models — anything else (a custom PowerModel implementation) has no
// wire representation and errors. Links are enumerated deterministically in
// sorted (from, to) order.
func ClusterSpecOf(c *sim.Cluster) (*ClusterSpec, error) {
	s := &ClusterSpec{Version: ClusterSpecVersion, SourceNode: c.SourceNode}
	for _, d := range c.Devices {
		ps, err := powerSpecOf(d.Power)
		if err != nil {
			return nil, fmt.Errorf("wire: device %q: %w", d.Name, err)
		}
		s.Devices = append(s.Devices, DeviceSpec{
			Name:         d.Name,
			Arch:         string(d.Arch),
			Cores:        d.Cores,
			SpeedMIPS:    float64(d.Speed),
			MemoryBytes:  int64(d.Memory),
			StorageBytes: int64(d.Storage),
			Power:        ps,
		})
	}
	for _, r := range c.Registries {
		s.Registries = append(s.Registries, RegistrySpec{Name: r.Name, Node: r.Node, Shared: r.Shared})
	}
	if c.Topology != nil {
		nodes := c.Topology.Nodes() // already sorted
		s.Nodes = append(s.Nodes, nodes...)
		for _, a := range nodes {
			for _, b := range nodes {
				if a == b {
					continue
				}
				if l, ok := c.Topology.LinkBetween(a, b); ok {
					s.Links = append(s.Links, LinkSpec{
						From: a, To: b,
						BWBytesPerS: float64(l.BW),
						RTTSeconds:  l.RTT,
						Shared:      l.SharedCapacity,
					})
				}
			}
		}
	}
	if len(c.Layers) > 0 {
		s.Layers = make(map[string][]LayerSpec, len(c.Layers))
		names := make([]string, 0, len(c.Layers))
		for name := range c.Layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows := make([]LayerSpec, 0, len(c.Layers[name]))
			for _, l := range c.Layers[name] {
				rows = append(rows, LayerSpec{Digest: l.Digest, SizeBytes: int64(l.Size)})
			}
			s.Layers[name] = rows
		}
	}
	return s, nil
}

// powerSpecOf encodes the two energy-package model kinds.
func powerSpecOf(pm energy.PowerModel) (PowerSpec, error) {
	switch m := pm.(type) {
	case energy.LinearModel:
		return PowerSpec{
			Kind:        "linear",
			StaticW:     float64(m.StaticW),
			PullW:       float64(m.PullW),
			ReceiveW:    float64(m.ReceiveW),
			ProcessingW: float64(m.ProcessingW),
		}, nil
	case energy.TableModel:
		ps := PowerSpec{
			Kind:        "table",
			StaticW:     float64(m.Fallback.StaticW),
			PullW:       float64(m.Fallback.PullW),
			ReceiveW:    float64(m.Fallback.ReceiveW),
			ProcessingW: float64(m.Fallback.ProcessingW),
		}
		if len(m.ProcessW) > 0 {
			ps.ProcessW = make(map[string]float64, len(m.ProcessW))
			for k, v := range m.ProcessW {
				ps.ProcessW[k] = float64(v)
			}
		}
		if len(m.TransferW) > 0 {
			ps.TransferW = make(map[string]float64, len(m.TransferW))
			for k, v := range m.TransferW {
				ps.TransferW[k] = float64(v)
			}
		}
		return ps, nil
	default:
		return PowerSpec{}, fmt.Errorf("power model %T has no wire representation", pm)
	}
}
