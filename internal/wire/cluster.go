package wire

import (
	"fmt"
	"sort"

	"deep/internal/energy"
	"deep/internal/sim"
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
