package wire

import (
	"bytes"
	"fmt"

	"deep/internal/dag"
	"deep/internal/units"
)

// AppSpec is the wire form of one dataflow application DAG.
type AppSpec struct {
	Version       int                `json:"version"`
	Name          string             `json:"name"`
	Microservices []MicroserviceSpec `json:"microservices"`
	Dataflows     []DataflowSpec     `json:"dataflows,omitempty"`
}

// MicroserviceSpec is the wire form of one DAG vertex.
type MicroserviceSpec struct {
	Name string `json:"name"`
	// ImageSizeBytes is the containerized image size.
	ImageSizeBytes int64 `json:"image_size_bytes"`
	// Images maps registry name to the image reference there.
	Images map[string]string `json:"images,omitempty"`
	// Resource requirements (the paper's req tuple).
	Cores        int     `json:"cores,omitempty"`
	CPUMI        float64 `json:"cpu_mi,omitempty"`
	MemoryBytes  int64   `json:"memory_bytes,omitempty"`
	StorageBytes int64   `json:"storage_bytes,omitempty"`
	// Arches lists the architectures the image is published for ("amd64",
	// "arm64"); empty means all.
	Arches []string `json:"arches,omitempty"`
	// ExternalInputBytes is data ingested from outside the DAG, delivered
	// from the cluster's source node.
	ExternalInputBytes int64 `json:"external_input_bytes,omitempty"`
}

// DataflowSpec is the wire form of one DAG edge.
type DataflowSpec struct {
	From      string `json:"from"`
	To        string `json:"to"`
	SizeBytes int64  `json:"size_bytes"`
}

// DecodeAppSpec parses an AppSpec from JSON, rejecting unknown fields,
// trailing data, and unsupported versions. It does not validate the graph —
// call App for that.
func DecodeAppSpec(data []byte) (*AppSpec, error) {
	var s AppSpec
	if err := DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("wire: decoding app spec: %w", err)
	}
	if err := checkVersion("app", s.Version, AppSpecVersion); err != nil {
		return nil, err
	}
	return &s, nil
}

// App materializes the spec as a validated in-memory DAG. Structural errors
// (duplicate names, dangling edges, cycles, disconnected graphs) surface
// with the dag package's own messages.
func (s *AppSpec) App() (*dag.App, error) {
	if err := checkVersion("app", s.Version, AppSpecVersion); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, fmt.Errorf("wire: app spec without a name")
	}
	app := dag.NewApp(s.Name)
	for i := range s.Microservices {
		ms := &s.Microservices[i]
		arches := make([]dag.Arch, 0, len(ms.Arches))
		for _, a := range ms.Arches {
			switch dag.Arch(a) {
			case dag.AMD64, dag.ARM64:
				arches = append(arches, dag.Arch(a))
			default:
				return nil, fmt.Errorf("wire: microservice %q: unknown architecture %q", ms.Name, a)
			}
		}
		var images map[string]string
		if len(ms.Images) > 0 {
			images = make(map[string]string, len(ms.Images))
			for k, v := range ms.Images {
				images[k] = v
			}
		}
		err := app.AddMicroservice(&dag.Microservice{
			Name:      ms.Name,
			ImageSize: units.Bytes(ms.ImageSizeBytes),
			Images:    images,
			Req: dag.Requirements{
				Cores:   ms.Cores,
				CPU:     units.MI(ms.CPUMI),
				Memory:  units.Bytes(ms.MemoryBytes),
				Storage: units.Bytes(ms.StorageBytes),
			},
			Arches:        arches,
			ExternalInput: units.Bytes(ms.ExternalInputBytes),
		})
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	for _, df := range s.Dataflows {
		if err := app.AddDataflow(df.From, df.To, units.Bytes(df.SizeBytes)); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return app, nil
}

// AppSpecOf encodes an in-memory DAG as its wire form, stamped with the
// current version. Microservices and dataflows keep their declaration
// order; image maps are copied (sorted rendering is json.Marshal's job).
func AppSpecOf(app *dag.App) *AppSpec {
	s := &AppSpec{
		Version:       AppSpecVersion,
		Name:          app.Name,
		Microservices: make([]MicroserviceSpec, 0, len(app.Microservices)),
	}
	for _, m := range app.Microservices {
		ms := MicroserviceSpec{
			Name:               m.Name,
			ImageSizeBytes:     int64(m.ImageSize),
			Cores:              m.Req.Cores,
			CPUMI:              float64(m.Req.CPU),
			MemoryBytes:        int64(m.Req.Memory),
			StorageBytes:       int64(m.Req.Storage),
			ExternalInputBytes: int64(m.ExternalInput),
		}
		if len(m.Images) > 0 {
			ms.Images = make(map[string]string, len(m.Images))
			for k, v := range m.Images {
				ms.Images[k] = v
			}
		}
		for _, a := range m.Arches {
			ms.Arches = append(ms.Arches, string(a))
		}
		s.Microservices = append(s.Microservices, ms)
	}
	for _, e := range app.Dataflows {
		s.Dataflows = append(s.Dataflows, DataflowSpec{From: e.From, To: e.To, SizeBytes: int64(e.Size)})
	}
	return s
}
