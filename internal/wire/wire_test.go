package wire_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/device"
	"deep/internal/energy"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/wire"
	"deep/internal/workload"
)

// appCorpus is the app round-trip corpus: the two case-study applications
// and a spread of generated ones, from a single vertex up to 40.
func appCorpus(tb testing.TB) []*dag.App {
	tb.Helper()
	apps := workload.Apps()
	for _, n := range []int{1, 2, 5, 9, 16, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
			if err != nil {
				tb.Fatal(err)
			}
			apps = append(apps, app)
		}
	}
	return apps
}

// appBody marshals an app's wire spec, as a client would send it.
func appBody(tb testing.TB, app *dag.App) []byte {
	tb.Helper()
	raw, err := json.Marshal(wire.AppSpecOf(app))
	if err != nil {
		tb.Fatalf("%s: marshal: %v", app.Name, err)
	}
	return raw
}

// TestAppRoundTripDigest pins the decoupling contract: an app encoded to the
// wire and decoded back hashes to the same canonical digest as the original,
// so wire-submitted requests share every digest-keyed cache with in-process
// traffic.
func TestAppRoundTripDigest(t *testing.T) {
	for _, orig := range appCorpus(t) {
		app, err := fresh(appBody(t, orig))
		if err != nil {
			t.Fatalf("%s: decode: %v", orig.Name, err)
		}
		if app.Digest() != orig.Digest() {
			t.Errorf("%s: wire round trip changed the canonical app digest", orig.Name)
		}
	}
}

// TestClusterSpecOfMatchesCluster pins the encoder behind GET /v1/cluster:
// the spec carries every device field, each power model's kind and draws,
// the registries, every topology link once in sorted (from, to) order, and
// the layers, exactly as the cluster holds them.
func TestClusterSpecOfMatchesCluster(t *testing.T) {
	layered := workload.Testbed()
	layered.Devices = append(layered.Devices, device.New("lin", dag.AMD64, 2, 500, units.GB, 8*units.GB,
		energy.LinearModel{StaticW: 3, PullW: 1.5, ReceiveW: 0.25, ProcessingW: 7}))
	layered.Layers = map[string][]sim.Layer{
		"ingest": {{Digest: "sha256:base", Size: 300 * units.MB}},
		"train":  {{Digest: "sha256:base", Size: 300 * units.MB}, {Digest: "sha256:train", Size: 2 * units.GB}},
	}
	kinds := map[string]bool{}
	for _, tc := range []struct {
		name    string
		cluster *sim.Cluster
	}{
		{"testbed", workload.Testbed()},
		{"scaled4", workload.ScaledTestbed(4)},
		{"layered", layered},
	} {
		c := tc.cluster
		spec, err := wire.ClusterSpecOf(c)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if spec.Version != wire.ClusterSpecVersion || spec.SourceNode != c.SourceNode {
			t.Errorf("%s: version %d source %q, want %d %q", tc.name, spec.Version, spec.SourceNode, wire.ClusterSpecVersion, c.SourceNode)
		}
		if len(spec.Devices) != len(c.Devices) {
			t.Fatalf("%s: %d devices, want %d", tc.name, len(spec.Devices), len(c.Devices))
		}
		for i, d := range c.Devices {
			want := wire.DeviceSpec{
				Name: d.Name, Arch: string(d.Arch), Cores: d.Cores, SpeedMIPS: float64(d.Speed),
				MemoryBytes: int64(d.Memory), StorageBytes: int64(d.Storage), Power: powerSpec(t, d.Power),
			}
			if !reflect.DeepEqual(spec.Devices[i], want) {
				t.Errorf("%s: device %d = %+v, want %+v", tc.name, i, spec.Devices[i], want)
			}
			kinds[spec.Devices[i].Power.Kind] = true
		}
		var regs []wire.RegistrySpec
		for _, r := range c.Registries {
			regs = append(regs, wire.RegistrySpec{Name: r.Name, Node: r.Node, Shared: r.Shared})
		}
		if !reflect.DeepEqual(spec.Registries, regs) {
			t.Errorf("%s: registries %+v, want %+v", tc.name, spec.Registries, regs)
		}
		nodes := c.Topology.Nodes()
		if !reflect.DeepEqual(spec.Nodes, nodes) {
			t.Errorf("%s: nodes %v, want %v", tc.name, spec.Nodes, nodes)
		}
		var links []wire.LinkSpec
		for _, a := range nodes {
			for _, b := range nodes {
				if l, ok := c.Topology.LinkBetween(a, b); ok && a != b {
					links = append(links, wire.LinkSpec{From: a, To: b, BWBytesPerS: float64(l.BW), RTTSeconds: l.RTT, Shared: l.SharedCapacity})
				}
			}
		}
		if len(links) == 0 || !reflect.DeepEqual(spec.Links, links) {
			t.Errorf("%s: links %+v, want %+v", tc.name, spec.Links, links)
		}
		var layers map[string][]wire.LayerSpec
		for ms, ls := range c.Layers {
			if layers == nil {
				layers = map[string][]wire.LayerSpec{}
			}
			for _, l := range ls {
				layers[ms] = append(layers[ms], wire.LayerSpec{Digest: l.Digest, SizeBytes: int64(l.Size)})
			}
		}
		if !reflect.DeepEqual(spec.Layers, layers) {
			t.Errorf("%s: layers %+v, want %+v", tc.name, spec.Layers, layers)
		}
	}
	if !kinds["linear"] || !kinds["table"] {
		t.Errorf("power kinds covered: %v, want linear and table", kinds)
	}
}

// powerSpec is the wire form a device's power model must take: its kind,
// its four state draws (a table's fallback) and a table's per-microservice
// draws.
func powerSpec(t *testing.T, pm energy.PowerModel) wire.PowerSpec {
	t.Helper()
	watts := func(m map[string]units.Watts) map[string]float64 {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = float64(v)
		}
		return out
	}
	linear := func(kind string, m energy.LinearModel) wire.PowerSpec {
		return wire.PowerSpec{Kind: kind, StaticW: float64(m.StaticW), PullW: float64(m.PullW),
			ReceiveW: float64(m.ReceiveW), ProcessingW: float64(m.ProcessingW)}
	}
	switch m := pm.(type) {
	case energy.LinearModel:
		return linear("linear", m)
	case energy.TableModel:
		ps := linear("table", m.Fallback)
		ps.ProcessW, ps.TransferW = watts(m.ProcessW), watts(m.TransferW)
		return ps
	}
	t.Fatalf("power model %T has no wire form", pm)
	return wire.PowerSpec{}
}

// TestVersionGate pins the versioning rule: 0 (missing) and future versions
// are rejected, current is accepted.
func TestVersionGate(t *testing.T) {
	if _, err := wire.DecodeAppSpec([]byte(`{"name":"a","microservices":[{"name":"m","image_size_bytes":1}]}`)); err == nil || !strings.Contains(err.Error(), "missing version") {
		t.Errorf("missing app version accepted: %v", err)
	}
	if _, err := wire.DecodeAppSpec([]byte(`{"version":99,"name":"a"}`)); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("future app version accepted: %v", err)
	}
	if _, err := wire.DecodeAppSpec([]byte(`{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1}]}`)); err != nil {
		t.Errorf("current app version rejected: %v", err)
	}
}

// TestUnknownFieldsRejected pins decode strictness, which is what makes the
// version gate trustworthy.
func TestUnknownFieldsRejected(t *testing.T) {
	if _, err := wire.DecodeAppSpec([]byte(`{"version":1,"name":"a","bogus":true}`)); err == nil {
		t.Error("unknown app field accepted")
	}
}

// TestStructuralErrorsSurface pins that DAG validation errors travel through
// the codec with the dag package's own messages.
func TestStructuralErrorsSurface(t *testing.T) {
	spec := &wire.AppSpec{
		Version: wire.AppSpecVersion,
		Name:    "cyclic",
		Microservices: []wire.MicroserviceSpec{
			{Name: "a", ImageSizeBytes: 1},
			{Name: "b", ImageSizeBytes: 1},
		},
		Dataflows: []wire.DataflowSpec{
			{From: "a", To: "b", SizeBytes: 1},
			{From: "b", To: "a", SizeBytes: 1},
		},
	}
	if _, err := spec.App(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not surfaced: %v", err)
	}
	spec = &wire.AppSpec{
		Version:       wire.AppSpecVersion,
		Name:          "dup",
		Microservices: []wire.MicroserviceSpec{{Name: "a"}, {Name: "a"}},
	}
	if _, err := spec.App(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate not surfaced: %v", err)
	}
	if _, err := (&wire.AppSpec{Version: 1, Name: "x", Microservices: []wire.MicroserviceSpec{{Name: "m", Arches: []string{"riscv"}}}}).App(); err == nil {
		t.Error("unknown arch accepted")
	}
}
