package wire_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/energy"
	"deep/internal/fleet"
	"deep/internal/sim"
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
// wire and decoded back hashes to the same canonical digest and fingerprint
// as the original, so wire-submitted requests share every digest-keyed cache
// with in-process traffic.
func TestAppRoundTripDigest(t *testing.T) {
	cluster := workload.Testbed()
	for _, orig := range appCorpus(t) {
		app, err := fresh(appBody(t, orig))
		if err != nil {
			t.Fatalf("%s: decode: %v", orig.Name, err)
		}
		if app.Digest() != orig.Digest() {
			t.Errorf("%s: wire round trip changed the canonical app digest", orig.Name)
		}
		want := fleet.FingerprintOf(orig, cluster, "deep")
		if got := fleet.FingerprintOf(app, cluster, "deep"); got != want {
			t.Errorf("%s: wire round trip changed the canonical fingerprint", orig.Name)
		}
	}
}

// TestClusterRoundTripDigest pins the same for clusters: the testbed and a
// scaled cluster survive the wire with their canonical digests intact.
func TestClusterRoundTripDigest(t *testing.T) {
	cases := []struct {
		name    string
		cluster *sim.Cluster
	}{
		{"testbed", workload.Testbed()},
		{"scaled4", workload.ScaledTestbed(4)},
	}
	for _, tc := range cases {
		spec, err := wire.ClusterSpecOf(tc.cluster)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		decoded, err := wire.DecodeClusterSpec(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		back, err := decoded.Cluster()
		if err != nil {
			t.Fatalf("%s: materialize: %v", tc.name, err)
		}
		want := fleet.DigestCluster(tc.cluster)
		got := fleet.DigestCluster(back)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: wire round trip changed the canonical cluster digest", tc.name)
		}
	}
}

// FuzzDecodeClusterSpec: whatever bytes arrive, DecodeClusterSpec and
// Cluster answer with a cluster or an error, never a panic; every device of
// a cluster they accept draws nonnegative power in every state, for every
// microservice its spec names; and the spec survives the wire — encoded back
// with ClusterSpecOf, marshalled, decoded and materialized again, it yields
// a cluster with the same canonical digest.
func FuzzDecodeClusterSpec(f *testing.F) {
	for _, c := range []*sim.Cluster{workload.Testbed(), workload.ScaledTestbed(2)} {
		spec, err := wire.ClusterSpecOf(c)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"version":1,"devices":[{"name":"d","arch":"amd64","cores":2,"speed_mips":100,` +
		`"power":{"kind":"table","static_w":1,"process_w":{"m":2},"transfer_w":{"m":0.5}}}],` +
		`"registries":[{"name":"r","node":"n","shared":true}],"nodes":["n","s"],` +
		`"links":[{"from":"n","to":"d","bw_bytes_per_s":1e6,"rtt_seconds":0.1,"shared":true},{"from":"s","to":"d","bw_bytes_per_s":5e5}],` +
		`"source_node":"s","layers":{"m":[{"digest":"sha256:a","size_bytes":10}],"e":[]}}`))
	f.Add([]byte(`{"version":1,"devices":[{"name":"d","arch":"arm64","power":{}},{"name":"d","arch":"amd64","power":{"kind":"linear"}}],"links":[{"from":"d","to":"d","bw_bytes_per_s":1}]}`))
	f.Add([]byte(`{"version":1,"devices":[{"name":"d","arch":"riscv","power":{}}]}`))
	f.Add([]byte(`{"version":1,"devices":[],"registries":[{"name":"r"}]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"devices":[{"name":"d","arch":"amd64","power":{"kind":"table","static_w":1,"transfer_w":{"m":-0.5}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := wire.DecodeClusterSpec(data)
		if err != nil {
			return
		}
		c, err := spec.Cluster()
		if err != nil {
			return
		}
		for i, d := range c.Devices {
			names := []string{"", "m"}
			for ms := range spec.Devices[i].Power.ProcessW {
				names = append(names, ms)
			}
			for ms := range spec.Devices[i].Power.TransferW {
				names = append(names, ms)
			}
			for _, state := range []energy.State{energy.Idle, energy.Pulling, energy.Receiving, energy.Processing} {
				for _, ms := range names {
					if w := d.Power.Power(state, ms); !(w >= 0) {
						t.Fatalf("device %q draws %v W %s for %q\n%s", d.Name, w, state, ms, data)
					}
				}
			}
		}
		back, err := wire.ClusterSpecOf(c)
		if err != nil {
			t.Fatalf("accepted cluster does not encode: %v", err)
		}
		raw, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("accepted cluster does not marshal: %v", err)
		}
		again, err := wire.DecodeClusterSpec(raw)
		if err != nil {
			t.Fatalf("re-encoded cluster spec rejected: %v\n%s", err, raw)
		}
		c2, err := again.Cluster()
		if err != nil {
			t.Fatalf("re-encoded cluster does not materialize: %v\n%s", err, raw)
		}
		if !bytes.Equal(fleet.DigestCluster(c), fleet.DigestCluster(c2)) {
			t.Fatalf("wire round trip changed the canonical cluster digest\nin:  %s\nout: %s", data, raw)
		}
	})
}

// TestNegativePowerRejected: a negative draw makes energies negative and can
// price a contended option below its solo price, so each field, and each
// entry of the two draw tables, is refused by name.
func TestNegativePowerRejected(t *testing.T) {
	for _, tc := range []struct {
		power string
		want  string
	}{
		{`{"static_w":-1}`, `negative static_w`},
		{`{"static_w":1,"pull_w":-0.5}`, `negative pull_w`},
		{`{"kind":"linear","receive_w":-2}`, `negative receive_w`},
		{`{"processing_w":-1e-9}`, `negative processing_w`},
		{`{"kind":"table","process_w":{"b":-1,"a":-2,"c":3}}`, `negative process_w for microservice "a"`},
		{`{"kind":"table","process_w":{"a":1},"transfer_w":{"m":-0.5}}`, `negative transfer_w for microservice "m"`},
	} {
		body := `{"version":1,"devices":[{"name":"x","arch":"amd64","power":` + tc.power + `}]}`
		spec, err := wire.DecodeClusterSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.power, err)
		}
		_, err = spec.Cluster()
		if want := `wire: device "x": ` + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: Cluster() = %v, want %q", tc.power, err, want)
		}
	}
	ok := `{"version":1,"devices":[{"name":"x","arch":"amd64","power":{"kind":"table","static_w":0,"process_w":{"a":0},"transfer_w":{"a":1}}}]}`
	spec, err := wire.DecodeClusterSpec([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Cluster(); err != nil {
		t.Errorf("zero and positive draws refused: %v", err)
	}
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
	if _, err := wire.DecodeClusterSpec([]byte(`{"version":99}`)); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("future cluster version accepted: %v", err)
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
	if _, err := wire.DecodeClusterSpec([]byte(`{"version":1,"bogus":true}`)); err == nil {
		t.Error("unknown cluster field accepted")
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
	if _, err := (&wire.ClusterSpec{Version: 1, Devices: []wire.DeviceSpec{{Name: "d", Arch: "amd64", Power: wire.PowerSpec{Kind: "quadratic"}}}}).Cluster(); err == nil {
		t.Error("unknown power kind accepted")
	}
}
