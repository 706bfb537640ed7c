package wire_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/fleetd"
	"deep/internal/wire"
	"deep/internal/workload"
)

// referenceDeploy and referenceBatch decode an envelope the way the handlers
// do when the scanner declines.
func referenceDeploy(body []byte) (string, wire.DeployItem, error) {
	var req fleetd.DeployRequest
	if err := wire.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return "", wire.DeployItem{}, err
	}
	return req.Tenant, wire.DeployItem{Seed: req.Seed, DeadlineMS: req.DeadlineMS, App: req.App}, nil
}

func referenceBatch(body []byte) (string, []wire.DeployItem, error) {
	var req fleetd.DeployBatchRequest
	if err := wire.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		return "", nil, err
	}
	var items []wire.DeployItem
	for _, it := range req.Items {
		items = append(items, wire.DeployItem{Seed: it.Seed, DeadlineMS: it.DeadlineMS, App: it.App})
	}
	return req.Tenant, items, nil
}

func sameItem(a, b wire.DeployItem) bool {
	return a.Seed == b.Seed && a.DeadlineMS == b.DeadlineMS && bytes.Equal(a.App, b.App)
}

// checkScanAgainstReference is the soundness property: whatever a scanner
// accepts, the reference decoder accepts with the same result. It reports
// which of the three scanners accepted.
func checkScanAgainstReference(t testing.TB, data []byte) (deploy, batch, spec bool) {
	t.Helper()
	checkApp := func(body []byte) bool {
		app, ok := wire.ScanApp(body)
		if !ok {
			if app != nil {
				t.Fatal("declined app spec returned an app")
			}
			return false
		}
		want, err := fresh(body)
		if err != nil {
			t.Fatalf("scanner accepted an app spec the reference rejects: %v\n%s", err, body)
		}
		if !sameApp(app, want) {
			t.Fatalf("scanned app differs from the reference decode\n%s", body)
		}
		return true
	}

	tenant, item, deploy := wire.ScanDeploy(data)
	if deploy {
		wantTenant, want, err := referenceDeploy(data)
		if err != nil {
			t.Fatalf("scanner accepted a deploy envelope the reference rejects: %v\n%s", err, data)
		}
		if tenant != wantTenant || !sameItem(item, want) {
			t.Fatalf("deploy envelope: scanned (%q, %+v), reference (%q, %+v)", tenant, item, wantTenant, want)
		}
		checkApp(item.App)
	}

	const maxItems = 64
	tenant, items, batch := wire.ScanDeployBatch(data, nil, maxItems)
	if batch {
		wantTenant, want, err := referenceBatch(data)
		if err != nil {
			t.Fatalf("scanner accepted a batch envelope the reference rejects: %v\n%s", err, data)
		}
		if tenant != wantTenant || len(items) != len(want) || len(items) > maxItems {
			t.Fatalf("batch envelope: scanned (%q, %d items), reference (%q, %d items)", tenant, len(items), wantTenant, len(want))
		}
		for i := range items {
			if !sameItem(items[i], want[i]) {
				t.Fatalf("batch item %d: scanned %+v, reference %+v", i, items[i], want[i])
			}
			checkApp(items[i].App)
		}
	}
	return deploy, batch, checkApp(data)
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestScannerAcceptsMarshalledBodies is the completeness half the fuzzer
// cannot give: everything encoding/json writes for the wire types — the
// round-trip corpus, generated apps of every size from 1 to 40, both
// envelopes around them, compact and indented — takes the fast path, so it
// cannot silently rot into the fallback.
func TestScannerAcceptsMarshalledBodies(t *testing.T) {
	apps := appCorpus(t)
	for n := 1; n <= 40; n++ {
		app, err := workload.Generate(workload.DefaultGeneratorConfig(n, int64(100+n)))
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	var batch fleetd.DeployBatchRequest
	batch.Tenant = "acme"
	for i, app := range apps {
		body := appBody(t, app)
		if _, _, spec := checkScanAgainstReference(t, body); !spec {
			t.Errorf("%s: marshalled app spec declined", app.Name)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		if _, _, spec := checkScanAgainstReference(t, indented.Bytes()); !spec {
			t.Errorf("%s: indented app spec declined", app.Name)
		}
		// An encoder that sorts keys puts dataflows before microservices.
		var generic map[string]any
		if err := json.Unmarshal(body, &generic); err != nil {
			t.Fatal(err)
		}
		if _, _, spec := checkScanAgainstReference(t, mustMarshal(t, generic)); !spec {
			t.Errorf("%s: key-sorted app spec declined", app.Name)
		}

		req := fleetd.DeployRequest{Tenant: "acme", Seed: int64(i) - 3, DeadlineMS: int64(i) * 1000, App: body}
		if i%2 == 0 {
			req = fleetd.DeployRequest{App: body} // omitempty drops the rest
		}
		if deploy, _, _ := checkScanAgainstReference(t, mustMarshal(t, req)); !deploy {
			t.Errorf("%s: marshalled deploy envelope declined", app.Name)
		}
		if len(batch.Items) < 64 {
			batch.Items = append(batch.Items, fleetd.DeployBatchItem{Seed: req.Seed, DeadlineMS: req.DeadlineMS, App: body})
		}
	}
	if _, ok, _ := checkScanAgainstReference(t, mustMarshal(t, batch)); !ok {
		t.Error("marshalled batch envelope declined")
	}
}

// envelope wraps an app spec in the single-deploy envelope, as text.
func envelope(app string) string { return `{"tenant":"acme","seed":7,"app":` + app + `}` }

const tinyApp = `{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1,"cpu_mi":2.5}]}`

// nonCanonicalBodies are outside the canonical subset: valid ones the
// reference decoder serves, invalid ones it rejects. Either way the scanners
// must decline and leave the decision to it.
var nonCanonicalBodies = []string{
	// envelope level
	`{"Tenant":"acme","app":` + tinyApp + `}`,
	`{"tenant":"acme","app":` + tinyApp + `,"app":` + tinyApp + `}`,
	`{"tenant":"acme","seed":1e3,"app":` + tinyApp + `}`,
	`{"tenant":"acme","seed":1.0,"app":` + tinyApp + `}`,
	`{"tenant":"acme","seed":01,"app":` + tinyApp + `}`,
	`{"tenant":"acme","seed":99999999999999999999,"app":` + tinyApp + `}`,
	`{"tenant":"acme","seed":9223372036854775808,"app":` + tinyApp + `}`,
	`{"tenant":"acme","app":null}`,
	`{"tenant":null,"app":` + tinyApp + `}`,
	`{"tenant":"acme","app":` + tinyApp,
	envelope(tinyApp) + ` garbage`,
	envelope(tinyApp) + `{}`,
	`{"tenant":"acme","bogus":1,"app":` + tinyApp + `}`,
	`{"tenant":"ac` + "\xff" + `me","app":` + tinyApp + `}`,
	`{"tenant":"ac` + "\x01" + `me","app":` + tinyApp + `}`,
	`{"tenant":"acme","app":` + tinyApp + `,}`,
	`[` + envelope(tinyApp) + `]`,
	`{"tenant":"acme","items":null}`,
	`{"tenant":"acme","items":[null]}`,
	`{"tenant":"acme","items":[{"app":` + tinyApp + `},]}`,
	`{"tenant":"acme","items":[{"app":` + tinyApp + `}],"items":[]}`,
	// spec level
	`{"Version":1,"name":"a","microservices":[{"name":"m"}]}`,
	`{"version":1,"version":1,"name":"a","microservices":[{"name":"m"}]}`,
	`{"version":1.0,"name":"a","microservices":[{"name":"m"}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1e3}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","cpu_mi":1e999}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","cpu_mi":.5}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","cpu_mi":-1}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","external_input_bytes":-5000000000000}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","cores":null}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","arches":null}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","images":{"hub":"x","hub":"y"}}]}`,
	`{"version":1,"name":"a","microservices":[null]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m"}],"dataflows":null}`,
	`{"version":1,"name":"a","microservices":[{"name":"m"}]}` + "\x00",
}

// TestScannerDeclines: every rejected body the other tests use and every
// non-canonical form above is declined by all three scanners — and the
// soundness check still holds on each, in case one of them ever is accepted.
func TestScannerDeclines(t *testing.T) {
	var bodies []string
	bodies = append(bodies, rejectedBodies...)
	bodies = append(bodies, nonCanonicalBodies...)
	for _, bad := range rejectedBodies {
		bodies = append(bodies, envelope(bad), `{"items":[{"app":`+bad+`}]}`)
	}
	for _, body := range bodies {
		deploy, batch, spec := checkScanAgainstReference(t, []byte(body))
		// A rejected spec inside a well-formed envelope is the envelope
		// scanner's to accept: the spec is not its business.
		_, _, refErr := referenceDeploy([]byte(body))
		_, _, refBatchErr := referenceBatch([]byte(body))
		if spec || (deploy && refErr != nil) || (batch && refBatchErr != nil) {
			t.Errorf("accepted (deploy=%v batch=%v spec=%v): %s", deploy, batch, spec, body)
		}
	}
	for _, body := range nonCanonicalBodies {
		if deploy, batch, spec := checkScanAgainstReference(t, []byte(body)); deploy || batch || spec {
			t.Errorf("non-canonical body accepted (deploy=%v batch=%v spec=%v): %s", deploy, batch, spec, body)
		}
	}
}

// TestScanBatchItemCap: the batch scanner stops at the caller's item cap
// rather than growing the caller's slice past it.
func TestScanBatchItemCap(t *testing.T) {
	item := `{"app":` + tinyApp + `}`
	body := func(n int) []byte {
		return []byte(`{"items":[` + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + `]}`)
	}
	if _, items, ok := wire.ScanDeployBatch(body(3), nil, 3); !ok || len(items) != 3 {
		t.Fatalf("3 items under a cap of 3: ok=%v, %d items", ok, len(items))
	}
	if _, items, ok := wire.ScanDeployBatch(body(4), nil, 3); ok || items != nil {
		t.Fatalf("4 items under a cap of 3 accepted (%d items)", len(items))
	}
}

// TestWarmDecodeAllocs extends the fleet's warm-path gate to the front door:
// decoding a deploy whose spec is interned — envelope scan, hash, byte
// compare — allocates only the tenant string, for a single deploy and for a
// 16-item batch alike.
func TestWarmDecodeAllocs(t *testing.T) {
	in, _ := newInterner()
	spec := appBody(t, workload.VideoProcessing())
	single := mustMarshal(t, fleetd.DeployRequest{Tenant: "acme", Seed: 3, App: spec})
	var req fleetd.DeployBatchRequest
	req.Tenant = "acme"
	for i := 0; i < 16; i++ {
		req.Items = append(req.Items, fleetd.DeployBatchItem{Seed: int64(i), App: spec})
	}
	batch := mustMarshal(t, req)
	items := make([]wire.DeployItem, 0, 64)
	lookup := func(item wire.DeployItem) {
		if app, fast, err := in.App(item.App); err != nil || !fast || app == nil {
			t.Fatalf("interned spec: app=%v fast=%v err=%v", app, fast, err)
		}
	}
	decodeSingle := func() {
		tenant, item, ok := wire.ScanDeploy(single)
		if !ok || tenant != "acme" {
			t.Fatal("canonical deploy envelope declined")
		}
		lookup(item)
	}
	decodeBatch := func() {
		tenant, got, ok := wire.ScanDeployBatch(batch, items[:0], 64)
		if !ok || tenant != "acme" || len(got) != 16 {
			t.Fatal("canonical batch envelope declined")
		}
		for _, item := range got {
			lookup(item)
		}
	}
	decodeSingle()
	decodeSingle() // second sight admits the spec
	if got := testing.AllocsPerRun(200, decodeSingle); got > 1 {
		t.Errorf("interned single deploy decode: %.1f allocs, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, decodeBatch); got > 1 {
		t.Errorf("interned 16-item batch decode: %.1f allocs, want <= 1", got)
	}
}

// FuzzScanMatchesReference: for any body, whenever one of the scanners
// accepts, the reference decoder accepts too with equal tenant, seed and
// deadline, byte-equal app spans, and an equal app (fields and digest).
func FuzzScanMatchesReference(f *testing.F) {
	var batch fleetd.DeployBatchRequest
	for i, app := range appCorpus(f) {
		body := appBody(f, app)
		f.Add(body)
		f.Add(mustMarshal(f, fleetd.DeployRequest{Tenant: "acme", Seed: int64(i), DeadlineMS: 250, App: body}))
		if len(batch.Items) < 4 {
			batch.Items = append(batch.Items, fleetd.DeployBatchItem{Seed: int64(i), App: body})
		}
	}
	f.Add(mustMarshal(f, batch))
	for _, bad := range rejectedBodies {
		f.Add([]byte(bad))
		f.Add([]byte(envelope(bad)))
	}
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanAgainstReference(t, data)
	})
}

// sinkApp keeps BenchmarkScan's decodes from being optimised away.
var sinkApp *dag.App

func BenchmarkScan(b *testing.B) {
	app, err := workload.Generate(workload.DefaultGeneratorConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	spec := appBody(b, app)
	var req fleetd.DeployBatchRequest
	for i := 0; i < 16; i++ {
		req.Items = append(req.Items, fleetd.DeployBatchItem{Seed: int64(i), App: spec})
	}
	batch := mustMarshal(b, req)
	b.Run("batch16_envelope", func(b *testing.B) {
		items := make([]wire.DeployItem, 0, 64)
		b.SetBytes(int64(len(batch)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, ok := wire.ScanDeployBatch(batch, items[:0], 64); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("batch16_envelope_reference", func(b *testing.B) {
		b.SetBytes(int64(len(batch)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := referenceBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("app16", func(b *testing.B) {
		b.SetBytes(int64(len(spec)))
		b.ReportAllocs()
		for b.Loop() {
			app, ok := wire.ScanApp(spec)
			if !ok {
				b.Fatal("declined")
			}
			sinkApp = app
		}
	})
	b.Run("app16_reference", func(b *testing.B) {
		b.SetBytes(int64(len(spec)))
		b.ReportAllocs()
		for b.Loop() {
			app, err := fresh(spec)
			if err != nil {
				b.Fatal(err)
			}
			sinkApp = app
		}
	})
}
