package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"deep/internal/dag"
	"deep/internal/fleetd"
	"deep/internal/wire"
	"deep/internal/workload"
)

// walk is the table-less scanner: a nil spec table walks every app value.
var walk *wire.Interner

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

	tenant, item, deploy := walk.ScanDeploy(data)
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
	tenant, items, batch := walk.ScanDeployBatch(data, nil, maxItems)
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
	if _, items, ok := walk.ScanDeployBatch(body(3), nil, 3); !ok || len(items) != 3 {
		t.Fatalf("3 items under a cap of 3: ok=%v, %d items", ok, len(items))
	}
	if _, items, ok := walk.ScanDeployBatch(body(4), nil, 3); ok || items != nil {
		t.Fatalf("4 items under a cap of 3 accepted (%d items)", len(items))
	}
}

// TestWarmDecodeAllocs extends the fleet's warm-path gate to the front door:
// decoding a deploy whose spec is interned allocates only the tenant string,
// for a single deploy and for a 16-item batch alike — whether the table
// recognises the spec at the scanner's cursor (probed) or after the walk
// (walked: envelope scan, hash, byte compare).
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
	for _, path := range []struct {
		name   string
		single func([]byte) (string, wire.DeployItem, bool)
		batch  func([]byte, []wire.DeployItem, int) (string, []wire.DeployItem, bool)
		app    func(wire.DeployItem) (*dag.App, bool, error)
	}{
		{"walked", walk.ScanDeploy, walk.ScanDeployBatch,
			func(item wire.DeployItem) (*dag.App, bool, error) { return in.App(item.App) }},
		{"probed", in.ScanDeploy, in.ScanDeployBatch, in.ItemApp},
	} {
		lookup := func(item wire.DeployItem) {
			if app, fast, err := path.app(item); err != nil || !fast || app == nil {
				t.Fatalf("%s: interned spec: app=%v fast=%v err=%v", path.name, app, fast, err)
			}
		}
		decodeSingle := func() {
			tenant, item, ok := path.single(single)
			if !ok || tenant != "acme" {
				t.Fatalf("%s: canonical deploy envelope declined", path.name)
			}
			lookup(item)
		}
		decodeBatch := func() {
			tenant, got, ok := path.batch(batch, items[:0], 64)
			if !ok || tenant != "acme" || len(got) != 16 {
				t.Fatalf("%s: canonical batch envelope declined", path.name)
			}
			for _, item := range got {
				lookup(item)
			}
		}
		decodeSingle()
		decodeSingle() // second sight admits the spec
		if got := testing.AllocsPerRun(200, decodeSingle); got > 1 {
			t.Errorf("%s: interned single deploy decode: %.1f allocs, want <= 1", path.name, got)
		}
		if got := testing.AllocsPerRun(100, decodeBatch); got > 1 {
			t.Errorf("%s: interned 16-item batch decode: %.1f allocs, want <= 1", path.name, got)
		}
	}
}

// TestScanAppAllocs gates what a spec-table miss costs a canonical body:
// scanning a 16-microservice spec into a validated app and hashing it.
func TestScanAppAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	app, err := workload.Generate(workload.DefaultGeneratorConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	spec := appBody(t, app)
	got := testing.AllocsPerRun(200, func() {
		app, ok := wire.ScanApp(spec)
		if !ok {
			t.Fatal("declined")
		}
		app.Digest()
	})
	if got > 20 {
		t.Errorf("scan + digest of a 16-microservice spec: %.1f allocs, want <= 20", got)
	}
}

// TestAppScratchHoldsNothing: the scratch a decode builds in is pooled, so
// once the decode returns — accepted, declined or rejected, by the scanner
// or from an AppSpec — every slot of its backing arrays is zero and its
// name index is empty: it keeps no request's strings or maps alive.
func TestAppScratchHoldsNothing(t *testing.T) {
	ab := wire.NewAppScratch()
	bodies := [][]byte{appBody(t, workload.VideoProcessing())}
	for _, app := range appCorpus(t)[:8] {
		bodies = append(bodies, appBody(t, app))
	}
	for _, bad := range append(append([]string(nil), rejectedBodies...), nonCanonicalBodies...) {
		bodies = append(bodies, []byte(bad))
	}
	for _, body := range bodies {
		wire.ScanAppWith(ab, body)
		checkHoldsNothing(t, "scan", reflect.ValueOf(ab).Elem())
		if spec, err := wire.DecodeAppSpec(body); err == nil {
			wire.BuildWith(ab, spec)
			checkHoldsNothing(t, "build", reflect.ValueOf(ab).Elem())
		}
	}
}

// checkHoldsNothing walks v: every slice must be zero up to its capacity,
// every map empty, every string empty.
func checkHoldsNothing(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkHoldsNothing(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				t.Fatalf("%s[%d] still holds %v", path, i, full.Index(i))
			}
		}
	case reflect.Map:
		if v.Len() != 0 {
			t.Fatalf("%s still holds %d entries", path, v.Len())
		}
	default:
		if !v.IsZero() {
			t.Fatalf("%s still holds %v", path, v)
		}
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

// Specs FuzzProbeMatchesWalk's table holds besides the corpus: a canonical
// spec shorter than the probe's key, and two the table admits from the
// reference decoder only — an escape, which the walk declines, and a key in
// another case, which it accepts.
const (
	shortApp   = `{"version":1,"name":"a","microservices":[{"name":"m"}]}`
	escapedApp = `{"version":1,"name":"\u0041","microservices":[{"name":"m","image_size_bytes":1}]}`
	foldedApp  = `{"version":1,"Name":"folded","microservices":[{"name":"m","image_size_bytes":1}]}`
)

// probeTable returns a table holding the corpus specs (one of them a second
// time with a newline after it), shortApp, escapedApp and foldedApp, each
// admitted on its second sight.
func probeTable(tb testing.TB) (*wire.Interner, [][]byte) {
	tb.Helper()
	in, _ := newInterner()
	var specs [][]byte
	for _, app := range appCorpus(tb) {
		specs = append(specs, appBody(tb, app))
	}
	specs = append(specs, append(bytes.Clone(specs[0]), '\n'),
		[]byte(shortApp), []byte(escapedApp), []byte(foldedApp))
	for _, spec := range specs {
		for sight := 0; sight < 2; sight++ {
			if _, _, err := in.App(spec); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return in, specs
}

// checkProbeAgainstWalk: the table's envelope scanners return what the
// table-less ones do — tenant, seeds, deadlines, app spans and the verdict —
// and an item whose spec the probe recognised resolves to the table's own
// app for those bytes; any other item to what a fresh decode gives.
func checkProbeAgainstWalk(t testing.TB, in *wire.Interner, data []byte) {
	t.Helper()
	var items []wire.DeployItem
	wantTenant, want, wantOK := walk.ScanDeploy(data)
	tenant, item, ok := in.ScanDeploy(data)
	if ok != wantOK || tenant != wantTenant || !sameItem(item, want) {
		t.Fatalf("deploy: probed (%q, %+v, %v), walked (%q, %+v, %v)\n%q", tenant, item, ok, wantTenant, want, wantOK, data)
	}
	if ok {
		items = append(items, item)
	}
	const maxItems = 64
	wantTenant, wantItems, wantOK := walk.ScanDeployBatch(data, nil, maxItems)
	tenant, got, ok := in.ScanDeployBatch(data, nil, maxItems)
	if ok != wantOK || tenant != wantTenant || len(got) != len(wantItems) {
		t.Fatalf("batch: probed (%q, %d items, %v), walked (%q, %d items, %v)\n%q", tenant, len(got), ok, wantTenant, len(wantItems), wantOK, data)
	}
	for i := range got {
		if !sameItem(got[i], wantItems[i]) {
			t.Fatalf("batch item %d: probed %+v, walked %+v\n%q", i, got[i], wantItems[i], data)
		}
	}
	items = append(items, got...)

	// Look every recognised spec up by its bytes before any miss below can
	// admit a body and evict one.
	held := make([]*dag.App, len(items))
	for i, item := range items {
		if wire.ProbeHit(item) {
			app, _, err := in.App(item.App)
			if err != nil {
				t.Fatalf("probed spec rejected: %v\n%s", err, item.App)
			}
			held[i] = app
		}
	}
	for i, item := range items {
		app, _, err := in.ItemApp(item)
		if held[i] != nil {
			if app != held[i] || err != nil {
				t.Fatalf("probed item's app is not the table's for its bytes\n%s", item.App)
			}
			continue
		}
		wantApp, wantErr := fresh(item.App)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("item spec: err = %v, fresh decode says %v\n%s", err, wantErr, item.App)
		}
		if err == nil && !sameApp(app, wantApp) {
			t.Fatalf("item spec's app differs from a fresh decode\n%s", item.App)
		}
	}
}

// FuzzProbeMatchesWalk: recognising a stored spec at the scanner's cursor
// changes nothing a scan returns, only what it costs.
func FuzzProbeMatchesWalk(f *testing.F) {
	in, specs := probeTable(f)
	if _, item, ok := in.ScanDeploy([]byte(envelope(string(specs[0])))); !ok || !wire.ProbeHit(item) {
		f.Fatal("a stored spec was not recognised at the cursor")
	}
	var batch fleetd.DeployBatchRequest
	for i, spec := range specs {
		env := envelope(string(spec))
		f.Add([]byte(env))
		f.Add([]byte(env + ` garbage`))
		f.Add([]byte(env[:len(env)-1]))
		f.Add([]byte(`{"app":` + string(spec[:len(spec)-1])))
		f.Add([]byte(`{"app":` + string(spec) + `x}`))
		f.Add([]byte(`{"app":` + string(spec) + `,"app":` + string(spec) + `}`))
		f.Add([]byte(`{"app":` + string(bytes.TrimSpace(spec)) + "\n}"))
		if len(batch.Items) < 4 && json.Valid(spec) {
			batch.Items = append(batch.Items, fleetd.DeployBatchItem{Seed: int64(i), App: spec})
		}
	}
	f.Add(mustMarshal(f, batch))
	f.Add([]byte(`{"items":[{"app":` + shortApp + `},{"app":` + foldedApp + `},{"app":` + escapedApp + `}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProbeAgainstWalk(t, in, data)
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
			if _, _, ok := walk.ScanDeployBatch(batch, items[:0], 64); !ok {
				b.Fatal("declined")
			}
		}
	})
	// The same batch scanned by a table holding its spec: each item is
	// recognised at the cursor, not walked.
	b.Run("batch16_envelope_interned", func(b *testing.B) {
		in, _ := newInterner()
		for sight := 0; sight < 2; sight++ {
			if _, _, err := in.App(spec); err != nil {
				b.Fatal(err)
			}
		}
		items := make([]wire.DeployItem, 0, 64)
		b.SetBytes(int64(len(batch)))
		b.ReportAllocs()
		for b.Loop() {
			if _, got, ok := in.ScanDeployBatch(batch, items[:0], 64); !ok || !wire.ProbeHit(got[15]) {
				b.Fatal("declined or walked")
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
	// What an interner miss pays for a canonical body: the scan and the
	// build, whose App stores the digest.
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
