package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"deep/internal/dag"
	"deep/internal/obs"
	"deep/internal/wire"
	"deep/internal/workload"
)

const internName = "spec_intern"

func newInterner() (*wire.Interner, *obs.Registry) {
	reg := obs.NewRegistry()
	return wire.NewInterner(reg, internName), reg
}

// internStats reads the interner's instruments back out of its registry.
type internStats struct{ hits, misses, admitted, evicted, entries, bytes int }

func statsOf(t testing.TB, reg *obs.Registry) internStats {
	t.Helper()
	counter := func(suffix string) int {
		c, ok := reg.LookupCounter(internName + suffix)
		if !ok {
			t.Fatalf("counter %s%s not interned", internName, suffix)
		}
		return int(c.Value())
	}
	// The gauges are published by a collect hook; any exposition pass runs
	// it.
	reg.Vars()
	gauge := func(suffix string) int {
		g, ok := reg.LookupGauge(internName + suffix)
		if !ok {
			t.Fatalf("gauge %s%s not interned", internName, suffix)
		}
		v, _ := g.Value()
		return int(v)
	}
	return internStats{counter("_hits"), counter("_misses"), counter("_admitted"), counter("_evicted"), gauge("_entries"), gauge("_bytes")}
}

// fresh decodes a body the way a caller without the table does.
func fresh(body []byte) (*dag.App, error) {
	spec, err := wire.DecodeAppSpec(body)
	if err != nil {
		return nil, err
	}
	return spec.App()
}

// sameApp reports whether two apps agree in every exported field and in
// their canonical digest.
func sameApp(a, b *dag.App) bool {
	return a.Name == b.Name &&
		reflect.DeepEqual(a.Microservices, b.Microservices) &&
		reflect.DeepEqual(a.Dataflows, b.Dataflows) &&
		a.Digest() == b.Digest()
}

// checkAgainstFresh runs one body through the interner three times — first
// sight, admission, hit — and requires every answer to match a fresh decode:
// the same app, or the identical error string and no app.
func checkAgainstFresh(t testing.TB, in *wire.Interner, body []byte) {
	t.Helper()
	want, wantErr := fresh(body)
	var second *dag.App
	for sight := 1; sight <= 3; sight++ {
		got, _, err := in.App(body)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("sight %d: err = %v, fresh decode says %v", sight, err, wantErr)
			}
			if got != nil {
				t.Fatalf("sight %d: rejected body returned an app", sight)
			}
			continue
		}
		if err != nil {
			t.Fatalf("sight %d: err = %v, fresh decode accepts", sight, err)
		}
		if !sameApp(got, want) {
			t.Fatalf("sight %d: interned app differs from a fresh decode", sight)
		}
		if sight == 2 {
			second = got
		}
		if sight == 3 && len(body) <= wire.InternMaxBody && got != second {
			t.Fatalf("third sight did not serve the app admitted on the second")
		}
	}
}

// TestInternerMatchesFreshOnCorpus: the table is invisible to callers on the
// whole round-trip corpus and on the rejected bodies the other tests use.
func TestInternerMatchesFreshOnCorpus(t *testing.T) {
	in, reg := newInterner()
	apps := appCorpus(t)
	for _, app := range apps {
		checkAgainstFresh(t, in, appBody(t, app))
	}
	for _, bad := range rejectedBodies {
		checkAgainstFresh(t, in, []byte(bad))
	}
	s := statsOf(t, reg)
	if want := len(apps); s.hits != want || s.admitted != want {
		t.Errorf("hits=%d admitted=%d, want %d each (one per accepted body)", s.hits, s.admitted, want)
	}
	if want := 2*len(apps) + 3*len(rejectedBodies); s.misses != want {
		t.Errorf("misses=%d, want %d", s.misses, want)
	}
}

// rejectedBodies fail at each layer of the miss path: JSON syntax, strict
// fields, trailing data, the version gate, and DAG validation.
var rejectedBodies = []string{
	``,
	`{`,
	`{"version":1,"name":"a","bogus":true}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1}]} x`,
	`{"name":"a","microservices":[{"name":"m","image_size_bytes":1}]}`,
	`{"version":99,"name":"a"}`,
	`{"version":1,"name":"","microservices":[{"name":"m","image_size_bytes":1}]}`,
	`{"version":1,"name":"a","microservices":[]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m"},{"name":"m"}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"m","arches":["riscv"]}]}`,
	`{"version":1,"name":"a","microservices":[{"name":"x"},{"name":"y"}],"dataflows":[{"from":"x","to":"y","size_bytes":1},{"from":"y","to":"x","size_bytes":1}]}`,
}

// TestInternerSecondSightAdmission pins the admission rule and what a scrape
// shows for it: a body seen once leaves only its hash behind, the second
// sight retains it, the third is the first hit.
func TestInternerSecondSightAdmission(t *testing.T) {
	in, reg := newInterner()
	body := appBody(t, workload.VideoProcessing())

	first, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	if s := statsOf(t, reg); s != (internStats{misses: 1}) {
		t.Fatalf("after one sight: %+v, want one miss and nothing retained", s)
	}
	second, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("second sight served an app the table should not have held")
	}
	if s := statsOf(t, reg); s != (internStats{misses: 2, admitted: 1, entries: 1, bytes: len(body)}) {
		t.Fatalf("after two sights: %+v, want two misses, one admission, the body retained", s)
	}
	third, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Fatal("third sight did not serve the interned app")
	}
	if s := statsOf(t, reg); s != (internStats{hits: 1, misses: 2, admitted: 1, entries: 1, bytes: len(body)}) {
		t.Fatalf("after three sights: %+v", s)
	}
	// The table copied the body: scribbling over the caller's slice must
	// not corrupt the stored key.
	clobbered := append([]byte(nil), body...)
	for i := range body {
		body[i] = 'x'
	}
	if again, _, err := in.App(clobbered); err != nil || again != second {
		t.Fatal("interned entry did not survive the caller reusing its buffer")
	}
}

// refBody is a valid spec only the reference decoder accepts: the video
// spec with a case-folded key, which encoding/json matches and the scanner
// declines.
func refBody(t testing.TB) []byte {
	t.Helper()
	body := bytes.Replace(appBody(t, workload.VideoProcessing()), []byte(`"version"`), []byte(`"Version"`), 1)
	if _, _, ok := wire.ScanApp(body); ok {
		t.Fatal("the scanner accepted a case-folded key")
	}
	return body
}

// within reports whether s lies inside the bytes of outer.
func within(s, outer string) bool {
	base := uintptr(unsafe.Pointer(unsafe.StringData(outer)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return base <= p && p+uintptr(len(s)) <= base+uintptr(len(outer))
}

// TestInternerCanonicalBodyHeldOnce: the body an entry keeps for a canonical
// spec is the string the scanner cut the app's names from, so the app and
// the entry share one copy of it.
func TestInternerCanonicalBodyHeldOnce(t *testing.T) {
	in, reg := newInterner()
	body := appBody(t, workload.VideoProcessing())
	checkAgainstFresh(t, in, body)
	held, ok := in.Held(body)
	if !ok {
		t.Fatal("the body was not admitted")
	}
	app, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	if !within(app.Name, held) {
		t.Fatal("the app's name is not a substring of the held body")
	}
	for _, m := range app.Microservices {
		if !within(m.Name, held) {
			t.Fatalf("microservice %q is not a substring of the held body", m.Name)
		}
	}
	if s := statsOf(t, reg); s.bytes != len(body) || s.entries != 1 {
		t.Fatalf("%+v, want one entry of %d bytes", s, len(body))
	}

	// A spec the envelope scanner built at its cursor is held as exactly
	// its span, wherever it sits in the envelope: followed by more members,
	// or between two other items of a batch.
	spec := string(body)
	text, small := appBody(t, workload.TextProcessing()), appBody(t, smallApp(t))
	for _, tc := range []struct {
		name  string
		env   string
		batch bool
	}{
		{"members after app", `{"app":` + spec + `,"seed":7,"tenant":"acme"}`, false},
		{"middle batch item", `{"items":[{"app":` + string(text) + `},{"seed":2,"app":` + spec +
			`,"deadline_ms":5},{"app":` + string(small) + `}],"tenant":"acme"}`, true},
	} {
		in, reg := newInterner()
		var app *dag.App
		var item wire.DeployItem
		for sight := 1; sight <= 2; sight++ {
			ok := false
			if tc.batch {
				var items []wire.DeployItem
				if _, items, ok = in.ScanDeployBatch([]byte(tc.env), nil, 64); ok {
					item = items[1]
				}
			} else {
				_, item, ok = in.ScanDeploy([]byte(tc.env))
			}
			if built, _, _ := wire.ItemBuilt(item); !ok || built == nil {
				t.Fatalf("%s, sight %d: the spec was not built at the cursor (ok=%v)", tc.name, sight, ok)
			}
			var err error
			if app, _, err = in.ItemApp(item); err != nil {
				t.Fatal(err)
			}
		}
		held, ok := in.Held(item.App)
		if !ok {
			t.Fatalf("%s: the spec was not admitted", tc.name)
		}
		if s := statsOf(t, reg); s.bytes != len(item.App) || s.entries != 1 || len(held) != len(item.App) {
			t.Fatalf("%s: %+v holding %d bytes, want one entry of %d bytes", tc.name, s, len(held), len(item.App))
		}
		checkNamesWithin(t, tc.name, app, held)
	}
}

// smallApp is a generated two-microservice app.
func smallApp(t testing.TB) *dag.App {
	t.Helper()
	app, err := workload.Generate(workload.DefaultGeneratorConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// checkNamesWithin requires every string of app — its name, the vertex
// names, image registries and references, and the dataflow endpoints — to
// lie inside the bytes of held.
func checkNamesWithin(t *testing.T, what string, app *dag.App, held string) {
	t.Helper()
	names := []string{app.Name}
	for _, m := range app.Microservices {
		names = append(names, m.Name)
		for reg, ref := range m.Images {
			names = append(names, reg, ref)
		}
	}
	for _, df := range app.Dataflows {
		names = append(names, df.From, df.To)
	}
	for _, name := range names {
		if !within(name, held) {
			t.Fatalf("%s: %q is not a substring of the held body", what, name)
		}
	}
}

// admissionAllocs returns what a first sight of body allocates and what its
// admission, the second sight, allocates, each on tables of its own.
func admissionAllocs(t *testing.T, body []byte) (first, admit float64) {
	t.Helper()
	const runs = 50
	sightsOn := func(seen int) ([]*wire.Interner, func()) {
		tables := make([]*wire.Interner, runs+1)
		for i := range tables {
			tables[i], _ = newInterner()
			for range seen {
				tables[i].App(body)
			}
		}
		next := 0
		return tables, func() {
			tables[next].App(body)
			next++
		}
	}
	_, sight := sightsOn(0)
	first = testing.AllocsPerRun(runs, sight)
	tables, sight := sightsOn(1)
	admit = testing.AllocsPerRun(runs, sight)
	for _, in := range tables {
		if _, ok := in.Held(body); !ok {
			t.Fatal("a second sight did not admit the body")
		}
	}
	return first, admit
}

// TestInternerAdmissionAllocs: admitting a canonical body allocates exactly
// one object more than seeing it first, the entry; it keeps the scan's
// string as the body. A body only the reference decoder accepts costs one
// more, its single copy.
func TestInternerAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if first, admit := admissionAllocs(t, appBody(t, workload.VideoProcessing())); admit != first+1 {
		t.Errorf("canonical body: first sight %.0f allocs, admission %.0f, want one more", first, admit)
	}
	if first, admit := admissionAllocs(t, refBody(t)); admit != first+2 {
		t.Errorf("reference-decoded body: first sight %.0f allocs, admission %.0f, want two more", first, admit)
	}
}

// TestInternerReferenceBodyHeldOnce: a body only the reference decoder
// accepts is retained as one copy of its bytes, which the caller's buffer
// does not alias, and it is served only for equal bytes.
func TestInternerReferenceBodyHeldOnce(t *testing.T) {
	in, reg := newInterner()
	body := refBody(t)
	checkAgainstFresh(t, in, body)
	want := internStats{hits: 1, misses: 2, admitted: 1, entries: 1, bytes: len(body)}
	if s := statsOf(t, reg); s != want {
		t.Fatalf("%+v, want %+v", s, want)
	}
	held, ok := in.Held(body)
	if !ok || unsafe.StringData(held) == unsafe.SliceData(body) {
		t.Fatal("the body is not held in a copy of its own")
	}
	interned, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	// The same spec in other bytes: another case fold, and the canonical
	// form. Each is a miss answered by a fresh decode.
	for _, other := range [][]byte{
		bytes.Replace(body, []byte(`"Version"`), []byte(`"VERSION"`), 1),
		appBody(t, workload.VideoProcessing()),
	} {
		got, _, err := in.App(other)
		if err != nil {
			t.Fatal(err)
		}
		if got == interned {
			t.Fatalf("%.40s... was answered with the entry of other bytes", other)
		}
	}
	want.hits, want.misses = 2, 4
	if s := statsOf(t, reg); s != want {
		t.Fatalf("after two other forms: %+v, want %+v", s, want)
	}
}

// TestInternerRejectedBodiesNeverStored: an invalid spec costs a decode every
// time and leaves nothing behind, however often it repeats.
func TestInternerRejectedBodiesNeverStored(t *testing.T) {
	in, reg := newInterner()
	for i := 0; i < 3; i++ {
		for _, bad := range rejectedBodies {
			if app, _, err := in.App([]byte(bad)); err == nil || app != nil {
				t.Fatalf("%q accepted", bad)
			}
		}
	}
	if s := statsOf(t, reg); s.admitted != 0 || s.hits != 0 || s.bytes != 0 {
		t.Fatalf("rejected bodies left state behind: %+v", s)
	}
}

// rebuilt builds app again with edit applied to its spec: a built app is
// read-only.
func rebuilt(t testing.TB, app *dag.App, edit func(*wire.AppSpec)) *dag.App {
	t.Helper()
	spec := wire.AppSpecOf(app)
	edit(spec)
	out, err := spec.App()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oneVertex builds an app of one microservice, m.
func oneVertex(t testing.TB, name string) *dag.App {
	t.Helper()
	b := dag.Builder{Name: name}
	if err := b.Microservice(dag.Microservice{Name: "m", ImageSize: 1}); err != nil {
		t.Fatal(err)
	}
	app, err := b.App()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestInternerOversizedBodyNotRetained: a valid body past the retention
// bound is served correctly and never held, so a table full of
// near-MaxBodyBytes specs cannot pin memory.
func TestInternerOversizedBodyNotRetained(t *testing.T) {
	in, reg := newInterner()
	big := rebuilt(t, workload.VideoProcessing(), func(s *wire.AppSpec) { s.Name = strings.Repeat("n", wire.InternMaxBody+1) })
	body := appBody(t, big)
	checkAgainstFresh(t, in, body)
	if s := statsOf(t, reg); s != (internStats{misses: 3}) {
		t.Fatalf("oversized body: %+v, want three misses and nothing retained", s)
	}
}

// numberedBodies returns n distinct valid bodies and a key hash that sends
// body i to key i+1 — shard (i+1)%8 — so a test knows exactly which ring
// fills. The key hash sees a body's first InternKeyLen bytes, which hold its
// numbered name.
func numberedBodies(t *testing.T, n int) ([][]byte, func([]byte) uint64) {
	t.Helper()
	bodies := make([][]byte, n)
	keys := make(map[string]uint64, n)
	for i := range bodies {
		bodies[i] = appBody(t, oneVertex(t, fmt.Sprintf("app-%d", i)))
		prefix := string(bodies[i][:min(len(bodies[i]), wire.InternKeyLen)])
		if _, dup := keys[prefix]; dup {
			t.Fatalf("bodies share their first %d bytes: %s", wire.InternKeyLen, prefix)
		}
		keys[prefix] = uint64(i + 1)
	}
	return bodies, func(prefix []byte) uint64 { return keys[string(prefix)] }
}

// TestInternerEntryBound: SpecTableEntries hot bodies spread evenly fill the
// table; one more evicts one instead of growing it, and retained bytes track
// the entries exactly.
func TestInternerEntryBound(t *testing.T) {
	in, reg := newInterner()
	bodies, hash := numberedBodies(t, wire.SpecTableEntries+1)
	in.SetHash(hash)
	total := 0
	for _, body := range bodies[:wire.SpecTableEntries] {
		checkAgainstFresh(t, in, body)
		total += len(body)
	}
	if s := statsOf(t, reg); s.admitted != wire.SpecTableEntries || s.evicted != 0 || s.entries != wire.SpecTableEntries || s.bytes != total {
		t.Fatalf("full table: %+v, want %d admitted, 0 evicted, %d bytes", s, wire.SpecTableEntries, total)
	}
	extra := bodies[wire.SpecTableEntries]
	checkAgainstFresh(t, in, extra)
	s := statsOf(t, reg)
	if s.admitted != wire.SpecTableEntries+1 || s.evicted != 1 || s.entries != wire.SpecTableEntries {
		t.Fatalf("one body past a full table: %+v, want one more admission and exactly one eviction", s)
	}
	// The newcomer's key, SpecTableEntries+1, is 1 mod 8: it shares body 0's
	// shard, where the CLOCK hand started at that ring's first admission.
	if want := total + len(extra) - len(bodies[0]); s.bytes != want {
		t.Fatalf("retained %d bytes, want %d (newcomer in, body 0 out)", s.bytes, want)
	}
	if _, _, err := in.App(bodies[0]); err != nil {
		t.Fatal(err)
	}
	if after := statsOf(t, reg); after.hits != s.hits || after.misses != s.misses+1 {
		t.Fatalf("evicted body still served from the table: %+v -> %+v", s, after)
	}
}

// TestInternerFloodCannotGrowTable: under the real hash, far more distinct
// repeated bodies than the table holds leave it within its entry bound.
func TestInternerFloodCannotGrowTable(t *testing.T) {
	in, reg := newInterner()
	bodies, _ := numberedBodies(t, 3*wire.SpecTableEntries)
	perBody := 0
	for _, body := range bodies {
		for sight := 0; sight < 2; sight++ {
			if _, _, err := in.App(body); err != nil {
				t.Fatal(err)
			}
		}
		if len(body) > perBody {
			perBody = len(body)
		}
	}
	s := statsOf(t, reg)
	if held := s.admitted - s.evicted; held > wire.SpecTableEntries || held <= 0 || held != s.entries {
		t.Fatalf("table holds %d entries, bound is %d (%+v)", held, wire.SpecTableEntries, s)
	}
	if s.bytes > wire.SpecTableEntries*perBody {
		t.Fatalf("retained %d bytes, bound is %d", s.bytes, wire.SpecTableEntries*perBody)
	}
}

// TestInternerPrefixFloodNotAdmitted: bodies that share their key — the
// first InternKeyLen bytes — are still admitted on the second sight of the
// whole body, never on the first sight of a sibling.
func TestInternerPrefixFloodNotAdmitted(t *testing.T) {
	in, reg := newInterner()
	var bodies [][]byte
	for i := 0; i < 16; i++ {
		bodies = append(bodies, appBody(t, oneVertex(t, fmt.Sprintf("%s-%d", strings.Repeat("p", wire.InternKeyLen), i))))
	}
	for _, body := range bodies {
		if _, _, err := in.App(body); err != nil {
			t.Fatal(err)
		}
	}
	if s := statsOf(t, reg); s.admitted != 0 {
		t.Fatalf("one sight each of %d prefix-sharing bodies admitted %d", len(bodies), s.admitted)
	}
	checkAgainstFresh(t, in, bodies[0])
	if s := statsOf(t, reg); s.admitted != 1 {
		t.Fatalf("second sight of one body: %+v, want it alone admitted", s)
	}
}

// TestInternerCollisionNeverAliases forces every body onto one key: the
// InternWays residents keep being served for their own bytes, and a further
// body on the full key is decoded fresh every time — never answered with a
// resident's app, never displacing one.
func TestInternerCollisionNeverAliases(t *testing.T) {
	in, reg := newInterner()
	in.SetHash(func([]byte) uint64 { return 42 })
	bodies, _ := numberedBodies(t, wire.InternWays+1)
	residents := make([]*dag.App, wire.InternWays)
	total := 0
	for i, body := range bodies[:wire.InternWays] {
		checkAgainstFresh(t, in, body) // admitted under key 42
		app, _, err := in.App(body)
		if err != nil {
			t.Fatal(err)
		}
		residents[i] = app
		total += len(body)
	}
	extra := bodies[wire.InternWays]
	want, _ := fresh(extra)
	for i := 0; i < 4; i++ {
		got, _, err := in.App(extra)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range residents {
			if got == r || got.Name == r.Name {
				t.Fatalf("colliding body answered with app %q", r.Name)
			}
		}
		if !sameApp(got, want) {
			t.Fatal("colliding body's app differs from a fresh decode")
		}
	}
	for i, body := range bodies[:wire.InternWays] {
		if again, _, err := in.App(body); err != nil || again != residents[i] {
			t.Fatalf("resident %d no longer served after the collisions", i)
		}
	}
	if s := statsOf(t, reg); s.admitted != wire.InternWays || s.evicted != 0 || s.bytes != total {
		t.Fatalf("collisions changed the table: %+v", s)
	}
}

// TestInternerConcurrent: goroutines racing first sight, admission, and hits
// on a handful of bodies all get apps equal to a fresh decode (run under
// -race in CI).
func TestInternerConcurrent(t *testing.T) {
	in, _ := newInterner()
	apps := appCorpus(t)[:6]
	bodies := make([][]byte, len(apps))
	for i, app := range apps {
		bodies[i] = appBody(t, app)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (g + i) % len(bodies)
				got, _, err := in.App(bodies[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameApp(got, apps[k]) {
					t.Errorf("body %d: interned app differs from the original", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeAppSpec: the public decode path never panics; a rejected spec
// yields an error and no partial result; an accepted one survives
// AppSpecOf -> marshal -> decode -> App with its canonical digest intact.
func FuzzDecodeAppSpec(f *testing.F) {
	for _, app := range appCorpus(f) {
		f.Add(appBody(f, app))
	}
	for _, bad := range rejectedBodies {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := wire.DecodeAppSpec(data)
		if err != nil {
			if spec != nil {
				t.Fatal("rejected spec returned alongside its error")
			}
			return
		}
		app, err := spec.App()
		if err != nil {
			if app != nil {
				t.Fatal("partial app returned alongside its error")
			}
			return
		}
		raw, err := json.Marshal(wire.AppSpecOf(app))
		if err != nil {
			t.Fatalf("accepted app does not marshal: %v", err)
		}
		back, err := fresh(raw)
		if err != nil {
			t.Fatalf("accepted app does not survive the wire: %v", err)
		}
		if back.Digest() != app.Digest() {
			t.Fatal("wire round trip changed an accepted app's digest")
		}
	})
}

// FuzzInternerMatchesFresh: for any body, seen one, two and three times, the
// interner answers exactly as a fresh DecodeAppSpec + App would.
func FuzzInternerMatchesFresh(f *testing.F) {
	for _, app := range appCorpus(f) {
		f.Add(appBody(f, app))
	}
	for _, bad := range rejectedBodies {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		in, _ := newInterner()
		checkAgainstFresh(t, in, body)
	})
}
