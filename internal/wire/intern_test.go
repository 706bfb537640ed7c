package wire_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

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
type internStats struct{ hits, misses, admitted, evicted, bytes int }

func statsOf(t testing.TB, reg *obs.Registry) internStats {
	t.Helper()
	counter := func(suffix string) int {
		c, ok := reg.LookupCounter(internName + suffix)
		if !ok {
			t.Fatalf("counter %s%s not interned", internName, suffix)
		}
		return int(c.Value())
	}
	// The bytes gauge is published by a collect hook; any exposition pass
	// runs it.
	reg.Vars()
	g, ok := reg.LookupGauge(internName + "_bytes")
	if !ok {
		t.Fatalf("gauge %s_bytes not interned", internName)
	}
	bytes, _ := g.Value()
	return internStats{counter("_hits"), counter("_misses"), counter("_admitted"), counter("_evicted"), int(bytes)}
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
	if s := statsOf(t, reg); s != (internStats{misses: 2, admitted: 1, bytes: len(body)}) {
		t.Fatalf("after two sights: %+v, want two misses, one admission, the body retained", s)
	}
	third, _, err := in.App(body)
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Fatal("third sight did not serve the interned app")
	}
	if s := statsOf(t, reg); s != (internStats{hits: 1, misses: 2, admitted: 1, bytes: len(body)}) {
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
// bound is served correctly and never held, so 256 near-MaxBodyBytes specs
// cannot pin memory.
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

// TestInternerEntryBound: 256 hot bodies spread evenly fill the table; the
// 257th evicts one instead of growing it, and retained bytes track the
// entries exactly.
func TestInternerEntryBound(t *testing.T) {
	in, reg := newInterner()
	bodies, hash := numberedBodies(t, wire.InternCap+1)
	in.SetHash(hash)
	total := 0
	for _, body := range bodies[:wire.InternCap] {
		checkAgainstFresh(t, in, body)
		total += len(body)
	}
	if s := statsOf(t, reg); s.admitted != wire.InternCap || s.evicted != 0 || s.bytes != total {
		t.Fatalf("full table: %+v, want %d admitted, 0 evicted, %d bytes", s, wire.InternCap, total)
	}
	extra := bodies[wire.InternCap]
	checkAgainstFresh(t, in, extra)
	s := statsOf(t, reg)
	if s.admitted != wire.InternCap+1 || s.evicted != 1 {
		t.Fatalf("257th body: %+v, want one more admission and exactly one eviction", s)
	}
	// Body i+1 ≡ 257 (mod 8) shares the newcomer's shard; the CLOCK hand
	// started at that ring's first admission, body 0.
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
	bodies, _ := numberedBodies(t, 3*wire.InternCap)
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
	if held := s.admitted - s.evicted; held > wire.InternCap || held <= 0 {
		t.Fatalf("table holds %d entries, bound is %d (%+v)", held, wire.InternCap, s)
	}
	if s.bytes > wire.InternCap*perBody {
		t.Fatalf("retained %d bytes, bound is %d", s.bytes, wire.InternCap*perBody)
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
