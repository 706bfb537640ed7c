package dag_test

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
	"deep/internal/wire"
	"deep/internal/workload"
)

// legacyAppDigest is the fleet's per-request app digest as it stood before
// the digest moved onto dag.App (internal/fleet/cache.go, digester.appDigest,
// with its two insertion sorts). It is kept for this PR only, as the oracle
// that App.Digest did not shift any digest-keyed cache key.
func legacyAppDigest(app *dag.App) [sha256.Size]byte {
	h := sha256.New()
	ms := append([]*dag.Microservice(nil), app.Microservices...)
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Name < ms[j-1].Name; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	var buf []byte
	num := func(v int64) {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, v, 10)
	}
	field := func(s string) {
		num(int64(len(s)))
		buf = append(buf, '|')
		buf = append(buf, s...)
	}
	flush := func() {
		buf = append(buf, '\n')
		h.Write(buf)
		buf = buf[:0]
	}
	buf = append(buf, "app"...)
	field(app.Name)
	flush()
	for _, m := range ms {
		buf = append(buf, "ms"...)
		field(m.Name)
		num(int64(m.ImageSize))
		num(int64(m.ExternalInput))
		num(int64(len(m.Arches)))
		for _, a := range m.Arches {
			field(string(a))
		}
		num(int64(m.Req.Cores))
		num(int64(m.Req.CPU * 1e6))
		num(int64(m.Req.Memory))
		num(int64(m.Req.Storage))
		num(int64(len(m.Images)))
		flush()
		var keys []string
		for k := range m.Images {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, reg := range keys {
			buf = append(buf, "img"...)
			field(reg)
			field(m.Images[reg])
			flush()
		}
	}
	edges := append([]dag.Dataflow(nil), app.Dataflows...)
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j], edges[j-1]
			if a.From > b.From || (a.From == b.From && a.To >= b.To) {
				break
			}
			edges[j], edges[j-1] = b, a
		}
	}
	for _, e := range edges {
		buf = append(buf, "df"...)
		field(e.From)
		field(e.To)
		num(int64(e.Size))
		flush()
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// digestCorpus is the wire round-trip corpus: the two case-study apps and a
// spread of generated ones.
func digestCorpus(t *testing.T) []*dag.App {
	t.Helper()
	apps := workload.Apps()
	for _, n := range []int{1, 2, 5, 9, 16, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
	}
	return apps
}

// TestDigestMatchesLegacyFleetDigest pins digest stability across the move:
// for every corpus app, natively built and after a trip through the wire
// codec, App.Digest is byte-identical to what the fleet used to compute.
func TestDigestMatchesLegacyFleetDigest(t *testing.T) {
	for _, app := range digestCorpus(t) {
		want := legacyAppDigest(app)
		if got := app.Digest(); got != want {
			t.Errorf("%s: Digest differs from the legacy fleet digest", app.Name)
		}
		raw, err := json.Marshal(wire.AppSpecOf(app))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := wire.DecodeAppSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.App()
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Digest(); got != want {
			t.Errorf("%s: wire round trip changed the digest", app.Name)
		}
	}
}

// TestDigestDeclarationOrderIndependent: the digest canonicalizes vertex and
// edge order, so two builds of one graph in different orders collide.
func TestDigestDeclarationOrderIndependent(t *testing.T) {
	build := func(names []string, edges [][2]string) *dag.App {
		a := dag.NewApp("order")
		for _, n := range names {
			if err := a.AddMicroservice(&dag.Microservice{Name: n, ImageSize: units.MB}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			if err := a.AddDataflow(e[0], e[1], units.KB); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	a := build([]string{"a", "b", "c"}, [][2]string{{"a", "b"}, {"a", "c"}})
	b := build([]string{"c", "b", "a"}, [][2]string{{"a", "c"}, {"a", "b"}})
	if a.Digest() != b.Digest() {
		t.Fatal("declaration order changed the digest")
	}
}

// TestDigestMemoInvalidatedByMutation: the digest rides the same memo as
// Validate/TopoOrder/Stages — both mutation methods must drop it, and so
// must the length guard when the exported slices are written directly.
func TestDigestMemoInvalidatedByMutation(t *testing.T) {
	a := dag.NewApp("mut")
	for _, n := range []string{"a", "b"} {
		if err := a.AddMicroservice(&dag.Microservice{Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	d0 := a.Digest()
	if a.Digest() != d0 {
		t.Fatal("digest not stable between mutations")
	}
	if err := a.AddDataflow("a", "b", 7); err != nil {
		t.Fatal(err)
	}
	d1 := a.Digest()
	if d1 == d0 {
		t.Fatal("AddDataflow left a stale digest")
	}
	if err := a.AddMicroservice(&dag.Microservice{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	d2 := a.Digest()
	if d2 == d1 {
		t.Fatal("AddMicroservice left a stale digest")
	}
	if d2 != legacyAppDigest(a) {
		t.Fatal("post-mutation digest is not the digest of the mutated app")
	}
	a.Dataflows = nil // bypasses AddDataflow's invalidation
	if got := a.Digest(); got == d2 || got != legacyAppDigest(a) {
		t.Fatal("length guard did not drop the digest after a direct slice write")
	}
}

// TestDigestConcurrent: eight goroutines racing the first Digest call on one
// app all get the same value (run under -race in CI).
func TestDigestConcurrent(t *testing.T) {
	app := workload.VideoProcessing()
	want := legacyAppDigest(app)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if app.Digest() != want {
					t.Error("concurrent Digest returned a different value")
					return
				}
				if err := app.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
