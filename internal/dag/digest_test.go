package dag_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sort"
	"strconv"
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
		b := dag.Builder{Name: "order"}
		for _, n := range names {
			if err := b.Microservice(dag.Microservice{Name: n, ImageSize: units.MB}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			if err := b.Dataflow(e[0], e[1], units.KB); err != nil {
				t.Fatal(err)
			}
		}
		a, err := b.App()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := build([]string{"a", "b", "c"}, [][2]string{{"a", "b"}, {"a", "c"}})
	b := build([]string{"c", "b", "a"}, [][2]string{{"a", "c"}, {"a", "b"}})
	if a.Digest() != b.Digest() {
		t.Fatal("declaration order changed the digest")
	}
}

// fuzzBytes hands out a fuzz input a byte at a time, zeros once it runs out.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

// name draws a one- or two-letter name over a three-letter alphabet, so
// repeated vertices, repeated edges and cycles are common.
func (f *fuzzBytes) name() string {
	c := f.next()
	s := string(rune('a' + c%3))
	if c&4 != 0 {
		s += string(rune('a' + (c>>3)%3))
	}
	return s
}

// FuzzDigestMatchesLegacy: vertices and edges drawn from the input — names
// repeated, edges repeated, dangling and cyclic, up to ten images a vertex
// (more than the digest sorts on the stack), arch lists nil, empty and not
// — are fed through one reused Builder. A refused addition leaves no trace,
// App either refuses the graph with an error or builds it, never panicking,
// and a built app's Digest is the legacy record stream byte for byte.
func FuzzDigestMatchesLegacy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte("\x07\x04abcdefghijklmnopqrstuvwxyz0123456789\x05\x01\x02\x03\x04\x05\x06"))
	f.Add(bytes.Repeat([]byte{0xff, 0x0a, 0x33}, 40))
	var b dag.Builder // reused across inputs, as a pool would reuse it
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		b.Reset()
		b.Name = in.name()
		var names []string // the vertices added
		edges := 0
		for n := int(in.next() % 9); n > 0; n-- {
			m := dag.Microservice{
				Name:          in.name(),
				ImageSize:     units.Bytes(in.next()) << (in.next() % 40),
				ExternalInput: units.Bytes(in.next()),
				Req: dag.Requirements{
					Cores:   int(in.next() % 9),
					CPU:     units.MI(in.next()) * 1.5,
					Memory:  units.Bytes(in.next()) << 20,
					Storage: units.Bytes(in.next()) << 10,
				},
			}
			switch arches := in.next(); arches % 4 {
			case 1:
				m.Arches = []dag.Arch{}
			case 2:
				m.Arches = []dag.Arch{dag.ARM64}
			case 3:
				m.Arches = []dag.Arch{dag.AMD64, dag.ARM64, dag.Arch(in.name())}
			}
			if images := int(in.next() % 11); images > 0 {
				m.Images = make(map[string]string, images)
				for i := 0; i < images; i++ {
					m.Images["reg"+strconv.Itoa(i)+in.name()] = in.name() + ":" + strconv.Itoa(int(in.next()))
				}
			}
			if b.Microservice(m) == nil {
				names = append(names, m.Name)
			}
		}
		// An endpoint is mostly an added vertex, so some graphs connect;
		// one draw in eight is any name, known or not.
		endpoint := func() string {
			c := in.next()
			if len(names) == 0 || c%8 == 7 {
				return in.name()
			}
			return names[int(c)%len(names)]
		}
		for n := int(in.next() % 12); n > 0; n-- {
			if b.Dataflow(endpoint(), endpoint(), units.Bytes(in.next())) == nil {
				edges++
			}
		}
		app, err := b.App()
		if err != nil {
			if app != nil {
				t.Fatalf("refused app returned for input %q", data)
			}
			return
		}
		if len(app.Microservices) != len(names) || len(app.Dataflows) != edges {
			t.Fatalf("built %d vertices and %d edges, %d and %d added, for input %q",
				len(app.Microservices), len(app.Dataflows), len(names), edges, data)
		}
		if app.Digest() != legacyAppDigest(app) {
			t.Fatalf("digest differs from the legacy record stream for input %q", data)
		}
	})
}
