package dag_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
	"deep/internal/workload"
)

// recipe is an app as a list of additions.
type recipe struct {
	name  string
	ms    []dag.Microservice
	edges []dag.Dataflow
}

func recipeOf(app *dag.App) recipe {
	r := recipe{name: app.Name, edges: append([]dag.Dataflow(nil), app.Dataflows...)}
	for _, m := range app.Microservices {
		r.ms = append(r.ms, *m)
	}
	return r
}

// byBuilder builds r through b, stopping at the first error.
func byBuilder(b *dag.Builder, r recipe) (*dag.App, error) {
	b.Reset()
	b.Name = r.name
	for _, m := range r.ms {
		if err := b.Microservice(m); err != nil {
			return nil, err
		}
	}
	for _, e := range r.edges {
		if err := b.Dataflow(e.From, e.To, e.Size); err != nil {
			return nil, err
		}
	}
	return b.App()
}

// malformed derives from a valid app one recipe per way an addition or
// the final validation can fail.
func malformed(base recipe) map[string]recipe {
	with := func(edit func(r *recipe)) recipe {
		r := recipe{name: base.name, ms: append([]dag.Microservice(nil), base.ms...), edges: append([]dag.Dataflow(nil), base.edges...)}
		edit(&r)
		return r
	}
	first := base.ms[0].Name
	out := map[string]recipe{
		"empty name":       with(func(r *recipe) { r.ms[1].Name = "" }),
		"duplicate vertex": with(func(r *recipe) { r.ms = append(r.ms, dag.Microservice{Name: first}) }),
		"no vertices":      {name: base.name},
		"dangling from":    with(func(r *recipe) { r.edges = append(r.edges, dag.Dataflow{From: "nowhere", To: first}) }),
		"dangling to":      with(func(r *recipe) { r.edges = append(r.edges, dag.Dataflow{From: first, To: "nowhere"}) }),
		"self-loop":        with(func(r *recipe) { r.edges = append(r.edges, dag.Dataflow{From: first, To: first}) }),
		"negative edge":    with(func(r *recipe) { r.edges[0].Size = -1 }),
		"duplicate edge":   with(func(r *recipe) { r.edges = append(r.edges, r.edges[0]) }),
		"cycle": with(func(r *recipe) {
			e := r.edges[0]
			r.edges = append(r.edges, dag.Dataflow{From: e.To, To: e.From})
		}),
		"disconnected": with(func(r *recipe) { r.ms = append(r.ms, dag.Microservice{Name: "island"}) }),
		"no edges":     with(func(r *recipe) { r.edges = nil }),
		"second only": with(func(r *recipe) {
			r.ms, r.edges = []dag.Microservice{r.ms[1]}, nil
			r.ms[0].Arches = nil
		}),
	}
	vertexEdits := map[string]func(m *dag.Microservice){
		"negative image size":     func(m *dag.Microservice) { m.ImageSize = -1 },
		"negative cores":          func(m *dag.Microservice) { m.Req.Cores = -1 },
		"negative CPU":            func(m *dag.Microservice) { m.Req.CPU = -1 },
		"negative memory":         func(m *dag.Microservice) { m.Req.Memory = -1 },
		"negative storage":        func(m *dag.Microservice) { m.Req.Storage = -1 },
		"negative external input": func(m *dag.Microservice) { m.ExternalInput = -1 },
		"CPU 1e13":                func(m *dag.Microservice) { m.Req.CPU = 1e13 },
		"CPU NaN":                 func(m *dag.Microservice) { m.Req.CPU = units.MI(math.NaN()) },
		"CPU +Inf":                func(m *dag.Microservice) { m.Req.CPU = units.MI(math.Inf(1)) },
		"CPU at the bound":        func(m *dag.Microservice) { m.Req.CPU = 0x1p63 / 1e6 },
		"CPU below the bound":     func(m *dag.Microservice) { m.Req.CPU = 9e12 },
		"nil arches":              func(m *dag.Microservice) { m.Arches = nil },
		"empty arches":            func(m *dag.Microservice) { m.Arches = []dag.Arch{} },
		"images":                  func(m *dag.Microservice) { m.Images = map[string]string{"hub": "x:1", "edge": "y:2"} },
	}
	for name, edit := range vertexEdits {
		out[name] = with(func(r *recipe) { edit(&r.ms[len(r.ms)-1]) })
	}
	return out
}

// malformedMessages is what a Builder answers each malformed variant of the
// video case study with, "" for the five it accepts. The messages are part
// of the front door's 400 answers, so each is pinned exactly.
var malformedMessages = map[string]string{
	"empty name":              `dag: video: microservice with empty name`,
	"duplicate vertex":        `dag: video: duplicate microservice "video/transcode"`,
	"no vertices":             `dag: video: no microservices`,
	"dangling from":           `dag: video: dataflow from unknown microservice "nowhere"`,
	"dangling to":             `dag: video: dataflow to unknown microservice "nowhere"`,
	"self-loop":               `dag: video: self-loop on "video/transcode"`,
	"negative edge":           `dag: video: negative dataflow size video/transcode->video/frame`,
	"duplicate edge":          `dag: video: duplicate dataflow video/transcode->video/frame`,
	"cycle":                   `dag: video: cycle detected`,
	"disconnected":            `dag: video: application graph is not connected`,
	"no edges":                `dag: video: application graph is not connected`,
	"second only":             "",
	"negative image size":     `dag: video: microservice "video/la-infer" has negative image size`,
	"negative cores":          `dag: video: microservice "video/la-infer" has negative cores`,
	"negative CPU":            `dag: video: microservice "video/la-infer" has negative CPU load`,
	"negative memory":         `dag: video: microservice "video/la-infer" has negative memory`,
	"negative storage":        `dag: video: microservice "video/la-infer" has negative storage`,
	"negative external input": `dag: video: microservice "video/la-infer" has negative external input`,
	"CPU 1e13":                `dag: video: microservice "video/la-infer" has CPU load 1e+13 MI, not below 2^63 instructions`,
	"CPU NaN":                 `dag: video: microservice "video/la-infer" has CPU load NaN MI, not below 2^63 instructions`,
	"CPU +Inf":                `dag: video: microservice "video/la-infer" has CPU load +Inf MI, not below 2^63 instructions`,
	"CPU at the bound":        `dag: video: microservice "video/la-infer" has CPU load 9.223372036854775e+12 MI, not below 2^63 instructions`,
	"CPU below the bound":     "",
	"nil arches":              "",
	"empty arches":            "",
	"images":                  "",
}

// TestBuilderMatchesAddPath: one reused Builder rejects each malformed
// variant of the video case study with its pinned message, returning no
// app, and builds each accepted variant and every digest-corpus app with a
// correct ordering walk and the legacy digest. A corpus app rebuilt from
// its own recipe is the same app.
func TestBuilderMatchesAddPath(t *testing.T) {
	var b dag.Builder // one builder throughout, as a pool would reuse it
	variants := malformed(recipeOf(workload.VideoProcessing()))
	if len(variants) != len(malformedMessages) {
		t.Fatalf("%d malformed variants, %d pinned messages", len(variants), len(malformedMessages))
	}
	rejected := 0
	for name, r := range variants {
		want, ok := malformedMessages[name]
		if !ok {
			t.Errorf("%s: no pinned message", name)
			continue
		}
		got, err := byBuilder(&b, r)
		if want != "" {
			rejected++
			if err == nil || err.Error() != want || got != nil {
				t.Errorf("%s: builder says %v (app %v), want %q", name, err, got != nil, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: rejected: %v", name, err)
			continue
		}
		checkBuilt(t, name, got)
	}
	if rejected != 21 {
		t.Fatalf("%d variants rejected, want 21", rejected)
	}
	for _, app := range digestCorpus(t) {
		got, err := byBuilder(&b, recipeOf(app))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if got.Name != app.Name || !reflect.DeepEqual(got.Microservices, app.Microservices) || !reflect.DeepEqual(got.Dataflows, app.Dataflows) ||
			!reflect.DeepEqual(got.Order(), app.Order()) || got.Digest() != app.Digest() {
			t.Errorf("%s: rebuilt app differs from the original", app.Name)
		}
		checkBuilt(t, app.Name, got)
	}
}

// checkBuilt holds a built app's stored walk and digest to their
// definitions: ranks are name order, Topo is Kahn's algorithm taking the
// least-named ready vertex, levels are longest paths from a source, edge
// ranks name their endpoints, and the digest is the legacy record stream.
func checkBuilt(t *testing.T, name string, app *dag.App) {
	t.Helper()
	ord, ms := app.Order(), app.Microservices
	nameOf := func(v int32) string { return ms[v].Name }
	byName := make([]string, len(ms))
	for i, m := range ms {
		byName[i] = m.Name
	}
	slices.Sort(byName)
	for r, v := range ord.ByName {
		if nameOf(v) != byName[r] || ord.Rank[v] != int32(r) {
			t.Errorf("%s: rank %d holds %q (rank back %d)", name, r, nameOf(v), ord.Rank[v])
			return
		}
	}
	for i, e := range app.Dataflows {
		if byName[ord.From[i]] != e.From || byName[ord.To[i]] != e.To {
			t.Errorf("%s: edge %d ranks do not name %s->%s", name, i, e.From, e.To)
			return
		}
	}
	// Kahn's algorithm by name, and longest paths, the slow way.
	indeg, level := map[string]int{}, map[string]int32{}
	for _, e := range app.Dataflows {
		indeg[e.To]++
	}
	var topo []string
	done := map[string]bool{}
	for len(topo) < len(ms) {
		next := ""
		for _, n := range byName {
			if !done[n] && indeg[n] == 0 {
				next = n
				break
			}
		}
		done[next] = true
		topo = append(topo, next)
		for _, e := range app.Dataflows {
			if e.From == next {
				indeg[e.To]--
				level[e.To] = max(level[e.To], level[next]+1)
			}
		}
	}
	stages := 0
	for i, v := range ord.Topo {
		if nameOf(v) != topo[i] || ord.Level[v] != level[topo[i]] {
			t.Errorf("%s: topo %d is %q at level %d, want %q at %d", name, i, nameOf(v), ord.Level[v], topo[i], level[topo[i]])
			return
		}
		stages = max(stages, int(ord.Level[v])+1)
	}
	if ord.Stages != stages || len(app.Stages()) != stages {
		t.Errorf("%s: %d stages recorded, %d in Stages, want %d", name, ord.Stages, len(app.Stages()), stages)
	}
	if app.Digest() != legacyAppDigest(app) {
		t.Errorf("%s: digest differs from the legacy record stream", name)
	}
}

// TestHugeCPULoadRejected: a load at or past 2^63 instructions has no int64
// form for the digest to record (on amd64 all of them, and NaN, recorded
// one value, so 1e13 and 1e15 MI shared a digest); it is refused by name.
func TestHugeCPULoadRejected(t *testing.T) {
	for _, cpu := range []float64{1e13, 1e15, 0x1p63 / 1e6, math.NaN(), math.Inf(1)} {
		b := dag.Builder{Name: "x"}
		err := b.Microservice(dag.Microservice{Name: "m", Req: dag.Requirements{CPU: units.MI(cpu)}})
		if err == nil {
			t.Errorf("CPU load %g MI accepted", cpu)
			continue
		}
		if want := `dag: x: microservice "m" has CPU load`; err.Error()[:len(want)] != want {
			t.Errorf("CPU load %g MI: %v", cpu, err)
		}
		if _, err := b.App(); err == nil {
			t.Errorf("CPU load %g MI: the refused vertex was added", cpu)
		}
	}
	b := dag.Builder{Name: "x"}
	if err := b.Microservice(dag.Microservice{Name: "m", Req: dag.Requirements{CPU: 9.2e12}}); err != nil {
		t.Errorf("9.2e12 MI (under 2^63 instructions) refused: %v", err)
	}
}
