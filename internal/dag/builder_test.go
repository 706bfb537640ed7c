package dag_test

import (
	"math"
	"reflect"
	"testing"

	"deep/internal/dag"
	"deep/internal/units"
	"deep/internal/workload"
)

// recipe is an app as a list of additions, for building it both ways.
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

// byAddPath builds r through NewApp, AddMicroservice, AddDataflow and
// Validate, stopping at the first error.
func byAddPath(r recipe) (*dag.App, error) {
	app := dag.NewApp(r.name)
	for _, m := range r.ms {
		if err := app.AddMicroservice(&m); err != nil {
			return nil, err
		}
	}
	for _, e := range r.edges {
		if err := app.AddDataflow(e.From, e.To, e.Size); err != nil {
			return nil, err
		}
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
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

// TestBuilderMatchesAddPath: on the digest corpus and on malformed variants
// of it, a Builder and the incremental methods accept and reject alike, with
// the same message, and build the same app — fields, walks and digest. An
// addition to a built app drops the memo the builder filled.
func TestBuilderMatchesAddPath(t *testing.T) {
	var b dag.Builder // one builder throughout, as a pool would reuse it
	cases := map[string]recipe{}
	for _, app := range digestCorpus(t) {
		cases[app.Name] = recipeOf(app)
	}
	for name, r := range malformed(recipeOf(workload.VideoProcessing())) {
		cases["video/"+name] = r
	}
	accepted, rejected := 0, 0
	for name, r := range cases {
		want, wantErr := byAddPath(r)
		got, err := byBuilder(&b, r)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: builder says %v, add path %v", name, err, wantErr)
			continue
		}
		if err != nil {
			if got != nil {
				t.Errorf("%s: rejected app returned", name)
			}
			rejected++
			continue
		}
		accepted++
		if got.Name != want.Name || !reflect.DeepEqual(got.Microservices, want.Microservices) || !reflect.DeepEqual(got.Dataflows, want.Dataflows) {
			t.Errorf("%s: built app differs from the add path's", name)
			continue
		}
		checkSameWalks(t, name, got, want)

		// The built app is a normal app: an addition drops its memo.
		if err := got.AddMicroservice(&dag.Microservice{Name: "zz-added"}); err != nil {
			t.Fatal(err)
		}
		if got.Digest() != legacyAppDigest(got) {
			t.Errorf("%s: AddMicroservice left the built app's digest stale", name)
		}
		if err := got.AddDataflow(got.Microservices[0].Name, "zz-added", 1); err != nil {
			t.Fatal(err)
		}
		if got.Digest() != legacyAppDigest(got) || got.Validate() != nil {
			t.Errorf("%s: AddDataflow left the built app's memo stale", name)
		}
	}
	// Every corpus app and five variants build; the 21 other variants fail.
	if want := len(digestCorpus(t)) + 5; accepted != want || rejected != 21 {
		t.Fatalf("%d accepted and %d rejected, want %d and 21", accepted, rejected, want)
	}
}

func checkSameWalks(t *testing.T, name string, got, want *dag.App) {
	t.Helper()
	if got.Validate() != nil || want.Validate() != nil {
		t.Errorf("%s: accepted app fails Validate", name)
	}
	gotTopo, err1 := got.TopoOrder()
	wantTopo, err2 := want.TopoOrder()
	gotStages, err3 := got.Stages()
	wantStages, err4 := want.Stages()
	gotOrder, err5 := got.Order()
	wantOrder, err6 := want.Order()
	for _, err := range []error{err1, err2, err3, err4, err5, err6} {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !reflect.DeepEqual(gotTopo, wantTopo) || !reflect.DeepEqual(gotStages, wantStages) || !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Errorf("%s: walks differ: topo %v / %v, stages %v / %v", name, gotTopo, wantTopo, gotStages, wantStages)
	}
	if d := got.Digest(); d != want.Digest() || d != legacyAppDigest(want) {
		t.Errorf("%s: digests differ", name)
	}
}

// TestHugeCPULoadRejected: a load at or past 2^63 instructions has no int64
// form for the digest to record (on amd64 all of them, and NaN, recorded
// one value, so 1e13 and 1e15 MI shared a digest); it is refused by name.
func TestHugeCPULoadRejected(t *testing.T) {
	for _, cpu := range []float64{1e13, 1e15, 0x1p63 / 1e6, math.NaN(), math.Inf(1)} {
		a := dag.NewApp("x")
		err := a.AddMicroservice(&dag.Microservice{Name: "m", Req: dag.Requirements{CPU: units.MI(cpu)}})
		if err == nil || len(a.Microservices) != 0 {
			t.Errorf("CPU load %g MI accepted", cpu)
			continue
		}
		if want := `dag: x: microservice "m" has CPU load`; err.Error()[:len(want)] != want {
			t.Errorf("CPU load %g MI: %v", cpu, err)
		}
	}
	a := dag.NewApp("x")
	if err := a.AddMicroservice(&dag.Microservice{Name: "m", Req: dag.Requirements{CPU: 9.2e12}}); err != nil {
		t.Errorf("9.2e12 MI (under 2^63 instructions) refused: %v", err)
	}
}
