package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/sim"
	"deep/internal/units"
	"deep/internal/workload"
)

// deployResponseOf copies a successful fleet response into its wire form.
// With referenceEncode it is the reflective answer path the appended one
// replaced, kept as the oracle the append encoder must equal byte for byte.
func deployResponseOf(resp *fleet.Response) DeployResponse {
	out := DeployResponse{
		Tenant:      resp.Tenant,
		App:         resp.App,
		Epoch:       resp.Epoch,
		CacheHit:    resp.CacheHit,
		Degraded:    resp.Degraded,
		QueueWaitMS: float64(resp.QueueWait) / float64(time.Millisecond),
		LatencyMS:   float64(resp.Latency) / float64(time.Millisecond),
		Placement:   make(map[string]AssignmentSpec, resp.Placement.Len()),
		MakespanS:   resp.Result.Makespan,
		EnergyJ:     float64(resp.Result.TotalEnergy),
	}
	for ms, a := range resp.Placement.All() {
		out.Placement[ms] = AssignmentSpec{Device: a.Device, Registry: a.Registry}
	}
	return out
}

// referenceEncode is what writeJSON sends for v.
func referenceEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func referenceDeploy(resp *fleet.Response) ([]byte, error) {
	return referenceEncode(deployResponseOf(resp))
}

func referenceBatch(tenant string, resps []*fleet.Response) ([]byte, error) {
	out := DeployBatchResponse{Tenant: tenant, Results: make([]DeployBatchResult, 0, len(resps))}
	for _, resp := range resps {
		res := DeployBatchResult{Index: resp.Index}
		if resp.Err != nil {
			_, code := answerError(resp.Err)
			res.Error = &BatchItemError{Code: code, Message: resp.Err.Error()}
		} else {
			d := deployResponseOf(resp)
			res.Deploy = &d
		}
		out.Results = append(out.Results, res)
	}
	return referenceEncode(out)
}

// appendSingle and appendBatch append exactly what the two deploy handlers
// send, trailing newline included; stored counts the deploy tails copied
// from a response's Encoded slot.
func appendSingle(dst []byte, resp *fleet.Response) (_ []byte, stored int, ok bool) {
	dst, fromSlot, ok := appendDeploy(dst, resp)
	if fromSlot {
		stored = 1
	}
	return append(dst, '\n'), stored, ok
}

func appendBatch(dst []byte, tenant string, resps []*fleet.Response) (_ []byte, stored int, ok bool) {
	dst = appendBatchOpen(dst, tenant)
	for i, resp := range resps {
		if i > 0 {
			dst = append(dst, ',')
		}
		var fromSlot bool
		if dst, fromSlot, ok = appendBatchResult(dst, resp); !ok {
			return dst, stored, false
		}
		if fromSlot {
			stored++
		}
	}
	return append(dst, "]}\n"...), stored, true
}

// checkEncode asserts that the append encoder and the reference agree: both
// refuse, or both succeed with the same bytes.
func checkEncode(t *testing.T, name string, got []byte, ok bool, want []byte, err error) {
	t.Helper()
	if ok != (err == nil) {
		t.Fatalf("%s: append ok=%v, reference error %v", name, ok, err)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("%s:\nappend    %q\nreference %q", name, got, want)
	}
}

// withSlots returns copies of resps in which every deploy carries an empty
// Encoded slot of its own, as the fleet hands one out on a memoized hit.
func withSlots(resps ...*fleet.Response) []*fleet.Response {
	out := make([]*fleet.Response, len(resps))
	for i, resp := range resps {
		c := *resp
		if c.Err == nil {
			c.Encoded = new(fleet.Encoded)
		}
		out[i] = &c
	}
	return out
}

// checkStored encodes resps twice through encode after withSlots gave them
// empty slots. Both answers must be the reference bytes, or both refused.
// The first must fill every deploy's slot and copy from none, the second
// must copy every deploy's tail from its slot; a refused answer leaves the
// slot of each deploy whose floats do not encode empty.
func checkStored(t *testing.T, name string, resps []*fleet.Response,
	encode func([]*fleet.Response) ([]byte, int, bool), want []byte, err error) {
	t.Helper()
	resps = withSlots(resps...)
	deploys := 0
	for _, resp := range resps {
		if resp.Err == nil {
			deploys++
		}
	}
	for pass := range 2 {
		got, stored, ok := encode(resps)
		checkEncode(t, fmt.Sprintf("%s, stored pass %d", name, pass), got, ok, want, err)
		if !ok {
			for _, resp := range resps {
				if resp.Err == nil && !encodable(resp) && resp.Encoded.Load() != nil {
					t.Fatalf("%s, stored pass %d: a refused answer filled its slot", name, pass)
				}
			}
			continue
		}
		if wantStored := pass * deploys; stored != wantStored {
			t.Fatalf("%s, stored pass %d: %d tails from slots, want %d", name, pass, stored, wantStored)
		}
		for _, resp := range resps {
			if resp.Err == nil && resp.Encoded.Load() == nil {
				t.Fatalf("%s, stored pass %d: a deploy left its slot empty", name, pass)
			}
		}
	}
}

func encodable(resp *fleet.Response) bool {
	return finite(resp.Result.Makespan) && finite(float64(resp.Result.TotalEnergy))
}

// fleetFixtures deploys each app twice on a real fleet (a miss, then a
// placement-cache hit) and returns unmanaged copies of the responses, so
// tests may edit and keep them.
func fleetFixtures(t testing.TB, cluster func() *sim.Cluster, apps ...*dag.App) []*fleet.Response {
	t.Helper()
	f := fleet.New(fleet.Config{Workers: 1, NewCluster: cluster})
	defer f.Close()
	var out []*fleet.Response
	for _, app := range apps {
		for range 2 {
			resp, err := f.Do(context.Background(), fleet.Request{Tenant: "acme", App: app})
			if err != nil || resp.Err != nil {
				t.Fatalf("deploying %s: %v %v", app.Name, err, resp.Err)
			}
			if resp.Placement.Len() == 0 {
				t.Fatalf("deploying %s: empty placement", app.Name)
			}
			out = append(out, &fleet.Response{
				Tenant: resp.Tenant, App: resp.App,
				Placement: fleet.NewPlacementView(resp.Placement.Materialize()),
				Result:    resp.Result.Clone(),
				CacheHit:  resp.CacheHit, QueueWait: resp.QueueWait, Latency: resp.Latency,
				Epoch: resp.Epoch, Degraded: resp.Degraded,
			})
			resp.Release()
		}
	}
	return out
}

func generated(t testing.TB, n int, seed int64) *dag.App {
	t.Helper()
	app, err := workload.Generate(workload.DefaultGeneratorConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func scaled() *sim.Cluster { return workload.ScaledTestbed(6) }

// TestEncodeMatchesReference: on real placements of the case studies and of
// generated apps, on an empty placement, and in batches mixing deploys with
// errors whose messages need escaping, the appended answers are the bytes
// encoding/json writes.
func TestEncodeMatchesReference(t *testing.T) {
	resps := fleetFixtures(t, workload.Testbed, workload.VideoProcessing(), workload.TextProcessing())
	var apps []*dag.App
	for seed := int64(1); seed <= 3; seed++ {
		apps = append(apps, generated(t, 16, seed), generated(t, 9, seed))
	}
	resps = append(resps, fleetFixtures(t, scaled, apps...)...)
	resps = append(resps, &fleet.Response{Tenant: "t", App: "empty", Result: &sim.Result{}})
	degraded := *resps[0]
	degraded.Degraded, degraded.Epoch, degraded.QueueWait = true, 7, 1500*time.Microsecond
	resps = append(resps, &degraded)
	if !resps[1].CacheHit {
		t.Fatal("second deploy of the same app missed the placement cache")
	}

	single := func(resps []*fleet.Response) ([]byte, int, bool) { return appendSingle(nil, resps[0]) }
	for i, resp := range resps {
		name := fmt.Sprintf("deploy %d (%s)", i, resp.App)
		got, _, ok := appendSingle(nil, resp)
		want, err := referenceDeploy(resp)
		checkEncode(t, name, got, ok, want, err)
		checkStored(t, name, []*fleet.Response{resp}, single, want, err)
	}

	failures := []error{
		errors.New(`scheduler said "no" <&> to` + "\nnaïve 日本 input"),
		fmt.Errorf("item: %w", fleet.ErrDeadline),
		context.Canceled,
	}
	var batch []*fleet.Response
	for i, resp := range resps {
		item := *resp
		item.Index = len(batch)
		batch = append(batch, &item)
		if i < len(failures) {
			batch = append(batch, &fleet.Response{Index: len(batch), Err: failures[i]})
		}
	}
	for _, tenant := range []string{"acme", "a<b&c>d", `ten"ant`} {
		encode := func(resps []*fleet.Response) ([]byte, int, bool) { return appendBatch(nil, tenant, resps) }
		for _, items := range [][]*fleet.Response{batch, batch[:1], batch[1:2]} {
			name := fmt.Sprintf("batch of %d for %q", len(items), tenant)
			got, _, ok := appendBatch(nil, tenant, items)
			want, err := referenceBatch(tenant, items)
			checkEncode(t, name, got, ok, want, err)
			checkStored(t, name, items, encode, want, err)
		}
	}
}

// escapeDense is the alphabet fuzzed strings are drawn from: plain bytes,
// every character encoding/json escapes, multi-byte UTF-8, the two line
// separators it escapes for JavaScript, and invalid UTF-8 of several kinds.
var escapeDense = []string{
	"a", "Z", "0", "-", "_", ".", " ", "/", "\x7f",
	`"`, `\`, "<", ">", "&",
	"\x00", "\b", "\f", "\n", "\r", "\t", "\x1f",
	"é", "日", "😀", "\u2028", "\u2029", "\ufffd",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\x80",
}

func drawString(b []byte) string {
	var s []byte
	for _, c := range b {
		s = append(s, escapeDense[int(c)%len(escapeDense)]...)
	}
	return string(s)
}

// FuzzEncodeMatchesReference: for any strings drawn from the escape-dense
// alphabet and any floats, a deploy answer and a batch answer holding it and
// an error item are the bytes encoding/json writes — and a NaN or ±Inf
// makespan or energy fails on both sides. Each is also encoded twice from an
// empty Encoded slot: the first fills it, the second copies its tail, both
// are the reference bytes, and a refused answer leaves the slot empty.
func FuzzEncodeMatchesReference(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e21, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 123.456, 1e-7,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, x := range seeds {
		f.Add([]byte("acme"), []byte("video"), []byte("ms,dev,reg,\"\\<,\xff,\x00"), int64(i), int64(1), int64(1500000),
			x, seeds[len(seeds)-1-i], uint8(i))
	}
	f.Fuzz(func(t *testing.T, tenant, app, names []byte, epoch, queueWait, latency int64, makespan, energy float64, flags uint8) {
		placement := sim.Placement{}
		parts := bytes.Split(names, []byte{','})
		for k := 0; k+2 < len(parts); k += 3 {
			placement[drawString(parts[k])] = sim.Assignment{Device: drawString(parts[k+1]), Registry: drawString(parts[k+2])}
		}
		resp := &fleet.Response{
			Tenant: drawString(tenant), App: drawString(app), Placement: fleet.NewPlacementView(placement),
			Result:   &sim.Result{Makespan: makespan, TotalEnergy: units.Joules(energy)},
			CacheHit: flags&1 != 0, Degraded: flags&2 != 0, Epoch: epoch,
			QueueWait: time.Duration(queueWait), Latency: time.Duration(latency),
		}
		got, _, ok := appendSingle(nil, resp)
		want, err := referenceDeploy(resp)
		checkEncode(t, "deploy", got, ok, want, err)
		checkStored(t, "deploy", []*fleet.Response{resp},
			func(resps []*fleet.Response) ([]byte, int, bool) { return appendSingle(nil, resps[0]) }, want, err)

		failed := &fleet.Response{Index: 1, Err: errors.New(drawString(names))}
		batch := []*fleet.Response{resp, failed}
		if flags&4 != 0 {
			batch[0], batch[1] = failed, resp
			failed.Index, resp.Index = 0, 1
		}
		got, _, ok = appendBatch(nil, resp.Tenant, batch)
		want, err = referenceBatch(resp.Tenant, batch)
		checkEncode(t, "batch", got, ok, want, err)
		checkStored(t, "batch", batch,
			func(resps []*fleet.Response) ([]byte, int, bool) { return appendBatch(nil, resp.Tenant, resps) }, want, err)
	})
}

// TestAppendDeployAllocs gates the append encoder at zero allocations for a
// warm answer (case-study names, finite floats) into a buffer already grown,
// both encoded and copied from a filled Encoded slot.
func TestAppendDeployAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	resps := fleetFixtures(t, workload.Testbed, workload.VideoProcessing())
	for i, resp := range resps {
		resp.Index = i
	}
	slotted := withSlots(resps...)
	buf := make([]byte, 0, 16<<10)
	if buf, _, _ = appendBatch(buf[:0], "acme", slotted); slotted[1].Encoded.Load() == nil {
		t.Fatal("encoding left the slot empty")
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"warm deploy answer", func() { buf, _, _ = appendSingle(buf[:0], resps[1]) }},
		{"warm batch answer", func() { buf, _, _ = appendBatch(buf[:0], "acme", resps) }},
		{"stored deploy answer", func() { buf, _, _ = appendSingle(buf[:0], slotted[1]) }},
		{"stored batch answer", func() { buf, _, _ = appendBatch(buf[:0], "acme", slotted) }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s: %.1f allocs, want 0", c.name, got)
		}
	}
}

// BenchmarkFrontDoorEncode times one deploy answer — a case-study
// placement, a 16-microservice generated one, and a 16-item batch of the
// latter — through the reflective reference (deployResponseOf, then
// json.Encoder into a fresh buffer, as writeJSON did) and through the append
// encoder into a reused buffer, as the handlers do on a miss or a first hit.
// The stored rows are what they do on a memoized hit: each response carries
// a filled Encoded slot, so only the head is encoded.
func BenchmarkFrontDoorEncode(b *testing.B) {
	single := fleetFixtures(b, workload.Testbed, workload.VideoProcessing())[1]
	synthetic := fleetFixtures(b, scaled, generated(b, 16, 1))[1]
	batch := make([]*fleet.Response, 16)
	for i := range batch {
		item := *synthetic
		item.Index = i
		batch[i] = &item
	}
	row := func(name string, reference func() ([]byte, error), appended func([]byte) ([]byte, int, bool)) {
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := reference(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/append", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				var ok bool
				if buf, _, ok = appended(buf[:0]); !ok {
					b.Fatal("not encodable")
				}
			}
		})
	}
	for _, r := range []struct {
		name string
		resp *fleet.Response
	}{{"single_casestudy", single}, {"single_synthetic16", synthetic}} {
		row(r.name, func() ([]byte, error) { return referenceDeploy(r.resp) },
			func(dst []byte) ([]byte, int, bool) { return appendSingle(dst, r.resp) })
	}
	row("batch16", func() ([]byte, error) { return referenceBatch("acme", batch) },
		func(dst []byte) ([]byte, int, bool) { return appendBatch(dst, "acme", batch) })

	stored := func(name string, appended func([]byte) ([]byte, int, bool), want int) {
		if _, n, ok := appended(nil); !ok || n != 0 {
			b.Fatalf("%s: filling the slots: ok=%v, %d tails from slots", name, ok, n)
		}
		b.Run(name+"/stored", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				var n int
				if buf, n, _ = appended(buf[:0]); n != want {
					b.Fatalf("%d tails from slots, want %d", n, want)
				}
			}
		})
	}
	singleSlotted := withSlots(single)[0]
	stored("single_casestudy", func(dst []byte) ([]byte, int, bool) { return appendSingle(dst, singleSlotted) }, 1)
	batchSlotted := withSlots(batch...)
	stored("batch16", func(dst []byte) ([]byte, int, bool) { return appendBatch(dst, "acme", batchSlotted) }, len(batch))
}
