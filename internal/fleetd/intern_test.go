package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"deep/internal/fleet"
	"deep/internal/wire"
	"deep/internal/workload"
)

// TestTrailingDataRejected table-tests all four strict decoders: each reads
// exactly one JSON value, and anything but whitespace after it is a 400
// invalid_request (an error, for the app spec decoder) instead of being
// silently dropped.
func TestTrailingDataRejected(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	post := func(url string) func([]byte) (int, []byte) {
		return func(body []byte) (int, []byte) {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, data
		}
	}
	spec := func(decode func([]byte) error) func([]byte) (int, []byte) {
		return func(body []byte) (int, []byte) {
			err := decode(body)
			if err == nil {
				return http.StatusOK, nil
			}
			// The envelope a handler would wrap this error in.
			rec := httptest.NewRecorder()
			writeError(rec, http.StatusBadRequest, codeInvalidRequest, err.Error(), 0)
			return rec.Code, rec.Body.Bytes()
		}
	}
	video := appJSON(t, workload.VideoProcessing())
	cases := []struct {
		name string
		send func([]byte) (int, []byte)
		body []byte
	}{
		{"handleDeploy", post(env.url + "/v1/deploy"), deployBody(t, "acme")},
		{"handleDeployBatch", post(env.url + "/v1/deploy:batch"), batchBody(t, "acme", video, video)},
		{"handleChurn", post(env.adminURL + "/v1/churn"), []byte(`{}`)},
		{"DecodeAppSpec", spec(func(b []byte) error { _, err := wire.DecodeAppSpec(b); return err }), video},
	}
	for _, tc := range cases {
		for _, ok := range []string{"", "\n", " \t\r\n "} {
			if status, data := tc.send(append(bytes.Clone(tc.body), ok...)); status != http.StatusOK {
				t.Errorf("%s + %q: status %d (%s), want 200", tc.name, ok, status, data)
			}
		}
		for _, tail := range []string{" garbage", "{}", `{"tenant":"b"}`, "]", "0", "\x00"} {
			status, data := tc.send(append(bytes.Clone(tc.body), tail...))
			if status != http.StatusBadRequest || errCode(t, data) != codeInvalidRequest {
				t.Errorf("%s + %q: status %d (%s), want 400 %s", tc.name, tail, status, data, codeInvalidRequest)
				continue
			}
			if !strings.Contains(string(data), "trailing data") {
				t.Errorf("%s + %q: error does not name the trailing data: %s", tc.name, tail, data)
			}
		}
	}
}

// internMetrics scrapes /metrics and returns the spec-table samples by
// suffix (hits, misses, admitted, evicted, entries, bytes), checking each
// family's declared type on the way.
func internMetrics(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, suffix := range []string{"hits", "misses", "admitted", "evicted", "entries", "bytes"} {
		name := "fleetd_spec_intern_" + suffix
		kind := "counter"
		if suffix == "entries" || suffix == "bytes" {
			kind = "gauge"
		}
		if !strings.Contains(string(text), "# TYPE "+name+" "+kind+"\n") {
			t.Fatalf("/metrics does not declare %s as a %s", name, kind)
		}
		found := false
		for _, line := range strings.Split(string(text), "\n") {
			var v int
			if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
				out[suffix], found = v, true
			}
		}
		if !found {
			t.Fatalf("/metrics carries no %s sample", name)
		}
	}
	return out
}

// TestSpecInternMetrics pins what a scrape shows as one body repeats — not
// retained after one sight, retained after two, hit on the third — on both
// deploy endpoints, and that /v1/stats (which harnesses decode strictly)
// did not grow.
func TestSpecInternMetrics(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	video := appJSON(t, workload.VideoProcessing())
	body := deployBody(t, "acme")
	want := []map[string]int{
		{"hits": 0, "misses": 1, "admitted": 0, "evicted": 0, "entries": 0, "bytes": 0},
		{"hits": 0, "misses": 2, "admitted": 1, "evicted": 0, "entries": 1, "bytes": len(video)},
		{"hits": 1, "misses": 2, "admitted": 1, "evicted": 0, "entries": 1, "bytes": len(video)},
	}
	for i, w := range want {
		if resp, data := postDeploy(t, env.url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("deploy %d: status %d: %s", i+1, resp.StatusCode, data)
		}
		if got := internMetrics(t, env.url); !reflect.DeepEqual(got, w) {
			t.Fatalf("after %d sights: %v, want %v", i+1, got, w)
		}
	}
	// The batch endpoint shares the table: three more items, three more hits.
	if resp, data := postBatch(t, env.url, batchBody(t, "acme", video, video, video)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	if got := internMetrics(t, env.url); got["hits"] != 4 || got["misses"] != 2 {
		t.Fatalf("after the batch: %v, want 4 hits and 2 misses", got)
	}

	resp, err := http.Get(env.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(stats), "intern") {
		t.Fatalf("/v1/stats grew spec-table fields: %s", stats)
	}
}

// TestSpecTableHoldsWhatPlacementsHold: the door's two app-keyed tables are
// sized alike, so in steady state a spec whose placement is memoized is not
// decoded again either.
func TestSpecTableHoldsWhatPlacementsHold(t *testing.T) {
	if wire.SpecTableEntries != fleet.DefaultCacheSize {
		t.Fatalf("spec table holds %d apps, placement cache %d by default", wire.SpecTableEntries, fleet.DefaultCacheSize)
	}
}

// TestOversizedSpecNotRetained: a valid 65 KiB app spec deploys every time
// and the table never holds it.
func TestOversizedSpecNotRetained(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 1}, Config{})
	big := rebuilt(t, workload.TextProcessing(), func(s *wire.AppSpec) { s.Name = strings.Repeat("n", 65<<10) })
	body, err := json.Marshal(map[string]any{"tenant": "acme", "app": json.RawMessage(appJSON(t, big))})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp, data := postDeploy(t, env.url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("deploy %d: status %d: %s", i+1, resp.StatusCode, data[:min(len(data), 200)])
		}
	}
	if got := internMetrics(t, env.url); got["admitted"] != 0 || got["entries"] != 0 || got["bytes"] != 0 || got["misses"] != 3 {
		t.Fatalf("oversized spec: %v, want 3 misses and nothing retained", got)
	}
}

// TestConcurrentDeploysShareInternedApp: eight clients deploying one body at
// once share a single interned *dag.App across handler goroutines and fleet
// workers (run under -race in CI) and all receive the same placement.
func TestConcurrentDeploysShareInternedApp(t *testing.T) {
	env := newEnv(t, fleet.Config{Workers: 4}, Config{})
	body := deployBody(t, "acme")
	const clients, rounds = 8, 12
	placements := make([][]map[string]AssignmentSpec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(env.url+"/v1/deploy", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out DeployResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, decode error %v", resp.StatusCode, err)
					return
				}
				placements[c] = append(placements[c], out.Placement)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := placements[0][0]
	if len(want) != len(workload.VideoProcessing().Microservices) {
		t.Fatalf("placement covers %d microservices", len(want))
	}
	for c := range placements {
		for r, p := range placements[c] {
			if !reflect.DeepEqual(p, want) {
				t.Fatalf("client %d round %d: placement differs from the first", c, r)
			}
		}
	}
	got := internMetrics(t, env.url)
	if got["hits"]+got["misses"] != clients*rounds || got["admitted"] != 1 || got["hits"] < clients*rounds-2*clients {
		t.Fatalf("spec table after %d deploys of one body: %v", clients*rounds, got)
	}
}

// TestProbeNeverTakesReferenceEntry: a spec the table admitted from the
// reference decoder (here a name written with an escape) is never taken at
// the scanner's cursor, so its envelope still declines and goes the
// fallback path; and a hit is counted once, where the request is built,
// however many times its envelope was probed before declining.
func TestProbeNeverTakesReferenceEntry(t *testing.T) {
	s, reg := stubServer(t, 0)
	h := s.Handler()
	hits := func() int {
		c, ok := reg.LookupCounter("fleetd_spec_intern_hits")
		if !ok {
			t.Fatal("fleetd_spec_intern_hits not interned")
		}
		return int(c.Value())
	}
	step := func(name, path, body string, status, fast, fallback, wantHits int) {
		t.Helper()
		if rec := serve(h, path, []byte(body)); rec.Code != status {
			t.Fatalf("%s: status %d (%s), want %d", name, rec.Code, rec.Body, status)
		}
		if gotFast, gotFallback := decodeCounts(t, s); gotFast != fast || gotFallback != fallback {
			t.Fatalf("%s: fast=%d fallback=%d, want %d and %d", name, gotFast, gotFallback, fast, fallback)
		}
		if got := hits(); got != wantHits {
			t.Fatalf("%s: %d hits, want %d", name, got, wantHits)
		}
	}

	escaped := `{"version":1,"name":"\u0041","microservices":[{"name":"m","image_size_bytes":1}]}`
	env := `{"tenant":"acme","app":` + escaped + `}`
	step("escaped spec, first sight", deployURL, env, 200, 0, 1, 0)
	step("escaped spec, admitted", deployURL, env, 200, 0, 2, 0)
	if _, _, ok := s.specs.ScanDeploy([]byte(env)); ok {
		t.Fatal("the table's scanner took a reference-decoded spec at its cursor")
	}
	step("escaped spec, interned", deployURL, env, 200, 0, 3, 1)

	video := string(appJSON(t, workload.VideoProcessing()))
	step("video, first sight", deployURL, `{"app":`+video+`}`, 200, 1, 3, 1)
	step("video, admitted", deployURL, `{"app":`+video+`}`, 200, 2, 3, 1)
	step("video, interned", deployURL, `{"app":`+video+`}`, 200, 3, 3, 2)
	// Probed twice, then declined for the duplicate key: the reference
	// decoder serves the last "app", one hit.
	step("duplicate app", deployURL, `{"app":`+video+`,"app":`+video+`}`, 200, 3, 4, 3)
	// Probed, then declined for the bytes after it, then rejected: no hit.
	step("trailing garbage", deployURL, `{"app":`+video+`} garbage`, 400, 3, 4, 3)
	step("batch, second item truncated", batchURL, `{"items":[{"app":`+video+`},{"app":`+video[:len(video)-1]+`}]}`, 400, 3, 4, 3)
}
