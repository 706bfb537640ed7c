package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"deep/internal/fleet"
	"deep/internal/obs"
	"deep/internal/sim"
	"deep/internal/workload"
)

// stubServer is a server over the stub backend, whose 200s carry no timings:
// every response is a fixed byte string. maxBody 0 means the default limit.
func stubServer(t testing.TB, maxBody int64) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: &stubBackend{workers: 1}, Registry: reg, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// serve posts body to path on the handler itself, no socket.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

const (
	smallApp  = `{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1,"cpu_mi":2.5}]}`
	deployURL = "/v1/deploy"
	batchURL  = "/v1/deploy:batch"
)

// declinedCases, posted to a server with a 4 KiB body limit, are bodies the scanners decline: valid ones outside the
// canonical subset, which the reference decoder serves, and invalid ones,
// which it rejects in its own words. want is the parent commit's response —
// status, then body — recorded by running this table there (DECLINED_RECORD=1
// prints it); the reference decoder still words every one of them, so the
// bytes must not move.
var declinedCases = []struct {
	name, path, body, want string
}{
	{"case-folded key", deployURL, `{"Tenant":"acme","app":` + smallApp + `}`,
		"200 {\"tenant\":\"acme\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}\n"},
	{"duplicate app", deployURL, `{"tenant":"acme","app":{"version":1,"name":"first"},"app":` + smallApp + `}`,
		"200 {\"tenant\":\"acme\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}\n"},
	{"string escape", deployURL, `{"tenant":"\u0041cme","app":` + smallApp + `}`,
		"200 {\"tenant\":\"Acme\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}\n"},
	{"escape in spec", deployURL, `{"app":{"version":1,"name":"\u0061","microservices":[{"name":"m"}]}}`,
		"200 {\"tenant\":\"default\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}\n"},
	{"null fields", deployURL, `{"tenant":null,"seed":null,"app":` + smallApp + `}`,
		"200 {\"tenant\":\"default\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}\n"},
	{"exponent seed", deployURL, `{"seed":1e3,"app":` + smallApp + `}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: json: cannot unmarshal number 1e3 into Go struct field DeployRequest.seed of type int64\"}}\n"},
	{"fraction seed", deployURL, `{"seed":1.0,"app":` + smallApp + `}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: json: cannot unmarshal number 1.0 into Go struct field DeployRequest.seed of type int64\"}}\n"},
	{"20-digit seed", deployURL, `{"seed":12345678901234567890,"app":` + smallApp + `}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: json: cannot unmarshal number 12345678901234567890 into Go struct field DeployRequest.seed of type int64\"}}\n"},
	{"null app", deployURL, `{"tenant":"acme","app":null}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: app spec missing version (current is 1)\"}}\n"},
	{"no app", deployURL, `{"tenant":"acme"}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"request without app spec\"}}\n"},
	{"truncated", deployURL, `{"tenant":"acme","app":` + smallApp,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: unexpected EOF\"}}\n"},
	{"empty body", deployURL, ``,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: EOF\"}}\n"},
	{"trailing garbage", deployURL, `{"tenant":"acme","app":` + smallApp + `} garbage`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: trailing data after top-level value\"}}\n"},
	{"unknown field", deployURL, `{"tenant":"acme","bogus":1,"app":` + smallApp + `}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: json: unknown field \\\"bogus\\\"\"}}\n"},
	{"unknown spec field", deployURL, `{"app":{"version":1,"name":"a","bogus":true}}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: decoding app spec: json: unknown field \\\"bogus\\\"\"}}\n"},
	{"future version", deployURL, `{"app":{"version":99,"name":"a"}}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: unsupported app spec version 99 (decoder speaks 1..1)\"}}\n"},
	{"cycle", deployURL, `{"app":{"version":1,"name":"a","microservices":[{"name":"x"},{"name":"y"}],"dataflows":[{"from":"x","to":"y","size_bytes":1},{"from":"y","to":"x","size_bytes":1}]}}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: dag: a: cycle detected\"}}\n"},
	{"unknown arch", deployURL, `{"app":{"version":1,"name":"a","microservices":[{"name":"m","arches":["riscv"]}]}}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: microservice \\\"m\\\": unknown architecture \\\"riscv\\\"\"}}\n"},
	{"float in int field", deployURL, `{"app":{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1e3}]}}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"wire: decoding app spec: json: cannot unmarshal number 1e3 into Go struct field MicroserviceSpec.microservices.image_size_bytes of type int64\"}}\n"},
	{"long tenant", deployURL, `{"tenant":"` + strings.Repeat("x", maxTenantLen+1) + `","app":` + smallApp + `}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"tenant name exceeds 128 bytes\"}}\n"},
	{"oversized", deployURL, `{"tenant":"` + strings.Repeat("x", 5<<10) + `"}`,
		"413 {\"error\":{\"code\":\"body_too_large\",\"message\":\"body exceeds 4096 bytes\"}}\n"},
	{"oversized after the value", deployURL, `{"tenant":"acme","app":` + smallApp + `}` + strings.Repeat(" ", 5<<10),
		"413 {\"error\":{\"code\":\"body_too_large\",\"message\":\"body exceeds 4096 bytes\"}}\n"},
	{"oversized after a syntax error", deployURL, `{"tenant" 1` + strings.Repeat(" ", 5<<10),
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: invalid character '1' after object key\"}}\n"},
	{"batch case-folded key", batchURL, `{"tenant":"acme","Items":[{"app":` + smallApp + `}]}`,
		"200 {\"tenant\":\"acme\",\"results\":[{\"index\":0,\"deploy\":{\"tenant\":\"acme\",\"app\":\"a\",\"epoch\":0,\"cache_hit\":false,\"degraded\":false,\"queue_wait_ms\":0,\"latency_ms\":0,\"placement\":{},\"makespan_s\":0,\"total_energy_j\":0}}]}\n"},
	{"batch null items", batchURL, `{"tenant":"acme","items":null}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"batch without items\"}}\n"},
	{"batch null item", batchURL, `{"items":[null]}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"items[0] without app spec\"}}\n"},
	{"batch bad second item", batchURL, `{"items":[{"app":` + smallApp + `},{"app":{"version":1,"name":"","microservices":[{"name":"m"}]}}]}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"items[1]: wire: app spec without a name\"}}\n"},
	{"batch too many items", batchURL, `{"items":[` + strings.Repeat(`{},`, maxBatchItems) + `{}]}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"batch exceeds 64 items\"}}\n"},
	{"batch trailing garbage", batchURL, `{"items":[{"app":` + smallApp + `}]} garbage`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: trailing data after top-level value\"}}\n"},
	{"batch item seed fraction", batchURL, `{"items":[{"seed":0.5,"app":` + smallApp + `}]}`,
		"400 {\"error\":{\"code\":\"invalid_request\",\"message\":\"decoding request: json: cannot unmarshal number 0.5 into Go struct field DeployBatchItem.items.seed of type int64\"}}\n"},
}

// TestDeclinedBodiesAnswerAsBefore: whatever the scanners decline is decided
// and worded by the reference decoder, byte for byte as at the parent commit.
func TestDeclinedBodiesAnswerAsBefore(t *testing.T) {
	record := os.Getenv("DECLINED_RECORD") != ""
	for _, tc := range declinedCases {
		s, _ := stubServer(t, 4<<10)
		rec := serve(s.Handler(), tc.path, []byte(tc.body))
		got := fmt.Sprintf("%d %s", rec.Code, rec.Body)
		if record {
			fmt.Printf("\t{%q: %q},\n", tc.name, got)
			continue
		}
		if got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if rec.Code != http.StatusOK {
			continue
		}
		// A served body counts as a fallback decode, never a fast one.
		if fast, fallback := decodeCounts(t, s); fast != 0 || fallback != 1 {
			t.Errorf("%s: decode counters fast=%d fallback=%d, want 0 and 1", tc.name, fast, fallback)
		}
	}
}

// TestHugeCPULoadRejected: a CPU load at or past 2^63 instructions has no
// digest record of its own (1e13 and 1e15 MI used to share one digest, and
// so one cached shape and placement), so both deploy endpoints refuse it as
// an invalid request, in the dag package's words.
func TestHugeCPULoadRejected(t *testing.T) {
	for _, cpu := range []string{"1e13", "1e15", "9223372036854.776"} {
		spec := `{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1,"cpu_mi":` + cpu + `}]}`
		msg := "wire: dag: a: microservice \\\"m\\\" has CPU load "
		for _, tc := range []struct{ path, body, prefix string }{
			{deployURL, `{"tenant":"acme","app":` + spec + `}`, msg},
			{batchURL, `{"tenant":"acme","items":[{"app":` + smallApp + `},{"app":` + spec + `}]}`, "items[1]: " + msg},
		} {
			s, _ := stubServer(t, 0)
			rec := serve(s.Handler(), tc.path, []byte(tc.body))
			want := `{"error":{"code":"invalid_request","message":"` + tc.prefix
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), want) {
				t.Errorf("%s cpu_mi %s: %d %s", tc.path, cpu, rec.Code, rec.Body)
			}
		}
	}
	s, _ := stubServer(t, 0)
	ok := `{"tenant":"acme","app":{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1,"cpu_mi":9.2e12}]}}`
	if rec := serve(s.Handler(), deployURL, []byte(ok)); rec.Code != http.StatusOK {
		t.Errorf("cpu_mi 9.2e12 (under 2^63 instructions): %d %s", rec.Code, rec.Body)
	}
}

func decodeCounts(t testing.TB, s *Server) (fast, fallback int) {
	t.Helper()
	return int(s.decodeFast.Value()), int(s.decodeFallback.Value())
}

// TestDecodePathCounters pins what fleetd_decode_fast_total and
// fleetd_decode_fallback_total count: successfully decoded deploy requests,
// split by whether encoding/json had to run for the envelope or any spec.
func TestDecodePathCounters(t *testing.T) {
	s, reg := stubServer(t, 0)
	h := s.Handler()
	video := appJSON(t, workload.VideoProcessing())
	step := func(name, path string, body []byte, status, fast, fallback int) {
		t.Helper()
		if rec := serve(h, path, body); rec.Code != status {
			t.Fatalf("%s: status %d (%s), want %d", name, rec.Code, rec.Body, status)
		}
		if gotFast, gotFallback := decodeCounts(t, s); gotFast != fast || gotFallback != fallback {
			t.Fatalf("%s: fast=%d fallback=%d, want %d and %d", name, gotFast, gotFallback, fast, fallback)
		}
	}
	step("marshalled deploy", deployURL, deployBody(t, "acme"), 200, 1, 0)
	step("marshalled batch", batchURL, batchBody(t, "acme", video, video), 200, 2, 0)
	indented := new(bytes.Buffer)
	if err := json.Indent(indented, deployBody(t, "acme"), "", "\t"); err != nil {
		t.Fatal(err)
	}
	step("indented deploy", deployURL, indented.Bytes(), 200, 3, 0)
	step("rejected deploy", deployURL, []byte(`{"app":{"version":99,"name":"a"}}`), 400, 3, 0)

	// A canonical envelope around a spec with a case-folded key: the spec
	// needs the reference decoder until the spec table holds it.
	folded := []byte(`{"app":{"version":1,"Name":"a","microservices":[{"name":"m"}]}}`)
	step("folded spec key, first sight", deployURL, folded, 200, 3, 1)
	step("folded spec key, admitted", deployURL, folded, 200, 3, 2)
	step("folded spec key, interned", deployURL, folded, 200, 4, 2)
	step("one folded item spoils a batch", batchURL,
		[]byte(`{"items":[{"app":`+string(video)+`},{"app":{"version":1,"Name":"b","microservices":[{"name":"m"}]}}]}`), 200, 4, 3)
	// An escape anywhere makes the envelope scanner decline, interned or not.
	escaped := []byte(`{"app":{"version":1,"name":"\u0061","microservices":[{"name":"m"}]}}`)
	for sight := 1; sight <= 3; sight++ {
		step("escaped spec", deployURL, escaped, 200, 4, 3+sight)
	}
	step("case-folded envelope key", deployURL, []byte(`{"Tenant":"acme","app":`+string(video)+`}`), 200, 4, 7)

	// Both are real counters on /metrics.
	rec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"# TYPE fleetd_decode_fast_total counter\n", "\nfleetd_decode_fast_total 4\n",
		"# TYPE fleetd_decode_fallback_total counter\n", "\nfleetd_decode_fallback_total 7\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestNegativeRequirementRejected: a negative size or requirement used to be
// answered 200 with a makespan and energy below the honest app's; now the
// dag refuses it and both decode paths report that as a 400.
func TestNegativeRequirementRejected(t *testing.T) {
	s, _ := stubServer(t, 0)
	for field, want := range map[string]string{
		`"external_input_bytes":-5000000000000`: "external input",
		`"cpu_mi":-1e7`:                         "CPU load",
		`"cores":-1`:                            "cores",
		`"memory_bytes":-1`:                     "memory",
		`"storage_bytes":-1`:                    "storage",
	} {
		body := `{"tenant":"acme","app":{"version":1,"name":"a","microservices":[{"name":"m","image_size_bytes":1,` + field + `}]}}`
		rec := serve(s.Handler(), deployURL, []byte(body))
		wantBody := `{"error":{"code":"invalid_request","message":"wire: dag: a: microservice \"m\" has negative ` + want + `"}}` + "\n"
		if rec.Code != http.StatusBadRequest || rec.Body.String() != wantBody {
			t.Errorf("%s: %d %s, want 400 %s", field, rec.Code, rec.Body, wantBody)
		}
	}
}

// TestRequestBufferReuse: pooled request buffers carry nothing from one
// request into the next — a short body after a long one, a batch after a
// bigger batch, and a tenant name that must survive its buffer's reuse.
func TestRequestBufferReuse(t *testing.T) {
	s, _ := stubServer(t, 0)
	h := s.Handler()
	video, text := appJSON(t, workload.VideoProcessing()), appJSON(t, workload.TextProcessing())
	for round := 0; round < 3; round++ {
		rec := serve(h, batchURL, batchBody(t, "long-tenant-name", video, text, video))
		var out DeployBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != 3 {
			t.Fatalf("batch of 3: %d %s", rec.Code, rec.Body)
		}
		if out.Tenant != "long-tenant-name" || out.Results[1].Deploy.App != "text" {
			t.Fatalf("batch of 3 answered %+v", out)
		}
		rec = serve(h, batchURL, batchBody(t, "b", text))
		out = DeployBatchResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != 1 {
			t.Fatalf("batch of 1 after a batch of 3: %d %s", rec.Code, rec.Body)
		}
		if out.Tenant != "b" || out.Results[0].Deploy.App != "text" || out.Results[0].Deploy.Tenant != "b" {
			t.Fatalf("batch of 1 answered %+v", out)
		}
		rec = serve(h, deployURL, []byte(`{"app":`+smallApp+`}`))
		var one DeployResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || one.Tenant != "default" || one.App != "a" {
			t.Fatalf("short deploy after long ones: %d %s", rec.Code, rec.Body)
		}
	}
}

// FuzzDeployHandlers posts arbitrary bodies to both deploy endpoints: the
// answer is always a structured 200, 400 or 413 — never a 500, never a panic.
func FuzzDeployHandlers(f *testing.F) {
	video := appJSON(f, workload.VideoProcessing())
	f.Add(deployBody(f, "acme"))
	f.Add(batchBody(f, "acme", video, appJSON(f, workload.TextProcessing())))
	for _, tc := range declinedCases {
		f.Add([]byte(tc.body))
	}
	s, _ := stubServer(f, 4<<10) // small enough for the fuzzer to reach 413
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{deployURL, batchURL} {
			rec := serve(h, path, body)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", path, ct)
			}
			var out struct {
				Error *struct {
					Code, Message string
				}
				Tenant  string
				Results []DeployBatchResult
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: %d with a body that is not JSON: %q", path, rec.Code, rec.Body)
			}
			switch rec.Code {
			case http.StatusOK:
				if out.Error != nil || out.Tenant == "" || (path == batchURL && len(out.Results) == 0) {
					t.Fatalf("%s: malformed 200: %s", path, rec.Body)
				}
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				wantCode := codeInvalidRequest
				if rec.Code == http.StatusRequestEntityTooLarge {
					wantCode = codeBodyTooLarge
				}
				if out.Error == nil || out.Error.Code != wantCode || out.Error.Message == "" {
					t.Fatalf("%s: malformed %d: %s", path, rec.Code, rec.Body)
				}
			default:
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
	})
}

// FuzzChurnHandler sends arbitrary bytes to the admin /v1/churn of a real
// fleet, as a POST or (when get is set) a GET: the answer is always a 200
// carrying the new epoch, or a structured 400, 405 or 413 — never a 500,
// never a panic. Accepted deltas accumulate on the fleet, so later inputs
// meet a cluster already churned.
func FuzzChurnHandler(f *testing.F) {
	for _, body := range []string{
		`{"fail_devices":["medium-00"]}`,
		`{"recover_devices":["medium-00"],"fail_registries":["regional"]}`,
		`{"links":[{"a":"regional","b":"small-01","factor":0.25},{"a":"medium-00","b":"small-00","factor":1e-320}]}`,
		`{"links":[{"a":"hub","b":"medium-01","factor":-3}],"recover_registries":["regional"]}`,
		`{"fail_devices":["no-such"]}`,
		`{"links":[{"a":"hub","b":"regional","factor":0.5}]}`,
		`{"fail_devices":"medium-00"}`,
		`{} trailing`,
	} {
		f.Add(false, []byte(body))
	}
	f.Add(true, []byte(`{}`))
	fl := fleet.New(fleet.Config{Workers: 1, NewCluster: func() *sim.Cluster { return workload.ScaledTestbed(2) }})
	f.Cleanup(fl.Close)
	s, err := New(Config{Backend: fl, Registry: fl.Metrics().Obs(), MaxBodyBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	h := s.AdminHandler()
	f.Fuzz(func(t *testing.T, get bool, body []byte) {
		method := http.MethodPost
		if get {
			method = http.MethodGet
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/churn", bytes.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%d with Content-Type %q: %q", rec.Code, ct, rec.Body)
		}
		var out struct {
			Error *struct {
				Code, Message string
			}
			Epoch *int64
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%d with a body that is not JSON: %q", rec.Code, rec.Body)
		}
		wantCode := map[int]string{
			http.StatusBadRequest:            codeInvalidRequest,
			http.StatusMethodNotAllowed:      codeMethod,
			http.StatusRequestEntityTooLarge: codeBodyTooLarge,
		}
		switch code, isError := wantCode[rec.Code]; {
		case rec.Code == http.StatusOK:
			if out.Error != nil || out.Epoch == nil || *out.Epoch < 1 {
				t.Fatalf("malformed 200: %s", rec.Body)
			}
		case isError:
			if out.Error == nil || out.Error.Code != code || out.Error.Message == "" {
				t.Fatalf("malformed %d: %s", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// BenchmarkFrontDoorDecode drives the real handlers, stub backend behind
// them, so a row is everything the front door itself costs per request:
// body read, envelope and spec decode, admission, response encode.
// batch16_warm and single_warm deploy an interned spec; single_cold posts a
// never-repeated 16-microservice spec each time, so the spec table misses
// and the spec is decoded, built and validated.
func BenchmarkFrontDoorDecode(b *testing.B) {
	app, err := workload.Generate(workload.DefaultGeneratorConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	spec := appJSON(b, app)
	specs := make([][]byte, 16)
	for i := range specs {
		specs[i] = spec
	}
	run := func(name, path string, body func(i int) []byte) {
		b.Run(name, func(b *testing.B) {
			s, _ := stubServer(b, 0)
			h := s.Handler()
			post := func(i int) {
				if rec := serve(h, path, body(i)); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			post(0)
			post(0) // second sight interns the warm rows' spec
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(i + 1)
			}
			if fast, fallback := decodeCounts(b, s); fallback != 0 || fast != b.N+2 {
				b.Fatalf("decode counters fast=%d fallback=%d after %d canonical posts", fast, fallback, b.N+2)
			}
		})
	}
	batch := batchBody(b, "acme", specs...)
	run("batch16_warm", batchURL, func(int) []byte { return batch })
	single, err := json.Marshal(DeployRequest{Tenant: "acme", App: spec})
	if err != nil {
		b.Fatal(err)
	}
	run("single_warm", deployURL, func(int) []byte { return single })
	// The cold row renames the app per post: same shape, never the same bytes.
	at := bytes.Index(single, []byte(app.Name))
	run("single_cold", deployURL, func(i int) []byte {
		body := bytes.Clone(single)
		copy(body[at:], fmt.Sprintf("s%0*d", len(app.Name)-1, i))
		return body
	})
}
