package fleetd

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"deep/internal/fleet"
)

// The deploy answers are appended, not reflected: the functions below, and
// the newline writeAnswer ends them with, write exactly the bytes
// json.Encoder.Encode writes for the DeployResponse or DeployBatchResponse
// the fleet response stands for — same field order, same float format, same
// string escaping — straight from the *fleet.Response, with no intermediate
// struct or placement map. The placement view is already sorted by name, the
// order encoding/json sorts map keys into. Everything else the server
// answers (errors, stats, churn, drain) still goes through writeJSON.
//
// A deploy answer is a head and a tail. The head — tenant, app, epoch,
// cache_hit, degraded, queue_wait_ms, latency_ms — is the request's own and
// is appended every time. The tail — placement, makespan_s, total_energy_j
// and the closing brace — is a function of the placement and the simulated
// answer alone. On a memoized hit both are the placement entry's, so the
// tail is a function of the cache key: the response carries the entry's
// fleet.Encoded slot, the first answer to find it empty appends the tail and
// stores a copy there, and every later answer for the key copies the stored
// bytes after its head, as a registry serves a manifest's stored bytes.

// appendDeploy appends resp's DeployResponse object (no trailing newline).
// stored reports that its tail was copied from resp.Encoded. ok is false,
// and dst comes back unchanged, when the makespan or energy is NaN or ±Inf:
// encoding/json refuses those, so the answer is a 500 (and nothing is
// stored).
func appendDeploy(dst []byte, resp *fleet.Response) (_ []byte, stored, ok bool) {
	if resp.Encoded != nil {
		if tail := resp.Encoded.Load(); tail != nil {
			return append(appendDeployHead(dst, resp), tail...), true, true
		}
	}
	makespan, energy := resp.Result.Makespan, float64(resp.Result.TotalEnergy)
	if !finite(makespan) || !finite(energy) {
		return dst, false, false
	}
	dst = appendDeployHead(dst, resp)
	tail := len(dst)
	dst = appendDeployTail(dst, resp.Placement, makespan, energy)
	if resp.Encoded != nil {
		resp.Encoded.Store(dst[tail:])
	}
	return dst, false, true
}

// appendDeployHead appends a DeployResponse up to its placement: the fields
// that differ between requests for one key.
func appendDeployHead(dst []byte, resp *fleet.Response) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = appendString(dst, resp.Tenant)
	dst = append(dst, `,"app":`...)
	dst = appendString(dst, resp.App)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendInt(dst, resp.Epoch, 10)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, resp.CacheHit)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, resp.Degraded)
	dst = append(dst, `,"queue_wait_ms":`...)
	dst = appendFloat(dst, float64(resp.QueueWait)/float64(time.Millisecond))
	dst = append(dst, `,"latency_ms":`...)
	return appendFloat(dst, float64(resp.Latency)/float64(time.Millisecond))
}

// appendDeployTail appends the rest of a DeployResponse, from its placement
// to its closing brace; makespan and energy must be finite.
func appendDeployTail(dst []byte, placement fleet.PlacementView, makespan, energy float64) []byte {
	dst = append(dst, `,"placement":{`...)
	for i := range placement.Len() {
		ms, a := placement.At(i)
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, ms)
		dst = append(dst, `:{"device":`...)
		dst = appendString(dst, a.Device)
		dst = append(dst, `,"registry":`...)
		dst = appendString(dst, a.Registry)
		dst = append(dst, '}')
	}
	dst = append(dst, `},"makespan_s":`...)
	dst = appendFloat(dst, makespan)
	dst = append(dst, `,"total_energy_j":`...)
	dst = appendFloat(dst, energy)
	return append(dst, '}')
}

// appendBatchOpen appends a DeployBatchResponse up to its first result.
func appendBatchOpen(dst []byte, tenant string) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = appendString(dst, tenant)
	return append(dst, `,"results":[`...)
}

// appendBatchResult appends one DeployBatchResult: the item's deploy body,
// or its structured error. The caller separates results with commas and
// closes the batch with `]}` and the newline; stored and ok are
// appendDeploy's (stored is false for an error).
func appendBatchResult(dst []byte, resp *fleet.Response) (_ []byte, stored, ok bool) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(resp.Index), 10)
	if resp.Err != nil {
		_, code := answerError(resp.Err)
		dst = append(dst, `,"error":{"code":`...)
		dst = appendString(dst, code)
		dst = append(dst, `,"message":`...)
		dst = appendString(dst, resp.Err.Error())
		return append(dst, `}}`...), false, true
	}
	dst = append(dst, `,"deploy":`...)
	if dst, stored, ok = appendDeploy(dst, resp); !ok {
		return dst, false, false
	}
	return append(dst, '}'), stored, true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat formats a finite float64 as encoding/json does: the shortest
// round-tripping digits, in 'f' form unless the magnitude is below 1e-6 or
// at least 1e21, where it switches to 'e' form with a one-digit negative
// exponent kept short (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s as encoding/json does. Printable ASCII other than
// `"`, `\`, `<`, `>` and `&` is copied verbatim, which covers every name the
// fleet deals in; any other string is handed to json.Marshal itself, so its
// escaping (control bytes, HTML characters, invalid UTF-8 as U+FFFD,
// U+2028 and U+2029) cannot drift from the reference.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
