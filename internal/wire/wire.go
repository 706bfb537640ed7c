// Package wire defines the versioned JSON wire formats the deepfleetd
// serving front-end speaks: application and cluster specifications decoupled
// from the in-memory DAG and simulator types. The in-memory types (dag.App,
// sim.Cluster) are built for scheduling speed — interned pointers, memoized
// graph walks, lazy indices — none of which belongs on the network. A spec
// is plain data: every field is a JSON scalar, map, or slice, so it can be
// produced by any client, diffed, and stored.
//
// Versioning rule: every spec carries a Version field. Version 1 is current
// for both specs. A decoder accepts any version from 1 through its current
// version and rejects 0 (missing) and anything newer — adding a field
// requires bumping the version, so an old server never silently drops data a
// newer client relied on. The reference decoder for every format is
// encoding/json behind DecodeStrict, which rejects unknown fields (what makes
// the version gate trustworthy) and anything but whitespace after the one
// JSON value.
//
// Two decoders, one verdict. Requests are accepted by hand-written
// single-pass scanners (scan.go: ScanDeploy, ScanDeployBatch, and the app-spec
// walk they run at their cursor, which Interner.App runs on a whole body)
// that read the request buffer in place, walk each spec once, and build the
// dag.App from that walk's record. They know only the canonical subset of each
// format — the format's own keys, exact case, each at most once, in any
// order; JSON whitespace; no null/true/false; strings without escapes and in
// valid UTF-8; integer fields as plain -?digits; float fields as any JSON
// number — which is what json.Marshal and its kin produce. A scanner never
// rejects: on anything outside the subset, and on every semantic error
// (version gate, unknown architecture, everything package dag refuses), it
// declines, and the reference decoder runs on the same bytes and decides.
// So a body that is valid but not canonical (an escaped string, a key in
// another case) is still served, at the reference decoder's cost, and the
// status, code and text of every rejection come from the reference decoder
// alone. FuzzScanMatchesReference holds the scanners to that: whatever they
// accept, the reference decoder accepts with the same result.
//
// Decoded specs feed straight into the fleet's canonical digest machinery:
// a decoded app hashes identically to a natively built one with the same
// content, so wire-submitted requests share placement-cache entries with
// apps built in-process.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Current wire-format versions.
const (
	// AppSpecVersion is the current application wire-format version.
	AppSpecVersion = 1
	// ClusterSpecVersion is the current cluster wire-format version.
	ClusterSpecVersion = 1
)

// checkVersion validates a spec's version against the decoder's current one.
func checkVersion(kind string, got, current int) error {
	if got == 0 {
		return fmt.Errorf("wire: %s spec missing version (current is %d)", kind, current)
	}
	if got < 0 || got > current {
		return fmt.Errorf("wire: unsupported %s spec version %d (decoder speaks 1..%d)", kind, got, current)
	}
	return nil
}

// DecodeStrict decodes exactly one JSON value from r into v: unknown fields
// are rejected, and so is anything but whitespace between the value and EOF
// (json.Decoder.Decode alone stops after the first value, so
// `{"version":1,...} garbage` would pass). Read errors from r — an
// http.MaxBytesReader hitting its limit, say — surface unwrapped.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token returns io.EOF when only whitespace is left, a token (err == nil)
	// for a second well-formed value, and a *json.SyntaxError for garbage.
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, &syntax):
		return errors.New("trailing data after top-level value")
	default:
		return err
	}
}
