// Package fleetd is the HTTP serving layer in front of internal/fleet: a
// router over typed handlers over a Backend seam. The fleet stays a plain
// in-process library; everything network-shaped — wire-format decoding,
// per-tenant rate limits and in-flight quotas, 429 backpressure with
// Retry-After hints, body-size limits, readiness, graceful drain — lives
// here, so overload and shutdown policies can evolve without touching the
// scheduling core.
package fleetd

import (
	"context"

	"deep/internal/fleet"
	"deep/internal/obs"
)

// Backend is what the HTTP layer needs from a fleet. *fleet.Fleet satisfies
// it directly; tests substitute stubs to pin handler behavior (error
// mapping, Retry-After derivation) without spinning up worker pools.
type Backend interface {
	// Do serves one request on the handler's goroutine and returns its
	// response: ErrQueueFull when every worker is busy and every waiter slot
	// taken (the handler turns it into a 429), ErrClosed once the fleet is
	// draining. The context carries client hang-up, so a client that leaves
	// while waiting for a worker never costs a schedule (ctx.Err(), no
	// response); the request's own deadline comes back as a response failed
	// with fleet.ErrDeadline.
	Do(ctx context.Context, req fleet.Request) (*fleet.Response, error)
	// DoBatch serves a whole batch, admitted atomically: either every
	// request is admitted and each receives every response in submission
	// order (each carrying its Index), or none is, with the same sentinel
	// errors as Do.
	DoBatch(ctx context.Context, reqs []fleet.Request, each func(*fleet.Response)) error
	// ApplyChurn applies one live cluster delta.
	ApplyChurn(delta fleet.ChurnDelta) (epoch int64, invalidated int, err error)
	// Stats snapshots the fleet counters.
	Stats() fleet.Stats
	// SlowRequests returns the slow-request ring contents.
	SlowRequests() []obs.SlowRequest
	// QueueLen and Workers describe the waiting requests and the worker
	// pool; the handlers derive Retry-After hints from them.
	QueueLen() int
	Workers() int
}

var _ Backend = (*fleet.Fleet)(nil)
