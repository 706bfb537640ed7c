// Package fleetd is the HTTP serving layer in front of internal/fleet: a
// router over typed handlers over a Backend seam. The fleet stays a plain
// in-process library; everything network-shaped — wire-format decoding,
// per-tenant rate limits and in-flight quotas, 429 backpressure with
// Retry-After hints, body-size limits, readiness, graceful drain — lives
// here, so overload and shutdown policies can evolve without touching the
// scheduling core.
//
// The two deploy endpoints share one path after their envelope decode: one
// admission step (the drain check, the tenant's limiter), one fleet call
// (Backend.DoBatch; a single deploy is a one-item batch) and one mapping of
// admission errors to answers. Each tenant has one record, its admission
// gate and its HTTP counters, in one table bounded at tenantGateCap; past
// it, unseen tenants share the record of tenant "other". A request the
// fleet admitted counts as accepted whatever its answer, one whose client
// hung up while it waited included, so the door's accepted counters sum to
// the fleet's submitted count.
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
	// DoBatch serves every deploy, a single one as a one-item batch, on the
	// handler's goroutine. Admission is all or none: when it fails, no
	// request is admitted and the error says why — fleet.ErrQueueFull when
	// every worker is busy and every waiter slot taken (a 429),
	// fleet.ErrClosed once the fleet is draining (a 503), ctx.Err() when
	// the client is gone before admission. Once admitted, each receives
	// every request's response in submission order, each carrying its
	// Index, and the error is nil. A response is valid until each returns:
	// the handlers encode it there and never touch it after. ctx carries
	// client hang-up: a request whose client leaves before its turn — while
	// the batch waits for a worker, or between items — is answered failed
	// with ctx.Err() and never costs a schedule; a request whose own
	// deadline passes while it waits is answered failed with
	// fleet.ErrDeadline.
	DoBatch(ctx context.Context, reqs []fleet.Request, each func(*fleet.Response)) error
	// ApplyChurn applies one live cluster delta and returns the new epoch
	// (the middle result is always 0, as in fleet.Fleet.ApplyChurn).
	ApplyChurn(delta fleet.ChurnDelta) (epoch int64, _ int, err error)
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
