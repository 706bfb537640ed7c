package sim

import "deep/internal/dag"

// Options tune one simulation run.
type Options struct {
	// Seed drives the deterministic measurement jitter; runs with equal
	// seeds are bit-identical.
	Seed int64
	// Jitter is the half-width of the multiplicative noise applied to each
	// phase duration (e.g. 0.02 → ±2 %), reproducing the min–max ranges the
	// paper reports over repeated measurements. Zero disables noise.
	Jitter float64
	// WarmCaches runs against the cluster's own device layer caches: layers
	// earlier warm runs left there are not pulled again, and this run's
	// pulls are committed there. Without it a run starts from empty caches
	// of its own and leaves the cluster's untouched, so its answer depends
	// only on the app, cluster, placement and the options above.
	WarmCaches bool
}

// Run simulates the application under the placement on the cluster and
// returns per-microservice timing and energy. The execution model follows
// the paper: microservices advance stage by stage between synchronization
// barriers; within a stage each microservice deploys its image from its
// assigned registry (cache-aware, with fair sharing of a shared registry
// uplink), receives its input dataflows, and then executes; executions on
// one device are serialized (the paper's non-concurrent execution).
//
// Run is a thin wrapper over the compiled path — CompilePlan once, then a
// fresh Exec — and produces bit-identical results to the historical
// map-based executor (pinned by the equivalence corpus). Callers that
// simulate the same (app, cluster) repeatedly should hold the Plan and a
// reusable Exec themselves: the compiled warm path allocates nothing.
func Run(app *dag.App, cluster *Cluster, placement Placement, opts Options) (*Result, error) {
	return NewExec().Run(CompilePlan(app, cluster), placement, opts)
}

// FNV-1a, the hash the jitter has always keyed its noise from. The helpers
// below fold bytes into a running state without the hash.Hash allocation
// and fmt formatting of the original implementation; the byte stream —
// "%d|%s|%s|%s" of (seed, app, microservice, phase) — is unchanged, so every
// factor is bit-identical to the historical ones.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds bytes into an FNV-1a state.
func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// jitterFactor maps a hashed key to a value in [1-width, 1+width]. seedH is
// the FNV-1a state after the seed's decimal digits; tag is the precomputed
// "|app|ms|phase" suffix.
func jitterFactor(seedH uint64, tag []byte, width float64) float64 {
	u := float64(fnvAdd(seedH, tag)%1_000_003) / 1_000_003.0 // uniform in [0,1)
	return 1 - width + 2*width*u
}
