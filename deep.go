// Package deep is the public API of the DEEP reproduction: edge-based
// dataflow processing with hybrid Docker Hub and regional registries
// (Mehran et al., IPDPS Workshops 2025).
//
// The package re-exports the pieces a downstream user composes:
//
//   - Application modeling: an AppBuilder takes Microservice vertices and
//     Dataflow edges and builds a validated App (package dag).
//   - The calibrated two-device testbed and the paper's two case-study
//     applications: Testbed, VideoProcessing, TextProcessing.
//   - Scheduling: the Nash-game DEEP scheduler and every baseline. All
//     schedulers run on a compiled, integer-indexed cost model
//     (internal/costmodel) so the best-response hot path is allocation-free;
//     the signatures below are unchanged — placements stay string-keyed.
//   - Dataflow processing: Run simulates a placed application and returns
//     per-microservice completion times and energy.
//   - The Figure 1 pipeline: NewSystem(...).Deploy(app).
//   - The multi-tenant deployment service: NewFleet(...) runs concurrent
//     deployment requests (Fleet.Do) through a scheduler worker pool with
//     memoized placements. cmd/deepfleetd serves it over HTTP, and
//     benchmark/run.sh puts load on it through that socket.
//   - Robustness: Fleet.ApplyChurn applies a ChurnDelta (device crashes,
//     registry outages, link degradation) to a live fleet: it patches the
//     compiled cluster substrate incrementally and gives each epoch its own
//     cache key, a stale gate keeps every answer off hardware down at the
//     latest epoch (re-scheduling exactly on that epoch), and a request
//     whose deadline passes fails with ErrFleetDeadline.
//   - Observability: every fleet carries a Metrics registry of sharded
//     lock-free instruments (NewMetrics), per-request stage timing
//     (StageTrace on each FleetResponse), a bounded slow-request ring
//     (Fleet.SlowRequests), and Prometheus/expvar exposition via Telemetry
//     (Metrics.Obs).
//
// Quickstart:
//
//	sys := deep.NewSystem(deep.Testbed())
//	dep, err := sys.Deploy(deep.TextProcessing())
//	if err != nil { ... }
//	fmt.Println(dep.Result.TotalEnergy)
package deep

import (
	"deep/internal/appgraph"
	"deep/internal/core"
	"deep/internal/costmodel"
	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/monitor"
	"deep/internal/obs"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/topo"
	"deep/internal/units"
	"deep/internal/workload"
)

// Re-exported model types.
type (
	// App is a dataflow application DAG, valid and read-only once built.
	App = dag.App
	// AppBuilder builds an App from its microservices and dataflows; its
	// App method validates the graph. The zero value is ready to use.
	AppBuilder = dag.Builder
	// Microservice is one containerized vertex of an App.
	Microservice = dag.Microservice
	// Dataflow is one edge of an App.
	Dataflow = dag.Dataflow
	// Requirements is the resource-requirement tuple req(m_i).
	Requirements = dag.Requirements
	// Arch is a CPU architecture tag.
	Arch = dag.Arch

	// Cluster is the infrastructure a simulation runs against.
	Cluster = sim.Cluster
	// Placement assigns each microservice a device and registry.
	Placement = sim.Placement
	// Assignment is one (device, registry) pair.
	Assignment = sim.Assignment
	// Result is a simulated application run.
	Result = sim.Result
	// MicroserviceResult is one row of a Result.
	MicroserviceResult = sim.MicroserviceResult
	// Options tune a simulation run.
	Options = sim.Options
	// RegistryInfo describes one registry in a Cluster.
	RegistryInfo = sim.RegistryInfo
	// SimPlan is a compiled (app, cluster) simulation plan; compile once
	// with CompileSimPlan, execute many times with a SimExec.
	SimPlan = sim.Plan
	// SimExec is the reusable zero-steady-state-allocation simulator
	// executor.
	SimExec = sim.Exec
	// ClusterTable is the compiled cluster-side substrate (sorted name
	// tables, interned devices, dense link tables) shared by every
	// per-application compile against one cluster; build it once with
	// CompileClusterTable and feed it to CompileSimPlanOnTables.
	ClusterTable = topo.ClusterTable
	// AppTable is the compiled application-side substrate: validated
	// structure, interned microservice names, dense topo order / stage
	// partition / dataflow edge rows, and per-microservice scalars
	// (image sizes, external inputs, architecture masks). Build it once
	// per application with CompileAppTable and compile against any number
	// of clusters — the fleet caches one per app digest.
	AppTable = appgraph.AppTable

	// Scheduler produces placements from a compiled cost model: every
	// scheduler implements ScheduleModel, and Schedule / ScheduleOnTables
	// compile the model for it.
	Scheduler = sched.Scheduler
	// System is the Figure 1 pipeline.
	System = core.System
	// Deployment is a completed pipeline run.
	Deployment = core.Deployment
	// MethodResult pairs a scheduler with its outcome.
	MethodResult = core.MethodResult

	// Bytes is a size in bytes.
	Bytes = units.Bytes
	// Joules is energy.
	Joules = units.Joules

	// Fleet is the concurrent multi-tenant deployment service.
	Fleet = fleet.Fleet
	// FleetConfig tunes a Fleet (workers, queue depth, cache size, ...).
	FleetConfig = fleet.Config
	// FleetRequest is one tenant's deployment request.
	FleetRequest = fleet.Request
	// FleetResponse is the outcome of one deployment request. One from
	// Fleet.Do, Submit or SubmitBatch is the caller's to keep; one handed to
	// Fleet.DoBatch's callback is valid until the callback returns (see
	// fleet.Response). Its Result is read-only: on a memoized hit it is the
	// placement entry's stored answer, shared by every response for that app.
	FleetResponse = fleet.Response
	// FleetPlacementView is the indexed, read-only placement carried by a
	// FleetResponse (Materialize copies it into a mutable Placement).
	FleetPlacementView = fleet.PlacementView
	// FleetStats snapshots the fleet's admission/cache counters.
	FleetStats = fleet.Stats

	// ChurnDelta is one batch of live cluster changes for Fleet.ApplyChurn:
	// devices and registries failing or recovering, links degrading.
	ChurnDelta = fleet.ChurnDelta
	// LinkChange is one link-bandwidth change inside a ChurnDelta.
	LinkChange = fleet.LinkChange
	// ChurnStats snapshots the fleet's churn machinery (current epoch, down
	// sets, stale-gate/re-schedule/deadline counters); part of FleetStats.
	ChurnStats = fleet.ChurnStats

	// Metrics is the string-keyed instrument registry a Fleet reports into
	// (counters, gauges, histograms, a bounded event log, JSON export).
	Metrics = monitor.Metrics
	// Telemetry is the lock-free instrument registry backing a Metrics
	// (Metrics.Obs): sharded counters and histograms plus Prometheus text
	// (WritePrometheus, MetricsHandler) and expvar exposition.
	Telemetry = obs.Registry
	// Stage identifies one fleet pipeline stage (queue, fingerprint,
	// compile, cache lookup, schedule, sim-exec).
	Stage = obs.Stage
	// StageTrace is one request's per-stage wall-time breakdown.
	StageTrace = obs.StageTrace
	// SlowRequest is one captured tail outlier: who, when, how slow, and
	// the full stage breakdown.
	SlowRequest = obs.SlowRequest
)

// Architectures supported by the testbed.
const (
	AMD64 = dag.AMD64
	ARM64 = dag.ARM64
)

// Size units.
const (
	KB = units.KB
	MB = units.MB
	GB = units.GB
)

// Testbed builds the paper's calibrated two-device cluster: the medium
// Intel i7-7700 device, the small Raspberry Pi 4 device, Docker Hub, and
// the MinIO-backed regional registry.
func Testbed() *Cluster { return workload.Testbed() }

// VideoProcessing builds the paper's video case-study application.
func VideoProcessing() *App { return workload.VideoProcessing() }

// TextProcessing builds the paper's text case-study application.
func TextProcessing() *App { return workload.TextProcessing() }

// NewSystem returns a DEEP system (Nash scheduler) bound to a cluster.
func NewSystem(cluster *Cluster) *System { return core.NewSystem(cluster) }

// NewDEEPScheduler returns the paper's Nash-game scheduler: every one- and
// two-microservice stage is solved for its welfare-maximal equilibrium, at
// any number of options; stages of three or more run best-response
// dynamics.
func NewDEEPScheduler() Scheduler { return sched.NewDEEP() }

// NewExclusiveScheduler pins every deployment to one registry ("hub" or
// "regional"), the paper's two baseline methods.
func NewExclusiveScheduler(registry string) Scheduler { return sched.NewExclusive(registry) }

// AllSchedulers returns DEEP plus every baseline, seeding the randomized
// one.
func AllSchedulers(seed int64) []Scheduler { return sched.All(seed) }

// Run simulates a placed application on a cluster. It compiles a SimPlan
// and runs a fresh SimExec under the hood; callers that replay the same
// (app, cluster) shape repeatedly should compile once with CompileSimPlan
// and reuse a SimExec — that steady state allocates nothing.
func Run(app *App, cluster *Cluster, placement Placement, opts Options) (*Result, error) {
	return sim.Run(app, cluster, placement, opts)
}

// CompileSimPlan compiles an (app, cluster) pair for repeated simulation.
// The plan is immutable and safe to share across goroutines, each driving
// its own SimExec. Compiling several apps against one cluster? Use
// CompileClusterTable once plus CompileSimPlanOnTables per app, so the
// cluster's topology scan isn't repeated per application.
func CompileSimPlan(app *App, cluster *Cluster) *SimPlan {
	return sim.CompilePlan(app, cluster)
}

// CompileClusterTable compiles the cluster-side substrate every
// per-application compile builds on: sorted+compacted device/registry name
// tables, interned device handles, the dense registry→device /
// device→device / source link tables, and idle power. It is immutable, safe
// to share across goroutines, and reusable for any number of applications
// on the same cluster — the fleet compiles its cluster's once.
func CompileClusterTable(cluster *Cluster) *ClusterTable {
	return sim.CompileClusterTable(cluster)
}

// CompileAppTable compiles the application-side substrate every per-cluster
// compile builds on: validated structure, interned microservice names, dense
// topo/stage/edge rows, and per-microservice scalars. It is immutable, safe
// to share across goroutines, and reusable for any number of clusters — the
// one-app-many-clusters mirror of CompileClusterTable (see
// examples/customapp). It never fails: an App is validated when it is built,
// so every App compiles.
func CompileAppTable(app *App) *AppTable { return appgraph.Compile(app) }

// CompileSimPlanOnTables compiles a simulation plan over both substrates —
// a shared AppTable and a shared ClusterTable — so neither side of the
// (app, cluster) pair is re-derived (see examples/customapp). The tables
// must come from the same app and from cluster itself: a warm run drives the
// layer caches of the table's devices.
func CompileSimPlanOnTables(at *AppTable, cluster *Cluster, table *ClusterTable) *SimPlan {
	return sim.CompilePlanOnTables(at, cluster, table)
}

// NewSimExec returns a reusable simulator executor. Exec.Run(plan,
// placement, opts) returns a Result owned by the executor (valid until the
// next Run; Clone it to keep it), and allocates nothing once its scratch
// has grown to the plan, cold or warm. Not safe for concurrent use — one per
// worker.
func NewSimExec() *SimExec { return sim.NewExec() }

// Schedule compiles the cost model of app on cluster and computes a
// placement on it with the given scheduler.
func Schedule(s Scheduler, app *App, cluster *Cluster) (Placement, error) {
	return sched.Schedule(s, app, cluster)
}

// ScheduleOnTables computes a placement over both shared substrates: the
// cost model compiles as a thin pass over (AppTable, ClusterTable) with no
// DAG or topology re-derivation — the cold path for scheduling one app
// across many clusters (or many apps on one cluster) — and the scheduler
// runs on it. The tables must come from the same app and an
// identically-shaped cluster.
func ScheduleOnTables(s Scheduler, at *AppTable, cluster *Cluster, table *ClusterTable) (Placement, error) {
	model, _ := costmodel.CompileShapeOn(at, cluster, table)
	return s.ScheduleModel(model)
}

// Fleet errors, re-exported for errors.Is checks against Do and Submit
// results.
var (
	// ErrFleetQueueFull reports a rejected (not admitted) request: every
	// worker busy and every waiter slot taken.
	ErrFleetQueueFull = fleet.ErrQueueFull
	// ErrFleetClosed reports a submission after Close.
	ErrFleetClosed = fleet.ErrClosed
	// ErrFleetDeadline reports a request whose deadline expired while it
	// waited for a worker or before it could be scheduled or simulated
	// (FleetRequest.Deadline).
	ErrFleetDeadline = fleet.ErrDeadline
)

// NewFleet starts a multi-tenant deployment service: a pool of
// scheduler/simulator workers that callers borrow (waiting in bounded waiter
// slots when all are busy) with a sharded CLOCK cache of memoized
// placements. Close it to drain.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// NewMetrics returns an empty instrument registry (pass it to several
// fleets via FleetConfig.Metrics to aggregate them into one exposition).
func NewMetrics() *Metrics { return monitor.NewMetrics() }

// ScaledTestbed replicates the calibrated testbed's device pair n times
// behind the shared hub and regional registries.
func ScaledTestbed(n int) *Cluster { return workload.ScaledTestbed(n) }
