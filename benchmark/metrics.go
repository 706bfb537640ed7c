package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd is what a tenant or an operator of the daemon sees, measured over
// the socket with tracing off; times and rates are at reference speed.
// Definitions, and why the bounds are as wide as they are, are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"server_cpu_us_per_deploy", "us", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.10},
	{"placement_energy_j", "J", "lower", 0.001},
}

// perLayer is the ungated diagnostics, named layer.metric after the module
// that does the work. The first group comes from the load phase and the
// daemon's own counters, the second from the traced replay.
var perLayer = []metricDef{
	{"gen.error_rate", "ratio", "lower", 0},
	{"gen.host_speed", "ratio", "higher", 0},
	{"gen.latency_p99_ms", "ms", "lower", 0},
	{"gen.cpu_us_per_deploy", "us", "lower", 0},
	{"gen.req_bytes", "B", "lower", 0},
	{"gen.resp_bytes", "B", "lower", 0},
	{"gen.build_s", "s", "lower", 0},
	{"gen.prep_s", "s", "lower", 0},
	{"obs.scrape_ms", "ms", "lower", 0},
	{"fleetd.accepted", "count", "higher", 0},
	{"fleetd.rejected", "count", "lower", 0},
	{"fleetd.shed", "count", "lower", 0},
	{"fleet.placement_hit_ratio", "ratio", "higher", 0},
	{"fleet.placement_evictions", "count", "lower", 0},
	{"fleet.shape_compiles", "count", "lower", 0},
	{"fleet.app_compiles", "count", "lower", 0},
	{"fleet.cluster_compiles", "count", "lower", 0},
	{"fleet.failed", "count", "lower", 0},
	{"fleet.rejected", "count", "lower", 0},
	{"fleet.degraded_ratio", "ratio", "lower", 0},
	{"fleet.server_latency_p50_ms", "ms", "lower", 0},
	{"fleet.queue_wait_p50_ms", "ms", "lower", 0},
	{"fleet.churn_epochs", "count", "higher", 0},
	{"fleet.churn_invalidated", "count", "lower", 0},
	{"fleet.churn_stale_rejected", "count", "lower", 0},
	{"fleet.churn_reschedules", "count", "lower", 0},
	{"fleet.churn_downgrades", "count", "lower", 0},
	{"fleet.churn_shapes_purged", "count", "lower", 0},
	{"fleet.churn_apply_ms", "ms", "lower", 0},

	{"nethttp.roundtrip_us", "us", "lower", 0},
	{"nethttp.residual_us", "us", "lower", 0},
	{"fleetd.handler_us", "us", "lower", 0},
	{"fleetd.envelope_decode_us", "us", "lower", 0},
	{"fleetd.encode_us", "us", "lower", 0},
	{"fleetd.self_us", "us", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.build_us", "us", "lower", 0},
	{"fleet.do_us", "us", "lower", 0},
	{"fleet.queue_us", "us", "lower", 0},
	{"fleet.fingerprint_us", "us", "lower", 0},
	{"fleet.compile_us", "us", "lower", 0},
	{"fleet.cache_lookup_us", "us", "lower", 0},
	{"fleet.schedule_us", "us", "lower", 0},
	{"fleet.sim_us", "us", "lower", 0},
	{"fleet.self_us", "us", "lower", 0},
	{"fleet.allocs_per_deploy", "count", "lower", 0},
	{"appgraph.compile_us", "us", "lower", 0},
	{"topo.compile_us", "us", "lower", 0},
	{"topo.patch_us", "us", "lower", 0},
	{"costmodel.compile_shape_us", "us", "lower", 0},
	{"sched.schedule_us", "us", "lower", 0},
	{"sim.exec_us", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.explained_ratio", "ratio", "higher", 0},
}

// allMetrics is every declared metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}
