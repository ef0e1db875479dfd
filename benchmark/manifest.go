package main

// metricDef declares one metric as BENCHMARK.json lists it; a test
// holds the two in step. bound and exact belong to end-to-end metrics:
// the share of the parent's median by which a later change may worsen
// the metric, and whether every run of one seed must read the same.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
}

// endToEnd is what the driver gates; every workload reports all of
// them, tracing off. The bounds come from CALIBRATION.md. The window's
// timings are not among them: on the reference host none holds a
// bound the contract allows (README, "The host's noise"), so they are
// per-layer metrics, the first three of perLayer.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "index_bytes", unit: "bytes", better: "lower", bound: 0.001, exact: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer is what the traced run reports, layer by layer.
var perLayer = []metricDef{
	{name: "pairs_per_s", unit: "pairs/s", better: "higher"},
	{name: "req_p50_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_pair", unit: "us", better: "lower"},
	{name: "gen.seconds", unit: "s", better: "lower"},
	{name: "graph.csr_seconds", unit: "s", better: "lower"},
	{name: "graph.save_seconds", unit: "s", better: "lower"},
	{name: "graph.load_seconds", unit: "s", better: "lower"},
	{name: "order.seconds", unit: "s", better: "lower"},
	{name: "tol.build_seconds", unit: "s", better: "lower"},
	{name: "tol.budgeted_seconds", unit: "s", better: "lower"},
	{name: "tol.overflowed_out", unit: "count", better: "lower"},
	{name: "drl.shared_seconds", unit: "s", better: "lower"},
	{name: "drl.dist_compute_seconds", unit: "s", better: "lower"},
	{name: "pregel.comm_seconds", unit: "s", better: "lower"},
	{name: "pregel.supersteps", unit: "count", better: "lower"},
	{name: "pregel.messages", unit: "count", better: "lower"},
	{name: "pregel.bytes_remote", unit: "bytes", better: "lower"},
	{name: "label.entries", unit: "count", better: "lower"},
	{name: "label.entries_per_pair", unit: "count", better: "lower"},
	{name: "label.freeze_seconds", unit: "s", better: "lower"},
	{name: "label.write_seconds", unit: "s", better: "lower"},
	{name: "label.read_seconds", unit: "s", better: "lower"},
	{name: "label.ns_per_pair", unit: "ns", better: "lower"},
	{name: "label.ns_per_pair_reachable", unit: "ns", better: "lower"},
	{name: "label.budgeted_ns_per_pair", unit: "ns", better: "lower"},
	{name: "label.batch_ns_per_pair", unit: "ns", better: "lower"},
	{name: "reachlab.ns_per_pair", unit: "ns", better: "lower"},
	{name: "reachlab.batch16_ns_per_pair", unit: "ns", better: "lower"},
	{name: "reachlab.batch16_allocs", unit: "count", better: "lower"},
	{name: "qcache.get_ns", unit: "ns", better: "lower"},
	{name: "qcache.put_ns", unit: "ns", better: "lower"},
	{name: "qcache.hit_rate", unit: "ratio", better: "higher"},
	{name: "server.ns_per_pair", unit: "ns", better: "lower"},
	{name: "server.obs_ns_per_req", unit: "ns", better: "lower"},
	{name: "server.allocs_per_req", unit: "count", better: "lower"},
	{name: "server.bytes_per_req", unit: "bytes", better: "lower"},
	{name: "server.swap_us", unit: "us", better: "lower"},
	{name: "http.ns_per_pair", unit: "ns", better: "lower"},
	{name: "http.req_body_bytes", unit: "bytes", better: "lower"},
	{name: "http.resp_body_bytes", unit: "bytes", better: "lower"},
	{name: "fleet.ns_per_pair", unit: "ns", better: "lower"},
	{name: "fleet.subrequests_per_req", unit: "count", better: "lower"},
	{name: "fleet.allocs_per_req", unit: "count", better: "lower"},
	{name: "fleet.retries", unit: "count", better: "lower"},
	{name: "loadgen.stub_ns_per_req", unit: "ns", better: "lower"},
	{name: "loadgen.req_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.updates_per_s", unit: "1/s", better: "higher"},
	{name: "loadgen.late_writes", unit: "count", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_record", unit: "bytes", better: "lower"},
	{name: "dynamic.insert_us", unit: "us", better: "lower"},
	{name: "dynamic.delete_us", unit: "us", better: "lower"},
	{name: "dynamic.snapshot_ms", unit: "ms", better: "lower"},
	{name: "updater.refreshes", unit: "count", better: "higher"},
	{name: "updater.refresh_mean_ms", unit: "ms", better: "lower"},
	{name: "updater.repairs", unit: "count", better: "lower"},
	{name: "updater.rebuilds", unit: "count", better: "lower"},
	{name: "updater.write_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "updater.write_visible_p50_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
