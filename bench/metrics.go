package main

// metricDef is one entry of BENCHMARK.json; a test holds the file to these
// lists.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd is what a user of the stack sees, measured with tracing off on
// the spawned binaries. Every workload reports every one of them. The timing
// bounds are the widest the contract allows: on the shared two-core machine
// these sizes were frozen on, whole runs of identical code differ by 10 % and
// more in speed (see README.md), and a bound the benchmark cannot meet on
// unchanged code rejects every later change at random.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lat_geomean_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "lat_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "hyperq_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "pgserver_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer comes from the traced run and carries no bound. disk_mb and the
// two ingest latencies are end-to-end in nature but exist on the durable
// workloads only, and the contract wants every gated metric non-zero on
// every workload, so they are reported here.
var perLayer = []metricDef{
	{name: "qipc.encode_ms", unit: "ms", better: "lower", moves: "analytic_mix/lat_p95_ms"},
	{name: "qipc.bytes_out_per_op", unit: "B", better: "lower", moves: "analytic_mix/lat_p95_ms"},
	{name: "endpoint.overhead_us", unit: "us", better: "lower", moves: "point_lookups/qps"},
	{name: "qlang.parse_us", unit: "us", better: "lower", moves: "point_lookups/lat_geomean_ms (miss class)"},
	{name: "binder.bind_us", unit: "us", better: "lower", moves: "point_lookups/lat_geomean_ms (miss class)"},
	{name: "xformer.xform_us", unit: "us", better: "lower", moves: "point_lookups/lat_geomean_ms (miss class)"},
	{name: "serializer.serialize_us", unit: "us", better: "lower", moves: "point_lookups/lat_geomean_ms (miss class)"},
	{name: "core.translate_share", unit: "ratio", better: "lower", moves: "point_lookups/lat_geomean_ms; below 0.01 on analytic_mix"},
	{name: "qcache.hit_ratio", unit: "ratio", better: "higher", moves: "point_lookups/qps"},
	{name: "qcache.evictions", unit: "count", better: "lower", moves: "point_lookups/qps"},
	{name: "pool.checkout_us", unit: "us", better: "lower", moves: "point_lookups/lat_p95_ms"},
	{name: "pool.dials", unit: "count", better: "lower", moves: "point_lookups/lat_p95_ms"},
	{name: "pool.wait_timeouts", unit: "count", better: "lower", moves: "point_lookups/lat_p95_ms"},
	{name: "pgv3.hop_ms", unit: "ms", better: "lower", moves: "analytic_mix/qps, point_lookups/lat_geomean_ms"},
	{name: "pgdb.exec_ms", unit: "ms", better: "lower", moves: "analytic_mix/qps and lat_geomean_ms, ingest_mix/qps"},
	{name: "pgdb.rows_out_per_op", unit: "rows", better: "lower", moves: "analytic_mix/qps"},
	{name: "pgdb.allocs_per_op", unit: "count", better: "lower", moves: "analytic_mix/qps, pgserver_rss_mb"},
	{name: "pgdb.index_builds", unit: "count", better: "lower", moves: "ingest_mix/qps"},
	{name: "pgdb.index_hits", unit: "count", better: "higher", moves: "analytic_mix/lat_geomean_ms"},
	{name: "pgdb.index_misses", unit: "count", better: "lower", moves: "analytic_mix/lat_geomean_ms"},
	{name: "colbuf.build_ms", unit: "ms", better: "lower", moves: "analytic_mix/lat_p95_ms"},
	{name: "colbuf.allocs_per_op", unit: "count", better: "lower", moves: "analytic_mix/lat_p95_ms, hyperq_rss_mb"},
	{name: "persist.segments_faulted", unit: "count", better: "lower", moves: "cold_scan/qps"},
	{name: "persist.columns_faulted", unit: "count", better: "lower", moves: "cold_scan/qps, cold_scan/lat_geomean_ms"},
	{name: "persist.bytes_read_per_op", unit: "B", better: "lower", moves: "cold_scan/qps"},
	{name: "persist.evictions", unit: "count", better: "lower", moves: "cold_scan/qps"},
	{name: "persist.cold_open_ms", unit: "ms", better: "lower", moves: "cold_scan/setup_s"},
	{name: "persist.wal_bytes_per_row", unit: "B", better: "lower", moves: "ingest_mix/ingest_lat_p50_ms"},
	{name: "persist.checkpoint_s", unit: "s", better: "lower", moves: "ingest_mix/setup_s, cold_scan/setup_s"},
	{name: "persist.disk_bytes_per_row", unit: "B", better: "lower", moves: "disk_mb"},
	{name: "hyperq.cpu_ms_per_op", unit: "ms", better: "lower", moves: "qps once a core saturates"},
	{name: "pgserver.cpu_ms_per_op", unit: "ms", better: "lower", moves: "qps once a core saturates"},
	{name: "class.agg.lat_p50_ms", unit: "ms", better: "lower", moves: "analytic_mix/lat_geomean_ms"},
	{name: "class.rows.lat_p50_ms", unit: "ms", better: "lower", moves: "analytic_mix/lat_p95_ms"},
	{name: "class.hit.lat_p50_ms", unit: "ms", better: "lower", moves: "point_lookups/qps"},
	{name: "class.miss.lat_p50_ms", unit: "ms", better: "lower", moves: "point_lookups/lat_geomean_ms"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: the cost of the spans themselves"},
	{name: "trace.self_sum_pct", unit: "%", better: "higher", moves: "none: self times against the client span, 100 when they add up"},
	{name: "disk_mb", unit: "MB", better: "lower", moves: "cold_scan and ingest_mix only: bytes under -data-dir after the final checkpoint"},
	{name: "ingest_lat_p50_ms", unit: "ms", better: "lower", moves: "ingest_mix only: INSERT batch latency from its due time"},
	{name: "ingest_lat_p95_ms", unit: "ms", better: "lower", moves: "ingest_mix only"},
	{name: "ingest.late_p95_ms", unit: "ms", better: "lower", moves: "none: how late the open-loop generator ran"},
}
