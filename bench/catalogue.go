package main

import "slices"

// The five workloads, in the order the full run executes them.
const (
	wWindow  = "window"
	wTopo    = "topo"
	wHot     = "hot"
	wMixedRW = "mixed_rw"
	wJoin    = "join"
)

var workloadNames = []string{wWindow, wTopo, wHot, wMixedRW, wJoin}

// metricDef is one catalogue entry. BENCHMARK.json mirrors this table
// (bench_test.go checks the two agree); the README tables are written
// from it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the regression bound of an end-to-end metric; 0 marks a
	// per-layer metric (reported, never gated).
	bound float64
	// on lists the workloads that measure the metric; nil means all. A
	// per-layer metric reads 0 on a workload outside its list.
	on []string
}

func (m metricDef) appliesTo(workload string) bool {
	return m.on == nil || slices.Contains(m.on, workload)
}

var (
	durableOnly = []string{wTopo, wMixedRW}
	queryOnly   = []string{wWindow, wTopo, wHot, wMixedRW}
	cachedOnly  = []string{wHot, wMixedRW}
	rwOnly      = []string{wMixedRW}
	joinOnly    = []string{wJoin}
	topoOnly    = []string{wTopo}
	windowOnly  = []string{wWindow}
)

// endToEnd are the gated metrics: measured with tracing off, from the
// generator's clock, on every workload. The three timings are corrected
// to the nominal host's speed (windowMetrics); client.raw_* are not.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// perLayer are the attribution metrics, layer = module name. Counts
// come from the main run (stats trailers, /metrics deltas, /proc);
// *_us and *_ms timings come from the traced pass.
var perLayer = []metricDef{
	// client: the generator's own view, plus the end-to-end candidates
	// that cannot be gated on every workload (see README "Demoted").
	{name: "client.cpu_s", unit: "s", better: "lower"},
	{name: "client.error_rate", unit: "fraction", better: "lower"},
	{name: "client.host_speed", unit: "fraction", better: "higher"},
	{name: "client.raw_setup_s", unit: "s", better: "lower"},
	{name: "client.raw_ops_per_s", unit: "1/s", better: "higher"},
	{name: "client.raw_lat_p50_ms", unit: "ms", better: "lower"},
	{name: "client.lat_p90_ms", unit: "ms", better: "lower"},
	{name: "client.lat_p99_ms", unit: "ms", better: "lower", on: queryOnly},
	{name: "client.lat_p999_ms", unit: "ms", better: "lower", on: queryOnly},
	{name: "client.lat_max_ms", unit: "ms", better: "lower"},
	{name: "client.query_p50_ms", unit: "ms", better: "lower", on: queryOnly},
	{name: "client.conj_p50_ms", unit: "ms", better: "lower", on: topoOnly},
	{name: "client.knn_p50_ms", unit: "ms", better: "lower", on: topoOnly},
	{name: "client.write_ops_per_s", unit: "1/s", better: "higher", on: rwOnly},
	{name: "client.write_lat_p50_ms", unit: "ms", better: "lower", on: rwOnly},
	{name: "client.write_lat_p90_ms", unit: "ms", better: "lower", on: rwOnly},
	{name: "client.recover_s", unit: "s", better: "lower", on: rwOnly},
	{name: "client.disk_bytes_per_object", unit: "B", better: "lower", on: rwOnly},

	{name: "topod.cpu_s_per_kop", unit: "s", better: "lower"},
	{name: "topod.boot_ready_ms", unit: "ms", better: "lower"},
	{name: "topod.first_answer_ms", unit: "ms", better: "lower"},

	{name: "net.overhead_us", unit: "us", better: "lower"},

	{name: "server.handler_us", unit: "us", better: "lower"},
	{name: "server.decode_us", unit: "us", better: "lower"},
	{name: "server.encode_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.lines_per_op", unit: "count", better: "lower"},
	{name: "server.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "server.rejected_per_kop", unit: "count", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "fraction", better: "higher", on: cachedOnly},
	{name: "server.cache_hit_us", unit: "us", better: "lower", on: []string{wHot}},
	{name: "server.cache_evictions_per_kop", unit: "count", better: "lower", on: cachedOnly},
	{name: "server.insert_us", unit: "us", better: "lower", on: rwOnly},
	{name: "server.checkpoints", unit: "count", better: "lower", on: rwOnly},
	{name: "server.checkpoint_ms", unit: "ms", better: "lower", on: rwOnly},
	{name: "server.write_stall_max_ms", unit: "ms", better: "lower", on: rwOnly},
	{name: "server.disk_bytes_total", unit: "B", better: "lower", on: durableOnly},

	{name: "query.stream_us", unit: "us", better: "lower", on: queryOnly},
	{name: "query.self_us", unit: "us", better: "lower", on: queryOnly},
	{name: "query.candidates_per_op", unit: "count", better: "lower"},
	{name: "query.plan_reorders_per_kop", unit: "count", better: "higher", on: topoOnly},
	{name: "query.plan_shortcircuits_per_kop", unit: "count", better: "higher", on: topoOnly},
	{name: "query.join_ms", unit: "ms", better: "lower", on: joinOnly},
	{name: "query.join_pairs_per_op", unit: "count", better: "lower", on: joinOnly},

	{name: "rtree.search_us", unit: "us", better: "lower", on: queryOnly},
	{name: "rtree.node_accesses_per_op", unit: "count", better: "lower", on: queryOnly},
	{name: "rtree.join_node_accesses_per_op", unit: "count", better: "lower", on: joinOnly},
	{name: "rtree.knn_us", unit: "us", better: "lower", on: topoOnly},
	{name: "rtree.insert_us", unit: "us", better: "lower", on: rwOnly},
	{name: "rtree.bulkload_ms", unit: "ms", better: "lower", on: durableOnly},
	{name: "rtree.flat_encode_ms", unit: "ms", better: "lower", on: durableOnly},
	{name: "rtree.flat_open_ms", unit: "ms", better: "lower", on: durableOnly},
	{name: "rtree.height", unit: "count", better: "lower"},

	{name: "pagefile.reads_per_op", unit: "count", better: "lower"},

	{name: "wal.commit_us", unit: "us", better: "lower", on: rwOnly},
	{name: "wal.fsyncs_per_write", unit: "count", better: "lower", on: rwOnly},
	{name: "wal.bytes_per_write", unit: "B", better: "lower", on: rwOnly},
	{name: "wal.commit_busy_frac", unit: "fraction", better: "lower", on: rwOnly},

	{name: "watch.publish_us", unit: "us", better: "lower", on: rwOnly},
	{name: "watch.notify_p50_us", unit: "us", better: "lower", on: rwOnly},

	{name: "repl.visible_p50_us", unit: "us", better: "lower", on: rwOnly},

	{name: "shard.search_us", unit: "us", better: "lower", on: windowOnly},
	{name: "shard.tiles_pruned_frac", unit: "fraction", better: "higher", on: windowOnly},

	{name: "trace.coverage_frac", unit: "fraction", better: "higher"},
}
