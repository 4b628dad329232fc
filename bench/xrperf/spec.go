package main

// The benchmark's vocabulary: workload names, end-to-end metrics with the
// bound a later change may worsen them by, and per-layer metrics with the
// end-to-end metric each is expected to move. BENCHMARK.json at the repo
// root carries the same names, units, directions and bounds; the schema
// test keeps the two in step.

// Workload names. Later issues cite them, so they are fixed.
const (
	wlJoinWarm = "join_warm"
	wlJoinCold = "join_cold"
	wlIngest   = "ingest_durable"
	wlServe    = "serve_mixed"
)

var workloadNames = []string{wlJoinWarm, wlJoinCold, wlIngest, wlServe}

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median a bounded metric may worsen
	// by before a change counts as a regression; with Absolute set it is a
	// difference, not a share.
	Bound    float64
	Absolute bool
	// Moves names the end-to-end metric a per-layer metric should move,
	// and On the workloads a metric is measured on (nil: every workload;
	// elsewhere a per-layer metric reads 0).
	Moves string
	On    []string
	// Src is how a per-layer metric is obtained: C a counter the program
	// exports, L the layer driven in isolation (ladder), W a wrapper span
	// or timing the benchmark records.
	Src string
}

// The bounded metrics come in two lists, because the driver that reads
// BENCHMARK.json wants every end_to_end metric on every workload, never 0
// (the contract is quoted in ../README.md), and most of the metrics later
// issues cite exist on one or two workloads only.
//
// endToEnd is BENCHMARK.json's end_to_end list. Every workload has a lead
// and a side operation, so each of these exists everywhere:
//
//	workload        lead op                              side op
//	join_warm       six-join sweep                       8-doc ParallelJoin{Workers: 2}
//	join_cold       the same sweep, cold                 the same ParallelJoin, cold
//	ingest_durable  FindAncestors/FindDescendants probe  durable Insert/Delete
//	serve_mixed     GET /api/v1/join request             GET /api/v1/query request
//
// Their bounds are wide because the driver compares runs of different
// seeds and asks for a spread below a third of the bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lead_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "lead_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lead_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "side_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
}

// named are the end-to-end metrics under the names and bounds later issues
// cite, each on the workloads where it is defined. The untraced run writes
// them to result.json beside the five above and `xrperf -compare` judges
// both lists. For the driver they are the head of BENCHMARK.json's
// per_layer list, which the traced run reports from its untraced round.
var named = []metricSpec{
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0.001, Absolute: true},
	{Name: "sweep_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, On: joins},
	{Name: "pjoin_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, On: warmOnly},
	{Name: "page_reads_per_join", Unit: "pages", Better: "lower", Bound: 0.02, On: coldOnly},
	{Name: "probe_us_p50", Unit: "us", Better: "lower", Bound: 0.10, On: ingest},
	{Name: "probe_us_p99", Unit: "us", Better: "lower", Bound: 0.25, On: ingest},
	{Name: "insert_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10, On: ingest},
	{Name: "insert_us_p99", Unit: "us", Better: "lower", Bound: 0.25, On: ingest},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.05, On: ingest},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.05, On: []string{wlJoinCold, wlIngest}},
	{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.10, On: serve},
	{Name: "req_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, On: serve},
	{Name: "req_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25, On: serve},
	{Name: "insert_req_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15, On: serve},
}

// bounded is every metric `xrperf -compare` gives a verdict on.
var bounded = append(append([]metricSpec{}, endToEnd...), named...)

// tailQuantile is the lead op's tail percentile on each workload. Across
// seeds the p99 of probes and requests swung by up to 0.23 on the
// reference box, too close to the largest bound there is, so the driver's
// tail is p95 there, taken per round with the median over the rounds
// reported (the p99s are probe_us_p99 and req_ms_p99, compared at one
// seed). A run holds about 45 join sweeps, so the join workloads report
// the upper quartile of the whole run.
var tailQuantile = map[string]float64{
	wlJoinWarm: 0.75,
	wlJoinCold: 0.75,
	wlIngest:   0.95,
	wlServe:    0.95,
}

var (
	joins    = []string{wlJoinWarm, wlJoinCold}
	warmOnly = []string{wlJoinWarm}
	coldOnly = []string{wlJoinCold}
	ingest   = []string{wlIngest}
	serve    = []string{wlServe}
	probes   = []string{wlJoinWarm, wlIngest}
)

// layers are the metrics of single layers, prefixed with the module's name.
var layers = []metricSpec{
	{Name: "pagefile.read_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: coldOnly, Src: "L"},
	{Name: "pagefile.readv_ns_per_page", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: coldOnly, Src: "L"},
	{Name: "pagefile.write_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: []string{wlJoinCold, wlIngest}, Src: "L"},
	{Name: "pagefile.reads_per_op", Unit: "pages", Better: "lower", Moves: "page_reads_per_join", Src: "C"},
	{Name: "pagefile.read_calls_per_op", Unit: "count", Better: "lower", Moves: "page_reads_per_join", Src: "C"},
	{Name: "pagefile.writes_per_op", Unit: "pages", Better: "lower", Moves: "write_amp", Src: "C"},

	{Name: "bufferpool.fetch_hit_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "bufferpool.fetchcopy_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "bufferpool.allocs_per_fetch", Unit: "allocs", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "bufferpool.fetch_miss_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: coldOnly, Src: "L"},
	{Name: "bufferpool.evictions_per_op", Unit: "count", Better: "lower", Moves: "page_reads_per_join", Src: "C"},
	{Name: "bufferpool.hit_rate", Unit: "ratio", Better: "higher", Moves: "page_reads_per_join", Src: "C"},
	{Name: "bufferpool.committx_us", Unit: "us", Better: "lower", Moves: "insert_per_s", On: ingest, Src: "L"},

	{Name: "platch.rlock_ns", Unit: "ns", Better: "lower", Moves: "probe_us_p50, sweep_ms_p50", On: probes, Src: "L"},
	{Name: "platch.lock_ns", Unit: "ns", Better: "lower", Moves: "insert_per_s, sweep_ms_p50", On: probes, Src: "L"},
	{Name: "platch.contended_rlock_ns", Unit: "ns", Better: "lower", Moves: "probe_us_p99", On: ingest, Src: "L"},

	{Name: "wal.commit_us_p50", Unit: "us", Better: "lower", Moves: "insert_per_s", On: ingest, Src: "L"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower", Moves: "write_amp", On: ingest, Src: "L"},
	{Name: "wal.fsyncs_per_insert", Unit: "ratio", Better: "lower", Moves: "insert_per_s", Src: "C"},
	{Name: "wal.commits_per_fsync", Unit: "ratio", Better: "higher", Moves: "insert_per_s", Src: "C"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", Moves: "insert_us_p99", Src: "C"},
	{Name: "wal.page_images_per_insert", Unit: "ratio", Better: "lower", Moves: "write_amp", Src: "C"},
	{Name: "wal.redo_ms", Unit: "ms", Better: "lower", Moves: "none", On: ingest, Src: "W"},

	{Name: "btree.insert_us", Unit: "us", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "L"},
	{Name: "btree.delete_us", Unit: "us", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "L"},
	{Name: "btree.lookup_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "L"},
	{Name: "btree.seek_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "L"},
	{Name: "btree.pages_per_lookup", Unit: "pages", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "L"},

	{Name: "core.find_ancestors_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "core.find_descendants_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "core.seek_ns", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "core.allocs_per_probe", Unit: "allocs", Better: "lower", Moves: "probe_us_p99", On: probes, Src: "L"},
	{Name: "core.pages_per_probe", Unit: "pages", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "core.stab_pages_per_probe", Unit: "pages", Better: "lower", Moves: "sweep_ms_p50, probe_us_p50", On: probes, Src: "L"},
	{Name: "core.insert_us", Unit: "us", Better: "lower", Moves: "insert_per_s", On: ingest, Src: "L"},
	{Name: "core.delete_us", Unit: "us", Better: "lower", Moves: "insert_per_s", On: ingest, Src: "L"},
	{Name: "core.bulkload_ms", Unit: "ms", Better: "lower", Moves: "setup_s", Src: "W"},
	{Name: "elemlist.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: joins, Src: "W"},
	{Name: "xmldoc.parse_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "setup_s", Src: "W"},
	{Name: "elemlist.scan_ns_per_elem", Unit: "ns", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "L"},

	{Name: "join.xrstack_ms_p50", Unit: "ms", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "W"},
	{Name: "join.bplus_ms_p50", Unit: "ms", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "W"},
	{Name: "join.noindex_ms_p50", Unit: "ms", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "W"},
	{Name: "join.self_share", Unit: "ratio", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "W"},
	{Name: "join.allocs_per_join", Unit: "allocs", Better: "lower", Moves: "sweep_ms_p50", On: joins, Src: "W"},
	{Name: "join.scanned_per_pair", Unit: "ratio", Better: "lower", Moves: "page_reads_per_join", On: joins, Src: "C"},
	{Name: "join.skip_effectiveness", Unit: "ratio", Better: "higher", Moves: "page_reads_per_join", On: joins, Src: "C"},
	{Name: "join.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "pjoin_ms_p50", On: joins, Src: "W"},
	{Name: "join.merge_ms", Unit: "ms", Better: "lower", Moves: "pjoin_ms_p50", On: warmOnly, Src: "L"},

	{Name: "pathexpr.parse_ns", Unit: "ns", Better: "lower", Moves: "req_ms_p50", On: serve, Src: "L"},
	{Name: "pathexpr.eval_ms_p50", Unit: "ms", Better: "lower", Moves: "req_ms_p50", On: serve, Src: "L"},

	{Name: "server.handler_us_p50", Unit: "us", Better: "lower", Moves: "req_ms_p50", On: serve, Src: "L"},
	{Name: "server.overhead_share", Unit: "ratio", Better: "lower", Moves: "req_ms_p50", On: serve, Src: "W"},
	{Name: "server.encode_bytes_per_req", Unit: "B", Better: "lower", Moves: "req_per_s", On: serve, Src: "W"},
	{Name: "server.queue_wait_us_p99", Unit: "us", Better: "lower", Moves: "req_ms_p99", On: serve, Src: "C"},
	{Name: "server.rejects", Unit: "count", Better: "lower", Moves: "fail_share", On: serve, Src: "C"},

	{Name: "cluster.hop_ms_p50", Unit: "ms", Better: "lower", Moves: "none", On: serve, Src: "W"},
	{Name: "cluster.subrequests_per_req", Unit: "count", Better: "lower", Moves: "none", On: serve, Src: "W"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "req_ms_p50", On: serve, Src: "W"},
	{Name: "obs.join_trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sweep_ms_p50", On: warmOnly, Src: "W"},

	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower", Moves: "probe_us_p99, req_ms_p99", Src: "C"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "probe_us_p99, req_ms_p99", Src: "C"},

	// The traced round next to the untraced one of the same invocation:
	// what the benchmark's own wrappers cost.
	{Name: "traced.lead_ms_p50", Unit: "ms", Better: "lower", Moves: "none", Src: "W"},
	{Name: "traced.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none", Src: "W"},
}

// perLayer is BENCHMARK.json's per_layer list.
var perLayer = append(append([]metricSpec{}, named...), layers...)

// measuredOn reports whether a metric is measured on workload w.
func (m metricSpec) measuredOn(w string) bool {
	if m.On == nil {
		return true
	}
	for _, o := range m.On {
		if o == w {
			return true
		}
	}
	return false
}
