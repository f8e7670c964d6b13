package main

// metricDef names a metric and fixes its unit. BENCHMARK.json lists the
// same names and units; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the pipeline sees, reported by every run with
// -trace 0. Wall-clock, CPU and allocation metrics describe real work in
// this process; sim_ms_per_op is the cost model's clock, which reproduces
// the paper's shape and is never mixed with the others.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_ms_p50", "ms"},
	{"pipeline_ms_tail", "ms"},
	{"src_rows_per_s", "rows/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "allocs"},
	{"peak_rss_mb", "MB"},
	{"sim_ms_per_op", "sim-ms"},
}

// Span names, by module. A stage span wraps one call sequence into one
// layer's public functions during the staged run.
const (
	spanDFSRead     = "dfs.read"
	spanDFSWrite    = "dfs.write"
	spanTextRead    = "hadoopfmt.text_read"
	spanScan        = "sqlengine.scan"
	spanPrep        = "sqlengine.prep"
	spanExport      = "sqlengine.export_dfs"
	spanRecodeMap   = "transform.recode_map"
	spanApply       = "transform.apply"
	spanEncode      = "row.encode"
	spanDecode      = "row.decode"
	spanHandshake   = "stream.handshake"
	spanTransfer    = "stream.transfer"
	spanIngestCol   = "ml.ingest_col"
	spanIngestRow   = "ml.ingest_row"
	spanIngestDFS   = "ml.ingest_dfs"
	spanFused       = "core.fused"
	spanFusedP1     = "core.fused_p1"
	spanFusedSmall  = "core.fused_small"
	spanAnalyze     = "rewriter.analyze"
	spanCacheLookup = "cache.lookup"
	spanStagedIter  = "staged"
)

// rowSpans report all six span metrics.
var rowSpans = []string{
	spanDFSRead, spanDFSWrite, spanTextRead,
	spanScan, spanPrep, spanExport,
	spanRecodeMap, spanApply,
	spanEncode, spanDecode, spanTransfer,
	spanIngestCol, spanIngestRow, spanIngestDFS,
	spanFused,
}

// perLayer is what the traced run (-trace 1) reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range rowSpans {
		defs = append(defs,
			metricDef{s + ".wall_ms", "ms"},
			metricDef{s + ".cpu_ms", "ms"},
			metricDef{s + ".allocs_per_row", "allocs/row"},
			metricDef{s + ".alloc_b_per_row", "B/row"},
			metricDef{s + ".rows_in", "rows"},
			metricDef{s + ".rows_out", "rows"},
		)
	}
	return append(defs,
		metricDef{spanFusedP1 + ".wall_ms", "ms"},
		metricDef{spanFusedP1 + ".cpu_ms", "ms"},
		metricDef{spanFusedSmall + ".wall_ms", "ms"},
		metricDef{spanFusedSmall + ".cpu_ms", "ms"},
		metricDef{spanFusedSmall + ".allocs_per_row", "allocs/row"},
		metricDef{spanFusedSmall + ".alloc_b_per_row", "B/row"},
		metricDef{spanFusedSmall + ".rows_in", "rows"},
		metricDef{spanHandshake + ".wall_ms", "ms"},
		metricDef{spanHandshake + ".cpu_ms", "ms"},
		metricDef{spanAnalyze + ".us_per_call", "us"},
		metricDef{spanCacheLookup + ".us_per_call", "us"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"sqlengine.rows_scanned_per_row_out", "rows/row"},
		metricDef{"dfs.bytes_written_per_row", "B/row"},
		metricDef{"row.wire_b_per_row", "B/row"},
		metricDef{"row.raw_b_per_row", "B/row"},
		metricDef{"stream.frames", "count"},
		metricDef{"stream.spilled_bytes", "B"},
		metricDef{"stream.restarts", "count"},
		metricDef{"stream.reconnects", "count"},
		metricDef{"cluster.cost_overhead_ms", "ms"},
		metricDef{"core.parallel_speedup", "ratio"},
		metricDef{"core.fixed_cost_ms", "ms"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"trace.cpu_coverage", "ratio"},
		metricDef{"trace.overlap", "ratio"},
	)
}()

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()
