package main

// metricDef is one declared metric. BENCHMARK.json carries the same names
// and units (a unit test holds the two together).
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees; every untraced run prints
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delivered_mb_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_s_per_gb", "s/GB"},
	{"wire_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists single-layer metrics; every traced run prints all of them,
// 0 where a layer is not on the workload's path.
var perLayer = []metricDef{
	// Layer replay: fixed work over the run's first blocks.
	{"lz.encode_mb_s", "MB/s"}, {"lz.decode_mb_s", "MB/s"}, {"lz.encode_allocs_per_block", "count"}, {"lz.ratio", "ratio"},
	{"bwt.encode_mb_s", "MB/s"}, {"bwt.decode_mb_s", "MB/s"}, {"bwt.encode_allocs_per_block", "count"}, {"bwt.ratio", "ratio"},
	{"huffman.encode_mb_s", "MB/s"}, {"huffman.decode_mb_s", "MB/s"}, {"huffman.encode_allocs_per_block", "count"}, {"huffman.ratio", "ratio"},
	{"codec.frame_append_ns", "ns"}, {"codec.frame_parse_ns", "ns"},
	{"sampling.probe_us_p50", "us"},
	{"encplane.publish_us_p50", "us"},
	// Timed seams inside the traced run.
	{"codec.encode_busy_share", "share"}, {"codec.decode_busy_share", "share"},
	{"codec.encode_ms_p50", "ms"}, {"codec.decode_ms_p50", "ms"},
	{"sampling.probe_busy_share", "share"},
	{"selector.decide_ns_p50", "ns"},
	{"selector.method_share.none", "share"}, {"selector.method_share.huffman", "share"},
	{"selector.method_share.lz", "share"}, {"selector.method_share.bwt", "share"},
	{"selector.switches_per_100_blocks", "count"},
	{"core.tx_self_us_p50", "us"}, {"core.rx_self_us_p50", "us"}, {"core.pipeline_wait_ms_p50", "ms"},
	{"netsim.write_wait_share", "share"}, {"netsim.wire_bytes", "bytes"},
	// Read from Broker.Metrics(), the registry /metrics serves.
	{"encplane.encodes", "count"}, {"encplane.deliveries", "count"}, {"encplane.dedup_ratio", "ratio"},
	{"encplane.cache_hit_share", "share"}, {"encplane.encode_busy_share", "share"},
	{"broker.publish_us_p50", "us"}, {"broker.queue_wait_ms_p50", "ms"}, {"broker.queue_wait_ms_p99", "ms"},
	{"broker.writes_per_delivery", "ratio"}, {"broker.drops", "count"}, {"broker.evictions", "count"},
	{"broker.handshake_ms_p50", "ms"}, {"broker.resumes", "count"},
	{"broker.resume_replayed_blocks", "count"}, {"broker.resume_gaps", "count"},
	{"broker.resume_catchup_ms_p50", "ms"}, {"broker.resume_catchup_ms_p90", "ms"},
	// Runtime and generator.
	{"go.allocs_per_block", "count"}, {"go.gc_pause_ms_p99", "ms"}, {"go.heap_peak_mb", "MB"},
	{"loadgen.late_share", "share"}, {"loadgen.lag_ms_p99", "ms"},
	{"loadgen.latency_p99_ms_at_100", "ms"}, {"loadgen.latency_p99_ms_at_200", "ms"}, {"loadgen.latency_p99_ms_at_300", "ms"},
	{"loadgen.rate_ok_max_blocks_s", "1/s"}, {"loadgen.over_limit_share", "share"},
	{"oracle.failed_share", "share"}, {"oracle.latency_samples", "count"}, {"oracle.latency_p99_ms", "ms"},
	{"trace.overhead_share", "share"}, {"trace.cpu_overhead_share", "share"}, {"trace.unattributed_share", "share"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues derives the end-to-end metrics from a measured run.
func endToEndValues(m *measured) map[string]float64 {
	out := map[string]float64{
		"setup_s":        median(m.setupS),
		"delivered_mb_s": float64(m.deliveredBytes) / 1e6 / m.win.seconds(),
		"latency_p50_ms": binnedQuantile(m.latency, 0.50),
		"latency_p90_ms": binnedQuantile(m.latency, 0.90),
		"peak_rss_mb":    float64(m.res[1].maxRSSKB) / 1024,
	}
	if m.deliveredBytes > 0 {
		out["cpu_s_per_gb"] = (m.res[1].cpu - m.res[0].cpu).Seconds() / (float64(m.deliveredBytes) / 1e9)
	}
	if m.appBytes > 0 {
		out["wire_ratio"] = float64(m.wireBytes) / float64(m.appBytes)
	}
	return out
}

// render turns values into the printed form: exactly the declared metrics,
// 0 for a name the run did not fill in.
func render(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
