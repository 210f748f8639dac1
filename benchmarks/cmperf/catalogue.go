package main

// The names the benchmark reports.  BENCHMARK.json lists the same names;
// TestCatalogueMatchesBenchmarkJSON keeps the two from drifting apart.

// entry describes one reported metric.
type entry struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndCatalogue is what a user of the system sees, reported for every
// workload by an untraced run.  Latency is not among them: it is printed by
// every run, but on this host its run-to-run spread reached 28% of its
// median, more than any bound may be, so it is reported with the per-layer
// set, where nothing is gated (see the README, "Noise").
var endToEndCatalogue = []entry{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"alloc_bytes_per_op", "B", "lower", 0.1},
}

// perLayerCatalogue is what a traced run reports: the tiles of a mesh
// update's blocking path, the program's own counters per update, and the
// isolated drives, by layer.
var perLayerCatalogue = []entry{
	{"ris.exec_us", "us", "lower", 0},
	{"ris.replica_exec_us", "us", "lower", 0},
	{"translator.notify_us", "us", "lower", 0},
	{"translator.write_us", "us", "lower", 0},
	{"translator.ops_per_op", "count", "lower", 0},
	{"translator.failures", "count", "lower", 0},
	{"shell.src_us", "us", "lower", 0},
	{"shell.dst_us", "us", "lower", 0},
	{"shell.spontaneous_ns", "ns", "lower", 0},
	{"shell.events_per_op", "count", "lower", 0},
	{"shell.matches_per_op", "count", "lower", 0},
	{"shell.fires_per_match", "count", "lower", 0},
	{"shell.queue_depth_max", "count", "lower", 0},
	{"shell.shed", "count", "lower", 0},
	{"rule.parse_us_per_rule", "us", "lower", 0},
	{"rule.eval_ns", "ns", "lower", 0},
	{"event.match_ns", "ns", "lower", 0},
	{"trace.append_ns", "ns", "lower", 0},
	{"trace.append_unit_ns", "ns", "lower", 0},
	{"trace.events_per_op", "count", "lower", 0},
	{"trace.retained_bytes_per_event", "B", "lower", 0},
	{"trace.events_snapshot_us", "us", "lower", 0},
	{"trace.check_us_per_event", "us", "lower", 0},
	{"trace.compact_us_per_event", "us", "lower", 0},
	{"guarantee.follows_us_per_event", "us", "lower", 0},
	{"guarantee.leads_us_per_event", "us", "lower", 0},
	{"guarantee.metric_follows_us_per_event", "us", "lower", 0},
	{"guarantee.monitor_advance_us_per_event", "us", "lower", 0},
	{"transport.send_us", "us", "lower", 0},
	{"transport.tcp_send_us", "us", "lower", 0},
	{"transport.flight_us", "us", "lower", 0},
	{"transport.deliver_us", "us", "lower", 0},
	{"transport.msgs_per_op", "count", "lower", 0},
	{"transport.batch_size_mean", "count", "higher", 0},
	{"transport.retries", "count", "lower", 0},
	{"transport.dups_dropped", "count", "lower", 0},
	{"transport.marshal_us_per_msg", "us", "lower", 0},
	{"transport.wire_bytes_per_msg", "B", "lower", 0},
	{"wire.frame_us_per_msg", "us", "lower", 0},
	{"durable.wal_appends_per_op", "count", "lower", 0},
	{"durable.wal_bytes_per_op", "B", "lower", 0},
	{"durable.fsyncs_per_s", "1/s", "lower", 0},
	{"durable.append_us_never", "us", "lower", 0},
	{"durable.append_us_interval", "us", "lower", 0},
	{"durable.append_us_always", "us", "lower", 0},
	{"durable.replay_us_per_record", "us", "lower", 0},
	{"core.deploy_ms", "ms", "lower", 0},
	{"op.unattributed_us", "us", "lower", 0},
	{"op.latency_p50_ms", "ms", "lower", 0},
	{"op.latency_p99_ms", "ms", "lower", 0},
	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.heap_retained_bytes_per_op", "B", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"host.ref_ms", "ms", "lower", 0},
	{"spans.overhead_share", "ratio", "lower", 0},
}
