//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists the same names with their direction and bound; the smoke test fails
//! when the two disagree.

/// What a user of the system sees; the median of a run's windows (or
/// set-ups). Each has a bound in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "txn/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_us_per_txn", "us"),
    ("setup_s", "s"),
    ("rss_ready_mb", "MiB"),
];

/// One layer each (the prefix is the crate), without a bound. Times are
/// nanoseconds per transaction unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_ratio", "ratio"),
    ("rss_growth_bytes_per_txn", "B"),
    ("server.decode_request_ns", "ns"),
    ("server.encode_response_ns", "ns"),
    ("server.request_bytes", "B"),
    ("server.requests", "count"),
    ("server.protocol_errors", "count"),
    ("server.wire_tax_ratio", "ratio"),
    ("client.encode_request_ns", "ns"),
    ("client.decode_response_ns", "ns"),
    ("client.latency_p99_ms", "ms"),
    ("client.generator_late_p95_ms", "ms"),
    ("exec.admission_busy_ns", "ns"),
    ("exec.grouping_busy_ns", "ns"),
    ("exec.execution_busy_ns", "ns"),
    ("exec.commit_busy_ns", "ns"),
    ("exec.bulk_size_mean", "txn"),
    ("exec.close_by_timer_ratio", "ratio"),
    ("exec.run_ns", "ns"),
    ("exec.run_parallel_ns", "ns"),
    ("exec.inproc_throughput_tps", "txn/s"),
    ("exec.inproc_cpu_us_per_txn", "us"),
    ("core.profile_ns", "ns"),
    ("core.kset_share", "ratio"),
    ("core.part_share", "ratio"),
    ("core.tpl_share", "ratio"),
    ("core.switches", "count"),
    ("txn.rwset_ns", "ns"),
    ("txn.rank_ns", "ns"),
    ("txn.waves_per_bulk", "count"),
    ("txn.access_plan_ns", "ns"),
    ("txn.access_entries_per_txn", "count"),
    ("txn.revalidate_ns", "ns"),
    ("storage.db_clone_ms", "ms"),
    ("storage.db_encoded_mb", "MiB"),
    ("storage.record_encode_ns", "ns"),
    ("durability.capture_ns", "ns"),
    ("durability.wal_append_ns", "ns"),
    ("durability.wal_bytes_per_txn", "B"),
    ("durability.recover_us_per_txn", "us"),
    ("replication.publish_ns", "ns"),
    ("replication.lag_p50_ms", "ms"),
    ("replication.lag_p99_ms", "ms"),
    ("replication.records_shed", "count"),
    ("analytics.apply_ns", "ns"),
    ("analytics.cut_p50_us", "us"),
    ("analytics.scan_p50_ms", "ms"),
    ("analytics.chunks_rebuilt_per_cut", "count"),
    ("workloads.abort_ratio", "ratio"),
    ("workloads.tpmc", "1/min"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.span_overhead_ns", "ns"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}
