//! The metric catalogue: every name and unit the benchmark emits. The
//! self-test checks this table against `BENCHMARK.json` and the emitted
//! result line against this table.

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_melem_s", "Melem/s"),
    ("ack_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("ratio_error", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns_per_update", "ns"),
    ("wire.decode_ns_per_update", "ns"),
    ("wire.bytes_per_update", "B"),
    ("sketches.add_batch_ns_per_update", "ns"),
    ("sketches.bucket_dot_us", "us"),
    ("ingest.inproc_melem_s", "Melem/s"),
    ("ingest.pending_chunks_max", "count"),
    ("ingest.snapshot_ms", "ms"),
    ("server.throttled_frac", "frac"),
    ("server.query_overhead_ms", "ms"),
    ("core.estimate_join_ms", "ms"),
    ("core.skim_ms", "ms"),
    ("core.clone_ms", "ms"),
    ("core.subjoin_ms", "ms"),
    ("core.dense_values", "count"),
    ("durability.append_us_per_batch", "us"),
    ("durability.bytes_per_update", "B"),
    ("cluster.shard_fetch_ms", "ms"),
    ("cluster.routed_minus_direct_ack_ms", "ms"),
    ("replication.lag_bytes_max", "B"),
    ("trace.overhead_frac", "frac"),
    ("gen_late_ms", "ms"),
];

/// The unit of metric `name`, from either table.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
