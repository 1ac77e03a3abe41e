//! Serving-layer telemetry, compile-gated exactly like the rest of the
//! workspace: with `--no-default-features` every handle below is a ZST
//! no-op and the `Option` wrappers at call sites fold away.
//!
//! The connection-level metrics (live connections, frame and byte
//! traffic, decode errors, thread panics) belong to the [`crate::serve`]
//! substrate; this set answers the server's own questions: how often
//! producers are throttled (a capacity signal), what the WAL and
//! replication are doing, and the latency of each request kind.

use std::sync::{Arc, OnceLock};
use stream_telemetry::{Counter, FloatGauge, Gauge, Histogram, Unit};

/// Cached handles for the server's metrics.
pub(crate) struct ServerMetrics {
    /// UPDATE_BATCH frames bounced with THROTTLE.
    pub throttles: Arc<Counter>,
    /// Updates accepted into the ingest pools over the wire.
    pub updates_accepted: Arc<Counter>,
    /// Sequenced batches acknowledged without being re-applied
    /// (idempotent replay after a reconnect or server recovery).
    pub dup_batches: Arc<Counter>,
    /// Batches appended to the write-ahead log.
    pub wal_appends: Arc<Counter>,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: Arc<Counter>,
    /// Snapshots installed (periodic checkpoints + the shutdown one).
    pub wal_snapshots: Arc<Counter>,
    /// Batches replayed from the log during crash recovery.
    pub recovered_batches: Arc<Counter>,
    /// Bytes discarded from torn WAL tails during crash recovery.
    pub wal_torn_bytes: Arc<Counter>,
    /// Torn-tail truncations performed during crash recovery (one per
    /// recovery that found a partial record; 0 after clean shutdowns).
    pub wal_torn_tail_truncations: Arc<Counter>,
    /// Follower lag behind the primary's durable frontier, in bytes
    /// (upper bound; 0 when caught up or not a follower).
    pub replication_lag_bytes: Arc<Gauge>,
    /// Replicated batches applied by this follower.
    pub replication_applied: Arc<Counter>,
    /// Non-empty replication chunks applied (poll replies + pushes).
    pub replication_chunks: Arc<Counter>,
    /// Replication requests rejected by the fencing-epoch check.
    pub replication_fenced: Arc<Counter>,
    /// PROMOTE requests honoured (follower → primary transitions).
    pub replication_promotions: Arc<Counter>,
    /// Times the primary's prune horizon passed this follower's frontier
    /// mid-run (replication parks; a restart re-bootstraps).
    pub replication_resyncs: Arc<Counter>,
    /// INSPECT requests answered.
    pub inspects: Arc<Counter>,
    /// Queries that crossed the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// Mean absolute ratio error of the last §5.1 audit pass.
    pub audit_ratio_error: Arc<FloatGauge>,
    /// Per-comparison absolute ratio errors across audit passes.
    pub audit_ratio_hist: Arc<Histogram>,
    /// UPDATE_BATCH handling latency (decode excluded, dispatch + reply).
    pub update_latency: Arc<Histogram>,
    /// QUERY_JOIN handling latency (two snapshots + ESTSKIMJOINSIZE).
    pub query_join_latency: Arc<Histogram>,
    /// QUERY_SELF_JOIN handling latency.
    pub query_self_latency: Arc<Histogram>,
    /// SNAPSHOT handling latency (snapshot + encode).
    pub snapshot_latency: Arc<Histogram>,
    /// SHARD_QUERY handling latency (shard role: both snapshots +
    /// encode, one linearizable cut).
    pub shard_query_latency: Arc<Histogram>,
}

/// The lazily-registered process-wide [`ServerMetrics`].
pub(crate) fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = stream_telemetry::global();
        let lat =
            |kind: &str| r.histogram_with("server_request_seconds", &[("kind", kind)], Unit::Nanos);
        ServerMetrics {
            throttles: r.counter("server_throttle_total"),
            updates_accepted: r.counter("server_updates_accepted_total"),
            dup_batches: r.counter("server_dup_batches_total"),
            wal_appends: r.counter("server_wal_appends_total"),
            wal_bytes: r.counter("server_wal_bytes_total"),
            wal_snapshots: r.counter("server_wal_snapshots_total"),
            recovered_batches: r.counter("server_recovered_batches_total"),
            wal_torn_bytes: r.counter("server_wal_torn_bytes_total"),
            // Named to match the recovery report field and the
            // operator-facing contract in DESIGN.md §12, not the
            // `server_` prefix convention.
            wal_torn_tail_truncations: r.counter("wal_torn_tail_truncations_total"),
            replication_lag_bytes: r.gauge("server_replication_lag_bytes"),
            replication_applied: r.counter("server_replication_applied_total"),
            replication_chunks: r.counter("server_replication_chunks_total"),
            replication_fenced: r.counter("server_replication_fenced_total"),
            replication_promotions: r.counter("server_replication_promotions_total"),
            replication_resyncs: r.counter("server_replication_resyncs_total"),
            inspects: r.counter("server_inspect_total"),
            slow_queries: r.counter("server_slow_queries_total"),
            audit_ratio_error: r.float_gauge("server_audit_ratio_error"),
            audit_ratio_hist: r.histogram("server_audit_ratio", Unit::Scaled1e6),
            update_latency: lat("update_batch"),
            query_join_latency: lat("query_join"),
            query_self_latency: lat("query_self_join"),
            snapshot_latency: lat("snapshot"),
            shard_query_latency: lat("shard_query"),
        }
    })
}
