//! Router telemetry, compile-gated exactly like the serving layer:
//! with `--no-default-features` every handle is a ZST no-op and the
//! `Option` wrappers at call sites fold away.
//!
//! Two layers: process-wide counters for the router's own traffic (the
//! connection-level `router_connections` / `router_frames_total` family
//! is registered by the `stream_server::serve` substrate), and
//! per-shard handles (fan-out round-trip histograms, health gauges,
//! retry counters) labelled by partition index so `ssketch top` can
//! show one row per shard.

use std::sync::{Arc, OnceLock};
use stream_telemetry::{Counter, Gauge, Histogram, Unit};

/// Cached process-wide handles for the router's metrics.
pub(crate) struct RouterMetrics {
    /// UPDATE_BATCH frames routed (counted once, not per shard).
    pub batches_in: Arc<Counter>,
    /// Updates fanned out to shards.
    pub updates_routed: Arc<Counter>,
    /// Join/self-join queries answered by cross-shard merge.
    pub queries: Arc<Counter>,
    /// Queries refused with the typed SHARD_UNAVAILABLE partial-answer
    /// error (degraded mode).
    pub degraded_replies: Arc<Counter>,
    /// Heartbeat probes that went unanswered (supervisor-side misses;
    /// `heartbeat_misses` consecutive ones trigger a failover attempt).
    pub heartbeat_misses: Arc<Counter>,
    /// Followers promoted to primary by the supervisor.
    pub promotions: Arc<Counter>,
    /// End-to-end routed UPDATE_BATCH handling latency.
    pub update_latency: Arc<Histogram>,
    /// End-to-end routed query latency (fan-out + merge + estimate).
    pub query_latency: Arc<Histogram>,
}

/// The lazily-registered process-wide [`RouterMetrics`].
pub(crate) fn router_metrics() -> &'static RouterMetrics {
    static METRICS: OnceLock<RouterMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = stream_telemetry::global();
        let lat =
            |kind: &str| r.histogram_with("router_request_seconds", &[("kind", kind)], Unit::Nanos);
        RouterMetrics {
            batches_in: r.counter("router_batches_total"),
            updates_routed: r.counter("router_updates_routed_total"),
            queries: r.counter("router_queries_total"),
            degraded_replies: r.counter("router_degraded_replies_total"),
            heartbeat_misses: r.counter("router_heartbeat_misses_total"),
            promotions: r.counter("router_promotions_total"),
            update_latency: lat("update_batch"),
            query_latency: lat("query"),
        }
    })
}

/// Per-shard handles, labelled by partition index. Created once per
/// [`ShardSession`](crate::ShardSession); the registry dedups by
/// (name, labels), so every session of the same partition shares the
/// same underlying series.
#[derive(Clone)]
pub(crate) struct ShardMetrics {
    /// Round-trip latency of one shard call (send→ack / query→reply).
    pub fanout_rtt: Arc<Histogram>,
    /// 1 while the shard's last interaction succeeded within the retry
    /// budget, 0 once it is considered down.
    pub healthy: Arc<Gauge>,
    /// Retries spent against this shard (reconnects, throttles, I/O
    /// errors — anything that consumed retry budget).
    pub retries: Arc<Counter>,
    /// Operations abandoned after the retry budget (degraded mode).
    pub failures: Arc<Counter>,
    /// Follower replication lag behind this shard's primary, in bytes
    /// (supervisor's estimate; 0 when caught up or unreplicated).
    pub replica_lag: Arc<Gauge>,
}

/// Registers (or re-resolves) the per-shard handles for `partition`.
pub(crate) fn shard_metrics(partition: usize) -> ShardMetrics {
    let r = stream_telemetry::global();
    let idx = partition.to_string();
    let labels: &[(&str, &str)] = &[("shard", &idx)];
    ShardMetrics {
        fanout_rtt: r.histogram_with("cluster_shard_rtt_seconds", labels, Unit::Nanos),
        healthy: r.gauge_with("cluster_shard_healthy", labels),
        retries: r.counter_with("cluster_shard_retries_total", labels),
        failures: r.counter_with("cluster_shard_failures_total", labels),
        replica_lag: r.gauge_with("cluster_replica_lag_bytes", labels),
    }
}
