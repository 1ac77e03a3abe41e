//! The cluster router: one TCP front speaking the same wire protocol as
//! a single [`stream_server::Server`], fanning writes across a set of
//! shard servers by domain partition and answering queries by merging
//! per-shard sketch state via linearity.
//!
//! ## Why the answers are bit-identical to a single node
//!
//! Sketch ingestion is *linear*: every counter is an i64 sum of
//! per-update contributions, and i64 addition is exact, commutative,
//! and associative. Partitioning the key domain across shards therefore
//! changes nothing about the final counters — `sketch(F)` equals
//! `Σ_s sketch(F restricted to shard s)` bit for bit, in any order.
//! The router exploits this twice:
//!
//! * **writes** — each UPDATE_BATCH is split by the manifest's
//!   partition function and the sub-batches are forwarded to their
//!   owning shards;
//! * **reads** — each query fetches every shard's **unskimmed** encoded
//!   sketch state (SHARD_QUERY), merges them with
//!   [`stream_sketches::merge_parts`], and runs the estimator on the
//!   merged sketch. Skimming happens *after* the merge because the skim
//!   threshold depends on global L1 mass; skimming per shard first
//!   would break the identity.
//!
//! ## Exactly-once forwarding
//!
//! Sequenced upstream batches (`client_id != 0`) are forwarded **as the
//! upstream producer** — same `(client_id, seq)` on every sub-batch —
//! so each shard's own idempotency table deduplicates end to end. The
//! router keeps no durable state at all: after a router restart (or an
//! upstream retry through a different handler thread) a re-forwarded
//! sub-batch is absorbed by the shard exactly like a direct client's
//! replay. An upstream RESUME is answered with the per-stream *minimum*
//! of the shards' high-water marks, so the producer replays everything
//! any shard might be missing and the shards that already applied it
//! dedup the overlap. Unsequenced upstream batches are forwarded under
//! a handler-unique router identity (see [`RouterConfig::client_id_base`])
//! so shard crashes mid-forward still cannot double-count; like on a
//! single node, an unsequenced *upstream* retry after an error reply
//! may.
//!
//! ## Degraded mode
//!
//! When a shard stays unreachable past the retry budget the router
//! answers with the typed [`ErrorCode::ShardUnavailable`] error naming
//! the missing partition — never a silently under-counted answer.
//!
//! ## Failover
//!
//! When [`RouterConfig::followers`] names a replica per shard, a
//! supervisor thread probes every primary with HEARTBEAT at
//! [`RouterConfig::heartbeat_every`]. After
//! [`RouterConfig::heartbeat_misses`] consecutive misses it sends
//! PROMOTE to the shard's follower under the next fencing epoch,
//! repoints the shared [`AddressBook`](crate::AddressBook), and bumps
//! the manifest version (visible in SHARD_MAP). Handler sessions notice
//! the book's version change on their next dial, reconnect to the
//! promoted follower, and RESUME — the follower's replicated
//! idempotency table absorbs anything the dead primary already applied,
//! so exactly-once forwarding survives the failover. Because replicated
//! state is byte-identical WAL state and sketches are linear, the
//! promoted follower's answers are bit-identical to the answers the
//! primary would have given at the same acknowledged prefix.

use skimmed_sketch::{
    decode_skimmed, encode_skimmed, estimate_join, estimate_self_join, EstimatorConfig,
    SkimmedSketch,
};
use ss_retry::BackoffConfig;
use ss_trace::Phase;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use stream_server::serve::{self, Conn, Flow, FrontEnd, Limits, Serving};
use stream_server::{ClientConfig, ClientError, ServerClient};
use stream_sketches::merge_parts;
use stream_wire::{
    ErrorCode, Frame, ServerInfo, StreamId, TraceContext, SHARD_STREAM_BOTH, SHARD_STREAM_F,
    SHARD_STREAM_G,
};

use crate::failover::{AddressBook, Clock, DetectorConfig, FailureDetector, SystemClock};
use crate::manifest::{ClusterManifest, Partitioner};
use crate::session::{ShardError, ShardSession};
use crate::telem::{router_metrics, RouterMetrics};

/// Router configuration: the shard set plus the knobs of both faces —
/// the client-facing listener and the shard-facing sessions.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard server addresses; partition `i` is `shards[i]`. Order is
    /// part of the cluster identity (it defines the partition map).
    pub shards: Vec<String>,
    /// Seed of the partitioning hash, recorded in the manifest. Routers
    /// that must agree on a partition map must share it.
    pub partition_seed: u64,
    /// Client-facing connection-handler threads (at least 1); each owns
    /// one session per shard.
    pub handler_threads: usize,
    /// Base for handler-unique shard identities: handler slot `h`
    /// forwards *unsequenced* upstream traffic under
    /// `client_id_base + h`, making those forwards idempotent across
    /// shard reconnects. Pooled handlers take slots
    /// `0..handler_threads`; overflow-lane threads take
    /// `handler_threads + i` for lane slot `i`, reused only after the
    /// previous holder exits, so no two live sessions share an
    /// identity (a fresh session RESUMEs before its first send). `0` opts the
    /// unsequenced path out of sequencing (sequenced upstream traffic is
    /// unaffected — it is always forwarded under the upstream identity).
    pub client_id_base: u64,
    /// Attempts per shard operation before the typed degraded error.
    pub retry_budget: u32,
    /// Backoff between shard retry attempts.
    pub backoff: BackoffConfig,
    /// Client-facing read timeout; also the shutdown-notice tick.
    pub read_timeout: Duration,
    /// Write timeout, both faces.
    pub write_timeout: Duration,
    /// Shard-facing socket read tick.
    pub shard_read_timeout: Duration,
    /// Shard-facing reply patience, in read ticks.
    pub shard_reply_retries: u32,
    /// Largest accepted frame payload, client-facing.
    pub max_payload: u32,
    /// Estimator knobs for merged-sketch answers. Must match the
    /// single-node configuration being compared against for answers to
    /// be bit-identical.
    pub estimator: EstimatorConfig,
    /// Follower address per partition (empty string = no follower), or
    /// an empty vec for an unreplicated cluster. When any entry is
    /// non-empty the router runs the heartbeat supervisor and fails
    /// over to the follower when a primary goes quiet.
    pub followers: Vec<String>,
    /// How often the supervisor probes each primary with HEARTBEAT.
    pub heartbeat_every: Duration,
    /// Patience per heartbeat probe (connect + reply) before it counts
    /// as a miss.
    pub heartbeat_timeout: Duration,
    /// Consecutive missed heartbeats before failover is attempted.
    pub heartbeat_misses: u32,
    /// The shards' WAL segment size, used to turn cross-segment
    /// `(segment, offset)` frontier gaps into a byte lag estimate for
    /// SHARD_MAP / `top`. Same-segment lag (the caught-up steady state)
    /// is exact regardless. Must match the shards'
    /// `WalConfig::segment_bytes` for cross-segment estimates to be
    /// meaningful.
    pub wal_segment_bytes: u64,
}

impl RouterConfig {
    /// Defaults for a loopback/LAN cluster: 4 handlers, 5 attempts per
    /// shard operation, 500 ms shard read tick × 20 retries.
    pub fn new(shards: Vec<String>) -> Self {
        RouterConfig {
            shards,
            partition_seed: 0xC1A5_7E8D,
            handler_threads: 4,
            client_id_base: 0xC1A5_7E00_0000_0000,
            retry_budget: 5,
            backoff: BackoffConfig::default(),
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            shard_read_timeout: Duration::from_millis(500),
            shard_reply_retries: 20,
            max_payload: stream_wire::DEFAULT_MAX_PAYLOAD,
            estimator: EstimatorConfig::default(),
            followers: Vec::new(),
            heartbeat_every: Duration::from_millis(150),
            heartbeat_timeout: Duration::from_millis(250),
            heartbeat_misses: 3,
            // stream_durability::WalConfig's default segment size.
            wal_segment_bytes: 64 << 20,
        }
    }
}

/// Failures surfaced by [`Router::bind`] and [`Router::shutdown`].
#[derive(Debug)]
pub enum RouterError {
    /// Listener-level failure.
    Io(io::Error),
    /// The configuration cannot describe a cluster: no shards, no
    /// handler threads, or a `followers` list that is neither empty nor
    /// one entry per shard.
    InvalidConfig(&'static str),
    /// A shard could not be probed at bind time (unreachable, or not a
    /// shard-role server).
    Probe {
        /// The partition that failed its probe.
        partition: usize,
        /// Its address.
        addr: String,
        /// What the probe died of.
        error: ClientError,
    },
    /// Two shards advertised different sketch schemas; merging their
    /// state would be meaningless, so the router refuses to start.
    SchemaMismatch {
        /// The partition that disagrees with partition 0.
        partition: usize,
        /// Its address.
        addr: String,
        /// Which advertised field differs.
        field: &'static str,
    },
    /// The acceptor or a handler thread panicked while serving.
    ThreadPanicked {
        /// Which thread family panicked.
        thread: &'static str,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "router i/o error: {e}"),
            RouterError::InvalidConfig(why) => write!(f, "invalid router config: {why}"),
            RouterError::Probe {
                partition,
                addr,
                error,
            } => write!(f, "probing partition {partition} ({addr}) failed: {error}"),
            RouterError::SchemaMismatch {
                partition,
                addr,
                field,
            } => write!(
                f,
                "partition {partition} ({addr}) advertises a different `{field}` \
                 than partition 0; all shards must share one schema"
            ),
            RouterError::ThreadPanicked { thread } => write!(f, "{thread} thread panicked"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// Shared state between router connection handlers.
struct Inner {
    config: RouterConfig,
    /// The versioned cluster manifest; the supervisor rewrites a
    /// partition's address (and bumps the version) on failover.
    // ss-analyze: allow(a4-blocking-hot-path) -- locked by SHARD_MAP replies and the (rare) failover write, never on the batch/query fan-out path
    manifest: Mutex<ClusterManifest>,
    partitioner: Partitioner,
    /// Live primary/follower table shared with every handler session;
    /// its version counter is what routes new dials after a failover.
    book: Arc<AddressBook>,
    /// Per-shard follower lag in bytes (supervisor's estimate), served
    /// in SHARD_MAP for `ssketch top`.
    lag: Vec<AtomicU64>,
    /// The schema/limits advertised to clients: partition 0's schema
    /// with the fleet-minimum `max_batch` and `queue_limit`.
    info: ServerInfo,
    /// Last-known per-shard health, written by whichever handler talked
    /// to the shard most recently; served in SHARD_MAP.
    health: Vec<AtomicBool>,
    shutdown: AtomicBool,
    metrics: Option<&'static RouterMetrics>,
    started: std::time::Instant,
}

impl Inner {
    fn manifest(&self) -> std::sync::MutexGuard<'_, ClusterManifest> {
        // A poisoned lock only means a thread panicked between reads of
        // plain data; the manifest itself stays valid.
        self.manifest.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running cluster router. Shut down explicitly with
/// [`Router::shutdown`]; dropping it leaves the threads unjoined.
pub struct Router {
    inner: Arc<Inner>,
    serving: Serving<Inner>,
    supervisor: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` and starts routing over `config.shards`.
    ///
    /// Bind-time checks fail loud instead of mis-merging later: every
    /// shard is probed (it must be reachable *and* serve SHARD_QUERY —
    /// i.e. run with [`stream_server::ServerConfig::shard`] set), and
    /// all shards must advertise the identical sketch schema.
    /// Configurations that cannot describe a cluster are refused before
    /// any of that with [`RouterError::InvalidConfig`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: RouterConfig) -> Result<Router, RouterError> {
        if config.shards.is_empty() {
            return Err(RouterError::InvalidConfig("need at least one shard"));
        }
        if config.handler_threads == 0 {
            return Err(RouterError::InvalidConfig(
                "need at least one handler thread",
            ));
        }
        if !config.followers.is_empty() && config.followers.len() != config.shards.len() {
            return Err(RouterError::InvalidConfig(
                "followers must be empty or one entry per shard (empty string for none)",
            ));
        }
        let metrics = stream_telemetry::ENABLED.then(router_metrics);

        // Probe the fleet before accepting anything.
        let mut infos: Vec<ServerInfo> = Vec::with_capacity(config.shards.len());
        for (partition, addr) in config.shards.iter().enumerate() {
            let probe_config = ClientConfig {
                name: format!("ss-router/probe{partition}"),
                read_timeout: config.shard_read_timeout,
                write_timeout: config.write_timeout,
                reply_retries: config.shard_reply_retries,
                backoff: config.backoff.clone(),
                ..ClientConfig::default()
            };
            let fail = |error| RouterError::Probe {
                partition,
                addr: addr.clone(),
                error,
            };
            let mut probe = ServerClient::connect_with(addr, probe_config).map_err(fail)?;
            // Role check: a plain (non-shard) server rejects SHARD_QUERY
            // with a protocol error, so a mis-pointed router dies here.
            probe.shard_query(SHARD_STREAM_F).map_err(fail)?;
            infos.push(*probe.info());
            let _ = probe.goodbye();
        }
        // ss-analyze: allow(a2-panic-free) -- `shards` is non-empty (checked above), so `infos` has a first element
        let first = infos[0];
        for (partition, info) in infos.iter().enumerate() {
            let field = if info.domain_log2 != first.domain_log2 {
                Some("domain_log2")
            } else if info.dyadic != first.dyadic {
                Some("dyadic")
            } else if info.tables != first.tables {
                Some("tables")
            } else if info.buckets != first.buckets {
                Some("buckets")
            } else if info.seed != first.seed {
                Some("seed")
            } else {
                None
            };
            if let Some(field) = field {
                return Err(RouterError::SchemaMismatch {
                    partition,
                    // ss-analyze: allow(a2-panic-free) -- `infos` was built with one entry per `config.shards` element, so `partition` is in bounds
                    addr: config.shards[partition].clone(),
                    field,
                });
            }
        }
        // Advertise the fleet minimum of each limit: a batch the router
        // accepts must be acceptable to every shard it fans out to.
        let info = ServerInfo {
            max_batch: infos.iter().map(|i| i.max_batch).min().unwrap_or(0),
            queue_limit: infos.iter().map(|i| i.queue_limit).min().unwrap_or(0),
            ..first
        };

        let manifest = ClusterManifest::new(config.partition_seed, config.shards.clone());
        let partitioner = manifest.partitioner();
        let book = Arc::new(AddressBook::new(&config.shards, &config.followers));
        let lag = config.shards.iter().map(|_| AtomicU64::new(0)).collect();
        let health = config
            .shards
            .iter()
            .map(|_| AtomicBool::new(true))
            .collect();
        let replicated = config.followers.iter().any(|f| !f.is_empty());
        let inner = Arc::new(Inner {
            // ss-analyze: allow(a4-blocking-hot-path) -- construction, off the data path
            manifest: Mutex::new(manifest),
            partitioner,
            book,
            lag,
            info,
            health,
            shutdown: AtomicBool::new(false),
            metrics,
            started: std::time::Instant::now(),
            config,
        });

        let limits = Limits {
            read_timeout: inner.config.read_timeout,
            write_timeout: inner.config.write_timeout,
            max_payload: inner.config.max_payload,
        };
        let serving = serve::start(addr, inner.config.handler_threads, inner.clone(), limits)?;

        // The failure-detection / failover supervisor only runs when a
        // follower is configured somewhere; an unreplicated cluster
        // behaves exactly as before.
        let supervisor = replicated.then(|| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("ss-supervisor".into())
                .spawn(move || supervise(&inner, &SystemClock))
        });
        let supervisor = match supervisor {
            Some(Ok(handle)) => Some(handle),
            Some(Err(e)) => {
                inner.shutdown.store(true, Ordering::Release);
                let _ = serving.join();
                return Err(RouterError::Io(e));
            }
            None => None,
        };

        Ok(Router {
            inner,
            serving,
            supervisor,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.serving.local_addr()
    }

    /// A snapshot of the cluster manifest this router routes by (its
    /// version moves when a failover repoints a partition).
    pub fn manifest(&self) -> ClusterManifest {
        self.inner.manifest().clone()
    }

    /// Schema and limits advertised to clients (partition 0's schema,
    /// fleet-minimum limits).
    pub fn info(&self) -> ServerInfo {
        self.inner.info
    }

    /// Last-known per-shard health, in partition order.
    pub fn health(&self) -> Vec<bool> {
        self.inner
            .health
            .iter()
            // ordering: health flags are advisory monitoring state; no
            // other memory is published through them.
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops accepting, lets handlers finish their in-flight request,
    /// and joins every thread. The shards keep running — a router is
    /// stateless and restartable by design.
    pub fn shutdown(self) -> Result<(), RouterError> {
        self.inner.shutdown.store(true, Ordering::Release);
        let mut first_err = self
            .serving
            .join()
            .map(|thread| RouterError::ThreadPanicked { thread });
        if let Some(s) = self.supervisor {
            if s.join().is_err() {
                first_err.get_or_insert(RouterError::ThreadPanicked {
                    thread: "supervisor",
                });
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Builds handler slot `h`'s per-shard sessions, wired to the failover
/// address book so post-promotion dials go to the new primary.
fn make_sessions(inner: &Inner, h: usize) -> Vec<ShardSession> {
    let config = &inner.config;
    (0..config.shards.len())
        .map(|partition| {
            let addr = inner.book.primary(partition).unwrap_or_default();
            let client_id = if config.client_id_base == 0 {
                0
            } else {
                config.client_id_base.wrapping_add(h as u64)
            };
            ShardSession::new(
                partition,
                addr,
                ClientConfig {
                    name: format!("ss-router/h{h}"),
                    client_id,
                    read_timeout: config.shard_read_timeout,
                    write_timeout: config.write_timeout,
                    reply_retries: config.shard_reply_retries,
                    backoff: config.backoff.clone(),
                    ..ClientConfig::default()
                },
                config.retry_budget,
            )
            .with_address_book(inner.book.clone())
        })
        .collect()
}

/// One partition's supervisor-side state: its failure detector, the
/// fencing epoch the supervisor will promote under, and a persistent
/// heartbeat connection to the current primary.
struct Watch {
    detector: FailureDetector,
    /// Highest fencing epoch observed from this partition's primary; a
    /// failover promotes the follower under `epoch + 1`, so a
    /// resurrected ex-primary's replication traffic is fenced off.
    epoch: u64,
    /// The address `probe` is connected to (dropped when the book moves
    /// the primary).
    addr: String,
    probe: Option<ServerClient>,
}

/// The heartbeat/promotion client configuration: short patience (one
/// missed tick is one detector miss, not a long stall) and no sequence
/// identity (heartbeats carry no batches).
fn probe_config(config: &RouterConfig, name: String) -> ClientConfig {
    ClientConfig {
        name,
        read_timeout: config.heartbeat_timeout,
        write_timeout: config.heartbeat_timeout,
        reply_retries: 1,
        backoff: config.backoff.clone(),
        ..ClientConfig::default()
    }
}

/// The heartbeat failure-detection / failover loop (the `ss-supervisor`
/// thread). Probes every primary at `heartbeat_every`; on
/// `heartbeat_misses` consecutive misses promotes the partition's
/// follower under the next fencing epoch and repoints the address book
/// and manifest. Also probes followers opportunistically to publish
/// replication-lag estimates for SHARD_MAP / `top`.
fn supervise(inner: &Inner, clock: &dyn Clock) {
    let config = &inner.config;
    let detector = DetectorConfig {
        probe_every: config.heartbeat_every,
        miss_threshold: config.heartbeat_misses.max(1),
    };
    let mut watches: Vec<Watch> = (0..config.shards.len())
        .map(|_| Watch {
            detector: FailureDetector::new(detector),
            epoch: 1,
            addr: String::new(),
            probe: None,
        })
        .collect();
    let shard_metrics: Vec<_> = (0..config.shards.len())
        .map(|p| stream_telemetry::ENABLED.then(|| crate::telem::shard_metrics(p)))
        .collect();
    // Poll tick: fine-grained enough to hit `heartbeat_every` with low
    // jitter, coarse enough to stay off the profile.
    let tick =
        (config.heartbeat_every / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !inner.shutdown.load(Ordering::Acquire) {
        for (partition, watch) in watches.iter_mut().enumerate() {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = clock.now();
            if !watch.detector.due(now) {
                continue;
            }
            let Some(addr) = inner.book.primary(partition) else {
                continue;
            };
            if addr != watch.addr {
                // The primary moved (failover, possibly by another
                // supervisor probe cycle): dial the new one.
                watch.addr = addr.clone();
                watch.probe = None;
            }
            match probe_primary(inner, partition, watch) {
                Ok(status) => {
                    watch.detector.record_ok(now);
                    watch.epoch = watch.epoch.max(status.epoch);
                    note_health(inner, partition, true);
                    publish_lag(inner, partition, &status, shard_metrics.get(partition));
                }
                Err(_) => {
                    watch.probe = None;
                    note_health(inner, partition, false);
                    if let Some(m) = inner.metrics {
                        m.heartbeat_misses.inc();
                    }
                    if watch.detector.record_miss(now)
                        && try_failover(inner, partition, watch.epoch.saturating_add(1))
                    {
                        watch.epoch = watch.epoch.saturating_add(1);
                        watch.detector.record_ok(now);
                        watch.addr = String::new(); // re-dial next probe
                    }
                }
            }
        }
        // ss-analyze: allow(a4-blocking-hot-path) -- supervisor poll tick; this thread owns no data-path work
        std::thread::sleep(tick);
    }
}

/// One heartbeat round-trip to `watch`'s primary, dialing if needed.
fn probe_primary(
    inner: &Inner,
    partition: usize,
    watch: &mut Watch,
) -> Result<stream_server::ReplicaStatus, ClientError> {
    if watch.probe.is_none() {
        let cfg = probe_config(&inner.config, format!("ss-router/hb{partition}"));
        watch.probe = Some(ServerClient::connect_with(&*watch.addr, cfg)?);
    }
    let Some(client) = watch.probe.as_mut() else {
        // Unreachable: the branch above just filled the slot; treated
        // as a miss rather than panicking.
        return Err(ClientError::Timeout);
    };
    client.heartbeat(watch.epoch)
}

/// Estimates the follower's byte lag behind the primary's durable
/// frontier `status` and publishes it (atomic for SHARD_MAP, gauge for
/// scrapes). Probes the follower with a one-shot heartbeat; skipped
/// when the partition has no follower.
fn publish_lag(
    inner: &Inner,
    partition: usize,
    status: &stream_server::ReplicaStatus,
    metrics: Option<&Option<crate::telem::ShardMetrics>>,
) {
    let Some(follower) = inner.book.follower(partition) else {
        return;
    };
    let cfg = probe_config(&inner.config, format!("ss-router/lag{partition}"));
    let Ok(mut client) = ServerClient::connect_with(&*follower, cfg) else {
        return;
    };
    let Ok(fs) = client.heartbeat(status.epoch) else {
        return;
    };
    let _ = client.goodbye();
    let seg_bytes = i128::from(inner.config.wal_segment_bytes);
    let lag = (i128::from(status.segment) - i128::from(fs.segment)) * seg_bytes
        + i128::from(status.offset)
        - i128::from(fs.offset);
    let lag = u64::try_from(lag.max(0)).unwrap_or(u64::MAX);
    if let Some(slot) = inner.lag.get(partition) {
        // ordering: advisory monitoring state; see note_health.
        slot.store(lag, Ordering::Relaxed);
    }
    if let Some(Some(m)) = metrics {
        m.replica_lag.set(i64::try_from(lag).unwrap_or(i64::MAX));
    }
}

/// Promotes `partition`'s follower under fencing epoch `epoch` and, on
/// success, repoints the address book and the manifest (version bump →
/// SHARD_MAP changes). Returns whether the failover completed.
fn try_failover(inner: &Inner, partition: usize, epoch: u64) -> bool {
    let Some(follower) = inner.book.follower(partition) else {
        return false; // unreplicated partition: stay degraded
    };
    // PROMOTE seals and fsyncs the follower's WAL before replying, so
    // it gets the shard-facing patience, not the heartbeat one.
    let cfg = ClientConfig {
        read_timeout: inner.config.shard_read_timeout,
        reply_retries: inner.config.shard_reply_retries,
        ..probe_config(&inner.config, format!("ss-router/promote{partition}"))
    };
    let Ok(mut client) = ServerClient::connect_with(&*follower, cfg) else {
        return false;
    };
    if client.promote(epoch).is_err() {
        return false;
    }
    let _ = client.goodbye();
    let Some(addr) = inner.book.promote(partition) else {
        return false; // raced with another promotion of the same slot
    };
    inner.manifest().set_addr(partition, &addr);
    if let Some(slot) = inner.lag.get(partition) {
        // The shard runs unreplicated after promotion: no lag to show.
        // ordering: advisory gauge read by INSPECT only; no edge
        slot.store(0, Ordering::Relaxed);
    }
    note_health(inner, partition, true);
    if let Some(m) = inner.metrics {
        m.promotions.inc();
    }
    true
}

/// Replies with the typed degraded-mode error naming the unreachable
/// partition, and records it.
fn send_degraded(conn: &mut Conn<'_>, e: &ShardError, metrics: Option<&'static RouterMetrics>) {
    if let Some(m) = metrics {
        m.degraded_replies.inc();
    }
    conn.send_error(ErrorCode::ShardUnavailable, &e.to_string());
}

/// Fans one query across every shard, decodes the requested streams,
/// and merges each stream by linearity. `streams` is a `SHARD_STREAM_*`
/// mask. Each shard's reply is one linearizable cut of that shard's
/// acknowledged prefix; linearity makes the merge order irrelevant.
fn merged_snapshots(
    inner: &Inner,
    sessions: &mut [ShardSession],
    streams: u8,
    ctx: Option<TraceContext>,
) -> Result<(Option<SkimmedSketch>, Option<SkimmedSketch>), MergeError> {
    let mut parts_f: Vec<SkimmedSketch> = Vec::new();
    let mut parts_g: Vec<SkimmedSketch> = Vec::new();
    for sess in sessions.iter_mut() {
        let partition = sess.partition();
        let reply = sess.query(streams, ctx);
        note_health(inner, partition, reply.is_ok());
        let (bytes_f, bytes_g) = reply.map_err(MergeError::Shard)?;
        if streams & SHARD_STREAM_F != 0 {
            parts_f.push(
                decode_skimmed(bytes::Bytes::from(bytes_f))
                    .map_err(|_| MergeError::Undecodable(partition))?,
            );
        }
        if streams & SHARD_STREAM_G != 0 {
            parts_g.push(
                decode_skimmed(bytes::Bytes::from(bytes_g))
                    .map_err(|_| MergeError::Undecodable(partition))?,
            );
        }
    }
    Ok((merge_parts(parts_f), merge_parts(parts_g)))
}

/// [`merged_snapshots`] for one stream: the merged sketch of `stream`.
fn merged_stream(
    inner: &Inner,
    sessions: &mut [ShardSession],
    stream: StreamId,
    ctx: Option<TraceContext>,
) -> Result<Option<SkimmedSketch>, MergeError> {
    let mask = match stream {
        StreamId::F => SHARD_STREAM_F,
        StreamId::G => SHARD_STREAM_G,
    };
    let (f, g) = merged_snapshots(inner, sessions, mask, ctx)?;
    Ok(match stream {
        StreamId::F => f,
        StreamId::G => g,
    })
}

/// Why a cross-shard merge failed.
enum MergeError {
    /// A shard stayed unreachable past the retry budget.
    Shard(ShardError),
    /// A shard's reply did not decode as a sketch (schema drift after
    /// bind, or corruption) — an internal error, not a degraded answer.
    Undecodable(usize),
}

/// Records `partition`'s last-interaction health for SHARD_MAP replies.
fn note_health(inner: &Inner, partition: usize, up: bool) {
    if let Some(flag) = inner.health.get(partition) {
        // ordering: health flags are advisory monitoring state with no
        // happens-before obligations; last-writer-wins is the semantics.
        flag.store(up, Ordering::Relaxed);
    }
}

/// Sends the merge failure as the right wire error. Degraded replies
/// keep the connection open so the client can retry once the shard
/// returns; decode failures close it.
fn send_merge_error(
    conn: &mut Conn<'_>,
    e: &MergeError,
    metrics: Option<&'static RouterMetrics>,
) -> Flow {
    match e {
        MergeError::Shard(se) => {
            send_degraded(conn, se, metrics);
            Flow::Continue
        }
        MergeError::Undecodable(partition) => {
            conn.send_error(
                ErrorCode::Internal,
                &format!("partition {partition} returned an undecodable sketch"),
            );
            Flow::Close
        }
    }
}

/// Builds an Answer frame from a merged-join estimate.
fn answer_frame(est: &skimmed_sketch::JoinEstimate) -> Frame {
    Frame::Answer {
        estimate: est.estimate,
        dense_dense: est.dense_dense,
        dense_sparse: est.dense_sparse,
        sparse_dense: est.sparse_dense,
        sparse_sparse: est.sparse_sparse,
        dense_f: est.dense_f as u64,
        dense_g: est.dense_g as u64,
    }
}

impl FrontEnd for Inner {
    type Handler = Vec<ShardSession>;
    const ROLE: &'static str = "router";

    fn info(&self) -> ServerInfo {
        self.info
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Each handler owns one session per shard, sequenced under a
    /// slot-unique identity (see the module docs' exactly-once story).
    fn handler(&self, slot: usize) -> Vec<ShardSession> {
        make_sessions(self, slot)
    }

    fn serve_frame(
        &self,
        sessions: &mut Vec<ShardSession>,
        conn: &mut Conn<'_>,
        frame: Frame,
        fwd: Option<TraceContext>,
    ) -> Flow {
        let inner = self;
        let metrics = inner.metrics;
        match frame {
            Frame::UpdateBatch {
                stream,
                client_id,
                seq,
                updates,
            } => {
                let _span = metrics.map(|m| m.update_latency.start_span());
                let len = updates.len();
                if len as u64 > inner.info.max_batch as u64 {
                    conn.send_error(
                        ErrorCode::BatchTooLarge,
                        &format!(
                            "batch of {len} exceeds cluster max_batch {}",
                            inner.info.max_batch
                        ),
                    );
                    return Flow::Continue;
                }
                if let Some(m) = metrics {
                    m.batches_in.inc();
                }
                let parts = inner.partitioner.split(&updates);
                let mut failed: Option<ShardError> = None;
                for (sess, part) in sessions.iter_mut().zip(&parts) {
                    if part.is_empty() {
                        continue;
                    }
                    let partition = sess.partition();
                    let sequenced = client_id != 0 && seq != 0;
                    let result = if sequenced {
                        // Upstream identity pass-through: the shard
                        // dedups this sub-batch end to end.
                        sess.send_batch_as(stream, client_id, seq, part, fwd)
                    } else {
                        sess.send_batch(stream, part, fwd)
                    };
                    note_health(inner, partition, result.is_ok());
                    if let Err(e) = result {
                        failed = Some(e);
                        break;
                    }
                }
                match failed {
                    Some(e) => {
                        // No ack: the upstream producer retries, the
                        // shards that already applied their sub-batch
                        // dedup the replay.
                        send_degraded(conn, &e, metrics);
                        Flow::Continue
                    }
                    None => {
                        if let Some(m) = metrics {
                            m.updates_routed.add(len as u64);
                        }
                        conn.reply(&Frame::BatchAck {
                            accepted: len as u64,
                        })
                    }
                }
            }
            Frame::QueryJoin => {
                let _span = metrics.map(|m| m.query_latency.start_span());
                if let Some(m) = metrics {
                    m.queries.inc();
                }
                match merged_snapshots(inner, sessions, SHARD_STREAM_BOTH, fwd) {
                    Ok((Some(f), Some(g))) => {
                        let est_span =
                            fwd.map(|c| ss_trace::span(Phase::Estimate, c.trace_id, c.span_id, 0));
                        let est = estimate_join(&f, &g, &inner.config.estimator);
                        drop(est_span);
                        conn.reply(&answer_frame(&est))
                    }
                    Ok(_) => {
                        // Unreachable with a non-empty manifest; treat
                        // as internal rather than panicking.
                        conn.send_error(ErrorCode::Internal, "empty shard set");
                        Flow::Close
                    }
                    Err(e) => send_merge_error(conn, &e, metrics),
                }
            }
            Frame::QuerySelfJoin { stream } => {
                let _span = metrics.map(|m| m.query_latency.start_span());
                if let Some(m) = metrics {
                    m.queries.inc();
                }
                let sk = match merged_stream(inner, sessions, stream, fwd) {
                    Ok(Some(sk)) => sk,
                    Ok(None) => {
                        conn.send_error(ErrorCode::Internal, "empty shard set");
                        return Flow::Close;
                    }
                    Err(e) => return send_merge_error(conn, &e, metrics),
                };
                let est_span =
                    fwd.map(|c| ss_trace::span(Phase::Estimate, c.trace_id, c.span_id, 0));
                let estimate = estimate_self_join(&sk, &inner.config.estimator);
                drop(est_span);
                conn.reply(&Frame::Answer {
                    estimate,
                    dense_dense: 0.0,
                    dense_sparse: 0.0,
                    sparse_dense: 0.0,
                    sparse_sparse: 0.0,
                    dense_f: 0,
                    dense_g: 0,
                })
            }
            Frame::Snapshot { stream } => {
                let _span = metrics.map(|m| m.query_latency.start_span());
                match merged_stream(inner, sessions, stream, fwd) {
                    Ok(Some(sk)) => conn.reply(&Frame::SnapshotReply {
                        stream,
                        sketch: encode_skimmed(&sk).to_vec(),
                    }),
                    Ok(None) => {
                        conn.send_error(ErrorCode::Internal, "empty shard set");
                        Flow::Close
                    }
                    Err(e) => send_merge_error(conn, &e, metrics),
                }
            }
            Frame::Resume { client_id } => {
                // The producer may resume from the highest seq *every*
                // shard has applied: per-stream minimum over the fleet.
                // Conservative under per-shard gaps (a shard that owned
                // no keys of a batch never saw its seq), but replays of
                // already-applied batches are absorbed by shard dedup.
                let mut low_f = u64::MAX;
                let mut low_g = u64::MAX;
                for sess in sessions.iter_mut() {
                    let partition = sess.partition();
                    let reply = sess.resume_of(client_id, fwd);
                    note_health(inner, partition, reply.is_ok());
                    match reply {
                        Ok((f, g)) => {
                            low_f = low_f.min(f);
                            low_g = low_g.min(g);
                        }
                        Err(e) => {
                            send_degraded(conn, &e, metrics);
                            return Flow::Continue;
                        }
                    }
                }
                conn.reply(&Frame::ResumeAck {
                    last_seq_f: low_f,
                    last_seq_g: low_g,
                })
            }
            Frame::ShardMap(_) => {
                if !conn.require_v3("SHARD_MAP") {
                    return Flow::Close;
                }
                let healthy: Vec<bool> = inner
                    .health
                    .iter()
                    // ordering: advisory monitoring reads; see note_health
                    .map(|h| h.load(Ordering::Relaxed))
                    .collect();
                let followers = inner.book.followers();
                let lags: Vec<u64> = inner
                    .lag
                    .iter()
                    // ordering: advisory monitoring reads; see note_health
                    .map(|l| l.load(Ordering::Relaxed))
                    .collect();
                conn.reply(&Frame::ShardMap(
                    inner.manifest().to_wire(&healthy, &followers, &lags),
                ))
            }
            Frame::Inspect {
                sections,
                last_events,
                ..
            } => {
                let report = serve::inspect_report(inner.started, sections, last_events);
                conn.reply(&Frame::InspectReply(Box::new(report)))
            }
            Frame::ShardQuery { .. } => {
                conn.send_error(
                    ErrorCode::Protocol,
                    "not a shard: routers do not serve SHARD_QUERY",
                );
                Flow::Close
            }
            Frame::Replicate { .. } | Frame::ReplicateAck { .. } | Frame::Promote { .. } => {
                // Replication and promotion run shard-to-shard and
                // supervisor-to-shard; the router is stateless and owns
                // no WAL to stream or seal.
                conn.send_error(
                    ErrorCode::Protocol,
                    "routers do not replicate; speak to the shard directly",
                );
                Flow::Close
            }
            Frame::Heartbeat { .. } => {
                // Answered so liveness probes work against a router
                // front too; a router has no WAL frontier or epoch.
                conn.reply(&Frame::Heartbeat {
                    epoch: 0,
                    primary: false,
                    segment: 0,
                    offset: 0,
                })
            }
            Frame::Goodbye => Flow::Goodbye,
            Frame::Error { .. } => Flow::Close, // client gave up; nothing to reply
            Frame::Hello { .. }
            | Frame::HelloAck(_)
            | Frame::BatchAck { .. }
            | Frame::Answer { .. }
            | Frame::SnapshotReply { .. }
            | Frame::Throttle { .. }
            | Frame::ResumeAck { .. }
            | Frame::InspectReply(_)
            | Frame::ShardQueryReply { .. } => Flow::Unexpected,
        }
    }
}
