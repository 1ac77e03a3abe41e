//! # stream-server
//!
//! The network serving layer over the skimmed-sketch ingest/query
//! pipeline: a [`serve`] front end (acceptor, handler pool, overflow
//! lane) speaking the [`stream_wire`] protocol, feeding decoded
//! UPDATE_BATCH frames into two [`IngestPool`]s (one per join input) and
//! answering join-size queries from their linearizable snapshots.
//!
//! This is the deployment the paper implies: remote sites *stream
//! updates* to a processing site which maintains small sketches and
//! answers `COUNT(F ⋈ G)` on demand — no raw tuples are stored anywhere.
//!
//! ## Backpressure, not buffering
//!
//! Every stage between the socket and the sketch is bounded:
//!
//! * the acceptor hands each connection to a free handler — when all
//!   handlers are busy a capped overflow lane takes new connections, and
//!   past its cap accepting stops and the OS listen backlog (itself
//!   bounded) takes the rest;
//! * one request per connection is in flight at a time (the protocol is
//!   strict request/reply), so a connection buffers at most one frame;
//! * batches enter the ingest pool with [`IngestPool::try_dispatch`] —
//!   when every worker's queue is full the batch is **refused** and the
//!   client receives a THROTTLE frame naming the pool's capacity. The
//!   server never queues unbounded memory on behalf of a fast producer.
//!
//! ## Durability and crash recovery
//!
//! With [`ServerConfig::wal`] set, every acknowledged UPDATE_BATCH is
//! appended to a [`stream_durability::Wal`] *after* the ingest pool
//! accepts it and *before* the BATCH_ACK goes out, so the log holds
//! exactly the acknowledged batches. Periodic snapshots (encoded
//! sketches + the idempotency table) bound replay time. A server bound
//! over the same directory after a crash replays the log into the
//! snapshot and — because sketch ingestion is linear — answers queries
//! **bit-identically** to one that never crashed. Sequenced batches
//! (`client_id != 0`) are deduplicated by `(client_id, stream, seq)`,
//! so a client replaying after a lost BATCH_ACK can never double-count.
//!
//! ## Replication and failover
//!
//! With [`ServerConfig::follower_of`] set (requires a WAL) the server
//! starts as a [`Role::Follower`]: it long-polls the named primary's
//! WAL byte stream (REPLICATE frames, protocol ≥ 3), appends the same
//! record bytes to its own log at the same positions, applies each
//! batch to its sketches, and refuses client writes with a typed
//! `NOT_PRIMARY` error. Because sketch ingestion is linear and the log
//! bytes are identical, a caught-up follower answers queries
//! **bit-identically** to its primary. A PROMOTE frame (carrying a
//! fencing epoch greater than the follower's) seals the log and flips
//! the role to primary. Replication is pull-only and every REPLICATE
//! reply carries the primary's epoch; a follower drops replies stamped
//! below its own, so a deposed primary whose network heals after a
//! failover cannot split-brain the sketch state. See DESIGN.md §12 for
//! the full contract.
//!
//! ## Fault containment
//!
//! A panic inside a sketch kernel is caught by the ingest pool's worker
//! supervision ([`IngestPool::worker_restarts`]); the pool keeps
//! serving. A panic in the acceptor or a connection handler is absorbed
//! at shutdown and surfaced as a [`ServerError`] instead of a
//! propagated panic. [`Server::halt`] simulates a crash for recovery
//! tests: threads stop, in-memory sketches are discarded, and no final
//! snapshot is written.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the acceptor, lets each handler finish its
//! in-flight request (the next request, or an idle connection's next
//! read tick, gets an `ERROR {ShuttingDown}` frame), drains both ingest pools,
//! writes a final snapshot when a WAL is configured, and returns the
//! final merged sketches — nothing acknowledged is lost.
//!
//! ## Example
//!
//! ```
//! use skimmed_sketch::SkimmedSchema;
//! use stream_model::{Domain, Update};
//! use stream_server::{Server, ServerClient, ServerConfig};
//! use stream_wire::StreamId;
//!
//! let schema = SkimmedSchema::scanning(Domain::with_log2(12), 5, 64, 7);
//! let server = Server::bind("127.0.0.1:0", ServerConfig::new(schema)).unwrap();
//! let mut client = ServerClient::connect(server.local_addr()).unwrap();
//! client.send_all(StreamId::F, &[Update::insert(3)], 1024).unwrap();
//! client.send_all(StreamId::G, &[Update::insert(3)], 1024).unwrap();
//! let answer = client.query_join().unwrap();
//! assert!(answer.estimate.is_finite());
//! client.goodbye().unwrap();
//! let (_f, _g) = server.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod client;
mod inspect;
mod replication;
mod resilient;
pub mod serve;
mod telem;

pub use client::{
    Backoff, BackoffConfig, BatchOutcome, ClientConfig, ClientError, JoinAnswer, ReplicaChunk,
    ReplicaStatus, SendReport, ServerClient,
};
pub use resilient::ResilientClient;

use bytes::Bytes;
use inspect::{Audit, SlowLog};
use serve::{Conn, Flow, FrontEnd, Limits, Serving};
use skimmed_sketch::{
    decode_skimmed, encode_skimmed, estimate_join, estimate_self_join, EstimatorConfig,
    ExtractionStrategy, SkimmedSchema, SkimmedSketch,
};
use ss_trace::Phase;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use stream_durability::{DedupEntry, SnapshotBlob, Wal, WalConfig, WalTailer};
use stream_ingest::{IngestError, IngestPool, TraceTag};
use stream_model::StreamSink;
use stream_wire::{
    ErrorCode, Frame, InspectReport, ServerInfo, SlowQueryEntry, StreamId, TraceContext,
    INSPECT_AUDIT, INSPECT_SLOW, SHARD_STREAM_F, SHARD_STREAM_G,
};
use telem::{server_metrics, ServerMetrics};

/// Serving-layer configuration. Every queue the server owns is bounded
/// by these knobs; see the crate docs for the backpressure story.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The synopsis schema both ingest pools sketch under (advertised to
    /// clients in HELLO_ACK).
    pub schema: Arc<SkimmedSchema>,
    /// Connection-handler threads (each serves one connection at a time;
    /// must be at least 1).
    pub handler_threads: usize,
    /// Ingest worker threads per stream.
    pub ingest_workers: usize,
    /// Chunks buffered per ingest worker before THROTTLE.
    pub queue_depth: usize,
    /// Largest accepted UPDATE_BATCH, in updates.
    pub max_batch: u32,
    /// Largest accepted frame payload, in bytes.
    pub max_payload: u32,
    /// Per-connection read timeout; also the tick at which idle
    /// connections notice a shutdown.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Estimator knobs used to answer queries.
    pub estimator: EstimatorConfig,
    /// Write-ahead logging; `None` (the default) serves purely from
    /// memory. See the crate docs' durability section.
    pub wal: Option<WalConfig>,
    /// Queries whose end-to-end handler time reaches this threshold are
    /// recorded in the slow-query log with a per-phase latency
    /// breakdown (INSPECT's slow section). `Duration::ZERO` logs every
    /// query.
    pub slow_query: Duration,
    /// Entries retained in the slow-query log before the oldest is
    /// evicted.
    pub slow_log: usize,
    /// Online §5.1 accuracy audit: `Some(s)` tracks exact counts for an
    /// expected `2^-s` fraction of distinct keys and compares them
    /// against sketch point estimates on INSPECT; `None` disables the
    /// audit. Only meaningful with telemetry compiled in.
    pub audit_shift: Option<u32>,
    /// Directory for flight-recorder post-mortem dumps (written on
    /// [`Server::halt`] and on supervised panics); `None` disables
    /// dumping.
    pub postmortem_dir: Option<PathBuf>,
    /// Shard role: serve SHARD_QUERY (raw encoded sketch state for a
    /// cluster router to merge by linearity) on protocol-v3 sessions.
    /// Off by default — a plain server rejects cluster frames, so a
    /// stray router pointed at a non-shard fails loud.
    pub shard: bool,
    /// Start as a [`Role::Follower`] replicating from this primary
    /// address. Requires [`ServerConfig::wal`]; the follower applies
    /// the primary's WAL byte stream and refuses client writes with
    /// `NOT_PRIMARY` until a PROMOTE flips it to primary.
    pub follower_of: Option<String>,
    /// Longest a primary holds a caught-up follower's replication poll
    /// open waiting for its next append (an append answers the poll at
    /// once). Keep it below [`ServerConfig::read_timeout`], which the
    /// follower's poll session reads under.
    pub replication_poll: Duration,
}

/// Whether a node accepts client writes or replicates them from a
/// primary. Queries are served in both roles (a follower answers from
/// its replicated state); only UPDATE_BATCH is role-gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, serves replication polls, owns the fencing epoch.
    Primary,
    /// Applies replicated records; refuses writes with `NOT_PRIMARY`.
    Follower,
}

const ROLE_PRIMARY: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

impl ServerConfig {
    /// Defaults sized for a loopback/LAN deployment: 4 handler threads,
    /// 2 ingest workers per stream with 8-chunk queues, 64Ki-update
    /// batches, 250 ms read tick, no WAL.
    pub fn new(schema: Arc<SkimmedSchema>) -> Self {
        Self {
            schema,
            handler_threads: 4,
            ingest_workers: 2,
            queue_depth: 8,
            max_batch: 64 * 1024,
            max_payload: stream_wire::DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            estimator: EstimatorConfig::default(),
            wal: None,
            slow_query: Duration::from_millis(100),
            slow_log: 64,
            audit_shift: Some(6),
            postmortem_dir: None,
            shard: false,
            follower_of: None,
            replication_poll: Duration::from_millis(20),
        }
    }
}

/// Failures surfaced by [`Server::shutdown`] instead of panics.
#[derive(Debug)]
pub enum ServerError {
    /// An ingest worker was lost to an uncaught panic and its sketch
    /// shard with it; the drained result would be incomplete.
    WorkerLost {
        /// The stream whose pool lost the worker.
        stream: StreamId,
        /// The lost worker's index.
        worker: usize,
    },
    /// The acceptor or a connection-handler thread panicked while
    /// serving; the sketches drained cleanly but the process had a bug.
    ThreadPanicked {
        /// Which thread family panicked.
        thread: &'static str,
    },
    /// Writing the final WAL snapshot failed; the log itself is intact,
    /// so recovery still works — it just replays more.
    Io(io::Error),
    /// A reference to the server's shared state survived the thread
    /// joins, so the pools cannot be drained by value. This indicates a
    /// leaked `Arc` (a bug), reported instead of panicking.
    StateHeld,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::WorkerLost { stream, worker } => {
                write!(
                    f,
                    "ingest worker {worker} of stream {stream} lost to a panic"
                )
            }
            ServerError::ThreadPanicked { thread } => write!(f, "{thread} thread panicked"),
            ServerError::Io(e) => write!(f, "final snapshot failed: {e}"),
            ServerError::StateHeld => {
                write!(f, "server state still referenced after thread joins")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// What crash recovery rebuilt when the server bound over an existing
/// WAL directory (see [`Server::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot seeded the sketches (vs. replay from scratch).
    pub snapshot_loaded: bool,
    /// Logged batches replayed on top of the snapshot.
    pub batches_replayed: u64,
    /// Updates contained in those batches.
    pub updates_replayed: u64,
    /// Log segments scanned.
    pub segments_replayed: u64,
    /// Bytes discarded from a torn tail (0 after a clean shutdown).
    pub torn_bytes: u64,
    /// Corrupt snapshot files skipped in favour of an older valid one.
    pub snapshots_skipped: u64,
    /// Torn-tail truncations performed (1 when a partial record was cut
    /// off the newest segment, 0 after a clean shutdown). Also counted
    /// into the `wal_torn_tail_truncations_total` metric.
    pub torn_tail_truncations: u64,
}

/// Durable state shared by handlers: the WAL and the idempotency table,
/// serialized behind one lock. Holding it across dispatch + append is
/// what makes a snapshot an exact cut of the log.
struct Persist {
    wal: Option<Wal>,
    /// Highest applied `seq` per `(client_id, stream)`.
    dedup: HashMap<u64, [u64; 2]>,
}

impl Persist {
    /// The durable frontier `(active_segment_id, active_segment_len)`;
    /// `(0, 0)` without a WAL.
    fn frontier(&self) -> (u64, u64) {
        self.wal
            .as_ref()
            .map_or((0, 0), |w| (w.active_segment_id(), w.active_segment_len()))
    }
}

/// Shared state between connection handlers.
struct Inner {
    config: ServerConfig,
    /// One pool per join input, indexed by `StreamId as usize`.
    pools: [Arc<IngestPool<SkimmedSketch>>; 2],
    // ss-analyze: allow(a4-blocking-hot-path) -- the persist lock IS the durability design: dedup + WAL append must serialize to make snapshots exact cuts; the lock-free fast path (`has_wal == false`, unsequenced) never touches it
    persist: Mutex<Persist>,
    /// Paired with `persist`: signalled after every client WAL append
    /// and at shutdown, waking replication polls held open on a
    /// caught-up follower ([`replication::serve_poll`]).
    // ss-analyze: allow(a4-blocking-hot-path) -- held polls wait at most `replication_poll`; appends only signal it
    appended: Condvar,
    /// Cached `persist.wal.is_some()`: lets unsequenced traffic on a
    /// WAL-less server skip the persist lock entirely.
    has_wal: bool,
    shutdown: AtomicBool,
    metrics: Option<&'static ServerMetrics>,
    /// Bounded slow-query log served over INSPECT.
    slow: SlowLog,
    /// Online §5.1 accuracy-audit state.
    audit: Audit,
    /// Server start, the epoch for uptime and slow-query timestamps.
    started: Instant,
    /// Current role ([`ROLE_PRIMARY`] / [`ROLE_FOLLOWER`]); flipped by
    /// PROMOTE, read on every UPDATE_BATCH.
    role: AtomicU8,
    /// Fencing epoch: bumped by PROMOTE; a follower checks it against
    /// every REPLICATE reply.
    epoch: AtomicU64,
    /// Serves replication polls over the WAL directory (primaries with
    /// a WAL only).
    tailer: Option<WalTailer>,
    /// Follower-side replication state (present iff `follower_of`).
    repl: Option<replication::ReplState>,
    /// Primary-side follower tracking: the acked replication frontier
    /// each poll carries, feeding the sequenced-write ack gate
    /// ([`replication::gate_ack`]).
    follower_ack: replication::FollowerAck,
}

impl Inner {
    fn pool(&self, stream: StreamId) -> &IngestPool<SkimmedSketch> {
        // ss-analyze: allow(a2-panic-free) -- `StreamId` has exactly two variants (0 and 1) indexing a `[_; 2]`; in bounds by construction
        &self.pools[stream as usize]
    }

    fn role(&self) -> Role {
        if self.role.load(Ordering::Acquire) == ROLE_FOLLOWER {
            Role::Follower
        } else {
            Role::Primary
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The durable frontier `(active_segment_id, active_segment_len)`;
    /// `(0, 0)` without a WAL.
    fn wal_frontier(&self) -> (u64, u64) {
        self.persist
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .frontier()
    }

    /// Starts a drain: sets the flag, then wakes held replication polls
    /// and gated acks so they see it now rather than at their timeout.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Taking the lock orders the wake after any waiter's predicate
        // check, so it cannot fall between check and wait.
        drop(self.persist.lock().unwrap_or_else(|p| p.into_inner()));
        self.appended.notify_all();
        self.follower_ack.wake();
    }
}

/// A running skimmed-sketch server. Dropping it without calling
/// [`Server::shutdown`] aborts the process threads unjoined; always shut
/// down explicitly to drain (or [`Server::halt`] to simulate a crash).
pub struct Server {
    inner: Arc<Inner>,
    serving: Serving<Inner>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Builds the server's state, then binds `addr` (use port 0 for an
    /// ephemeral port), spawns the acceptor and handler threads, and
    /// starts serving. Zero `handler_threads` is an
    /// [`io::ErrorKind::InvalidInput`] error.
    ///
    /// With [`ServerConfig::wal`] set this first runs crash recovery:
    /// the newest valid snapshot is decoded, every logged batch after it
    /// is replayed into the recovered sketches, and the idempotency
    /// table is rebuilt — see [`Server::recovery`] for what was found.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let metrics = stream_telemetry::ENABLED.then(server_metrics);
        let schema = config.schema.clone();
        if let Some(dir) = &config.postmortem_dir {
            std::fs::create_dir_all(dir)?;
            ss_trace::set_postmortem_path(&dir.join("flight-recorder.jsonl"));
        }

        if config.follower_of.is_some() && config.wal.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "follower_of requires a WAL: the replicated byte stream is the follower's log",
            ));
        }
        // A fresh (or pruned-past) follower bootstraps from the
        // primary's snapshot *before* recovery, so the adopted snapshot
        // seeds the sketches through the normal recovery path below.
        if let Some(primary) = config.follower_of.as_deref() {
            replication::bootstrap(&config, primary)?;
        }

        // Crash recovery: rebuild sketches + dedup table before the
        // first connection is accepted.
        let mut seeds: [Option<SkimmedSketch>; 2] = [None, None];
        let mut dedup: HashMap<u64, [u64; 2]> = HashMap::new();
        let mut wal = None;
        let mut recovery = None;
        if let Some(wal_config) = config.wal.clone() {
            let (opened, recovered) = Wal::open(wal_config)?;
            let mut report = RecoveryReport {
                snapshot_loaded: recovered.snapshot.is_some(),
                batches_replayed: recovered.batches.len() as u64,
                updates_replayed: recovered.replayed_updates(),
                segments_replayed: recovered.segments_replayed,
                torn_bytes: recovered.torn_bytes,
                snapshots_skipped: recovered.snapshots_skipped,
                torn_tail_truncations: recovered.torn_tail_truncations,
            };
            if let Some(snap) = recovered.snapshot {
                for (slot, blob) in seeds.iter_mut().zip(snap.blobs) {
                    if !blob.is_empty() {
                        *slot = Some(decode_skimmed(Bytes::from(blob)).map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("undecodable snapshot sketch: {e:?}"),
                            )
                        })?);
                    }
                }
                for entry in snap.dedup {
                    dedup.insert(entry.client_id, entry.last_seq);
                }
            }
            // Linearity makes replay exact: recovered + Σ batches is the
            // same sketch the pre-crash server held after those acks.
            for batch in &recovered.batches {
                // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[_; 2]`
                let seed = seeds[batch.stream as usize]
                    .get_or_insert_with(|| SkimmedSketch::new(schema.clone()));
                seed.update_batch(&batch.updates);
                if batch.client_id != 0 && batch.seq != 0 {
                    let entry = dedup.entry(batch.client_id).or_insert([0, 0]);
                    // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
                    let slot = &mut entry[batch.stream as usize];
                    *slot = (*slot).max(batch.seq);
                }
            }
            report.batches_replayed = recovered.batches.len() as u64;
            if let Some(m) = metrics {
                m.recovered_batches.add(report.batches_replayed);
                m.wal_torn_bytes.add(report.torn_bytes);
                m.wal_torn_tail_truncations
                    .add(report.torn_tail_truncations);
            }
            wal = Some(opened);
            recovery = Some(report);
        }

        let workers = config.ingest_workers;
        let depth = config.queue_depth;
        let mk_pool = |seed: Option<SkimmedSketch>| {
            let schema = schema.clone();
            let mut seed = seed;
            // Worker 0 inherits the recovered sketch; merge-by-linearity
            // folds it into the drained result exactly once.
            Arc::new(IngestPool::with_queue_depth(workers, depth, move || {
                seed.take()
                    .unwrap_or_else(|| SkimmedSketch::new(schema.clone()))
            }))
        };
        let [seed_f, seed_g] = seeds;
        let follower = config.follower_of.is_some();
        let inner = Arc::new(Inner {
            pools: [mk_pool(seed_f), mk_pool(seed_g)],
            // ss-analyze: allow(a4-blocking-hot-path) -- see the `persist` field: serialization is the durability contract
            persist: Mutex::new(Persist { wal, dedup }),
            // ss-analyze: allow(a4-blocking-hot-path) -- see the `appended` field: waits are bounded by `replication_poll`
            appended: Condvar::new(),
            has_wal: config.wal.is_some(),
            shutdown: AtomicBool::new(false),
            metrics,
            slow: SlowLog::new(config.slow_log),
            audit: Audit::new(if stream_telemetry::ENABLED {
                config.audit_shift
            } else {
                None
            }),
            started: Instant::now(),
            role: AtomicU8::new(if follower {
                ROLE_FOLLOWER
            } else {
                ROLE_PRIMARY
            }),
            epoch: AtomicU64::new(replication::INITIAL_EPOCH),
            tailer: config.wal.as_ref().map(|w| WalTailer::new(&w.dir)),
            repl: config.follower_of.clone().map(replication::ReplState::new),
            follower_ack: replication::FollowerAck::new(),
            config,
        });
        if follower {
            replication::spawn(&inner)?;
        }
        let limits = Limits {
            read_timeout: inner.config.read_timeout,
            write_timeout: inner.config.write_timeout,
            max_payload: inner.config.max_payload,
        };
        let serving = match serve::start(addr, inner.config.handler_threads, inner.clone(), limits)
        {
            Ok(serving) => serving,
            Err(e) => {
                inner.begin_shutdown();
                replication::stop(&inner);
                return Err(e);
            }
        };
        Ok(Server {
            inner,
            serving,
            recovery,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.serving.local_addr()
    }

    /// Advertised schema and limits (what clients see in HELLO_ACK).
    pub fn info(&self) -> ServerInfo {
        self.inner.info()
    }

    /// What crash recovery found and rebuilt at bind time; `None` when
    /// no WAL is configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Current role: follower until a PROMOTE flips it.
    pub fn role(&self) -> Role {
        self.inner.role()
    }

    /// Current fencing epoch (1 at birth; bumped by each PROMOTE).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Upper bound on the bytes this follower trails its primary by
    /// (updated each poll); `None` when not configured as a follower.
    pub fn replication_lag_bytes(&self) -> Option<u64> {
        self.inner
            .repl
            .as_ref()
            .map(|r| r.lag_bytes.load(Ordering::Acquire))
    }

    /// True when the primary's prune horizon passed this follower's
    /// frontier mid-run: replication is parked and a restart is needed
    /// to re-bootstrap from the primary's snapshot.
    pub fn replication_needs_bootstrap(&self) -> bool {
        self.inner
            .repl
            .as_ref()
            .is_some_and(|r| r.bootstrap_required.load(Ordering::Acquire))
    }

    /// Chunks queued-but-unabsorbed in one stream's ingest pool
    /// (advisory; see [`IngestPool::pending_chunks`]).
    pub fn pending_chunks(&self, stream: StreamId) -> u64 {
        self.inner.pool(stream).pending_chunks()
    }

    /// Hard cap on [`Server::pending_chunks`]: beyond it, batches bounce
    /// with THROTTLE instead of queueing.
    pub fn queue_capacity(&self) -> u64 {
        // ss-analyze: allow(a2-panic-free) -- constant index into `[_; 2]`
        self.inner.pools[0].queue_capacity()
    }

    /// Panics caught (and survived) by one stream's ingest workers; the
    /// pool keeps serving after each (see [`IngestPool::worker_restarts`]).
    pub fn worker_restarts(&self, stream: StreamId) -> u64 {
        self.inner.pool(stream).worker_restarts()
    }

    /// In-process linearizable snapshot of one stream's sketch (same
    /// contract as [`IngestPool::snapshot`]).
    pub fn snapshot(&self, stream: StreamId) -> Result<SkimmedSketch, IngestError> {
        self.inner.pool(stream).snapshot()
    }

    /// Graceful shutdown: stop accepting, let handlers finish their
    /// in-flight request, drain both ingest pools, write a final WAL
    /// snapshot (when configured), and return the final `(F, G)`
    /// sketches. Everything a client saw acknowledged with BATCH_ACK is
    /// in them. Thread panics and lost workers surface as
    /// [`ServerError`]s instead of propagating.
    pub fn shutdown(self) -> Result<(SkimmedSketch, SkimmedSketch), ServerError> {
        let metrics = self.inner.metrics;
        self.inner.begin_shutdown();
        // The replication thread holds an `Arc<Inner>` clone; join it
        // first or `try_unwrap` below reports the state as held.
        replication::stop(&self.inner);
        let mut first_err = self
            .serving
            .join()
            .map(|thread| ServerError::ThreadPanicked { thread });
        // Every thread holding a clone is joined above, so this is the
        // last reference; a failure means an `Arc` leaked somewhere.
        let inner = Arc::try_unwrap(self.inner).map_err(|_| ServerError::StateHeld)?;
        let [pf, pg] = inner.pools;
        let finish = |stream: StreamId, p: Arc<IngestPool<SkimmedSketch>>| {
            Arc::try_unwrap(p)
                .map_err(|_| ServerError::StateHeld)?
                .finish()
                .map_err(|e| match e {
                    IngestError::WorkerPanicked { worker } => {
                        ServerError::WorkerLost { stream, worker }
                    }
                    IngestError::NoWorkers => ServerError::ThreadPanicked {
                        thread: "ingest pool",
                    },
                })
        };
        // Drain both pools even if the first fails, so no worker threads
        // leak; report the first loss.
        let f = finish(StreamId::F, pf);
        let g = finish(StreamId::G, pg);
        let (f, g) = match (f, g) {
            (Ok(f), Ok(g)) => (f, g),
            (Err(e), _) | (_, Err(e)) => return Err(e),
        };

        // Final checkpoint: a restart over this directory replays
        // nothing and the covered segments are pruned.
        let mut persist = inner
            .persist
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(wal) = persist.wal.as_mut() {
            let snap = SnapshotBlob {
                blobs: [encode_skimmed(&f).to_vec(), encode_skimmed(&g).to_vec()],
                dedup: dedup_entries(&persist.dedup),
            };
            match wal.install_snapshot(&snap).and_then(|()| wal.sync()) {
                Ok(()) => {
                    if let Some(m) = metrics {
                        m.wal_snapshots.inc();
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(ServerError::Io(e));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((f, g)),
        }
    }

    /// Crash simulation for recovery tests: stops the threads, then
    /// **discards** all in-memory sketch state — no pool drain, no final
    /// snapshot, no WAL sync beyond what `write(2)` already handed to
    /// the OS. This is what `kill -9` leaves behind; a server re-bound
    /// over the same WAL directory must rebuild from the log alone.
    pub fn halt(self) {
        self.inner.begin_shutdown();
        // A real SIGKILL takes the replication thread with the process;
        // stop it so the dropped pools are not kept alive by its Arc.
        replication::stop(&self.inner);
        // The crash dump a real SIGKILL could never write: the flight
        // recorder's last events, for the post-mortem that follows.
        let _ = ss_trace::postmortem("halt");
        let _ = self.serving.join();
        // Dropping `inner` closes the pools' channels; workers exit
        // without being drained and their shards are lost, as in a real
        // crash. The WAL file handle drops unsynced.
    }
}

/// Flattens the dedup map into the snapshot's table form.
fn dedup_entries(dedup: &HashMap<u64, [u64; 2]>) -> Vec<DedupEntry> {
    dedup
        .iter()
        .map(|(&client_id, &last_seq)| DedupEntry {
            client_id,
            last_seq,
        })
        .collect()
}

/// Handles one UPDATE_BATCH (already destructured by the dispatch
/// match): dedup, dispatch, WAL append, ack — in that order. `tag` is
/// the `(trace, parent-span)` downstream stages (queue, ingest, WAL)
/// parent their spans under.
fn handle_update_batch(
    inner: &Inner,
    conn: &mut Conn<'_>,
    stream: StreamId,
    client_id: u64,
    seq: u64,
    updates: Vec<stream_model::update::Update>,
    tag: TraceTag,
) -> Flow {
    let metrics = inner.metrics;
    let _span = metrics.map(|m| m.update_latency.start_span());
    let len = updates.len();
    if len as u64 > inner.config.max_batch as u64 {
        conn.send_error(
            ErrorCode::BatchTooLarge,
            &format!(
                "batch of {} exceeds max_batch {}",
                len, inner.config.max_batch
            ),
        );
        return Flow::Continue;
    }
    let accepted = len as u64;
    // §5.1 audit: fold sampled keys into the exact counts before the
    // updates are moved into the pool. `ENABLED` is a compile-time
    // const, so the scan vanishes entirely from uninstrumented builds.
    if stream_telemetry::ENABLED && inner.audit.active() {
        inner.audit.observe(stream, &updates);
    }
    let pool = inner.pool(stream);

    let ack = |conn: &mut Conn<'_>| conn.reply(&Frame::BatchAck { accepted });
    let throttle = |conn: &mut Conn<'_>| {
        if let Some(m) = metrics {
            m.throttles.inc();
        }
        conn.reply(&Frame::Throttle {
            pending: pool.pending_chunks(),
            limit: pool.queue_capacity(),
        })
    };

    // Fast path — nothing to log, nothing to dedup: unsequenced traffic
    // on a WAL-less server keeps the original lock-free throughput.
    if !inner.has_wal && client_id == 0 {
        return match pool.try_dispatch_traced(updates, tag) {
            Ok(()) => {
                if let Some((trace, parent)) = tag {
                    ss_trace::instant(Phase::Queue, trace, parent, accepted);
                }
                if let Some(m) = metrics {
                    m.updates_accepted.add(accepted);
                }
                ack(conn)
            }
            Err(_refused) => throttle(conn),
        };
    }

    // Persist path: dedup check, dispatch, and WAL append serialize
    // through one lock — which is also what makes a snapshot an exact
    // cut of the log. Poison recovery is sound here: dedup writes are
    // single-map inserts and WAL appends are atomic at record
    // granularity (recovery treats a torn record as a torn tail), so a
    // handler that panicked mid-critical-section leaves consistent state.
    let mut persist = inner.persist.lock().unwrap_or_else(|p| p.into_inner());
    if client_id != 0 && seq != 0 {
        let last = persist
            .dedup
            .get(&client_id)
            // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
            .map_or(0, |e| e[stream as usize]);
        if seq <= last {
            // Already applied (the ack was lost, the producer replayed
            // after recovery, or a gated ack timed out into a
            // throttle): acknowledge without re-applying — but the ack
            // still rides the replication gate. The current WAL
            // frontier covers this batch's append (conservatively), so
            // gating on it keeps "acked ⇒ on the follower" true across
            // retries.
            let target = persist
                .wal
                .as_ref()
                .map(|w| (w.active_segment_id(), w.active_segment_len()));
            drop(persist);
            if let Some(m) = metrics {
                m.dup_batches.inc();
            }
            return match target {
                Some(t) if !replication::gate_ack(inner, t) => throttle(conn),
                _ => ack(conn),
            };
        }
    }
    // Encode from the borrowed parts so the WAL record is byte-identical
    // to the frame the client sent (and no update clone is needed).
    let encoded = persist
        .wal
        .is_some()
        .then(|| stream_wire::encode_update_batch(stream, client_id, seq, &updates));
    if pool.try_dispatch_traced(updates, tag).is_err() {
        drop(persist);
        return throttle(conn);
    }
    if let Some((trace, parent)) = tag {
        ss_trace::instant(Phase::Queue, trace, parent, accepted);
    }
    if let Some(m) = metrics {
        m.updates_accepted.add(accepted);
    }
    let mut gate_target: Option<(u64, u64)> = None;
    if let (Some(wal), Some(bytes)) = (persist.wal.as_mut(), encoded) {
        let _wal_span = tag.map(|(trace, parent)| {
            ss_trace::span(Phase::WalAppend, trace, parent, bytes.len() as u64)
        });
        if let Err(e) = wal.append_encoded(&bytes) {
            // The batch is applied in memory but not durable. Record it
            // as applied (true for this process) and refuse the ack: the
            // producer retries, dedup absorbs the replay, and after a
            // crash the WAL honestly lacks the batch — so the retry
            // lands exactly once either way.
            if client_id != 0 && seq != 0 {
                bump_dedup(&mut persist, client_id, stream, seq);
            }
            drop(persist);
            conn.send_error(ErrorCode::Internal, &format!("wal append failed: {e}"));
            return Flow::Continue;
        }
        // Wake the follower's held replication poll: there is a record
        // to ship now.
        inner.appended.notify_all();
        if let Some(m) = metrics {
            m.wal_appends.inc();
            m.wal_bytes.add(bytes.len() as u64);
        }
        // Captured right after the append, so the frontier covers
        // exactly this batch — the ack gate below waits for the
        // follower to confirm through here, no further.
        if client_id != 0 && seq != 0 {
            gate_target = Some((wal.active_segment_id(), wal.active_segment_len()));
        }
    }
    if client_id != 0 && seq != 0 {
        bump_dedup(&mut persist, client_id, stream, seq);
    }
    maybe_checkpoint(inner, &mut persist);
    drop(persist);
    // Replication ack gate: with an attached follower, "acked" must
    // imply "replicated" or a failover can silently drop batches the
    // producer believes are durable. Timing out throttles the producer;
    // its retry hits the dedup path above and re-checks the gate.
    match gate_target {
        Some(target) if !replication::gate_ack(inner, target) => throttle(conn),
        _ => ack(conn),
    }
}

fn bump_dedup(persist: &mut Persist, client_id: u64, stream: StreamId, seq: u64) {
    // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
    let slot = &mut persist.dedup.entry(client_id).or_insert([0, 0])[stream as usize];
    *slot = (*slot).max(seq);
}

/// Installs a periodic snapshot when the WAL's policy asks for one.
/// Caller holds the persist lock, so the two pool snapshots capture
/// exactly the batches appended so far — an exact cut.
fn maybe_checkpoint(inner: &Inner, persist: &mut Persist) {
    let Some(wal) = persist.wal.as_mut() else {
        return;
    };
    if !wal.wants_snapshot() {
        return;
    }
    let (Ok(f), Ok(g)) = (
        inner.pool(StreamId::F).snapshot(),
        inner.pool(StreamId::G).snapshot(),
    ) else {
        // A worker shard is lost; checkpointing now would persist the
        // loss. Keep the full log instead — replay still has everything.
        return;
    };
    let snap = SnapshotBlob {
        blobs: [encode_skimmed(&f).to_vec(), encode_skimmed(&g).to_vec()],
        dedup: dedup_entries(&persist.dedup),
    };
    if wal.install_snapshot(&snap).is_ok() {
        if let Some(m) = inner.metrics {
            m.wal_snapshots.inc();
        }
    }
}

impl FrontEnd for Inner {
    type Handler = ();
    const ROLE: &'static str = "server";

    fn info(&self) -> ServerInfo {
        let schema = &self.config.schema;
        ServerInfo {
            domain_log2: schema.domain().log2_size() as u16,
            dyadic: matches!(schema.strategy(), ExtractionStrategy::Dyadic),
            tables: schema.base().tables() as u32,
            buckets: schema.base().buckets() as u32,
            seed: schema.seed(),
            max_batch: self.config.max_batch,
            // ss-analyze: allow(a2-panic-free) -- constant index into `[_; 2]`
            queue_limit: self.pools[0].queue_capacity() as u32,
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn handler(&self, _slot: usize) {}

    fn serve_frame(
        &self,
        _: &mut (),
        conn: &mut Conn<'_>,
        frame: Frame,
        span: Option<TraceContext>,
    ) -> Flow {
        let inner = self;
        let metrics = inner.metrics;
        let tag: TraceTag = span.map(|c| (c.trace_id, c.span_id));
        match frame {
            Frame::UpdateBatch {
                stream,
                client_id,
                seq,
                updates,
            } => {
                if inner.role() == Role::Follower {
                    // Typed refusal, session kept open: the producer's
                    // router re-resolves the primary and retries there.
                    let primary = inner.config.follower_of.as_deref().unwrap_or("the primary");
                    conn.send_error(
                        ErrorCode::NotPrimary,
                        &format!("follower of {primary}: writes go to the primary"),
                    );
                    return Flow::Continue;
                }
                handle_update_batch(inner, conn, stream, client_id, seq, updates, tag)
            }
            Frame::Resume { client_id } => {
                let last = {
                    // Same poison-recovery argument as the persist path.
                    let persist = inner.persist.lock().unwrap_or_else(|p| p.into_inner());
                    persist.dedup.get(&client_id).copied().unwrap_or([0, 0])
                };
                let [last_seq_f, last_seq_g] = last;
                conn.reply(&Frame::ResumeAck {
                    last_seq_f,
                    last_seq_g,
                })
            }
            Frame::QueryJoin => {
                let _span = metrics.map(|m| m.query_join_latency.start_span());
                let t0 = Instant::now();
                let snap_span = tag.map(|(t, p)| ss_trace::span(Phase::Snapshot, t, p, 0));
                let snaps = (
                    inner.pool(StreamId::F).snapshot_traced(tag),
                    inner.pool(StreamId::G).snapshot_traced(tag),
                );
                drop(snap_span);
                let t1 = Instant::now();
                let (Ok(f), Ok(g)) = snaps else {
                    conn.send_error(ErrorCode::Internal, "ingest worker lost");
                    return Flow::Close;
                };
                let est_span = tag.map(|(t, p)| ss_trace::span(Phase::Estimate, t, p, 0));
                let est = estimate_join(&f, &g, &inner.config.estimator);
                drop(est_span);
                let t2 = Instant::now();
                let reply = Frame::Answer {
                    estimate: est.estimate,
                    dense_dense: est.dense_dense,
                    dense_sparse: est.dense_sparse,
                    sparse_dense: est.sparse_dense,
                    sparse_sparse: est.sparse_sparse,
                    dense_f: est.dense_f as u64,
                    dense_g: est.dense_g as u64,
                };
                let enc_span = tag.map(|(t, p)| ss_trace::span(Phase::Encode, t, p, 0));
                let flow = conn.reply(&reply);
                drop(enc_span);
                record_if_slow(inner, tag, KIND_QUERY_JOIN, t0, t1, t2);
                flow
            }
            Frame::QuerySelfJoin { stream } => {
                let _span = metrics.map(|m| m.query_self_latency.start_span());
                let t0 = Instant::now();
                let snap_span = tag.map(|(t, p)| ss_trace::span(Phase::Snapshot, t, p, 0));
                let snap = inner.pool(stream).snapshot_traced(tag);
                drop(snap_span);
                let t1 = Instant::now();
                let Ok(sk) = snap else {
                    conn.send_error(ErrorCode::Internal, "ingest worker lost");
                    return Flow::Close;
                };
                let est_span = tag.map(|(t, p)| ss_trace::span(Phase::Estimate, t, p, 0));
                let estimate = estimate_self_join(&sk, &inner.config.estimator);
                drop(est_span);
                let t2 = Instant::now();
                let reply = Frame::Answer {
                    estimate,
                    dense_dense: 0.0,
                    dense_sparse: 0.0,
                    sparse_dense: 0.0,
                    sparse_sparse: 0.0,
                    dense_f: 0,
                    dense_g: 0,
                };
                let enc_span = tag.map(|(t, p)| ss_trace::span(Phase::Encode, t, p, 0));
                let flow = conn.reply(&reply);
                drop(enc_span);
                record_if_slow(inner, tag, KIND_QUERY_SELF_JOIN, t0, t1, t2);
                flow
            }
            Frame::Snapshot { stream } => {
                let _span = metrics.map(|m| m.snapshot_latency.start_span());
                let t0 = Instant::now();
                let snap_span = tag.map(|(t, p)| ss_trace::span(Phase::Snapshot, t, p, 0));
                let snap = inner.pool(stream).snapshot_traced(tag);
                drop(snap_span);
                let t1 = Instant::now();
                let Ok(sk) = snap else {
                    conn.send_error(ErrorCode::Internal, "ingest worker lost");
                    return Flow::Close;
                };
                let enc_span = tag.map(|(t, p)| ss_trace::span(Phase::Encode, t, p, 0));
                let reply = Frame::SnapshotReply {
                    stream,
                    sketch: encode_skimmed(&sk).to_vec(),
                };
                let flow = conn.reply(&reply);
                drop(enc_span);
                record_if_slow(inner, tag, KIND_SNAPSHOT, t0, t1, t1);
                flow
            }
            Frame::Inspect {
                sections,
                last_events,
                slow_limit,
            } => {
                let report = build_inspect_report(inner, sections, last_events, slow_limit);
                if let Some(m) = metrics {
                    m.inspects.inc();
                }
                conn.reply(&Frame::InspectReply(Box::new(report)))
            }
            Frame::ShardQuery { streams } => {
                if !conn.require_v3("SHARD_QUERY") {
                    return Flow::Close;
                }
                if !inner.config.shard {
                    conn.send_error(
                        ErrorCode::Protocol,
                        "not a shard: this server does not serve SHARD_QUERY",
                    );
                    return Flow::Close;
                }
                let _span = metrics.map(|m| m.shard_query_latency.start_span());
                let t0 = Instant::now();
                let snap_span = tag.map(|(t, p)| ss_trace::span(Phase::Snapshot, t, p, 0));
                // Snapshot both streams under one request so the reply is
                // a single linearizable cut of this shard's state.
                let want_f = streams & SHARD_STREAM_F != 0;
                let want_g = streams & SHARD_STREAM_G != 0;
                let snap_f = want_f.then(|| inner.pool(StreamId::F).snapshot_traced(tag));
                let snap_g = want_g.then(|| inner.pool(StreamId::G).snapshot_traced(tag));
                drop(snap_span);
                let t1 = Instant::now();
                let unpack = |snap: Option<Result<_, _>>| match snap {
                    None => Some(Vec::new()),
                    Some(Ok(sk)) => Some(encode_skimmed(&sk).to_vec()),
                    Some(Err(_)) => None,
                };
                let (Some(sketch_f), Some(sketch_g)) = (unpack(snap_f), unpack(snap_g)) else {
                    conn.send_error(ErrorCode::Internal, "ingest worker lost");
                    return Flow::Close;
                };
                let enc_span = tag.map(|(t, p)| ss_trace::span(Phase::Encode, t, p, 0));
                let reply = Frame::ShardQueryReply {
                    streams,
                    sketch_f,
                    sketch_g,
                };
                let flow = conn.reply(&reply);
                drop(enc_span);
                record_if_slow(inner, tag, KIND_SHARD_QUERY, t0, t1, t1);
                flow
            }
            Frame::ReplicateAck {
                epoch: _,
                segment,
                offset,
            } => {
                // A follower's long-poll: its durable frontier is the
                // implicit ack; the reply is the next chunk of our log.
                if !conn.require_v3("REPLICATE_ACK") {
                    return Flow::Close;
                }
                match replication::serve_poll(inner, segment, offset) {
                    Ok(reply) => conn.reply(&reply),
                    Err((code, message)) => {
                        conn.send_error(code, &message);
                        Flow::Close
                    }
                }
            }
            Frame::Heartbeat { .. } => {
                // Request fields carry the prober's view and are not
                // needed to answer; the reply is this node's role,
                // epoch, and durable frontier.
                if !conn.require_v3("HEARTBEAT") {
                    return Flow::Close;
                }
                let (segment, offset) = inner.wal_frontier();
                conn.reply(&Frame::Heartbeat {
                    epoch: inner.epoch(),
                    primary: inner.role() == Role::Primary,
                    segment,
                    offset,
                })
            }
            Frame::Promote { epoch } => {
                if !conn.require_v3("PROMOTE") {
                    return Flow::Close;
                }
                match replication::promote(inner, epoch) {
                    Ok(adopted) => conn.reply(&Frame::Promote { epoch: adopted }),
                    Err((code, message)) => {
                        conn.send_error(code, &message);
                        Flow::Close
                    }
                }
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
            | Frame::ShardMap(_)
            | Frame::ShardQueryReply { .. }
            // Replication is pull-only: REPLICATE is a poll reply.
            | Frame::Replicate { .. } => Flow::Unexpected,
        }
    }
}

/// Wire kind tags recorded in slow-query entries (the `Kind` enum is
/// private to `stream-wire`; these mirror its documented grammar).
const KIND_QUERY_JOIN: u8 = 5;
const KIND_QUERY_SELF_JOIN: u8 = 6;
const KIND_SNAPSHOT: u8 = 8;
const KIND_SHARD_QUERY: u8 = 18;

/// Folds one finished query's phase timing into the slow-query log when
/// it crossed the configured threshold. `t0`→`t1` is snapshot
/// acquisition, `t1`→`t2` estimation, `t2`→now encode + reply write.
fn record_if_slow(inner: &Inner, tag: TraceTag, kind: u8, t0: Instant, t1: Instant, t2: Instant) {
    let done = Instant::now();
    let total = done.duration_since(t0);
    if total < inner.config.slow_query {
        return;
    }
    if let Some(m) = inner.metrics {
        m.slow_queries.inc();
    }
    inner.slow.record(SlowQueryEntry {
        ts_ns: inner.started.elapsed().as_nanos() as u64,
        trace_id: tag.map_or(0, |(trace, _)| trace),
        kind,
        total_ns: total.as_nanos() as u64,
        snapshot_ns: t1.duration_since(t0).as_nanos() as u64,
        estimate_ns: t2.duration_since(t1).as_nanos() as u64,
        encode_ns: done.duration_since(t2).as_nanos() as u64,
    });
}

/// Assembles the INSPECT reply: each requested section is gathered
/// fresh, sections this build cannot produce (telemetry compiled out)
/// come back empty rather than erroring.
fn build_inspect_report(
    inner: &Inner,
    sections: u8,
    last_events: u32,
    slow_limit: u32,
) -> InspectReport {
    // The audit pass runs first so the gauge and histogram it feeds are
    // already current when the metrics section of the same reply renders.
    let mut audit = None;
    if sections & INSPECT_AUDIT != 0 && stream_telemetry::ENABLED && inner.audit.active() {
        if let (Ok(f), Ok(g)) = (
            inner.pool(StreamId::F).snapshot(),
            inner.pool(StreamId::G).snapshot(),
        ) {
            let metrics = inner.metrics;
            audit = inner.audit.summarize([&f, &g], |ratio| {
                if let Some(m) = metrics {
                    m.audit_ratio_hist.record_f64(ratio);
                }
            });
            if let (Some(m), Some(a)) = (metrics, audit.as_ref()) {
                m.audit_ratio_error.set(a.mean_ratio_error);
            }
        }
    }
    let mut report = serve::inspect_report(inner.started, sections, last_events);
    report.audit = audit;
    if sections & INSPECT_SLOW != 0 {
        report.slow = inner.slow.snapshot(slow_limit as usize);
    }
    report
}
