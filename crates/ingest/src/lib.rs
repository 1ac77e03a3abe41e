//! # stream-ingest
//!
//! Multi-core sketch ingestion built on the linear-synopsis algebra.
//!
//! Every synopsis in this workspace is a linear projection of the stream's
//! frequency vector, so sketching commutes with partitioning: shard the
//! update stream across `N` worker threads, let each feed its own sketch
//! under the shared schema, and merge the per-worker sketches by addition.
//! Because integer counter addition is associative and commutative, the
//! merged sketch is **bit-identical** to sequentially ingesting the whole
//! stream into one sketch — no approximation is introduced by parallelism,
//! regardless of how updates interleave across workers.
//!
//! [`IngestPool`] is the sharded pool: callers hand it owned
//! `Vec<Update>` chunks (so batches move across threads without copying),
//! workers drain them through [`StreamSink::update_batch`] — the
//! loop-interchanged batch kernels — and [`IngestPool::finish`] (or
//! [`IngestPool::snapshot`]) merges the workers' sketches.
//!
//! ## Supervision
//!
//! Workers are **supervised**: a panic while absorbing a chunk (a
//! poisoned batch) is caught at the chunk boundary, counted in
//! [`IngestPool::worker_restarts`] (and the
//! `ingest_worker_restarts_total` telemetry counter), and the worker
//! keeps serving with its sketch intact — every *other* chunk it has
//! absorbed or will absorb survives, because the sketch lives outside
//! the panic scope and merge-by-linearity does not care which worker
//! carries which chunk. One poisoned batch therefore degrades the pool
//! (that chunk is partially or wholly lost) instead of killing the
//! process or poisoning [`IngestPool::finish`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

use crossbeam::channel::{bounded, Sender, TrySendError};
use crossbeam::thread as cb_thread;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use stream_model::update::Update;
use stream_sketches::{merge_parts, LinearSynopsis};
use stream_telemetry::{Counter, Gauge, Histogram, Unit};

/// Structured failure of a pool-level operation.
///
/// With in-worker supervision a worker thread can only die if a panic
/// escapes the chunk-level `catch_unwind` (e.g. the sketch's `clone`
/// panicked while answering a snapshot); these errors replace the old
/// behaviour of re-propagating the panic into the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// A worker thread died of an uncaught panic; its sketch (and every
    /// chunk it had absorbed) is lost to the merge.
    WorkerPanicked {
        /// Index of the dead worker.
        worker: usize,
    },
    /// The pool has no workers, so there is no sketch to merge. The
    /// constructor rejects zero-thread pools, so seeing this indicates a
    /// construction bypass rather than a runtime fault.
    NoWorkers,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WorkerPanicked { worker } => {
                write!(f, "ingest worker {worker} panicked; its sketch is lost")
            }
            IngestError::NoWorkers => write!(f, "ingest pool has no workers"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Chunks queued per worker before [`IngestPool::dispatch`] applies
/// backpressure by blocking the producer.
const CHANNEL_DEPTH: usize = 8;

/// The causal trace tag carried alongside pool messages:
/// `Some((trace_id, parent_span_id))` when the originating request is
/// being traced, `None` otherwise. Plain ids rather than `ss-trace`
/// types so the tag costs nothing to pass in uninstrumented builds.
pub type TraceTag = Option<(u64, u64)>;

enum Msg<S> {
    /// A chunk of updates to absorb.
    Batch(Vec<Update>, TraceTag),
    /// Request a copy of the worker's current sketch.
    Snapshot(Sender<S>, TraceTag),
}

/// Pool-level telemetry handles, registered once per pool construction.
struct PoolMetrics {
    /// Chunks dispatched but not yet fully absorbed by a worker.
    queue_depth: Arc<Gauge>,
    /// Updates per dispatched chunk.
    batch_size: Arc<Histogram>,
    /// Wall time of [`IngestPool::snapshot`] (barrier + clone + merge).
    snapshot_latency: Arc<Histogram>,
}

/// Per-worker telemetry handles, moved into the worker thread.
struct WorkerMetrics {
    /// Updates this worker has absorbed.
    updates: Arc<Counter>,
    /// Chunks this worker has absorbed.
    batches: Arc<Counter>,
    /// Panics caught and survived by this worker (supervision events).
    restarts: Arc<Counter>,
    /// Shared with [`PoolMetrics::queue_depth`].
    queue_depth: Arc<Gauge>,
}

/// A pool of worker threads, each owning a private sketch under a shared
/// schema, absorbing chunks of updates in parallel.
///
/// Chunks are dispatched round-robin, so the pool is deterministic for a
/// fixed chunk sequence — and by linearity the final merged sketch does not
/// depend on the sharding at all.
///
/// # Examples
///
/// ```
/// use stream_ingest::IngestPool;
/// use stream_model::{StreamSink, Update};
/// use stream_sketches::{HashSketch, HashSketchSchema, LinearSynopsis};
///
/// let schema = HashSketchSchema::new(5, 64, 42);
/// let pool = IngestPool::new(4, || HashSketch::new(schema.clone()));
/// for chunk in (0..100_000u64).map(Update::insert).collect::<Vec<_>>().chunks(4096) {
///     pool.dispatch(chunk.to_vec());
/// }
/// let parallel = pool.finish();
///
/// let mut sequential = HashSketch::new(schema);
/// for v in 0..100_000u64 {
///     sequential.update(Update::insert(v));
/// }
/// assert_eq!(parallel.unwrap().counters(), sequential.counters());
/// ```
pub struct IngestPool<S> {
    senders: Vec<Sender<Msg<S>>>,
    workers: Vec<JoinHandle<S>>,
    /// Round-robin cursor; atomic so the pool is `Sync` and several
    /// producer threads (e.g. server connection handlers) can dispatch
    /// into one pool concurrently.
    next: AtomicUsize,
    /// Per-worker channel depth (chunks buffered before backpressure).
    depth: usize,
    /// Chunks handed to [`IngestPool::dispatch`] so far.
    dispatched: Arc<AtomicU64>,
    /// Chunks fully absorbed by workers (each worker increments after
    /// its `update_batch` returns).
    drained: Arc<AtomicU64>,
    /// Panics caught by worker supervision (the worker survived).
    restarts: Arc<AtomicU64>,
    metrics: Option<PoolMetrics>,
}

impl<S> IngestPool<S>
where
    S: LinearSynopsis + Clone + Send + 'static,
{
    /// Spawns `threads` workers, each with a fresh sketch from `make`.
    ///
    /// `make` is called once per worker on the calling thread; build the
    /// sketches from one shared `Arc` schema so they are compatible (the
    /// final merge asserts it).
    ///
    /// # Panics
    /// If `threads` is zero.
    pub fn new(threads: usize, make: impl FnMut() -> S) -> Self {
        Self::with_queue_depth(threads, CHANNEL_DEPTH, make)
    }

    /// Like [`IngestPool::new`], but with an explicit per-worker queue
    /// depth — the bounded-queue mode used by callers that want
    /// [`IngestPool::try_dispatch`] backpressure at a chosen capacity
    /// (e.g. the serving layer's THROTTLE replies).
    ///
    /// # Panics
    /// If `threads` or `depth` is zero.
    pub fn with_queue_depth(threads: usize, depth: usize, mut make: impl FnMut() -> S) -> Self {
        assert!(threads > 0, "ingest pool needs at least one worker");
        assert!(depth > 0, "queue depth must be at least one chunk");
        let metrics = stream_telemetry::ENABLED.then(|| {
            let r = stream_telemetry::global();
            PoolMetrics {
                queue_depth: r.gauge("ingest_queue_depth"),
                batch_size: r.histogram("ingest_batch_size", Unit::Count),
                snapshot_latency: r.histogram("ingest_snapshot_seconds", Unit::Nanos),
            }
        });
        let dispatched = Arc::new(AtomicU64::new(0));
        let drained = Arc::new(AtomicU64::new(0));
        let restarts = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, rx) = bounded::<Msg<S>>(depth);
            let mut sketch = make();
            let drained = drained.clone();
            let restarts = restarts.clone();
            let telem = metrics.as_ref().map(|m| {
                let r = stream_telemetry::global();
                let worker = w.to_string();
                let labels = [("worker", worker.as_str())];
                WorkerMetrics {
                    updates: r.counter_with("ingest_worker_updates_total", &labels),
                    batches: r.counter_with("ingest_worker_batches_total", &labels),
                    restarts: r.counter_with("ingest_worker_restarts_total", &labels),
                    queue_depth: m.queue_depth.clone(),
                }
            });
            workers.push(std::thread::spawn(move || {
                for msg in rx {
                    match msg {
                        Msg::Batch(chunk, tag) => {
                            // Supervision boundary: a panic inside the
                            // batch kernel (a poisoned update) is caught
                            // here so the worker — and every other chunk
                            // in its sketch — survives. The poisoned
                            // chunk itself may be partially applied; the
                            // durability layer's WAL is what makes it
                            // recoverable.
                            let span = tag.map(|(trace, parent)| {
                                ss_trace::span(
                                    ss_trace::Phase::Ingest,
                                    trace,
                                    parent,
                                    chunk.len() as u64,
                                )
                            });
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| sketch.update_batch(&chunk)));
                            drop(span);
                            drained.fetch_add(1, Ordering::Release);
                            if let Some(t) = &telem {
                                t.queue_depth.add(-1);
                            }
                            match outcome {
                                Ok(()) => {
                                    if let Some(t) = &telem {
                                        t.updates.add(chunk.len() as u64);
                                        t.batches.inc();
                                    }
                                }
                                Err(_panic) => {
                                    restarts.fetch_add(1, Ordering::Release);
                                    if let Some(t) = &telem {
                                        t.restarts.inc();
                                    }
                                    // Leave a post-mortem trail of the
                                    // events leading into the poisoned
                                    // chunk (no-op unless the host
                                    // process configured a dump path).
                                    let _ = ss_trace::postmortem("ingest-worker-panic");
                                }
                            }
                        }
                        Msg::Snapshot(reply, tag) => {
                            // `clone` can panic too; treat it as a
                            // supervision event. Dropping `reply` without
                            // sending makes the requester's `recv` fail,
                            // which `snapshot` surfaces as an error.
                            let span = tag.map(|(trace, parent)| {
                                ss_trace::span(ss_trace::Phase::SnapshotClone, trace, parent, 0)
                            });
                            let outcome = catch_unwind(AssertUnwindSafe(|| sketch.clone()));
                            drop(span);
                            match outcome {
                                Ok(copy) => {
                                    // The requester may give up (drop the
                                    // receiver) before we reply; that's
                                    // not a worker error.
                                    let _ = reply.send(copy);
                                }
                                Err(_panic) => {
                                    restarts.fetch_add(1, Ordering::Release);
                                    if let Some(t) = &telem {
                                        t.restarts.inc();
                                    }
                                    let _ = ss_trace::postmortem("ingest-snapshot-panic");
                                }
                            }
                        }
                    }
                }
                sketch
            }));
            senders.push(tx);
        }
        Self {
            senders,
            workers,
            next: AtomicUsize::new(0),
            depth,
            dispatched,
            drained,
            restarts,
            metrics,
        }
    }

    /// Panics caught (and survived) by worker supervision since the pool
    /// started. Each one corresponds to a poisoned chunk or a failed
    /// snapshot clone; the pool kept serving through all of them.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Acquire)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Upper bound on [`IngestPool::pending_chunks`]: each worker can
    /// buffer `depth` chunks in its channel plus the one it is currently
    /// absorbing. [`IngestPool::try_dispatch`] refuses work beyond this
    /// capacity, so a caller that only uses `try_dispatch` has a hard cap
    /// on the memory queued inside the pool.
    pub fn queue_capacity(&self) -> u64 {
        (self.senders.len() * (self.depth + 1)) as u64
    }

    /// Queues a chunk of updates on the next worker (round-robin). Blocks
    /// when that worker's queue is full — natural backpressure for
    /// producers that outrun the sketchers.
    pub fn dispatch(&self, chunk: Vec<Update>) {
        self.dispatch_traced(chunk, None);
    }

    /// [`IngestPool::dispatch`] carrying a trace tag: the worker that
    /// absorbs the chunk records an `ingest` span parented under the
    /// tag's span id, extending the request's causal trace across the
    /// thread hop.
    pub fn dispatch_traced(&self, chunk: Vec<Update>, tag: TraceTag) {
        if chunk.is_empty() {
            return;
        }
        self.dispatched.fetch_add(1, Ordering::Release);
        if let Some(m) = &self.metrics {
            m.queue_depth.add(1);
            m.batch_size.record(chunk.len() as u64);
        }
        // ordering: Relaxed — the cursor is a load-balancing hint only; by
        // sketch linearity the merged result is identical whichever worker
        // takes the chunk, so no happens-before edge is required.
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.senders.len();
        // ss-analyze: allow(a2-panic-free) -- `i` is reduced mod `senders.len()` and the constructor rejects zero workers; `send` only fails if a supervisor dropped its receiver, which would already be a supervision bug worth a loud stop
        self.senders[i]
            .send(Msg::Batch(chunk, tag))
            // ss-analyze: allow(a2-panic-free) -- send fails only if the supervisor dropped its receiver; supervision restarts workers for the life of the pool, so a failure here is a supervision bug that must stop the process, not lose the chunk silently
            .unwrap_or_else(|_| unreachable!("worker alive while pool holds its sender"));
    }

    /// Queues a chunk only if a worker has buffer space free right now;
    /// otherwise hands the chunk back so the caller can apply its own
    /// backpressure (drop, retry later, or tell a remote producer to
    /// throttle) instead of blocking or buffering without bound.
    ///
    /// Starting from the round-robin cursor, every worker is probed once,
    /// so a single busy worker does not fail the dispatch while its
    /// siblings are idle. By sketch linearity the final merged synopsis is
    /// independent of which worker takes the chunk.
    #[allow(clippy::result_large_err)] // the Err *is* the caller's chunk
    pub fn try_dispatch(&self, chunk: Vec<Update>) -> Result<(), Vec<Update>> {
        self.try_dispatch_traced(chunk, None)
    }

    /// [`IngestPool::try_dispatch`] carrying a trace tag (see
    /// [`IngestPool::dispatch_traced`]).
    #[allow(clippy::result_large_err)] // the Err *is* the caller's chunk
    pub fn try_dispatch_traced(
        &self,
        chunk: Vec<Update>,
        tag: TraceTag,
    ) -> Result<(), Vec<Update>> {
        if chunk.is_empty() {
            return Ok(());
        }
        let n = self.senders.len();
        // ordering: Relaxed — same as `dispatch`: the cursor only spreads
        // load; correctness never depends on which worker wins the race.
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let len = chunk.len() as u64;
        let mut msg = Msg::Batch(chunk, tag);
        for off in 0..n {
            // ss-analyze: allow(a2-panic-free) -- `(start + off) % n` is in bounds by the modulus; the constructor rejects zero workers
            match self.senders[(start + off) % n].try_send(msg) {
                Ok(()) => {
                    self.dispatched.fetch_add(1, Ordering::Release);
                    if let Some(m) = &self.metrics {
                        m.queue_depth.add(1);
                        m.batch_size.record(len);
                    }
                    return Ok(());
                }
                Err(TrySendError::Full(m)) => msg = m,
                Err(TrySendError::Disconnected(_)) => {
                    // ss-analyze: allow(a2-panic-free) -- disconnection means the supervisor dropped its receiver mid-lifetime, a supervision bug; stopping loudly beats silently dropping acknowledged-to-caller capacity
                    unreachable!("worker alive while pool holds its sender")
                }
            }
        }
        let Msg::Batch(chunk, _tag) = msg else {
            // ss-analyze: allow(a2-panic-free) -- `msg` is constructed as `Msg::Batch` a few lines up and only ever reassigned from `TrySendError::Full`, which returns the same value
            unreachable!("try_dispatch only carries batches")
        };
        Err(chunk)
    }

    /// Chunks dispatched but not yet fully absorbed by a worker.
    ///
    /// This is an advisory count for monitoring and backpressure decisions:
    /// it is read racily against concurrent `dispatch` calls from other
    /// threads, so by the time the caller inspects the value it may already
    /// be stale. A return of `0` *after* [`IngestPool::snapshot`] or a
    /// quiescent period is exact, because workers only decrement after
    /// `update_batch` has fully returned.
    pub fn pending_chunks(&self) -> u64 {
        let dispatched = self.dispatched.load(Ordering::Acquire);
        let drained = self.drained.load(Ordering::Acquire);
        dispatched.saturating_sub(drained)
    }

    /// `true` when every dispatched chunk has been absorbed into a worker's
    /// sketch. Subject to the same advisory caveat as
    /// [`IngestPool::pending_chunks`].
    pub fn is_empty(&self) -> bool {
        self.pending_chunks() == 0
    }

    /// Merges a consistent copy of the pool's sketch without stopping it.
    ///
    /// Each worker finishes the chunks queued before this call, then sends
    /// back a clone of its sketch; the clones are merged.
    ///
    /// # Linearization contract
    ///
    /// The snapshot reflects **exactly** the chunks dispatched before this
    /// call and none dispatched after it returns. This holds because each
    /// worker's channel is FIFO: the `Snapshot` request queues behind every
    /// `Batch` already sent to that worker, so the worker has absorbed all
    /// of them before it clones its sketch. Chunks dispatched concurrently
    /// from *other* threads may or may not be included (either order is a
    /// valid linearization). After `snapshot` returns,
    /// [`IngestPool::pending_chunks`] is `0` provided no concurrent
    /// dispatches raced with the call.
    ///
    /// # Errors
    /// [`IngestError::WorkerPanicked`] if a worker died (or its `clone`
    /// panicked) instead of replying — the snapshot is incomplete and no
    /// partial sketch is returned.
    pub fn snapshot(&self) -> Result<S, IngestError> {
        self.snapshot_traced(None)
    }

    /// [`IngestPool::snapshot`] carrying a trace tag: each worker
    /// records a `snapshot_clone` span parented under the tag's span
    /// id, so a traced query shows the per-worker clone barrier.
    pub fn snapshot_traced(&self, tag: TraceTag) -> Result<S, IngestError> {
        let _span = self
            .metrics
            .as_ref()
            .map(|m| m.snapshot_latency.start_span());
        let mut replies = Vec::with_capacity(self.senders.len());
        for (worker, tx) in self.senders.iter().enumerate() {
            let (reply_tx, reply_rx) = bounded(1);
            if tx.send(Msg::Snapshot(reply_tx, tag)).is_err() {
                return Err(IngestError::WorkerPanicked { worker });
            }
            replies.push(reply_rx);
        }
        let mut parts = Vec::with_capacity(self.senders.len());
        for (worker, rx) in replies.into_iter().enumerate() {
            parts.push(
                rx.recv()
                    .map_err(|_| IngestError::WorkerPanicked { worker })?,
            );
        }
        // Per-worker partials combine exactly like per-shard sketches
        // from remote nodes: same linearity, same entry point.
        merge_parts(parts).ok_or(IngestError::NoWorkers)
    }

    /// Stops the workers and returns the merged sketch of everything
    /// dispatched.
    ///
    /// # Errors
    /// [`IngestError::WorkerPanicked`] if a worker thread died of a panic
    /// that escaped supervision; surviving workers are still joined (no
    /// threads are leaked) but the merge is abandoned because it would
    /// silently miss the dead worker's chunks.
    pub fn finish(self) -> Result<S, IngestError> {
        drop(self.senders); // workers drain their queues and return
        let mut parts = Vec::with_capacity(self.workers.len());
        let mut lost: Option<usize> = None;
        for (worker, handle) in self.workers.into_iter().enumerate() {
            match handle.join() {
                Ok(part) => parts.push(part),
                Err(_panic) => lost = lost.or(Some(worker)),
            }
        }
        if let Some(worker) = lost {
            return Err(IngestError::WorkerPanicked { worker });
        }
        merge_parts(parts).ok_or(IngestError::NoWorkers)
    }
}

/// One-shot parallel ingest: shards `updates` into `chunk_size` batches
/// across `threads` workers and returns the merged sketch. Scoped threads,
/// so the updates are borrowed, not copied.
///
/// Bit-identical to sequential ingest of `updates` into `make()`.
pub fn ingest_parallel<S>(
    updates: &[Update],
    threads: usize,
    chunk_size: usize,
    mut make: impl FnMut() -> S,
) -> S
where
    S: LinearSynopsis + Clone + Send,
{
    assert!(threads > 0, "need at least one worker");
    assert!(chunk_size > 0, "chunk size must be nonzero");
    let sketches: Vec<S> = (0..threads).map(|_| make()).collect();
    let parts = cb_thread::scope(|scope| {
        let handles: Vec<_> = sketches
            .into_iter()
            .enumerate()
            .map(|(w, mut sketch)| {
                scope.spawn(move |_| {
                    // Worker w takes chunks w, w+threads, w+2·threads, …
                    for chunk in updates.chunks(chunk_size).skip(w).step_by(threads) {
                        sketch.update_batch(chunk);
                    }
                    sketch
                })
            })
            .collect();
        handles
            .into_iter()
            // ss-analyze: allow(a2-panic-free) -- one-shot research/bench path (not the serving pool): a worker panic here is a sketch bug and re-propagating it to the caller is the correct behaviour
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect::<Vec<S>>()
    })
    // ss-analyze: allow(a2-panic-free) -- crossbeam's scope only errs when a child panicked, which the join above already re-propagated
    .expect("ingest scope");
    // ss-analyze: allow(a2-panic-free) -- `threads > 0` is asserted at entry, so one part per worker exists
    merge_parts(parts).expect("at least one worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_model::update::StreamSink;
    use stream_sketches::{
        AgmsSchema, AgmsSketch, CountMinSchema, CountMinSketch, HashSketch, HashSketchSchema,
    };

    fn mixed_updates(n: usize) -> Vec<Update> {
        // Deterministic mixed inserts/deletes with varied weights.
        (0..n as u64)
            .map(|i| {
                let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
                let w = match i % 5 {
                    0 => -2,
                    1 => 3,
                    2 => -1,
                    3 => 7,
                    _ => 1,
                };
                Update {
                    value: v,
                    weight: w,
                }
            })
            .collect()
    }

    #[test]
    fn pool_matches_sequential_hash_sketch() {
        let schema = HashSketchSchema::new(7, 128, 3);
        let updates = mixed_updates(50_000);
        let pool = IngestPool::new(4, || HashSketch::new(schema.clone()));
        for chunk in updates.chunks(1000) {
            pool.dispatch(chunk.to_vec());
        }
        let parallel = pool.finish().expect("no worker panicked");
        let mut seq = HashSketch::new(schema);
        for &u in &updates {
            seq.update(u);
        }
        assert_eq!(parallel.counters(), seq.counters());
    }

    #[test]
    fn snapshot_is_linearizable_with_dispatch() {
        let schema = HashSketchSchema::new(5, 64, 5);
        let updates = mixed_updates(10_000);
        let pool = IngestPool::new(3, || HashSketch::new(schema.clone()));
        for chunk in updates[..5_000].chunks(500) {
            pool.dispatch(chunk.to_vec());
        }
        let snap = pool.snapshot().expect("no worker panicked");
        let mut seq_half = HashSketch::new(schema.clone());
        seq_half.update_batch(&updates[..5_000]);
        assert_eq!(snap.counters(), seq_half.counters());
        // The pool keeps going after a snapshot.
        for chunk in updates[5_000..].chunks(500) {
            pool.dispatch(chunk.to_vec());
        }
        let full = pool.finish().expect("no worker panicked");
        let mut seq_full = HashSketch::new(schema);
        seq_full.update_batch(&updates);
        assert_eq!(full.counters(), seq_full.counters());
    }

    #[test]
    fn one_shot_matches_sequential_for_agms_and_countmin() {
        let updates = mixed_updates(20_000);

        let agms_schema = AgmsSchema::new(4, 16, 7);
        let par = ingest_parallel(&updates, 4, 512, || AgmsSketch::new(agms_schema.clone()));
        let mut seq = AgmsSketch::new(agms_schema);
        for &u in &updates {
            seq.update(u);
        }
        assert_eq!(par.counters(), seq.counters());

        let cm_schema = CountMinSchema::new(4, 128, 9);
        let par = ingest_parallel(&updates, 3, 777, || CountMinSketch::new(cm_schema.clone()));
        let mut seq = CountMinSketch::new(cm_schema);
        for &u in &updates {
            seq.update(u);
        }
        assert_eq!(par.counters(), seq.counters());
    }

    #[test]
    fn single_thread_pool_degenerates_to_sequential() {
        let schema = HashSketchSchema::new(3, 32, 11);
        let updates = mixed_updates(5_000);
        let pool = IngestPool::new(1, || HashSketch::new(schema.clone()));
        pool.dispatch(updates.clone());
        let got = pool.finish().expect("no worker panicked");
        let mut seq = HashSketch::new(schema);
        seq.update_batch(&updates);
        assert_eq!(got.counters(), seq.counters());
    }

    #[test]
    fn empty_dispatches_are_ignored() {
        let schema = HashSketchSchema::new(3, 32, 13);
        let pool = IngestPool::new(2, || HashSketch::new(schema.clone()));
        pool.dispatch(Vec::new());
        let got = pool.finish().expect("no worker panicked");
        assert!(got.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn pending_chunks_drains_to_zero_after_snapshot() {
        let schema = HashSketchSchema::new(4, 64, 17);
        let updates = mixed_updates(8_000);
        let pool = IngestPool::new(2, || HashSketch::new(schema.clone()));
        assert!(pool.is_empty());
        for chunk in updates.chunks(250) {
            pool.dispatch(chunk.to_vec());
        }
        // snapshot() barriers behind every dispatched chunk, so with no
        // concurrent producers the pool is exactly drained afterwards.
        let _snap = pool.snapshot().expect("no worker panicked");
        assert_eq!(pool.pending_chunks(), 0);
        assert!(pool.is_empty());
        let _ = pool.finish().expect("no worker panicked");
    }

    #[test]
    fn try_dispatch_matches_sequential_when_accepted() {
        let schema = HashSketchSchema::new(5, 64, 19);
        let updates = mixed_updates(12_000);
        let pool = IngestPool::with_queue_depth(2, 4, || HashSketch::new(schema.clone()));
        for chunk in updates.chunks(400) {
            // Retry until accepted: equivalent to dispatch, but through
            // the non-blocking path.
            let mut chunk = chunk.to_vec();
            loop {
                match pool.try_dispatch(chunk) {
                    Ok(()) => break,
                    Err(back) => {
                        chunk = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let got = pool.finish().expect("no worker panicked");
        let mut seq = HashSketch::new(schema);
        seq.update_batch(&updates);
        assert_eq!(got.counters(), seq.counters());
    }

    /// A synopsis whose batch kernel blocks until the test releases it,
    /// so a worker can be held provably busy: each `update_batch` waits
    /// for one token (or for the sender to drop, which releases all).
    #[derive(Clone)]
    struct GatedSketch {
        inner: HashSketch,
        gate: Arc<std::sync::Mutex<std::sync::mpsc::Receiver<()>>>,
    }

    impl StreamSink for GatedSketch {
        fn update(&mut self, u: Update) {
            self.inner.update(u);
        }
        fn update_batch(&mut self, batch: &[Update]) {
            let _ = self.gate.lock().map(|rx| rx.recv());
            self.inner.update_batch(batch);
        }
    }

    impl LinearSynopsis for GatedSketch {
        fn compatible(&self, other: &Self) -> bool {
            self.inner.compatible(&other.inner)
        }
        fn merge_from(&mut self, other: &Self) {
            self.inner.merge_from(&other.inner);
        }
        fn negate(&mut self) {
            self.inner.negate();
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
    }

    #[test]
    fn try_dispatch_hands_the_chunk_back_when_saturated() {
        // The single worker blocks inside its first `update_batch` until
        // the gate opens, so it holds at most one chunk and the depth-1
        // queue at most one more: of four dispatches at least two must
        // bounce. Then open the gate and verify nothing was lost or
        // duplicated.
        let schema = HashSketchSchema::new(7, 256, 23);
        let updates = mixed_updates(120_000);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let pool = IngestPool::with_queue_depth(1, 1, || GatedSketch {
            inner: HashSketch::new(schema.clone()),
            gate: gate.clone(),
        });
        let mut rejected = 0u64;
        let mut accepted: Vec<Update> = Vec::new();
        for chunk in updates.chunks(30_000) {
            match pool.try_dispatch(chunk.to_vec()) {
                Ok(()) => accepted.extend_from_slice(chunk),
                Err(back) => {
                    assert_eq!(back, chunk.to_vec(), "rejected chunk must come back intact");
                    rejected += 1;
                }
            }
            assert!(pool.pending_chunks() <= pool.queue_capacity());
        }
        drop(release);
        let got = pool.finish().expect("no worker panicked");
        let mut seq = HashSketch::new(schema);
        seq.update_batch(&accepted);
        assert_eq!(got.inner.counters(), seq.counters());
        assert!(rejected > 0, "expected at least one Full rejection");
    }

    #[test]
    fn pool_is_shareable_across_producer_threads() {
        fn assert_sync<T: Sync>(_: &T) {}
        let schema = HashSketchSchema::new(4, 32, 29);
        let pool = IngestPool::new(2, || HashSketch::new(schema.clone()));
        assert_sync(&pool);
        let updates = mixed_updates(16_000);
        std::thread::scope(|s| {
            for half in updates.chunks(8_000) {
                let pool = &pool;
                s.spawn(move || {
                    for chunk in half.chunks(500) {
                        pool.dispatch(chunk.to_vec());
                    }
                });
            }
        });
        let got = pool.finish().expect("no worker panicked");
        let mut seq = HashSketch::new(schema);
        seq.update_batch(&updates);
        assert_eq!(got.counters(), seq.counters());
    }

    /// A synopsis that panics while absorbing a poisoned value — the
    /// supervision tests' fault injector.
    #[derive(Clone)]
    struct PanickySketch {
        inner: HashSketch,
    }

    /// Updates carrying this value blow up the batch kernel.
    const POISON: u64 = u64::MAX;

    impl StreamSink for PanickySketch {
        fn update(&mut self, u: Update) {
            assert!(u.value != POISON, "poisoned update");
            self.inner.update(u);
        }
    }

    impl LinearSynopsis for PanickySketch {
        fn compatible(&self, other: &Self) -> bool {
            self.inner.compatible(&other.inner)
        }
        fn merge_from(&mut self, other: &Self) {
            self.inner.merge_from(&other.inner);
        }
        fn negate(&mut self) {
            self.inner.negate();
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
    }

    #[test]
    fn poisoned_chunk_is_survived_and_counted() {
        let schema = HashSketchSchema::new(5, 64, 31);
        let updates = mixed_updates(9_000);
        let pool = IngestPool::new(2, || PanickySketch {
            inner: HashSketch::new(schema.clone()),
        });
        for chunk in updates[..6_000].chunks(300) {
            pool.dispatch(chunk.to_vec());
        }
        // One poisoned chunk: the worker that draws it panics inside
        // `update_batch`, is caught by supervision, and keeps serving.
        pool.dispatch(vec![Update::insert(POISON)]);
        for chunk in updates[6_000..].chunks(300) {
            pool.dispatch(chunk.to_vec());
        }
        // The pool still snapshots and finishes; everything except the
        // poisoned chunk is present.
        let snap = pool.snapshot().expect("pool serves through the panic");
        assert_eq!(pool.worker_restarts(), 1, "exactly one supervision event");
        let mut expected = HashSketch::new(schema.clone());
        expected.update_batch(&updates);
        assert_eq!(snap.inner.counters(), expected.counters());
        let fin = pool.finish().expect("supervised workers never die");
        assert_eq!(fin.inner.counters(), expected.counters());
    }

    #[test]
    fn many_poisoned_chunks_only_degrade() {
        let schema = HashSketchSchema::new(3, 32, 37);
        let updates = mixed_updates(4_000);
        let pool = IngestPool::new(3, || PanickySketch {
            inner: HashSketch::new(schema.clone()),
        });
        let mut poisons = 0u64;
        for (i, chunk) in updates.chunks(200).enumerate() {
            pool.dispatch(chunk.to_vec());
            if i % 4 == 0 {
                pool.dispatch(vec![Update::insert(POISON)]);
                poisons += 1;
            }
        }
        // Barrier behind every dispatched chunk so the restart count is
        // exact before the pool is consumed.
        let _ = pool.snapshot().expect("pool serves through the panics");
        assert_eq!(pool.worker_restarts(), poisons);
        let fin = pool.finish().expect("pool outlives every poisoned chunk");
        let mut expected = HashSketch::new(schema);
        expected.update_batch(&updates);
        assert_eq!(fin.inner.counters(), expected.counters());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_depth_rejected() {
        let schema = HashSketchSchema::new(2, 8, 1);
        let _ = IngestPool::with_queue_depth(1, 0, || HashSketch::new(schema.clone()));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let schema = HashSketchSchema::new(2, 8, 1);
        let _ = IngestPool::new(0, || HashSketch::new(schema.clone()));
    }
}
