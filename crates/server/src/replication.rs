//! Follower-side WAL replication and the primary-side poll service.
//!
//! The replication contract (DESIGN.md §12) in one paragraph: a
//! follower long-polls its primary with REPLICATE_ACK frames carrying
//! its own durable frontier `(active_segment_id, active_segment_len)`;
//! the primary answers with the next frame-aligned chunk of its WAL
//! byte stream. The follower appends the *identical* record bytes to
//! its own log under the same `segment_bytes` config, so the
//! length-driven rotation rule reproduces the primary's segment
//! boundaries and the follower's own frontier doubles as its
//! replication offset — no separate cursor state exists anywhere.
//! Because sketch ingestion is linear, applying the same batches in
//! the same order leaves the follower's sketches **bit-identical** to
//! the primary's.
//!
//! Positions the primary has pruned redirect to a snapshot bootstrap:
//! at bind time the follower adopts the snapshot into its empty log
//! (`Wal::adopt_snapshot`) and recovers from it through the normal
//! crash-recovery path; mid-run (a follower lagging past the prune
//! horizon) replication parks with `bootstrap_required` set and a
//! restart re-bootstraps.
//!
//! Neither side waits on a timer between chunks: a primary holds a
//! caught-up follower's poll open until it appends (or
//! `replication_poll` elapses, or it shuts down), and the
//! sequenced-write ack gate waits on a condvar every follower ack
//! signals.
//!
//! Fencing: replication is pull-only — REPLICATE travels primary →
//! follower as a poll reply and nowhere else, and every reply carries
//! the primary's epoch. A poll loop drops replies whose epoch is below
//! its own, so after a failover (PROMOTE bumps the epoch) a
//! network-healed ex-primary cannot feed the promoted node or any
//! follower that has learned the new epoch.

use crate::client::{ClientConfig, ServerClient};
use crate::{bump_dedup, Inner, Role, ServerConfig, ROLE_PRIMARY};
use ss_retry::{Backoff, BackoffConfig};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stream_durability::{TailChunk, Wal};
use stream_wire::{ErrorCode, Frame};

/// The fencing epoch every node is born with. The first failover
/// promotes with epoch 2.
pub(crate) const INITIAL_EPOCH: u64 = 1;

/// Shared state between the follower's poll thread and the handlers.
pub(crate) struct ReplState {
    /// The primary this follower replicates from.
    pub(crate) primary: String,
    /// Tells the poll thread to exit (shutdown, halt, or PROMOTE).
    pub(crate) stop: AtomicBool,
    /// The poll thread, joined by [`stop`](Self::stop)'s callers.
    // ss-analyze: allow(a4-blocking-hot-path) -- touched only at spawn/stop/promote, never per frame
    pub(crate) handle: Mutex<Option<JoinHandle<()>>>,
    /// Upper bound on bytes behind the primary's durable frontier.
    pub(crate) lag_bytes: AtomicU64,
    /// The primary's prune horizon passed our frontier mid-run;
    /// replication is parked and a restart must re-bootstrap.
    pub(crate) bootstrap_required: AtomicBool,
}

impl ReplState {
    pub(crate) fn new(primary: String) -> Self {
        ReplState {
            primary,
            stop: AtomicBool::new(false),
            // ss-analyze: allow(a4-blocking-hot-path) -- touched only at spawn/stop/promote, never per frame
            handle: Mutex::new(None),
            lag_bytes: AtomicU64::new(0),
            bootstrap_required: AtomicBool::new(false),
        }
    }
}

/// A follower that has not polled within this window no longer gates
/// acks: replication degrades to asynchronous rather than stalling
/// every producer behind a dead follower. The degraded window is the
/// documented durability trade (DESIGN.md §12) — losing the follower
/// *and then* the primary can lose acks issued in between.
const ATTACH_WINDOW: Duration = Duration::from_secs(2);

/// Longest a handler waits inline for the follower to confirm coverage
/// before throttling the producer instead. The batch is already
/// applied and recorded in the dedup table, so the producer's retry
/// converges to an ack once replication catches up.
const ACK_GATE_WAIT: Duration = Duration::from_millis(250);

/// Primary-side view of its follower: the highest WAL position the
/// follower has acknowledged — every poll request carries the
/// follower's own durable frontier, an implicit ack of everything
/// before it — plus when that poll arrived. Always present on `Inner`
/// (zeroed until a follower attaches); read by [`gate_ack`] to decide
/// whether a sequenced write may be acknowledged.
pub(crate) struct FollowerAck {
    /// Millis since server start of the last poll; 0 = never polled.
    polled_at_ms: AtomicU64,
    /// The acked `(segment, offset)` frontier. A tuple must move
    /// atomically (a torn read could fabricate an inflated frontier
    /// and leak an ack through the gate), hence the lock.
    // ss-analyze: allow(a4-blocking-hot-path) -- held for one tuple copy; touched once per replication poll and per gated ack check, both of which already paid a syscall
    frontier: Mutex<(u64, u64)>,
    /// Signalled whenever `frontier` advances (and at shutdown); gated
    /// acks wait on it.
    // ss-analyze: allow(a4-blocking-hot-path) -- the ack gate's wait, bounded by ACK_GATE_WAIT and the attach window
    covered: Condvar,
}

impl FollowerAck {
    pub(crate) fn new() -> Self {
        FollowerAck {
            polled_at_ms: AtomicU64::new(0),
            // ss-analyze: allow(a4-blocking-hot-path) -- see the field note: tuple atomicity, two copies per hold
            frontier: Mutex::new((0, 0)),
            // ss-analyze: allow(a4-blocking-hot-path) -- see the field note: waits are bounded by ACK_GATE_WAIT and the attach window
            covered: Condvar::new(),
        }
    }

    /// Records one follower poll: its acked frontier (kept monotone —
    /// a reordered late poll must not regress it) and the poll time,
    /// waking every gated ack the frontier now covers. Returns whether
    /// an earlier poll already acked this same frontier — the only
    /// polls a primary may hold open (a bind-time bootstrap probe, or a
    /// poll carrying a fresh ack, is answered at once).
    fn record(&self, now_ms: u64, segment: u64, offset: u64) -> bool {
        let mut acked = self.frontier.lock().unwrap_or_else(|p| p.into_inner());
        let repeat = self.polled_at_ms.load(Ordering::Acquire) != 0 && *acked == (segment, offset);
        let advanced = (segment, offset) > *acked;
        if advanced {
            *acked = (segment, offset);
        }
        self.polled_at_ms.store(now_ms.max(1), Ordering::Release);
        drop(acked);
        if advanced {
            self.covered.notify_all();
        }
        repeat
    }

    /// Wakes every gated ack so it sees a shutdown that just started
    /// (locking first, for the reason `Inner::begin_shutdown` gives).
    pub(crate) fn wake(&self) {
        drop(self.frontier.lock().unwrap_or_else(|p| p.into_inner()));
        self.covered.notify_all();
    }
}

/// The replication ack gate: on a primary with an attached follower, a
/// sequenced batch may be acknowledged only once the follower has
/// acknowledged a WAL frontier covering it. This is what makes
/// failover lossless for sequenced producers — everything a client saw
/// acked is on the follower, so the promoted follower's answers (and
/// its dedup table) already include it, and the stateless router never
/// has to replay data it does not hold.
///
/// Returns `true` when the ack may be sent; `false` when the caller
/// should throttle the producer instead (the retry re-enters through
/// the dedup path and re-checks the gate). No follower attached — none
/// configured, none has polled yet, or the last poll is older than
/// [`ATTACH_WINDOW`] — waives the gate: replication is asynchronous
/// then, and the window is the follower-loss durability trade.
///
/// The wait ends at the earliest of a covering ack (one ack releases
/// every gated batch it covers), shutdown, [`ACK_GATE_WAIT`], and the
/// moment a silent follower's attach window runs out.
pub(crate) fn gate_ack(inner: &Inner, target: (u64, u64)) -> bool {
    let ack = &inner.follower_ack;
    let polled = ack.polled_at_ms.load(Ordering::Acquire);
    if polled == 0 {
        return true;
    }
    // One millisecond past the window, so the detach check below sees
    // it expired (it compares whole milliseconds, strictly).
    let detach_at = inner.started + Duration::from_millis(polled + 1) + ATTACH_WINDOW;
    let wait = detach_at
        .saturating_duration_since(Instant::now())
        .min(ACK_GATE_WAIT);
    let acked = ack.frontier.lock().unwrap_or_else(|p| p.into_inner());
    let (acked, _) = ack
        .covered
        .wait_timeout_while(acked, wait, |acked| {
            *acked < target && !inner.shutdown.load(Ordering::Acquire)
        })
        .unwrap_or_else(|p| p.into_inner());
    if *acked >= target {
        return true;
    }
    drop(acked);
    let polled = ack.polled_at_ms.load(Ordering::Acquire);
    let now_ms = inner.started.elapsed().as_millis() as u64;
    now_ms.saturating_sub(polled) > ATTACH_WINDOW.as_millis() as u64
}

/// Starts the follower's poll thread (no-op unless `follower_of` was
/// configured, i.e. `inner.repl` is present).
pub(crate) fn spawn(inner: &Arc<Inner>) -> io::Result<()> {
    let Some(repl) = inner.repl.as_ref() else {
        return Ok(());
    };
    let thread_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name("ss-replicate".to_string())
        .spawn(move || run(&thread_inner))?;
    *repl.handle.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
    Ok(())
}

/// Stops and joins the poll thread; idempotent, no-op on primaries.
/// Bounded wait: the loop re-checks `stop` at least once per read
/// timeout.
pub(crate) fn stop(inner: &Inner) {
    let Some(repl) = inner.repl.as_ref() else {
        return;
    };
    repl.stop.store(true, Ordering::Release);
    let handle = repl.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

/// Client config for replication sessions (bootstrap probe + poll loop).
fn poll_config(config: &ServerConfig) -> ClientConfig {
    ClientConfig {
        name: "ss-replica".to_string(),
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        ..ClientConfig::default()
    }
}

/// Bind-time bootstrap: if the primary's history before our frontier
/// is pruned, adopt its snapshot into the (re-based) local log so the
/// normal recovery path seeds the sketches from it. Best-effort — an
/// unreachable primary is not an error; the poll loop will catch up
/// (or flag a resync) once it connects.
pub(crate) fn bootstrap(config: &ServerConfig, primary: &str) -> io::Result<()> {
    let Some(wal_config) = config.wal.clone() else {
        return Ok(());
    };
    let (mut wal, _recovered) = Wal::open(wal_config)?;
    let (segment, offset) = (wal.active_segment_id(), wal.active_segment_len());
    let Ok(mut client) = ServerClient::connect_with(primary, poll_config(config)) else {
        return Ok(());
    };
    if let Ok(chunk) = client.replicate_poll(INITIAL_EPOCH, segment, offset) {
        if chunk.snapshot {
            let _ = wal.adopt_snapshot(chunk.segment, &chunk.bytes)?;
            wal.sync()?;
        }
    }
    let _ = client.goodbye();
    Ok(())
}

/// Sleeps unless a stop was requested (keeps shutdown latency bounded
/// by one pause, not one backoff ladder).
fn pause(repl: &ReplState, d: Duration) {
    if repl.stop.load(Ordering::Acquire) {
        return;
    }
    // ss-analyze: allow(a4-blocking-hot-path) -- reconnect backoff on the dedicated follower thread, off the request path
    std::thread::sleep(d);
}

/// The follower's poll loop: connect, long-poll from the local durable
/// frontier, apply, repeat; reconnect with capped-jitter backoff. The
/// primary holds a caught-up poll until it has something to ship, so
/// the loop re-polls at once and pauses only to back off.
fn run(inner: &Inner) {
    let Some(repl) = inner.repl.as_ref() else {
        return;
    };
    let mut backoff = Backoff::new(&BackoffConfig::default());
    'reconnect: while !repl.stop.load(Ordering::Acquire) {
        let mut client =
            match ServerClient::connect_with(repl.primary.as_str(), poll_config(&inner.config)) {
                Ok(c) => c,
                Err(_) => {
                    pause(repl, backoff.delay());
                    continue 'reconnect;
                }
            };
        backoff.reset();
        while !repl.stop.load(Ordering::Acquire) {
            let (segment, offset) = inner.wal_frontier();
            let chunk = match client.replicate_poll(inner.epoch(), segment, offset) {
                Ok(c) => c,
                Err(_) => {
                    pause(repl, backoff.delay());
                    continue 'reconnect;
                }
            };
            if chunk.epoch < inner.epoch() {
                // A deposed primary is still answering. Drop the
                // connection and retry: the operator (or router) will
                // repoint or restart us against the new primary.
                if let Some(m) = inner.metrics {
                    m.replication_fenced.inc();
                }
                pause(repl, backoff.delay());
                continue 'reconnect;
            }
            if chunk.epoch > inner.epoch() {
                inner.epoch.store(chunk.epoch, Ordering::Release);
            }
            if chunk.snapshot {
                // Our frontier fell behind the primary's prune horizon;
                // live pools cannot adopt a snapshot, so park and ask
                // for a restart (bind-time bootstrap handles it).
                repl.bootstrap_required.store(true, Ordering::Release);
                if let Some(m) = inner.metrics {
                    m.replication_resyncs.inc();
                }
                return;
            }
            update_lag(inner, repl, chunk.frontier_segment, chunk.frontier_offset);
            if chunk.bytes.is_empty() {
                // Caught up, and the primary's hold window ran out.
                continue;
            }
            if apply_chunk(inner, chunk.segment, chunk.offset, &chunk.bytes).is_err() {
                // Positions self-correct: the next poll re-reads our
                // actual durable frontier.
                pause(repl, backoff.delay());
                continue 'reconnect;
            }
            if let Some(m) = inner.metrics {
                m.replication_chunks.inc();
            }
            update_lag(inner, repl, chunk.frontier_segment, chunk.frontier_offset);
        }
        return;
    }
}

/// Publishes the lag upper bound implied by the primary's frontier
/// `(f_seg, f_off)` versus our own.
fn update_lag(inner: &Inner, repl: &ReplState, f_seg: u64, f_off: u64) {
    let (seg, off) = inner.wal_frontier();
    let seg_bytes = inner.config.wal.as_ref().map_or(0, |w| w.segment_bytes);
    // Segments are only full up to rotation, so this over-counts
    // partially-filled ones — an upper bound, which is the safe
    // direction for a failure detector to consume.
    let lag = (f_seg as i128 - seg as i128) * seg_bytes as i128 + f_off as i128 - off as i128;
    let lag = lag.max(0).min(u64::MAX as i128) as u64;
    repl.lag_bytes.store(lag, Ordering::Release);
    if let Some(m) = inner.metrics {
        m.replication_lag_bytes.set(lag.min(i64::MAX as u64) as i64);
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Applies one frame-aligned chunk of the primary's byte stream at
/// `(segment, offset)`: per record — dispatch to the ingest pool,
/// append the identical bytes to our log, bump the idempotency table.
/// Holding the persist lock across the chunk is the same exact-cut
/// argument as the primary's write path. Returns the new frontier.
///
/// Followers deliberately never checkpoint (`maybe_checkpoint`): an
/// own-schedule snapshot would prune segments at positions the primary
/// still streams, desynchronising the byte-position contract. The
/// follower's log is pruned by the snapshot it adopts at (re)bind.
fn apply_chunk(inner: &Inner, segment: u64, offset: u64, bytes: &[u8]) -> io::Result<(u64, u64)> {
    let metrics = inner.metrics;
    let mut persist = inner.persist.lock().unwrap_or_else(|p| p.into_inner());
    {
        let wal = persist
            .wal
            .as_mut()
            .ok_or_else(|| bad_data("replication apply without a WAL".to_string()))?;
        if segment > wal.active_segment_id() {
            // The primary advanced past a sealed segment (an early
            // rotation our length rule cannot reproduce): follow it.
            wal.rotate_to(segment)?;
        }
        let at = (wal.active_segment_id(), wal.active_segment_len());
        if at != (segment, offset) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk at {segment}:{offset} does not chain onto frontier {at:?}"),
            ));
        }
    }
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = bytes
            .get(at..)
            .ok_or_else(|| bad_data("chunk cursor out of range".to_string()))?;
        let (frame, n) = Frame::decode(rest, inner.config.max_payload)
            .map_err(|e| bad_data(format!("undecodable replicated record: {e}")))?;
        let record = rest
            .get(..n)
            .ok_or_else(|| bad_data("record length out of range".to_string()))?;
        let Frame::UpdateBatch {
            stream,
            client_id,
            seq,
            updates,
        } = frame
        else {
            return Err(bad_data(format!(
                "non-UPDATE_BATCH record in replication stream (kind {})",
                record.get(4).copied().unwrap_or(0)
            )));
        };
        let accepted = updates.len() as u64;
        // Replicated records were already admitted by the primary, so
        // a full queue is waited out, not refused: THROTTLE has no
        // meaning on a stream that was acknowledged once already. The
        // workers outlive this thread (shutdown and halt stop it first).
        inner.pool(stream).dispatch(updates);
        {
            let wal = persist
                .wal
                .as_mut()
                .ok_or_else(|| bad_data("replication apply without a WAL".to_string()))?;
            wal.append_encoded(record)?;
        }
        if client_id != 0 && seq != 0 {
            bump_dedup(&mut persist, client_id, stream, seq);
        }
        if let Some(m) = metrics {
            m.updates_accepted.add(accepted);
            m.wal_appends.inc();
            m.wal_bytes.add(record.len() as u64);
            m.replication_applied.inc();
        }
        at = at.saturating_add(n);
    }
    let wal = persist
        .wal
        .as_ref()
        .ok_or_else(|| bad_data("replication apply without a WAL".to_string()))?;
    Ok((wal.active_segment_id(), wal.active_segment_len()))
}

/// Serves one follower poll: the next chunk of this primary's log from
/// `(segment, offset)`, stamped with our epoch and durable frontier.
pub(crate) fn serve_poll(
    inner: &Inner,
    segment: u64,
    offset: u64,
) -> Result<Frame, (ErrorCode, String)> {
    if inner.role() != Role::Primary {
        return Err((
            ErrorCode::NotPrimary,
            "not a primary: replication polls go to the primary".to_string(),
        ));
    }
    let Some(tailer) = inner.tailer.as_ref() else {
        return Err((
            ErrorCode::Protocol,
            "no WAL configured: nothing to replicate".to_string(),
        ));
    };
    // The poll's position is the follower's durable frontier — an
    // implicit ack of everything before it. Recording it is what arms
    // (and advances) the sequenced-write ack gate.
    let now_ms = inner.started.elapsed().as_millis() as u64;
    let may_hold = inner.follower_ack.record(now_ms, segment, offset);
    let read = || {
        tailer
            .read_from(segment, offset)
            .map_err(|e| (ErrorCode::Internal, format!("replication tail failed: {e}")))
    };
    let mut frontier = inner.wal_frontier();
    let mut chunk = read()?;
    if may_hold && chunk == TailChunk::CaughtUp {
        frontier = hold_until_append(inner, frontier);
        chunk = read()?;
    }
    let (frontier_segment, frontier_offset) = frontier;
    let epoch = inner.epoch();
    Ok(match chunk {
        TailChunk::Records {
            segment,
            offset,
            bytes,
        } => Frame::Replicate {
            epoch,
            segment,
            offset,
            snapshot: false,
            frontier_segment,
            frontier_offset,
            bytes,
        },
        TailChunk::Snapshot { snap_id, bytes } => Frame::Replicate {
            epoch,
            segment: snap_id,
            offset: 0,
            snapshot: true,
            frontier_segment,
            frontier_offset,
            bytes,
        },
        TailChunk::CaughtUp => Frame::Replicate {
            epoch,
            segment,
            offset,
            snapshot: false,
            frontier_segment,
            frontier_offset,
            bytes: Vec::new(),
        },
    })
}

/// Holds a caught-up poll until the durable frontier moves off `seen`
/// (the value read before the tail came back empty, so an append in
/// between ends the hold at once), shutdown starts, or
/// `replication_poll` elapses. Returns the frontier at wake-up.
///
/// `seen` rather than the poll's own position: after a rotation (a
/// seal or a checkpoint) the frontier sits past a caught-up follower's
/// position with nothing new to ship, and the hold must still wait.
fn hold_until_append(inner: &Inner, seen: (u64, u64)) -> (u64, u64) {
    let persist = inner.persist.lock().unwrap_or_else(|p| p.into_inner());
    let (persist, _) = inner
        .appended
        .wait_timeout_while(persist, inner.config.replication_poll, |p| {
            p.frontier() == seen && !inner.shutdown.load(Ordering::Acquire)
        })
        .unwrap_or_else(|p| p.into_inner());
    persist.frontier()
}

/// Handles PROMOTE: fence-check the epoch, quiesce the poll loop, seal
/// the replicated prefix, and start serving writes under the new epoch.
///
/// The applied state equals the durable frontier by construction once
/// the poll thread is joined — every record is dispatched and appended
/// under one persist-lock critical section — so "verify the frontier"
/// reduces to refusing promotion while a re-bootstrap is pending.
pub(crate) fn promote(inner: &Inner, epoch: u64) -> Result<u64, (ErrorCode, String)> {
    let current = inner.epoch();
    if epoch <= current {
        if inner.role() == Role::Primary && epoch == current {
            // A retried PROMOTE (the first ack was lost): idempotent.
            return Ok(current);
        }
        if let Some(m) = inner.metrics {
            m.replication_fenced.inc();
        }
        return Err((
            ErrorCode::Fenced,
            format!("promote epoch {epoch} is fenced: current epoch is {current}"),
        ));
    }
    if inner
        .repl
        .as_ref()
        .is_some_and(|r| r.bootstrap_required.load(Ordering::Acquire))
    {
        return Err((
            ErrorCode::Internal,
            "follower state is incomplete (re-bootstrap pending); refusing promotion".to_string(),
        ));
    }
    // Quiesce: after the join no replication apply is in flight, so the
    // sketches, the dedup table, and the log agree.
    stop(inner);
    {
        let mut persist = inner.persist.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(wal) = persist.wal.as_mut() {
            wal.seal()
                .and_then(|()| wal.sync())
                .map_err(|e| (ErrorCode::Internal, format!("seal failed: {e}")))?;
        }
    }
    inner.epoch.store(epoch, Ordering::Release);
    inner.role.store(ROLE_PRIMARY, Ordering::Release);
    if let Some(repl) = inner.repl.as_ref() {
        repl.lag_bytes.store(0, Ordering::Release);
    }
    if let Some(m) = inner.metrics {
        m.replication_promotions.inc();
        m.replication_lag_bytes.set(0);
    }
    Ok(epoch)
}
