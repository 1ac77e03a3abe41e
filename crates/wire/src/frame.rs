//! Frame types and their payload codecs.
//!
//! Every frame is a 20-byte CRC-checked header followed by a payload
//! whose layout depends on the frame kind (see the crate docs for the
//! full grammar). Fixed-width integers are little-endian; counts and
//! values are varints, weights zigzag varints, all through
//! `stream_model::codec` — the one codec the trace and sketch formats
//! use too. Its [`Reader`] fails with a typed error instead of
//! panicking, so every payload decoder here is panic-free.

use crate::crc::crc32;
use crate::{WireError, HEADER_LEN, MAGIC, VERSION};
use std::io::{self, Read, Write};
use stream_model::codec::{put_varint, unzigzag, zigzag, Reader};
use stream_model::update::Update;

/// Which of the server's two update streams a frame refers to.
///
/// The paper's estimand is `COUNT(F ⋈ G)`: the server maintains one
/// skimmed sketch per side of the join and update/query frames address
/// them by this tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StreamId {
    /// The left join input `F`.
    F = 0,
    /// The right join input `G`.
    G = 1,
}

impl StreamId {
    /// Both stream tags, in wire order.
    pub const ALL: [StreamId; 2] = [StreamId::F, StreamId::G];

    /// Decodes a wire tag.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(StreamId::F),
            1 => Ok(StreamId::G),
            _ => Err(WireError::BadPayload("unknown stream id")),
        }
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamId::F => write!(f, "F"),
            StreamId::G => write!(f, "G"),
        }
    }
}

/// Flags-byte bit: the payload is prefixed by a 16-byte trace context
/// ([`TraceContext`]) — `trace_id u64-le` then `span_id u64-le` — before
/// the kind-specific payload body. Both CRCs cover the prefix. Readers
/// that predate the extension reject the bit with
/// [`WireError::BadFlags`]; writers therefore only set it when the peer
/// is known to understand it (for a server: when the request carried it).
pub const FLAG_TRACE: u8 = 0x01;

/// All flag bits this build understands; anything else is `BadFlags`.
const KNOWN_FLAGS: u8 = FLAG_TRACE;

/// The causal trace context a frame may carry (see [`FLAG_TRACE`]).
///
/// `trace_id` names the end-to-end request trace; `span_id` is the
/// sender's span at the moment the frame was written, which the receiver
/// uses as the parent of the spans it records while handling the frame.
/// Plain data at this layer — the semantics live in `ss-trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// End-to-end trace identity (non-zero by convention).
    pub trace_id: u64,
    /// The sender's current span, parent for the receiver's spans.
    pub span_id: u64,
}

impl TraceContext {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.span_id.to_le_bytes());
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceContext {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        })
    }
}

/// Section bits for [`Frame::Inspect`]: metrics + histogram snapshot.
pub const INSPECT_METRICS: u8 = 0x01;
/// Section bits for [`Frame::Inspect`]: recent flight-recorder events.
pub const INSPECT_EVENTS: u8 = 0x02;
/// Section bits for [`Frame::Inspect`]: the slow-query log.
pub const INSPECT_SLOW: u8 = 0x04;
/// Section bits for [`Frame::Inspect`]: the online accuracy audit.
pub const INSPECT_AUDIT: u8 = 0x08;
/// All sections, the common client default.
pub const INSPECT_ALL: u8 = INSPECT_METRICS | INSPECT_EVENTS | INSPECT_SLOW | INSPECT_AUDIT;

/// One flight-recorder event as carried by [`Frame::InspectReply`].
///
/// `phase` and `kind` are opaque codes at this layer (`ss-trace` defines
/// the enums); the wire only promises to carry them faithfully so a
/// client can merge server events with its own and export Chrome trace
/// JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpanEvent {
    /// Nanoseconds since the recorder's epoch (per-process monotonic).
    pub ts_ns: u64,
    /// Trace this event belongs to (0 = untraced background work).
    pub trace_id: u64,
    /// The event's own span id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Phase code (`ss-trace::Phase`).
    pub phase: u8,
    /// Event kind code: 0 = span begin, 1 = span end, 2 = instant.
    pub kind: u8,
    /// Recorder thread index the event was written from.
    pub thread: u32,
    /// Free-form argument (batch length, payload bytes, …).
    pub arg: u64,
}

/// One slow-query log entry carried by [`Frame::InspectReply`]: the
/// per-phase latency anatomy of a request that exceeded the server's
/// configured threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Nanoseconds since server start when the request finished.
    pub ts_ns: u64,
    /// Trace id if the request carried one, else 0.
    pub trace_id: u64,
    /// The request's frame-kind tag (e.g. 5 = QUERY_JOIN).
    pub kind: u8,
    /// End-to-end handler time.
    pub total_ns: u64,
    /// Time acquiring linearizable sketch snapshots.
    pub snapshot_ns: u64,
    /// Time in the estimator (skim + sub-join sum).
    pub estimate_ns: u64,
    /// Time encoding and writing the reply.
    pub encode_ns: u64,
}

/// The online §5.1 accuracy audit summary carried by
/// [`Frame::InspectReply`]: exact counts of a deterministic key sample
/// vs the skimmed sketch's point estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditSummary {
    /// Distinct sampled keys currently tracked.
    pub sampled_keys: u64,
    /// Estimate/exact comparisons performed in this audit pass.
    pub comparisons: u64,
    /// Mean absolute ratio error over the comparisons.
    pub mean_ratio_error: f64,
    /// Median ratio error.
    pub p50: f64,
    /// 95th-percentile ratio error.
    pub p95: f64,
    /// 99th-percentile ratio error.
    pub p99: f64,
    /// Worst ratio error observed in this pass.
    pub max: f64,
    /// The key with the worst ratio error.
    pub worst_value: u64,
}

/// The full introspection snapshot carried by [`Frame::InspectReply`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InspectReport {
    /// Nanoseconds the server has been up.
    pub uptime_ns: u64,
    /// The telemetry registry rendered as JSON lines (empty when the
    /// server was built with telemetry compiled out or the section was
    /// not requested).
    pub metrics_json: String,
    /// Most recent flight-recorder events, oldest first.
    pub events: Vec<WireSpanEvent>,
    /// Slow-query log entries, oldest first.
    pub slow: Vec<SlowQueryEntry>,
    /// Online accuracy audit, when requested and enabled.
    pub audit: Option<AuditSummary>,
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or unexpected frame (e.g. a request before HELLO).
    Protocol,
    /// A stream tag the server does not serve.
    UnknownStream,
    /// UPDATE_BATCH larger than the advertised `max_batch`.
    BatchTooLarge,
    /// The server is draining; reconnect later.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
    /// HELLO offered a protocol version outside the server's accepted
    /// range. Terminal for the session; the message names both sides'
    /// versions so mixed v2/v3 fleets fail loud during rollout.
    UnsupportedVersion,
    /// A cluster query cannot be answered completely: a shard is down
    /// past the router's retry budget. The message names the missing
    /// partition. Returned *instead of* a silently under-counted answer.
    ShardUnavailable,
    /// A client write (UPDATE_BATCH) reached a replication follower.
    /// Followers apply only replicated records; the message names the
    /// primary the client should talk to (via the router's manifest).
    NotPrimary,
    /// A replication write carried a stale fencing epoch: the sender is
    /// an ex-primary that was failed over past. Terminal for the
    /// sender's replication session — it must not retry under that
    /// epoch.
    Fenced,
    /// A code this build does not know (forward compatibility).
    Other(u16),
}

impl ErrorCode {
    /// Wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::UnknownStream => 2,
            ErrorCode::BatchTooLarge => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::Internal => 5,
            ErrorCode::UnsupportedVersion => 6,
            ErrorCode::ShardUnavailable => 7,
            ErrorCode::NotPrimary => 8,
            ErrorCode::Fenced => 9,
            ErrorCode::Other(c) => c,
        }
    }

    /// Decodes a wire code; unknown codes are preserved, not rejected.
    pub fn from_u16(c: u16) -> Self {
        match c {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownStream,
            3 => ErrorCode::BatchTooLarge,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Internal,
            6 => ErrorCode::UnsupportedVersion,
            7 => ErrorCode::ShardUnavailable,
            8 => ErrorCode::NotPrimary,
            9 => ErrorCode::Fenced,
            other => ErrorCode::Other(other),
        }
    }
}

/// One shard in a [`ShardMapInfo`] manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard server's address, as the router dials it.
    pub addr: String,
    /// Whether the router currently considers the shard healthy (its
    /// last interaction succeeded within the retry budget).
    pub healthy: bool,
    /// The shard's standby follower address (empty = no follower
    /// configured for this partition).
    pub follower: String,
    /// Approximate replication lag of the follower in WAL bytes, from
    /// the router's last heartbeat round (0 when no follower, or when
    /// the follower is fully caught up).
    pub lag_bytes: u64,
}

/// The router's versioned cluster manifest, served via
/// [`Frame::ShardMap`].
///
/// Keys are assigned to shard `i` iff the 2^61−1 pairwise hash family
/// seeded with `seed` buckets them to `i` over range `shards.len()` —
/// carrying `seed` in the manifest lets any client recompute the
/// partition function. `version` starts at 1 and increments whenever
/// the shard set changes; a request frame carries `version == 0` and an
/// empty shard list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMapInfo {
    /// Manifest version (`0` marks a request).
    pub version: u64,
    /// Seed of the partitioning hash.
    pub seed: u64,
    /// The shard set, in partition order (index = partition id).
    pub shards: Vec<ShardEntry>,
}

/// [`Frame::ShardQuery`] stream-selection bit: include stream `F`.
pub const SHARD_STREAM_F: u8 = 0x01;
/// [`Frame::ShardQuery`] stream-selection bit: include stream `G`.
pub const SHARD_STREAM_G: u8 = 0x02;
/// Both streams in one SHARD_QUERY round trip.
pub const SHARD_STREAM_BOTH: u8 = SHARD_STREAM_F | SHARD_STREAM_G;

/// The schema and limits a server advertises in [`Frame::HelloAck`].
///
/// Carrying the full synopsis shape in the handshake means a client can
/// rebuild an identical local `SkimmedSchema` — required both to decode
/// SNAPSHOT replies and to reason about what the server's estimates mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// `log2` of the value domain size.
    pub domain_log2: u16,
    /// `true` when the server skims via dyadic levels, `false` for the
    /// naive-scan strategy.
    pub dyadic: bool,
    /// Hash tables per sketch (`s1`).
    pub tables: u32,
    /// Buckets per table (`b`).
    pub buckets: u32,
    /// Root seed of the hash families.
    pub seed: u64,
    /// Largest number of updates accepted in one UPDATE_BATCH.
    pub max_batch: u32,
    /// The ingest pool's queue capacity in chunks; once `pending` reaches
    /// this, batches bounce with THROTTLE.
    pub queue_limit: u32,
}

/// A protocol frame.
///
/// The request/response pairing is strict: every client request receives
/// exactly one reply frame (possibly [`Frame::Throttle`] or
/// [`Frame::Error`]), so a connection never has more than one request in
/// flight and framing errors cannot silently desynchronise the two sides.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: opens a session. `protocol` is the highest wire
    /// version the client speaks; `client` is a free-form name for logs.
    Hello {
        /// Highest protocol version the client understands.
        protocol: u16,
        /// Client name recorded in server logs/telemetry.
        client: String,
    },
    /// Server → client: accepts the session and advertises the synopsis
    /// schema plus serving limits.
    HelloAck(ServerInfo),
    /// Client → server: a chunk of updates for one stream.
    ///
    /// `client_id`/`seq` make batches **idempotent**: a server that has
    /// already applied `(client_id, stream, seq)` acknowledges a resend
    /// without applying it again, so a client that lost a BATCH_ACK to a
    /// crash or disconnect can safely replay. `client_id = 0` opts out of
    /// sequencing (the server applies unconditionally and keeps no state).
    UpdateBatch {
        /// Which join input the updates belong to.
        stream: StreamId,
        /// Stable producer identity for dedup; `0` = unsequenced.
        client_id: u64,
        /// Per-`(client_id, stream)` batch sequence number, starting at 1
        /// and incremented only after the batch is acknowledged.
        seq: u64,
        /// The updates, in stream order.
        updates: Vec<Update>,
    },
    /// Server → client: the batch was queued for ingestion.
    BatchAck {
        /// Number of updates accepted (echo of the batch length).
        accepted: u64,
    },
    /// Client → server: estimate `COUNT(F ⋈ G)` from linearizable
    /// snapshots of both sketches.
    QueryJoin,
    /// Client → server: estimate the self-join size (second moment) of
    /// one stream.
    QuerySelfJoin {
        /// The stream to estimate.
        stream: StreamId,
    },
    /// Server → client: an estimate, with the ESTSKIMJOINSIZE sub-join
    /// anatomy (zeros where a sub-join does not apply, e.g. self-joins).
    Answer {
        /// The estimate itself.
        estimate: f64,
        /// Exact dense⋈dense term.
        dense_dense: f64,
        /// Estimated dense⋈sparse term.
        dense_sparse: f64,
        /// Estimated sparse⋈dense term.
        sparse_dense: f64,
        /// Estimated sparse⋈sparse term.
        sparse_sparse: f64,
        /// Dense values skimmed from `F`.
        dense_f: u64,
        /// Dense values skimmed from `G`.
        dense_g: u64,
    },
    /// Client → server: ship a linearizable snapshot of one stream's full
    /// skimmed sketch.
    Snapshot {
        /// The stream to snapshot.
        stream: StreamId,
    },
    /// Server → client: the encoded sketch (the `skimmed-sketch` codec's
    /// self-describing format, opaque at this layer).
    SnapshotReply {
        /// The snapshotted stream.
        stream: StreamId,
        /// `encode_skimmed` bytes.
        sketch: Vec<u8>,
    },
    /// Server → client: the ingest queue is full; the batch was **not**
    /// queued. Resend after backing off.
    Throttle {
        /// Chunks pending in the pool when the batch bounced.
        pending: u64,
        /// The pool's queue capacity in chunks.
        limit: u64,
    },
    /// Either direction: a terminal error for the current request or, for
    /// protocol-level failures, the session.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
    /// Client → server: clean session end. The server echoes it back
    /// after its last reply so the client can confirm a drained close.
    Goodbye,
    /// Client → server: after a reconnect, ask how far the server has
    /// durably applied this producer's sequenced batches, so the client
    /// can replay from the first unacknowledged batch instead of either
    /// resending everything or losing the tail.
    Resume {
        /// The producer identity whose progress is being queried.
        client_id: u64,
    },
    /// Server → client: the highest applied sequence number per stream
    /// for the queried `client_id` (`0` = nothing applied / unknown
    /// client — replay from the start).
    ResumeAck {
        /// Highest applied `seq` for stream `F`.
        last_seq_f: u64,
        /// Highest applied `seq` for stream `G`.
        last_seq_g: u64,
    },
    /// Client → server: ask for a live introspection snapshot.
    Inspect {
        /// Bitmask of sections to include (`INSPECT_*`).
        sections: u8,
        /// Cap on flight-recorder events returned (0 = server default).
        last_events: u32,
        /// Cap on slow-query entries returned (0 = server default).
        slow_limit: u32,
    },
    /// Server → client: the introspection snapshot (boxed: the report is
    /// much larger than any other frame body).
    InspectReply(Box<InspectReport>),
    /// Both directions (protocol ≥ 3): the cluster manifest. A client
    /// sends a request (`version == 0`, no shards) to a router; the
    /// router replies with its current versioned [`ShardMapInfo`].
    ShardMap(ShardMapInfo),
    /// Router → shard (protocol ≥ 3): fetch the shard's raw encoded
    /// sketch state for the selected streams in one round trip.
    ShardQuery {
        /// Bitmask of streams to ship ([`SHARD_STREAM_F`] |
        /// [`SHARD_STREAM_G`]).
        streams: u8,
    },
    /// Shard → router (protocol ≥ 3): the linearizable encoded sketches
    /// for the streams requested. A stream whose bit is clear in
    /// `streams` has an empty byte vector here and must be ignored.
    ShardQueryReply {
        /// Echo of the request's stream bitmask.
        streams: u8,
        /// `encode_skimmed` bytes for stream `F` (empty if not asked).
        sketch_f: Vec<u8>,
        /// `encode_skimmed` bytes for stream `G` (empty if not asked).
        sketch_g: Vec<u8>,
    },
    /// Primary → follower (protocol ≥ 3): a chunk of the primary's WAL
    /// byte stream starting at `(segment, offset)`. `bytes` holds
    /// verbatim `Frame::encode` WAL records cut at a frame boundary —
    /// or, when `snapshot` is set, one encoded snapshot blob that
    /// bootstraps a follower whose requested position was pruned
    /// (`segment` then names the snapshot id, `offset` is 0, and the
    /// follower resumes the byte stream at `(segment, 0)`).
    /// `frontier_segment`/`frontier_offset` carry the primary's durable
    /// frontier at send time so the follower can compute its lag. An
    /// empty `bytes` with `snapshot` clear means "caught up". Sent as a
    /// poll reply to [`Frame::ReplicateAck`], and checked against the
    /// receiver's fencing epoch in both directions.
    Replicate {
        /// Sender's fencing epoch.
        epoch: u64,
        /// WAL segment id this chunk starts in (or the snapshot id).
        segment: u64,
        /// Byte offset within `segment` this chunk starts at.
        offset: u64,
        /// `true`: `bytes` is a snapshot blob, not WAL records.
        snapshot: bool,
        /// Primary's durable frontier: active segment id.
        frontier_segment: u64,
        /// Primary's durable frontier: active segment length.
        frontier_offset: u64,
        /// The chunk itself.
        bytes: Vec<u8>,
    },
    /// Follower → primary (protocol ≥ 3): the follower's durable
    /// replication frontier — everything strictly before
    /// `(segment, offset)` in the primary's WAL byte stream is applied
    /// and fsync-visible on the follower. Doubles as the poll request
    /// for the next [`Frame::Replicate`] chunk from that position.
    ReplicateAck {
        /// Follower's fencing epoch (the highest it has adopted).
        epoch: u64,
        /// Next WAL segment id the follower needs.
        segment: u64,
        /// Next byte offset within `segment` the follower needs.
        offset: u64,
    },
    /// Both directions (protocol ≥ 3): liveness probe. The request
    /// carries the sender's epoch and zeros; the reply carries the
    /// responder's epoch, role, and durable WAL frontier, which the
    /// router's failure detector and replica-lag gauges feed on.
    Heartbeat {
        /// Sender's fencing epoch (requests may send 0 = unknown).
        epoch: u64,
        /// `true` when the responder is serving as primary.
        primary: bool,
        /// Responder's durable frontier: active segment id.
        segment: u64,
        /// Responder's durable frontier: active segment length.
        offset: u64,
    },
    /// Router → follower (protocol ≥ 3): assume the primary role under
    /// the given fencing epoch (strictly greater than any epoch the
    /// follower has seen). The follower seals its WAL, verifies its
    /// replication frontier, starts accepting writes, and echoes the
    /// frame back as the acknowledgement.
    Promote {
        /// The new fencing epoch the promoted primary serves under.
        epoch: u64,
    },
}

/// Wire tags for [`Frame`] kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Hello = 1,
    HelloAck = 2,
    UpdateBatch = 3,
    BatchAck = 4,
    QueryJoin = 5,
    QuerySelfJoin = 6,
    Answer = 7,
    Snapshot = 8,
    SnapshotReply = 9,
    Throttle = 10,
    Error = 11,
    Goodbye = 12,
    Resume = 13,
    ResumeAck = 14,
    Inspect = 15,
    InspectReply = 16,
    ShardMap = 17,
    ShardQuery = 18,
    ShardQueryReply = 19,
    Replicate = 20,
    ReplicateAck = 21,
    Heartbeat = 22,
    Promote = 23,
}

impl Kind {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => Kind::Hello,
            2 => Kind::HelloAck,
            3 => Kind::UpdateBatch,
            4 => Kind::BatchAck,
            5 => Kind::QueryJoin,
            6 => Kind::QuerySelfJoin,
            7 => Kind::Answer,
            8 => Kind::Snapshot,
            9 => Kind::SnapshotReply,
            10 => Kind::Throttle,
            11 => Kind::Error,
            12 => Kind::Goodbye,
            13 => Kind::Resume,
            14 => Kind::ResumeAck,
            15 => Kind::Inspect,
            16 => Kind::InspectReply,
            17 => Kind::ShardMap,
            18 => Kind::ShardQuery,
            19 => Kind::ShardQueryReply,
            20 => Kind::Replicate,
            21 => Kind::ReplicateAck,
            22 => Kind::Heartbeat,
            23 => Kind::Promote,
            other => return Err(WireError::BadKind(other)),
        })
    }
}

// ---------------------------------------------------------------------
// payload primitives
// ---------------------------------------------------------------------

fn read_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = r.varint()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload("invalid utf-8"))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// frame codec
// ---------------------------------------------------------------------

/// Serialises the UPDATE_BATCH payload body (shared between
/// [`Frame::encode`] and [`encode_update_batch`], so the two are
/// byte-identical by construction).
fn update_batch_payload(
    out: &mut Vec<u8>,
    stream: StreamId,
    client_id: u64,
    seq: u64,
    updates: &[Update],
) {
    out.push(stream as u8);
    put_varint(out, client_id);
    put_varint(out, seq);
    put_varint(out, updates.len() as u64);
    for u in updates {
        put_varint(out, u.value);
        put_varint(out, zigzag(u.weight));
    }
}

/// Serialises the INSPECT_REPLY payload body.
fn inspect_report_payload(out: &mut Vec<u8>, report: &InspectReport) {
    put_varint(out, report.uptime_ns);
    put_string(out, &report.metrics_json);
    put_varint(out, report.events.len() as u64);
    for e in &report.events {
        put_varint(out, e.ts_ns);
        out.extend_from_slice(&e.trace_id.to_le_bytes());
        out.extend_from_slice(&e.span_id.to_le_bytes());
        out.extend_from_slice(&e.parent_id.to_le_bytes());
        out.push(e.phase);
        out.push(e.kind);
        put_varint(out, e.thread as u64);
        put_varint(out, e.arg);
    }
    put_varint(out, report.slow.len() as u64);
    for s in &report.slow {
        put_varint(out, s.ts_ns);
        out.extend_from_slice(&s.trace_id.to_le_bytes());
        out.push(s.kind);
        put_varint(out, s.total_ns);
        put_varint(out, s.snapshot_ns);
        put_varint(out, s.estimate_ns);
        put_varint(out, s.encode_ns);
    }
    match &report.audit {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_varint(out, a.sampled_keys);
            put_varint(out, a.comparisons);
            for v in [a.mean_ratio_error, a.p50, a.p95, a.p99, a.max] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            put_varint(out, a.worst_value);
        }
    }
}

/// Decodes the INSPECT_REPLY payload body. Declared counts are bounded
/// by the remaining payload before any allocation (every element needs
/// at least one byte), mirroring the UPDATE_BATCH guard.
fn decode_inspect_report(r: &mut Reader<'_>) -> Result<InspectReport, WireError> {
    let uptime_ns = r.varint()?;
    let metrics_json = read_string(r)?;
    let n_events = r.varint()? as usize;
    if n_events > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(WireSpanEvent {
            ts_ns: r.varint()?,
            trace_id: r.u64()?,
            span_id: r.u64()?,
            parent_id: r.u64()?,
            phase: r.u8()?,
            kind: r.u8()?,
            thread: u32::try_from(r.varint()?)
                .map_err(|_| WireError::BadPayload("event thread index overflows u32"))?,
            arg: r.varint()?,
        });
    }
    let n_slow = r.varint()? as usize;
    if n_slow > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut slow = Vec::with_capacity(n_slow);
    for _ in 0..n_slow {
        slow.push(SlowQueryEntry {
            ts_ns: r.varint()?,
            trace_id: r.u64()?,
            kind: r.u8()?,
            total_ns: r.varint()?,
            snapshot_ns: r.varint()?,
            estimate_ns: r.varint()?,
            encode_ns: r.varint()?,
        });
    }
    let audit = match r.u8()? {
        0 => None,
        1 => Some(AuditSummary {
            sampled_keys: r.varint()?,
            comparisons: r.varint()?,
            mean_ratio_error: r.f64()?,
            p50: r.f64()?,
            p95: r.f64()?,
            p99: r.f64()?,
            max: r.f64()?,
            worst_value: r.varint()?,
        }),
        _ => return Err(WireError::BadPayload("bad audit presence tag")),
    };
    Ok(InspectReport {
        uptime_ns,
        metrics_json,
        events,
        slow,
        audit,
    })
}

/// Builds the 20-byte dual-CRC header for a finished payload.
/// Panic-free by construction: every byte lands by destructuring and
/// array literals, with no index expression anywhere.
fn header_bytes(kind: Kind, flags: u8, payload: &[u8]) -> [u8; HEADER_LEN] {
    let [m0, m1, m2, m3] = *MAGIC;
    let [v0, v1] = VERSION.to_le_bytes();
    let [l0, l1, l2, l3] = (payload.len() as u32).to_le_bytes();
    let [p0, p1, p2, p3] = crc32(payload).to_le_bytes();
    // The 16 bytes the header CRC covers.
    let checked = [
        m0, m1, m2, m3, v0, v1, kind as u8, flags, l0, l1, l2, l3, p0, p1, p2, p3,
    ];
    let [h0, h1, h2, h3] = crc32(&checked).to_le_bytes();
    let [m0, m1, m2, m3, v0, v1, k, f, l0, l1, l2, l3, p0, p1, p2, p3] = checked;
    [
        m0, m1, m2, m3, v0, v1, k, f, l0, l1, l2, l3, p0, p1, p2, p3, h0, h1, h2, h3,
    ]
}

/// Wraps a finished payload in the dual-CRC frame header.
fn assemble(kind: Kind, flags: u8, payload: Vec<u8>) -> Vec<u8> {
    let header = header_bytes(kind, flags, &payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(&payload);
    out
}

/// Flags byte plus trace-context prefix for an outgoing payload.
fn traced_payload_prefix(ctx: Option<TraceContext>) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    match ctx {
        None => (0, out),
        Some(c) => {
            c.put(&mut out);
            (FLAG_TRACE, out)
        }
    }
}

/// Encodes an UPDATE_BATCH frame from borrowed parts — byte-identical
/// to `Frame::UpdateBatch { .. }.encode()` without taking ownership of
/// the updates. The serving layer uses this to write the WAL record and
/// then hand the same vector to ingest without a clone.
pub fn encode_update_batch(
    stream: StreamId,
    client_id: u64,
    seq: u64,
    updates: &[Update],
) -> Vec<u8> {
    let mut payload = Vec::new();
    update_batch_payload(&mut payload, stream, client_id, seq, updates);
    assemble(Kind::UpdateBatch, 0, payload)
}

/// Writes an UPDATE_BATCH frame from borrowed parts straight to `w` —
/// byte-identical on the wire to `Frame::UpdateBatch { .. }.write_to(w)`
/// without taking ownership of (or cloning) the updates. The client's
/// batch send path uses this so each batch is serialised exactly once.
pub fn write_update_batch<W: Write>(
    w: &mut W,
    stream: StreamId,
    client_id: u64,
    seq: u64,
    updates: &[Update],
) -> io::Result<usize> {
    write_update_batch_traced(w, stream, client_id, seq, updates, None)
}

/// [`write_update_batch`] with an optional trace context. With
/// `ctx = None` the wire bytes are identical to the untraced writer.
pub fn write_update_batch_traced<W: Write>(
    w: &mut W,
    stream: StreamId,
    client_id: u64,
    seq: u64,
    updates: &[Update],
    ctx: Option<TraceContext>,
) -> io::Result<usize> {
    let (flags, mut payload) = traced_payload_prefix(ctx);
    update_batch_payload(&mut payload, stream, client_id, seq, updates);
    write_frame_vectored(w, Kind::UpdateBatch, flags, &payload)
}

/// One vectored write of header + payload (short writes completed, EINTR
/// retried), returning the total wire length.
fn write_frame_vectored<W: Write>(
    w: &mut W,
    kind: Kind,
    flags: u8,
    payload: &[u8],
) -> io::Result<usize> {
    let header = header_bytes(kind, flags, payload);
    let total = HEADER_LEN + payload.len();
    let mut written = 0usize;
    while written < total {
        let res = if written < HEADER_LEN {
            w.write_vectored(&[
                // ss-analyze: allow(a2-panic-free) -- `written < HEADER_LEN` in this branch, so the range start is within the 20-byte header
                io::IoSlice::new(&header[written..]),
                io::IoSlice::new(payload),
            ])
        } else {
            // ss-analyze: allow(a2-panic-free) -- loop invariant `written < total = HEADER_LEN + payload.len()` puts `written - HEADER_LEN` within the payload
            w.write(&payload[written - HEADER_LEN..])
        };
        match res {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

impl Frame {
    fn kind(&self) -> Kind {
        match self {
            Frame::Hello { .. } => Kind::Hello,
            Frame::HelloAck(_) => Kind::HelloAck,
            Frame::UpdateBatch { .. } => Kind::UpdateBatch,
            Frame::BatchAck { .. } => Kind::BatchAck,
            Frame::QueryJoin => Kind::QueryJoin,
            Frame::QuerySelfJoin { .. } => Kind::QuerySelfJoin,
            Frame::Answer { .. } => Kind::Answer,
            Frame::Snapshot { .. } => Kind::Snapshot,
            Frame::SnapshotReply { .. } => Kind::SnapshotReply,
            Frame::Throttle { .. } => Kind::Throttle,
            Frame::Error { .. } => Kind::Error,
            Frame::Goodbye => Kind::Goodbye,
            Frame::Resume { .. } => Kind::Resume,
            Frame::ResumeAck { .. } => Kind::ResumeAck,
            Frame::Inspect { .. } => Kind::Inspect,
            Frame::InspectReply(_) => Kind::InspectReply,
            Frame::ShardMap(_) => Kind::ShardMap,
            Frame::ShardQuery { .. } => Kind::ShardQuery,
            Frame::ShardQueryReply { .. } => Kind::ShardQueryReply,
            Frame::Replicate { .. } => Kind::Replicate,
            Frame::ReplicateAck { .. } => Kind::ReplicateAck,
            Frame::Heartbeat { .. } => Kind::Heartbeat,
            Frame::Promote { .. } => Kind::Promote,
        }
    }

    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { protocol, client } => {
                out.extend_from_slice(&protocol.to_le_bytes());
                put_string(out, client);
            }
            Frame::HelloAck(info) => {
                out.extend_from_slice(&info.domain_log2.to_le_bytes());
                out.push(info.dyadic as u8);
                out.extend_from_slice(&info.tables.to_le_bytes());
                out.extend_from_slice(&info.buckets.to_le_bytes());
                out.extend_from_slice(&info.seed.to_le_bytes());
                out.extend_from_slice(&info.max_batch.to_le_bytes());
                out.extend_from_slice(&info.queue_limit.to_le_bytes());
            }
            Frame::UpdateBatch {
                stream,
                client_id,
                seq,
                updates,
            } => update_batch_payload(out, *stream, *client_id, *seq, updates),
            Frame::BatchAck { accepted } => put_varint(out, *accepted),
            Frame::QueryJoin | Frame::Goodbye => {}
            Frame::QuerySelfJoin { stream } | Frame::Snapshot { stream } => {
                out.push(*stream as u8);
            }
            Frame::Answer {
                estimate,
                dense_dense,
                dense_sparse,
                sparse_dense,
                sparse_sparse,
                dense_f,
                dense_g,
            } => {
                for v in [
                    estimate,
                    dense_dense,
                    dense_sparse,
                    sparse_dense,
                    sparse_sparse,
                ] {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                put_varint(out, *dense_f);
                put_varint(out, *dense_g);
            }
            Frame::SnapshotReply { stream, sketch } => {
                out.push(*stream as u8);
                put_varint(out, sketch.len() as u64);
                out.extend_from_slice(sketch);
            }
            Frame::Throttle { pending, limit } => {
                put_varint(out, *pending);
                put_varint(out, *limit);
            }
            Frame::Error { code, message } => {
                out.extend_from_slice(&code.as_u16().to_le_bytes());
                put_string(out, message);
            }
            Frame::Resume { client_id } => put_varint(out, *client_id),
            Frame::ResumeAck {
                last_seq_f,
                last_seq_g,
            } => {
                put_varint(out, *last_seq_f);
                put_varint(out, *last_seq_g);
            }
            Frame::Inspect {
                sections,
                last_events,
                slow_limit,
            } => {
                out.push(*sections);
                put_varint(out, *last_events as u64);
                put_varint(out, *slow_limit as u64);
            }
            Frame::InspectReply(report) => inspect_report_payload(out, report),
            Frame::ShardMap(map) => {
                put_varint(out, map.version);
                out.extend_from_slice(&map.seed.to_le_bytes());
                put_varint(out, map.shards.len() as u64);
                for shard in &map.shards {
                    put_string(out, &shard.addr);
                    out.push(shard.healthy as u8);
                    put_string(out, &shard.follower);
                    put_varint(out, shard.lag_bytes);
                }
            }
            Frame::ShardQuery { streams } => out.push(*streams),
            Frame::ShardQueryReply {
                streams,
                sketch_f,
                sketch_g,
            } => {
                out.push(*streams);
                put_varint(out, sketch_f.len() as u64);
                out.extend_from_slice(sketch_f);
                put_varint(out, sketch_g.len() as u64);
                out.extend_from_slice(sketch_g);
            }
            Frame::Replicate {
                epoch,
                segment,
                offset,
                snapshot,
                frontier_segment,
                frontier_offset,
                bytes,
            } => {
                put_varint(out, *epoch);
                put_varint(out, *segment);
                put_varint(out, *offset);
                out.push(*snapshot as u8);
                put_varint(out, *frontier_segment);
                put_varint(out, *frontier_offset);
                put_varint(out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
            Frame::ReplicateAck {
                epoch,
                segment,
                offset,
            } => {
                put_varint(out, *epoch);
                put_varint(out, *segment);
                put_varint(out, *offset);
            }
            Frame::Heartbeat {
                epoch,
                primary,
                segment,
                offset,
            } => {
                put_varint(out, *epoch);
                out.push(*primary as u8);
                put_varint(out, *segment);
                put_varint(out, *offset);
            }
            Frame::Promote { epoch } => put_varint(out, *epoch),
        }
    }

    fn decode_payload(kind: Kind, mut r: Reader<'_>) -> Result<Frame, WireError> {
        let frame = match kind {
            Kind::Hello => Frame::Hello {
                protocol: r.u16()?,
                client: read_string(&mut r)?,
            },
            Kind::HelloAck => Frame::HelloAck(ServerInfo {
                domain_log2: r.u16()?,
                dyadic: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("bad strategy tag")),
                },
                tables: r.u32()?,
                buckets: r.u32()?,
                seed: r.u64()?,
                max_batch: r.u32()?,
                queue_limit: r.u32()?,
            }),
            Kind::UpdateBatch => {
                let stream = StreamId::from_u8(r.u8()?)?;
                let client_id = r.varint()?;
                let seq = r.varint()?;
                let count = r.varint()? as usize;
                // Every update needs ≥ 2 payload bytes; a declared count
                // beyond that is truncation, caught before allocating.
                if count > r.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut updates = Vec::with_capacity(count);
                for _ in 0..count {
                    let value = r.varint()?;
                    let weight = unzigzag(r.varint()?);
                    updates.push(Update { value, weight });
                }
                Frame::UpdateBatch {
                    stream,
                    client_id,
                    seq,
                    updates,
                }
            }
            Kind::BatchAck => Frame::BatchAck {
                accepted: r.varint()?,
            },
            Kind::QueryJoin => Frame::QueryJoin,
            Kind::QuerySelfJoin => Frame::QuerySelfJoin {
                stream: StreamId::from_u8(r.u8()?)?,
            },
            Kind::Answer => Frame::Answer {
                estimate: r.f64()?,
                dense_dense: r.f64()?,
                dense_sparse: r.f64()?,
                sparse_dense: r.f64()?,
                sparse_sparse: r.f64()?,
                dense_f: r.varint()?,
                dense_g: r.varint()?,
            },
            Kind::Snapshot => Frame::Snapshot {
                stream: StreamId::from_u8(r.u8()?)?,
            },
            Kind::SnapshotReply => {
                let stream = StreamId::from_u8(r.u8()?)?;
                let len = r.varint()? as usize;
                let sketch = r.take(len)?.to_vec();
                Frame::SnapshotReply { stream, sketch }
            }
            Kind::Throttle => Frame::Throttle {
                pending: r.varint()?,
                limit: r.varint()?,
            },
            Kind::Error => Frame::Error {
                code: ErrorCode::from_u16(r.u16()?),
                message: read_string(&mut r)?,
            },
            Kind::Goodbye => Frame::Goodbye,
            Kind::Resume => Frame::Resume {
                client_id: r.varint()?,
            },
            Kind::ResumeAck => Frame::ResumeAck {
                last_seq_f: r.varint()?,
                last_seq_g: r.varint()?,
            },
            Kind::Inspect => Frame::Inspect {
                sections: r.u8()?,
                last_events: u32::try_from(r.varint()?)
                    .map_err(|_| WireError::BadPayload("inspect event cap overflows u32"))?,
                slow_limit: u32::try_from(r.varint()?)
                    .map_err(|_| WireError::BadPayload("inspect slow cap overflows u32"))?,
            },
            Kind::InspectReply => Frame::InspectReply(Box::new(decode_inspect_report(&mut r)?)),
            Kind::ShardMap => {
                let version = r.varint()?;
                let seed = r.u64()?;
                let count = r.varint()? as usize;
                // Every shard entry needs ≥ 2 payload bytes; a declared
                // count beyond that is truncation, caught before
                // allocating.
                if count > r.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    let addr = read_string(&mut r)?;
                    let healthy = match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(WireError::BadPayload("bad shard health tag")),
                    };
                    let follower = read_string(&mut r)?;
                    let lag_bytes = r.varint()?;
                    shards.push(ShardEntry {
                        addr,
                        healthy,
                        follower,
                        lag_bytes,
                    });
                }
                Frame::ShardMap(ShardMapInfo {
                    version,
                    seed,
                    shards,
                })
            }
            Kind::ShardQuery => {
                let streams = r.u8()?;
                if streams & !SHARD_STREAM_BOTH != 0 || streams == 0 {
                    return Err(WireError::BadPayload("bad shard-query stream mask"));
                }
                Frame::ShardQuery { streams }
            }
            Kind::ShardQueryReply => {
                let streams = r.u8()?;
                if streams & !SHARD_STREAM_BOTH != 0 {
                    return Err(WireError::BadPayload("bad shard-reply stream mask"));
                }
                let len_f = r.varint()? as usize;
                let sketch_f = r.take(len_f)?.to_vec();
                let len_g = r.varint()? as usize;
                let sketch_g = r.take(len_g)?.to_vec();
                Frame::ShardQueryReply {
                    streams,
                    sketch_f,
                    sketch_g,
                }
            }
            Kind::Replicate => {
                let epoch = r.varint()?;
                let segment = r.varint()?;
                let offset = r.varint()?;
                let snapshot = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("bad replicate snapshot tag")),
                };
                let frontier_segment = r.varint()?;
                let frontier_offset = r.varint()?;
                let len = r.varint()? as usize;
                let bytes = r.take(len)?.to_vec();
                Frame::Replicate {
                    epoch,
                    segment,
                    offset,
                    snapshot,
                    frontier_segment,
                    frontier_offset,
                    bytes,
                }
            }
            Kind::ReplicateAck => Frame::ReplicateAck {
                epoch: r.varint()?,
                segment: r.varint()?,
                offset: r.varint()?,
            },
            Kind::Heartbeat => {
                let epoch = r.varint()?;
                let primary = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("bad heartbeat role tag")),
                };
                Frame::Heartbeat {
                    epoch,
                    primary,
                    segment: r.varint()?,
                    offset: r.varint()?,
                }
            }
            Kind::Promote => Frame::Promote { epoch: r.varint()? },
        };
        r.finish()?;
        Ok(frame)
    }

    /// Encodes the frame into its complete wire representation
    /// (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// [`Frame::encode`] with an optional trace context. With
    /// `ctx = None` the result is byte-identical to [`Frame::encode`],
    /// so untraced peers are unaffected by this build speaking the
    /// extension.
    pub fn encode_traced(&self, ctx: Option<TraceContext>) -> Vec<u8> {
        let (flags, mut payload) = traced_payload_prefix(ctx);
        self.encode_payload_into(&mut payload);
        assemble(self.kind(), flags, payload)
    }

    /// Writes the frame to `w` with a single vectored write of the
    /// stack-resident header plus the payload, returning the number of
    /// wire bytes.
    ///
    /// Compared to encoding into one contiguous buffer this skips the
    /// header+payload concatenation copy (and its allocation) on every
    /// frame; the kernel still sees both pieces in one syscall. Partial
    /// vectored writes (short `writev`) are completed with `write_all` on
    /// the remainder.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        self.write_to_traced(w, None)
    }

    /// [`Frame::write_to`] with an optional trace context. With
    /// `ctx = None` the wire bytes are identical to [`Frame::write_to`].
    pub fn write_to_traced<W: Write>(
        &self,
        w: &mut W,
        ctx: Option<TraceContext>,
    ) -> io::Result<usize> {
        let (flags, mut payload) = traced_payload_prefix(ctx);
        self.encode_payload_into(&mut payload);
        write_frame_vectored(w, self.kind(), flags, &payload)
    }

    /// Reads one frame from `r`, returning it with its wire length.
    ///
    /// `max_payload` bounds the declared payload length **before** any
    /// allocation, so a hostile or corrupt header cannot make the reader
    /// buffer unbounded memory.
    ///
    /// Timeout semantics (the serving layer's idle loop relies on this):
    /// if the *first* header byte is not available before the reader's
    /// timeout, no bytes have been consumed and [`WireError::Idle`] is
    /// returned — the caller may simply retry. A timeout anywhere later
    /// is a mid-frame stall and surfaces as [`WireError::Io`]; the stream
    /// is no longer at a frame boundary and must be closed.
    pub fn read_from<R: Read>(r: &mut R, max_payload: u32) -> Result<(Frame, usize), WireError> {
        Frame::read_from_with_scratch(r, max_payload, &mut Vec::new())
    }

    /// [`Frame::read_from`] that also surfaces the frame's trace context
    /// when the [`FLAG_TRACE`] extension is present (`None` for plain
    /// frames, so untraced peers decode identically).
    pub fn read_traced_from<R: Read>(
        r: &mut R,
        max_payload: u32,
    ) -> Result<(Frame, usize, Option<TraceContext>), WireError> {
        Frame::read_traced_from_with_scratch(r, max_payload, &mut Vec::new())
    }

    /// [`Frame::read_from`] with a caller-owned payload scratch buffer.
    ///
    /// The payload bytes are read into `scratch` (grown once to the
    /// largest frame seen, then reused), so a handler loop that receives
    /// many frames — the server's UPDATE_BATCH ingest path — stops paying
    /// one payload allocation per frame. The buffer's contents are
    /// meaningless between calls; only its capacity is reused.
    pub fn read_from_with_scratch<R: Read>(
        r: &mut R,
        max_payload: u32,
        scratch: &mut Vec<u8>,
    ) -> Result<(Frame, usize), WireError> {
        let (frame, n, _ctx) = Frame::read_traced_from_with_scratch(r, max_payload, scratch)?;
        Ok((frame, n))
    }

    /// [`Frame::read_from_with_scratch`] that also surfaces the frame's
    /// trace context (see [`Frame::read_traced_from`]).
    pub fn read_traced_from_with_scratch<R: Read>(
        r: &mut R,
        max_payload: u32,
        scratch: &mut Vec<u8>,
    ) -> Result<(Frame, usize, Option<TraceContext>), WireError> {
        let mut header = [0u8; HEADER_LEN];
        {
            // First byte separately: distinguishes idle (retryable) and
            // clean close (no data) from a stall inside a frame.
            let (first, rest) = header.split_at_mut(1);
            loop {
                match r.read(first) {
                    Ok(0) => return Err(WireError::Closed),
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Err(WireError::Idle)
                    }
                    Err(e) => return Err(WireError::Io(e)),
                }
            }
            r.read_exact(rest).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    WireError::Truncated
                } else {
                    WireError::Io(e)
                }
            })?;
        }
        // Destructure the fixed-size header once; every field access
        // below is a binding, not an index.
        let [m0, m1, m2, m3, v0, v1, kind_byte, flags, l0, l1, l2, l3, p0, p1, p2, p3, h0, h1, h2, h3] =
            header;
        if [m0, m1, m2, m3] != *MAGIC {
            return Err(WireError::BadMagic);
        }
        let stored_header_crc = u32::from_le_bytes([h0, h1, h2, h3]);
        let (checked, _stored) = header.split_at(16);
        if crc32(checked) != stored_header_crc {
            return Err(WireError::HeaderCrc);
        }
        let version = u16::from_le_bytes([v0, v1]);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = Kind::from_u8(kind_byte)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(WireError::BadFlags(flags));
        }
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
        if payload_len > max_payload {
            return Err(WireError::Oversize {
                len: payload_len,
                max: max_payload,
            });
        }
        let stored_payload_crc = u32::from_le_bytes([p0, p1, p2, p3]);
        let need = payload_len as usize;
        if scratch.len() < need {
            // Zero-fill only on growth; `read_exact` overwrites the prefix
            // actually used on every call.
            scratch.resize(need, 0);
        }
        // ss-analyze: allow(a2-panic-free) -- the resize above guarantees `scratch.len() >= need`
        let payload = &mut scratch[..need];
        r.read_exact(payload).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                WireError::Truncated
            } else {
                WireError::Io(e)
            }
        })?;
        if crc32(payload) != stored_payload_crc {
            return Err(WireError::PayloadCrc);
        }
        let mut body = Reader::new(payload);
        let ctx = if flags & FLAG_TRACE != 0 {
            Some(TraceContext::read(&mut body)?)
        } else {
            None
        };
        let frame = Frame::decode_payload(kind, body)?;
        Ok((frame, HEADER_LEN + need, ctx))
    }

    /// Decodes one frame from the front of `buf` (slice form of
    /// [`Frame::read_from`], used by tests and fuzz-style suites).
    pub fn decode(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), WireError> {
        let mut cursor = buf;
        Frame::read_from(&mut cursor, max_payload)
    }

    /// Slice form of [`Frame::read_traced_from`].
    pub fn decode_traced(
        buf: &[u8],
        max_payload: u32,
    ) -> Result<(Frame, usize, Option<TraceContext>), WireError> {
        let mut cursor = buf;
        Frame::read_traced_from(&mut cursor, max_payload)
    }
}
