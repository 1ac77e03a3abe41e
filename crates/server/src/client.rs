//! `ServerClient` — the library-side of the wire protocol, used by the
//! integration tests, the benches, and the `ssketch` CLI.
//!
//! One blocking TCP connection. Queries and sequenced sends are strict
//! request/reply; unsequenced [`ServerClient::send_all`] pipelines a
//! small window of batches so encode overlaps the server's decode +
//! ingest. The client owns backpressure handling:
//! [`ServerClient::send_batch`] surfaces THROTTLE as a [`BatchOutcome`],
//! while [`ServerClient::send_all`] retries with capped exponential
//! backoff until the stream is fully acknowledged.
//!
//! With a nonzero [`ClientConfig::client_id`] every batch carries a
//! per-stream sequence number, making sends **idempotent** at the
//! server: after a reconnect, [`ServerClient::resume`] asks how far the
//! server got and the producer replays only what was never applied. The
//! reconnect loop itself lives in
//! [`ResilientClient`](crate::ResilientClient).

use bytes::Bytes;
use skimmed_sketch::{decode_skimmed, SkimmedSchema, SkimmedSketch};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use stream_model::update::Update;
use stream_model::Domain;
use stream_wire::{
    ErrorCode, Frame, InspectReport, ServerInfo, ShardMapInfo, StreamId, TraceContext, WireError,
    INSPECT_ALL, PROTOCOL_VERSION,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Frame-level failure (corruption, truncation, version skew).
    Wire(WireError),
    /// The server answered with an ERROR frame.
    Server {
        /// Machine-readable code.
        code: ErrorCode,
        /// Server-supplied context.
        message: String,
    },
    /// The server sent a well-formed frame that does not answer the
    /// request (protocol bug on one side).
    UnexpectedFrame(&'static str),
    /// No reply arrived within the client's patience window.
    Timeout,
    /// The handshake was rejected with [`ErrorCode::UnsupportedVersion`]:
    /// the server does not speak the protocol version this client
    /// offered. Typed so mixed v2/v3 fleets fail loud during rollout —
    /// callers can distinguish "wrong software version" from a generic
    /// protocol error and name both sides in their diagnostics.
    VersionMismatch {
        /// The protocol version this client offered in HELLO.
        offered: u16,
        /// Server-supplied context (names the server's accepted range).
        message: String,
    },
    /// A protocol >= 3 request (sharding, replication, failover) was
    /// attempted on a session that negotiated an older protocol. Raised
    /// client-side before any bytes hit the wire, so a v2 session never
    /// sends a frame kind its peer cannot decode.
    V3Required {
        /// The protocol this session negotiated at the handshake.
        negotiated: u16,
    },
    /// A [`ResilientClient`](crate::ResilientClient) spent its whole
    /// reconnect budget without completing the operation.
    Exhausted {
        /// Reconnect attempts made.
        attempts: u32,
        /// The failure that ended the last attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "client wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::UnexpectedFrame(what) => write!(f, "unexpected reply: {what}"),
            ClientError::Timeout => write!(f, "timed out waiting for a reply"),
            ClientError::VersionMismatch { offered, message } => {
                write!(f, "protocol version {offered} rejected: {message}")
            }
            ClientError::V3Required { negotiated } => {
                write!(
                    f,
                    "request requires protocol >= 3, session negotiated {negotiated}"
                )
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Wire(other),
        }
    }
}

// The backoff policy is shared with the cluster router's shard-retry
// path; the single definition (and the test pinning its jitter
// sequence) lives in `ss-retry`.
pub use ss_retry::{Backoff, BackoffConfig};

/// Connection-level configuration for [`ServerClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client name recorded in server logs.
    pub name: String,
    /// Stable producer identity for idempotent sends; `0` (the default)
    /// opts out of sequencing.
    pub client_id: u64,
    /// Socket read timeout — also the reply-poll tick.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Idle-retry budget: total reply patience ≈ read timeout × retries.
    pub reply_retries: u32,
    /// Backoff policy for THROTTLE retries (and reconnects, in
    /// [`ResilientClient`](crate::ResilientClient)).
    pub backoff: BackoffConfig,
    /// Protocol version offered in HELLO. Defaults to
    /// [`PROTOCOL_VERSION`]; pin it lower (within the server's accepted
    /// range) to exercise downgraded sessions during mixed-version
    /// rollouts. v3-only requests on such a session fail client-side
    /// with [`ClientError::V3Required`].
    pub offer_protocol: u16,
    /// Stamp every request with a fresh causal trace id (see the wire
    /// grammar's trace extension) and record client-side Request spans
    /// in the flight recorder. Requires the `telemetry` feature to have
    /// any effect; without it requests go out byte-identical to a
    /// pre-trace client's.
    pub trace: bool,
}

impl Default for ClientConfig {
    /// 1 s read tick × 30 retries ≈ 30 s per reply, 10 s write timeout,
    /// unsequenced, default backoff.
    fn default() -> Self {
        ClientConfig {
            name: "ss-client".to_string(),
            client_id: 0,
            read_timeout: Duration::from_secs(1),
            write_timeout: Duration::from_secs(10),
            reply_retries: 30,
            backoff: BackoffConfig::default(),
            offer_protocol: PROTOCOL_VERSION,
            trace: false,
        }
    }
}

/// Result of one non-blocking batch send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The server queued the batch; `accepted` updates acknowledged.
    Accepted(u64),
    /// The server's ingest queue was full; the batch was **not** queued.
    Throttled {
        /// Chunks pending at the server when the batch bounced.
        pending: u64,
        /// The server's queue capacity.
        limit: u64,
    },
}

/// Accounting from [`ServerClient::send_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendReport {
    /// Batches acknowledged.
    pub batches: u64,
    /// Updates acknowledged.
    pub updates: u64,
    /// THROTTLE replies absorbed (each one retried until acked).
    pub throttled: u64,
}

/// A join-size answer with its sub-join anatomy (zeros for self-joins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinAnswer {
    /// The estimate.
    pub estimate: f64,
    /// Exact dense⋈dense term.
    pub dense_dense: f64,
    /// Estimated dense⋈sparse term.
    pub dense_sparse: f64,
    /// Estimated sparse⋈dense term.
    pub sparse_dense: f64,
    /// Estimated sparse⋈sparse term.
    pub sparse_sparse: f64,
    /// Dense values skimmed from `F`.
    pub dense_f: u64,
    /// Dense values skimmed from `G`.
    pub dense_g: u64,
}

/// One chunk of a primary's WAL byte stream, as returned by
/// [`ServerClient::replicate_poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaChunk {
    /// The primary's fencing epoch.
    pub epoch: u64,
    /// Segment the chunk starts in (snapshot id when `snapshot`).
    pub segment: u64,
    /// Byte offset of the chunk within `segment`.
    pub offset: u64,
    /// `bytes` is an encoded snapshot blob (pruned-position bootstrap)
    /// rather than record bytes.
    pub snapshot: bool,
    /// The primary's durable frontier: active segment id…
    pub frontier_segment: u64,
    /// …and its length, when the chunk was cut.
    pub frontier_offset: u64,
    /// Frame-aligned record bytes (empty = caught up).
    pub bytes: Vec<u8>,
}

/// A node's replication-facing state, from [`ServerClient::heartbeat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The node's fencing epoch.
    pub epoch: u64,
    /// Whether the node currently accepts writes.
    pub primary: bool,
    /// Durable frontier: active segment id…
    pub segment: u64,
    /// …and its length.
    pub offset: u64,
}

/// How many batches an unsequenced [`ServerClient::send_all`] keeps in
/// flight before waiting for the oldest ack. A few are enough to hide
/// the ack round trip (the next batches are already encoded and in the
/// socket while the previous ack travels back); much larger windows
/// just overrun the server's per-worker ingest queue and convert the
/// headroom into THROTTLE round trips. Deadlock-free by sizing: the
/// replies for a full window are a few hundred bytes, far below any
/// socket buffer, so the server can always finish writing an ack and
/// return to draining the data the client is blocked sending.
const PIPELINE_WINDOW: usize = 4;

/// A connected, handshaken client session.
#[derive(Debug)]
pub struct ServerClient {
    sock: TcpStream,
    info: ServerInfo,
    max_payload: u32,
    /// The protocol this session negotiated at the handshake (the
    /// accepted HELLO offer). Gates the v3-only request surface.
    protocol: u16,
    config: ClientConfig,
    /// Next sequence number per stream (meaningful when
    /// `config.client_id != 0`); advanced only on BATCH_ACK.
    next_seq: [u64; 2],
    /// THROTTLE-retry backoff state for [`ServerClient::send_all`].
    backoff: Backoff,
    /// Trace id stamped on the most recent traced request (0 = none),
    /// for pairing CLI output with server-side INSPECT events.
    last_trace: u64,
    /// When set, requests carry this exact context instead of starting
    /// fresh client-side traces — the cluster router uses it to
    /// propagate an incoming request's trace across its shard fan-out.
    forward_trace: Option<TraceContext>,
    /// Reusable payload buffer for replies: grows to the largest reply
    /// seen (a snapshot, typically), then no reply allocates.
    scratch: Vec<u8>,
}

impl ServerClient {
    /// Connects and handshakes with the default [`ClientConfig`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`ServerClient::connect`] with an explicit client name for the
    /// server's logs.
    pub fn connect_named<A: ToSocketAddrs>(addr: A, name: &str) -> Result<Self, ClientError> {
        Self::connect_with(
            addr,
            ClientConfig {
                name: name.to_string(),
                ..ClientConfig::default()
            },
        )
    }

    /// Connects and handshakes under an explicit configuration.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(config.read_timeout))?;
        sock.set_write_timeout(Some(config.write_timeout))?;
        let backoff = Backoff::new(&config.backoff);
        let mut client = Self {
            sock,
            info: ServerInfo {
                domain_log2: 0,
                dyadic: false,
                tables: 0,
                buckets: 0,
                seed: 0,
                max_batch: 0,
                queue_limit: 0,
            },
            max_payload: stream_wire::DEFAULT_MAX_PAYLOAD,
            protocol: config.offer_protocol,
            config,
            next_seq: [1, 1],
            backoff,
            last_trace: 0,
            forward_trace: None,
            scratch: Vec::new(),
        };
        let reply = client.call(&Frame::Hello {
            protocol: client.protocol,
            client: client.config.name.clone(),
        });
        match reply {
            Ok(Frame::HelloAck(info)) => {
                client.info = info;
                Ok(client)
            }
            // The typed handshake rejection: surface which version was
            // refused, not just a generic server error.
            Err(ClientError::Server {
                code: ErrorCode::UnsupportedVersion,
                message,
            }) => Err(ClientError::VersionMismatch {
                offered: client.protocol,
                message,
            }),
            Err(e) => Err(e),
            Ok(_) => Err(ClientError::UnexpectedFrame("handshake reply")),
        }
    }

    /// The schema and limits the server advertised.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// The protocol version this session negotiated at the handshake.
    pub fn protocol(&self) -> u16 {
        self.protocol
    }

    /// Typed gate on the protocol >= 3 request surface: sharding,
    /// replication, and failover calls refuse, client-side, to
    /// serialize v3-only frame kinds onto an older session.
    fn require_v3(&self) -> Result<(), ClientError> {
        if self.protocol < 3 {
            return Err(ClientError::V3Required {
                negotiated: self.protocol,
            });
        }
        Ok(())
    }

    /// The producer identity batches are sequenced under (0 = none).
    pub fn client_id(&self) -> u64 {
        self.config.client_id
    }

    /// The next sequence number this session will assign for `stream`.
    pub fn next_seq(&self, stream: StreamId) -> u64 {
        // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
        self.next_seq[stream as usize]
    }

    /// Rebuilds the server's synopsis schema locally (identical hash
    /// families — decoded snapshots are mergeable with sketches built
    /// under it).
    pub fn schema(&self) -> Arc<SkimmedSchema> {
        let domain = Domain::with_log2(self.info.domain_log2 as u32);
        if self.info.dyadic {
            SkimmedSchema::dyadic(
                domain,
                self.info.tables as usize,
                self.info.buckets as usize,
                self.info.seed,
            )
        } else {
            SkimmedSchema::scanning(
                domain,
                self.info.tables as usize,
                self.info.buckets as usize,
                self.info.seed,
            )
        }
    }

    /// The trace id stamped on the most recent traced request (0 when
    /// tracing is off or nothing has been sent yet). `ssketch trace`
    /// prints it so the operator can grep the server's INSPECT events.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace
    }

    /// Starts a client-side Request span when tracing is on: the
    /// returned context goes out on the wire; the returned guard ends
    /// the span (hold it across the reply to time the round trip).
    /// `None`/`None` when tracing is off or compiled out — the frame
    /// encoding is then byte-identical to an untraced client's.
    fn begin_trace(&mut self, arg: u64) -> (Option<TraceContext>, Option<ss_trace::SpanGuard>) {
        if let Some(ctx) = self.forward_trace {
            // Propagation, not origination: the caller owns the span
            // tree; we just stamp its context on the wire.
            self.last_trace = ctx.trace_id;
            return (Some(ctx), None);
        }
        if !self.config.trace || !ss_trace::ENABLED {
            return (None, None);
        }
        let trace_id = ss_trace::new_trace_id();
        let span = ss_trace::span(ss_trace::Phase::Request, trace_id, 0, arg);
        self.last_trace = trace_id;
        let ctx = TraceContext {
            trace_id,
            span_id: span.id(),
        };
        (Some(ctx), Some(span))
    }

    /// One request, one reply. ERROR replies become `ClientError::Server`.
    /// The Request span (when tracing) covers the full round trip.
    fn call(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        let (ctx, _span) = self.begin_trace(0);
        request.write_to_traced(&mut self.sock, ctx)?;
        self.read_reply()
    }

    /// Waits out the strict-request/reply turnaround for one reply frame,
    /// absorbing idle ticks up to the configured patience budget.
    fn read_reply(&mut self) -> Result<Frame, ClientError> {
        for _ in 0..self.config.reply_retries {
            match Frame::read_from_with_scratch(&mut self.sock, self.max_payload, &mut self.scratch)
            {
                Ok((Frame::Error { code, message }, _)) => {
                    return Err(ClientError::Server { code, message })
                }
                Ok((frame, _)) => return Ok(frame),
                Err(WireError::Idle) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Err(ClientError::Timeout)
    }

    /// Asks the server how far this producer's sequenced batches have
    /// been applied (per stream) and fast-forwards the session's
    /// sequence counters past them. Call after reconnecting to replay
    /// from the first unacknowledged batch.
    pub fn resume(&mut self) -> Result<(u64, u64), ClientError> {
        match self.call(&Frame::Resume {
            client_id: self.config.client_id,
        })? {
            Frame::ResumeAck {
                last_seq_f,
                last_seq_g,
            } => {
                self.next_seq = [last_seq_f + 1, last_seq_g + 1];
                Ok((last_seq_f, last_seq_g))
            }
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("resume reply")),
        }
    }

    /// Sends one batch without retrying: THROTTLE surfaces as
    /// [`BatchOutcome::Throttled`] and the caller owns the retry policy.
    ///
    /// Sequenced sessions stamp the batch with the stream's next
    /// sequence number and advance it only on BATCH_ACK, so a throttled
    /// (never-queued) batch re-sends under the same number.
    pub fn send_batch(
        &mut self,
        stream: StreamId,
        updates: &[Update],
    ) -> Result<BatchOutcome, ClientError> {
        let sequenced = self.config.client_id != 0;
        let seq = if sequenced {
            // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
            self.next_seq[stream as usize]
        } else {
            0
        };
        // Vectored borrowed-parts send: no `Frame` is materialised and the
        // updates are never cloned — header + payload go out in one
        // `write_vectored` call.
        let (ctx, _span) = self.begin_trace(updates.len() as u64);
        stream_wire::write_update_batch_traced(
            &mut self.sock,
            stream,
            self.config.client_id,
            seq,
            updates,
            ctx,
        )
        .map_err(ClientError::Io)?;
        let reply = self.read_reply()?;
        match reply {
            Frame::BatchAck { accepted } => {
                if sequenced {
                    // ss-analyze: allow(a2-panic-free) -- two-variant `StreamId` indexing a `[u64; 2]`
                    self.next_seq[stream as usize] = seq + 1;
                }
                Ok(BatchOutcome::Accepted(accepted))
            }
            Frame::Throttle { pending, limit } => Ok(BatchOutcome::Throttled { pending, limit }),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("batch reply")),
        }
    }

    /// Sends one batch under an explicit `(client_id, seq)` identity,
    /// leaving this session's own sequence counters untouched. The
    /// cluster router forwards an upstream producer's sequenced batches
    /// *as that producer*: the shard's `(client_id, stream, seq)` dedup
    /// then absorbs duplicates end to end, no matter which router
    /// handler — or which router incarnation, after a restart — resends
    /// them. Plain clients should prefer [`ServerClient::send_batch`].
    pub fn send_batch_as(
        &mut self,
        stream: StreamId,
        client_id: u64,
        seq: u64,
        updates: &[Update],
    ) -> Result<BatchOutcome, ClientError> {
        let (ctx, _span) = self.begin_trace(updates.len() as u64);
        stream_wire::write_update_batch_traced(
            &mut self.sock,
            stream,
            client_id,
            seq,
            updates,
            ctx,
        )
        .map_err(ClientError::Io)?;
        match self.read_reply()? {
            Frame::BatchAck { accepted } => Ok(BatchOutcome::Accepted(accepted)),
            Frame::Throttle { pending, limit } => Ok(BatchOutcome::Throttled { pending, limit }),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("batch reply")),
        }
    }

    /// Reads another producer's applied high-water marks (RESUME for an
    /// explicit `client_id`) without touching this session's own
    /// counters. The cluster router fans this across every shard to
    /// answer an upstream RESUME: the per-stream minimum is the highest
    /// sequence number *every* shard has applied.
    pub fn resume_of(&mut self, client_id: u64) -> Result<(u64, u64), ClientError> {
        match self.call(&Frame::Resume { client_id })? {
            Frame::ResumeAck {
                last_seq_f,
                last_seq_g,
            } => Ok((last_seq_f, last_seq_g)),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("resume reply")),
        }
    }

    /// Streams `updates` in `chunk`-sized batches, retrying throttled
    /// batches under capped exponential backoff until everything is
    /// acknowledged.
    ///
    /// Unsequenced sessions (`client_id == 0`) pipeline up to
    /// [`PIPELINE_WINDOW`] batches before waiting for the oldest ack, so
    /// the producer's encode overlaps the server's decode + ingest
    /// instead of idling through a full round trip per batch. Sketch
    /// updates commute, so a throttled batch can be retried after the
    /// main pass without reordering concerns. Sequenced sessions keep
    /// strict request/reply: their per-stream sequence number advances
    /// only on BATCH_ACK, and the server's idempotence high-water mark
    /// assumes no gaps.
    pub fn send_all(
        &mut self,
        stream: StreamId,
        updates: &[Update],
        chunk: usize,
    ) -> Result<SendReport, ClientError> {
        assert!(chunk > 0, "chunk size must be nonzero");
        let chunk = chunk.min(self.info.max_batch.max(1) as usize);
        let mut report = SendReport::default();
        self.backoff.reset();
        if self.config.client_id != 0 {
            for batch in updates.chunks(chunk) {
                loop {
                    match self.send_batch(stream, batch)? {
                        BatchOutcome::Accepted(n) => {
                            report.batches += 1;
                            report.updates += n;
                            self.backoff.reset();
                            break;
                        }
                        BatchOutcome::Throttled { .. } => {
                            report.throttled += 1;
                            std::thread::sleep(self.backoff.delay());
                        }
                    }
                }
            }
            return Ok(report);
        }
        // Pipelined pass: the server answers strictly in order, so the
        // i-th reply always belongs to the oldest in-flight batch.
        let mut inflight: std::collections::VecDeque<&[Update]> = std::collections::VecDeque::new();
        let mut retry: Vec<&[Update]> = Vec::new();
        for batch in updates.chunks(chunk) {
            // Each pipelined batch is its own trace; the Request span
            // covers encode + socket write (replies are absorbed later,
            // out of span scope, by the pipeline's nature).
            let (ctx, _span) = self.begin_trace(batch.len() as u64);
            stream_wire::write_update_batch_traced(&mut self.sock, stream, 0, 0, batch, ctx)
                .map_err(ClientError::Io)?;
            inflight.push_back(batch);
            if inflight.len() >= PIPELINE_WINDOW {
                self.absorb_reply(&mut inflight, &mut retry, &mut report)?;
            }
        }
        while !inflight.is_empty() {
            self.absorb_reply(&mut inflight, &mut retry, &mut report)?;
        }
        // Throttled batches were never queued server-side; re-send them
        // strictly, a backoff pause per round.
        while !retry.is_empty() {
            std::thread::sleep(self.backoff.delay());
            for batch in std::mem::take(&mut retry) {
                match self.send_batch(stream, batch)? {
                    BatchOutcome::Accepted(n) => {
                        report.batches += 1;
                        report.updates += n;
                    }
                    BatchOutcome::Throttled { .. } => {
                        report.throttled += 1;
                        retry.push(batch);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Consumes the reply for the oldest in-flight pipelined batch:
    /// BATCH_ACK lands in the report, THROTTLE parks the batch for the
    /// retry pass.
    fn absorb_reply<'u>(
        &mut self,
        inflight: &mut std::collections::VecDeque<&'u [Update]>,
        retry: &mut Vec<&'u [Update]>,
        report: &mut SendReport,
    ) -> Result<(), ClientError> {
        let Some(batch) = inflight.pop_front() else {
            return Ok(());
        };
        match self.read_reply()? {
            Frame::BatchAck { accepted } => {
                report.batches += 1;
                report.updates += accepted;
            }
            Frame::Throttle { .. } => {
                report.throttled += 1;
                retry.push(batch);
            }
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => return Err(ClientError::UnexpectedFrame("batch reply")),
        }
        Ok(())
    }

    /// `COUNT(F ⋈ G)` from linearizable snapshots of both server sketches.
    pub fn query_join(&mut self) -> Result<JoinAnswer, ClientError> {
        match self.call(&Frame::QueryJoin)? {
            Frame::Answer {
                estimate,
                dense_dense,
                dense_sparse,
                sparse_dense,
                sparse_sparse,
                dense_f,
                dense_g,
            } => Ok(JoinAnswer {
                estimate,
                dense_dense,
                dense_sparse,
                sparse_dense,
                sparse_sparse,
                dense_f,
                dense_g,
            }),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("join reply")),
        }
    }

    /// Self-join (second moment) estimate of one stream.
    pub fn query_self_join(&mut self, stream: StreamId) -> Result<f64, ClientError> {
        match self.call(&Frame::QuerySelfJoin { stream })? {
            Frame::Answer { estimate, .. } => Ok(estimate),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("self-join reply")),
        }
    }

    /// Ships a linearizable snapshot of one stream's full skimmed sketch.
    pub fn snapshot(&mut self, stream: StreamId) -> Result<SkimmedSketch, ClientError> {
        match self.call(&Frame::Snapshot { stream })? {
            Frame::SnapshotReply {
                stream: got,
                sketch,
            } => {
                if got != stream {
                    return Err(ClientError::UnexpectedFrame("snapshot for wrong stream"));
                }
                decode_skimmed(Bytes::from(sketch))
                    .map_err(|_| ClientError::UnexpectedFrame("undecodable snapshot"))
            }
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("snapshot reply")),
        }
    }

    /// Fetches the server's live introspection snapshot: metrics,
    /// recent flight-recorder events, the slow-query log, and the
    /// online accuracy audit — whichever of those `sections` requests
    /// (see the `INSPECT_*` bit constants; [`INSPECT_ALL`] for
    /// everything). `last_events` / `slow_limit` cap the event and
    /// slow-query lists (0 = no cap). Sections a server build cannot
    /// produce come back empty.
    pub fn inspect(
        &mut self,
        sections: u8,
        last_events: u32,
        slow_limit: u32,
    ) -> Result<InspectReport, ClientError> {
        match self.call(&Frame::Inspect {
            sections,
            last_events,
            slow_limit,
        })? {
            Frame::InspectReply(report) => Ok(*report),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("inspect reply")),
        }
    }

    /// [`ServerClient::inspect`] with every section and no caps.
    pub fn inspect_all(&mut self) -> Result<InspectReport, ClientError> {
        self.inspect(INSPECT_ALL, 0, 0)
    }

    /// Stamps subsequent requests with `ctx` verbatim instead of
    /// starting fresh client-side traces (pass `None` to return to
    /// normal tracing). The cluster router sets this per incoming
    /// request so its shard fan-out joins the client's causal trace.
    pub fn set_forward_trace(&mut self, ctx: Option<TraceContext>) {
        self.forward_trace = ctx;
    }

    /// Shard-role fetch (protocol ≥ 3, [`ServerConfig::shard`] servers
    /// only): the shard's raw encoded sketch state for the streams
    /// selected by the `SHARD_STREAM_*` bits of `streams`, captured as
    /// one linearizable cut. Unrequested streams come back as empty
    /// vectors. The cluster router merges these by sketch linearity;
    /// shipping the *unskimmed* state is what keeps merged answers
    /// bit-identical to a single node (skimming is global, not
    /// per-shard).
    ///
    /// [`ServerConfig::shard`]: crate::ServerConfig::shard
    pub fn shard_query(&mut self, streams: u8) -> Result<(Vec<u8>, Vec<u8>), ClientError> {
        self.require_v3()?;
        match self.call(&Frame::ShardQuery { streams })? {
            Frame::ShardQueryReply {
                streams: got,
                sketch_f,
                sketch_g,
            } => {
                if got != streams {
                    return Err(ClientError::UnexpectedFrame("shard reply stream mask"));
                }
                Ok((sketch_f, sketch_g))
            }
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("shard query reply")),
        }
    }

    /// Asks a cluster router for its versioned [`ShardMapInfo`]
    /// manifest (protocol ≥ 3). Plain servers reject this with a
    /// protocol error — which is how `ssketch top` tells a router from
    /// a single node.
    pub fn shard_map(&mut self) -> Result<ShardMapInfo, ClientError> {
        self.require_v3()?;
        let request = Frame::ShardMap(ShardMapInfo {
            version: 0,
            seed: 0,
            shards: Vec::new(),
        });
        match self.call(&request)? {
            Frame::ShardMap(map) => Ok(map),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("shard map reply")),
        }
    }

    /// One replication long-poll (protocol ≥ 3): offers `(segment,
    /// offset)` — the caller's durable frontier, which doubles as the
    /// ack for everything before it — and returns the next chunk of
    /// the primary's WAL byte stream (see [`ReplicaChunk`]).
    pub fn replicate_poll(
        &mut self,
        epoch: u64,
        segment: u64,
        offset: u64,
    ) -> Result<ReplicaChunk, ClientError> {
        self.require_v3()?;
        let request = Frame::ReplicateAck {
            epoch,
            segment,
            offset,
        };
        match self.call(&request)? {
            Frame::Replicate {
                epoch,
                segment,
                offset,
                snapshot,
                frontier_segment,
                frontier_offset,
                bytes,
            } => Ok(ReplicaChunk {
                epoch,
                segment,
                offset,
                snapshot,
                frontier_segment,
                frontier_offset,
                bytes,
            }),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("replicate poll reply")),
        }
    }

    /// Probes a node's replication state (protocol ≥ 3): role, fencing
    /// epoch, and durable frontier. The cluster router's failure
    /// detector is built on this round trip.
    pub fn heartbeat(&mut self, epoch: u64) -> Result<ReplicaStatus, ClientError> {
        self.require_v3()?;
        let request = Frame::Heartbeat {
            epoch,
            primary: false,
            segment: 0,
            offset: 0,
        };
        match self.call(&request)? {
            Frame::Heartbeat {
                epoch,
                primary,
                segment,
                offset,
            } => Ok(ReplicaStatus {
                epoch,
                primary,
                segment,
                offset,
            }),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("heartbeat reply")),
        }
    }

    /// Promotes a follower to primary under fencing epoch `epoch`
    /// (protocol ≥ 3, must exceed the follower's current epoch). The
    /// follower seals its log, stops replicating, and starts accepting
    /// writes; the echoed epoch is returned. Idempotent for retries.
    pub fn promote(&mut self, epoch: u64) -> Result<u64, ClientError> {
        self.require_v3()?;
        match self.call(&Frame::Promote { epoch })? {
            Frame::Promote { epoch } => Ok(epoch),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("promote reply")),
        }
    }

    /// Clean close: GOODBYE, wait for the echo, drop the socket.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.call(&Frame::Goodbye)? {
            Frame::Goodbye => Ok(()),
            // ss-analyze: allow(a6-frame-exhaustive) -- client-side strict request/reply: every non-matching kind is uniformly *rejected* as UnexpectedFrame, not absorbed
            _ => Err(ClientError::UnexpectedFrame("goodbye reply")),
        }
    }
}

// Backoff's unit tests (growth/cap/determinism, per-seed jitter, and
// the pinned jitter sequence) live with the policy in `ss-retry`.
