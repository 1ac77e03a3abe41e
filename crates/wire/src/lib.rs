//! # stream-wire
//!
//! The versioned, length-prefixed binary protocol of the skimmed-sketch
//! serving layer. Zero dependencies beyond `std` and `stream-model`: the
//! build (and deployment) environment is offline, so the framing and
//! checksums are hand-rolled here, and the payload codecs are built on
//! `stream_model::codec` — the one varint/zigzag codec and panic-free
//! reader that the trace (SSTR) and sketch (SSK1, SSKM) formats share.
//!
//! ## Frame grammar
//!
//! ```text
//! frame       := header payload
//! header      := magic "SSWF"          (4 bytes)
//!                version u16-le        (= 2, the frame-format version)
//!                kind    u8            (frame tag, 1..=23)
//!                flags   u8            (bit 0 = trace ctx, rest reserved 0)
//!                payload_len u32-le
//!                payload_crc u32-le    (CRC-32/IEEE of payload)
//!                header_crc  u32-le    (CRC-32/IEEE of bytes 0..16)
//! payload     := [trace_ctx]? body     (≤ the reader's max_payload)
//! trace_ctx   := trace_id u64-le span_id u64-le   (iff flags bit 0)
//! body        := kind-specific (see `Frame`)
//! ```
//!
//! The header CRC makes desynchronisation loud: a reader that lands
//! mid-stream sees `BadMagic`/`HeaderCrc` immediately instead of
//! interpreting garbage as a length and stalling. The payload CRC catches
//! corruption that TCP's 16-bit checksum can miss on long-haul links.
//!
//! ## Session shape
//!
//! ```text
//! client                                server
//!   | ------------- HELLO ------------->  |
//!   | <----------- HELLO_ACK -----------  |   (schema + limits)
//!   | ------------- RESUME ------------>  |   (optional, after reconnect)
//!   | <----------- RESUME_ACK ----------  |   (last applied seq per stream)
//!   | --------- UPDATE_BATCH ---------->  |   (client_id + seq for dedup)
//!   | <--- BATCH_ACK | THROTTLE | ERROR   |
//!   | ---- QUERY_JOIN / QUERY_SELF_JOIN / SNAPSHOT ---> |
//!   | <--- ANSWER / SNAPSHOT_REPLY / ERROR ------------ |
//!   | ------------ GOODBYE ------------>  |
//!   | <----------- GOODBYE -------------  |   (drained close)
//! ```
//!
//! Strictly one request in flight per connection; every request gets
//! exactly one reply. THROTTLE is a *negative acknowledgement*: the batch
//! was not queued and the producer owns the retry.
//!
//! Version 2 added `client_id`/`seq` to UPDATE_BATCH and the
//! RESUME/RESUME_ACK pair: sequenced batches are idempotent at the
//! server (a replayed `(client_id, stream, seq)` is acknowledged without
//! being re-applied), so a client that loses a connection — or a server
//! that crashes and replays its write-ahead log — can never double-count
//! a batch.
//!
//! ## Trace extension (still version 2)
//!
//! Flags bit 0 ([`FLAG_TRACE`]) marks a 16-byte causal trace context
//! (`trace_id`, `span_id`) prefixed to the payload. The extension is
//! strictly opt-in per frame: a frame written without a context is
//! byte-identical to a pre-extension writer's output, so traced and
//! untraced peers interoperate. A server only stamps the context on
//! replies to requests that carried it, which is how it knows the peer
//! understands the bit. INSPECT/INSPECT_REPLY (kinds 15/16) serve live
//! introspection snapshots — metrics, flight-recorder events, the
//! slow-query log, and the online accuracy audit.
//!
//! ## Protocol version 3: cluster frames
//!
//! The *frame format* above is unchanged (headers still stamp `2`), but
//! HELLO now negotiates a *protocol* version: the session's vocabulary
//! of frame kinds. A client offers its [`PROTOCOL_VERSION`] in
//! `Frame::Hello.protocol`; a server accepts any offer in
//! `[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]` and rejects the rest with
//! the typed [`ErrorCode::UnsupportedVersion`] — mixed fleets fail loud
//! at the handshake, not deep in a session. Version 3 adds the cluster
//! vocabulary, legal only on sessions that negotiated ≥ 3:
//!
//! * SHARD_MAP (kind 17) — request/reply for the router's versioned
//!   [`ShardMapInfo`] cluster manifest (a request is a `ShardMapInfo`
//!   with `version == 0` and no shards).
//! * SHARD_QUERY / SHARD_QUERY_REPLY (kinds 18/19) — fetch a shard
//!   server's raw encoded sketch state for the requested streams (see
//!   [`SHARD_STREAM_F`]/[`SHARD_STREAM_G`]) in one round trip, so the
//!   router can merge per-shard sketches by linearity and answer joins
//!   bit-identically to a single node.
//!
//! Plain v2 clients still interoperate with v3 servers (single-node or
//! shard): they offer 2, the server accepts, and no cluster frame ever
//! appears on the session.
//!
//! ## Protocol version 3: replication frames
//!
//! The replication vocabulary is more v3 frame kinds (no new protocol
//! version: v3 sessions simply grew new verbs, and nothing sends them to
//! a peer that did not negotiate ≥ 3):
//!
//! * REPLICATE (kind 20) — a chunk of the primary's WAL byte stream
//!   (verbatim `Frame::encode` records cut at a frame boundary), or a
//!   snapshot blob bootstrapping a follower whose requested position was
//!   pruned. Carries the sender's fencing epoch and the primary's
//!   durable frontier.
//! * REPLICATE_ACK (kind 21) — the follower's durable replication
//!   frontier `(segment, offset)`; doubles as the long-poll request for
//!   the next chunk from that position.
//! * HEARTBEAT (kind 22) — liveness probe; the reply carries the
//!   responder's epoch, role, and durable WAL frontier for the router's
//!   failure detector and replica-lag gauges.
//! * PROMOTE (kind 23) — router → follower: assume the primary role
//!   under a strictly-greater fencing epoch; echoed back as the ack.
//!
//! Fencing: every REPLICATE is checked against the receiver's adopted
//! epoch and a stale sender gets the typed [`ErrorCode::Fenced`], so an
//! ex-primary that missed its own demotion cannot split-brain. Client
//! writes that reach a follower get [`ErrorCode::NotPrimary`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod crc;
mod frame;

pub use crc::crc32;
pub use frame::{
    encode_update_batch, write_update_batch, write_update_batch_traced, AuditSummary, ErrorCode,
    Frame, InspectReport, ServerInfo, ShardEntry, ShardMapInfo, SlowQueryEntry, StreamId,
    TraceContext, WireSpanEvent, FLAG_TRACE, INSPECT_ALL, INSPECT_AUDIT, INSPECT_EVENTS,
    INSPECT_METRICS, INSPECT_SLOW, SHARD_STREAM_BOTH, SHARD_STREAM_F, SHARD_STREAM_G,
};

use std::io;
use stream_model::codec::DecodeError;

/// Header magic: "Skimmed-Sketch Wire Frame".
pub const MAGIC: &[u8; 4] = b"SSWF";

/// Frame-format version stamped in every header. This is the *framing*
/// version (layout of the 20-byte header, CRC discipline); the
/// session's *vocabulary* is negotiated separately via
/// [`PROTOCOL_VERSION`] in HELLO.
pub const VERSION: u16 = 2;

/// Newest protocol (frame-vocabulary) version this build speaks; offered
/// by clients in HELLO. Version 3 adds the cluster frames
/// (SHARD_MAP/SHARD_QUERY/SHARD_QUERY_REPLY).
pub const PROTOCOL_VERSION: u16 = 3;

/// Oldest protocol version a server still accepts in HELLO. Offers
/// outside `[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]` are rejected with
/// [`ErrorCode::UnsupportedVersion`].
pub const MIN_PROTOCOL_VERSION: u16 = 2;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Default cap on a single frame's payload (16 MiB) — far above any
/// sensible batch, far below "attacker controls allocation".
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;

/// Errors reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying I/O failure (including mid-frame timeouts).
    Io(io::Error),
    /// The read timed out before the first header byte: the connection is
    /// idle at a frame boundary and the read may simply be retried.
    Idle,
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Closed,
    /// Header magic mismatch.
    BadMagic,
    /// Header CRC mismatch.
    HeaderCrc,
    /// Payload CRC mismatch.
    PayloadCrc,
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Unknown frame kind tag.
    BadKind(u8),
    /// Non-zero reserved flags.
    BadFlags(u8),
    /// Frame ended before its payload was complete.
    Truncated,
    /// Declared payload exceeds the reader's limit.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The reader's limit.
        max: u32,
    },
    /// Payload decoded cleanly but left unread bytes.
    TrailingBytes,
    /// Structurally invalid payload content.
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Idle => write!(f, "idle: no frame before read timeout"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::HeaderCrc => write!(f, "frame header crc mismatch"),
            WireError::PayloadCrc => write!(f, "frame payload crc mismatch"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadFlags(x) => write!(f, "non-zero reserved flags {x:#04x}"),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds limit {max}")
            }
            WireError::TrailingBytes => write!(f, "payload has trailing bytes"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::MalformedVarint => WireError::BadPayload("malformed varint"),
            DecodeError::TrailingBytes => WireError::TrailingBytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_model::update::Update;

    #[test]
    fn header_layout_is_twenty_bytes() {
        let bytes = Frame::QueryJoin.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[0..4], MAGIC);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
    }

    #[test]
    fn batch_round_trips() {
        let frame = Frame::UpdateBatch {
            stream: StreamId::G,
            client_id: 0xD1CE_F00D,
            seq: 41,
            updates: vec![
                Update::insert(7),
                Update::delete(9),
                Update::insert(1 << 40),
            ],
        };
        let bytes = frame.encode();
        let (back, n) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, frame);
        assert_eq!(n, bytes.len());
    }

    #[test]
    fn encode_update_batch_matches_frame_encode() {
        // The server WAL-logs batches via `encode_update_batch` without
        // materialising a `Frame`; recovery decodes them as frames, so
        // the two encoders must agree byte for byte.
        let updates = vec![
            Update::insert(7),
            Update::delete(9),
            Update::insert(1 << 40),
        ];
        let direct = encode_update_batch(StreamId::G, 0xD1CE_F00D, 41, &updates);
        let via_frame = Frame::UpdateBatch {
            stream: StreamId::G,
            client_id: 0xD1CE_F00D,
            seq: 41,
            updates,
        }
        .encode();
        assert_eq!(direct, via_frame);
    }

    #[test]
    fn resume_round_trips() {
        for frame in [
            Frame::Resume {
                client_id: u64::MAX,
            },
            Frame::ResumeAck {
                last_seq_f: 7,
                last_seq_g: 0,
            },
        ] {
            let bytes = frame.encode();
            let (back, n) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, frame);
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn idle_and_close_are_distinguished() {
        // An empty reader is a clean close…
        let err = Frame::decode(&[], DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::Closed), "{err}");
        // …while a cut-off frame is truncation.
        let bytes = Frame::QueryJoin.encode();
        let err = Frame::decode(&bytes[..HEADER_LEN - 3], DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::Truncated), "{err}");
    }

    #[test]
    fn shard_frames_round_trip() {
        for frame in [
            // A manifest request: version 0, no shards.
            Frame::ShardMap(ShardMapInfo {
                version: 0,
                seed: 0,
                shards: vec![],
            }),
            Frame::ShardMap(ShardMapInfo {
                version: 3,
                seed: 0xFEED_5EED,
                shards: vec![
                    ShardEntry {
                        addr: "127.0.0.1:7401".into(),
                        healthy: true,
                        follower: "127.0.0.1:7501".into(),
                        lag_bytes: 4096,
                    },
                    ShardEntry {
                        addr: "127.0.0.1:7402".into(),
                        healthy: false,
                        follower: String::new(),
                        lag_bytes: 0,
                    },
                ],
            }),
            Frame::ShardQuery {
                streams: SHARD_STREAM_F,
            },
            Frame::ShardQuery {
                streams: SHARD_STREAM_BOTH,
            },
            Frame::ShardQueryReply {
                streams: SHARD_STREAM_BOTH,
                sketch_f: vec![1, 2, 3],
                sketch_g: vec![9; 100],
            },
            Frame::ShardQueryReply {
                streams: SHARD_STREAM_G,
                sketch_f: vec![],
                sketch_g: vec![7, 7],
            },
        ] {
            let bytes = frame.encode();
            let (back, n) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, frame);
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn shard_query_rejects_bad_stream_masks() {
        // An empty or out-of-range mask is a structural error, not a
        // silently-empty query.
        let mut bytes = Frame::ShardQuery {
            streams: SHARD_STREAM_F,
        }
        .encode();
        let payload_at = HEADER_LEN;
        for bad in [0u8, 0x04, 0xFF] {
            bytes[payload_at] = bad;
            let crc = crc32(&bytes[payload_at..]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            // The header CRC covers the payload-CRC field just patched.
            let hcrc = crc32(&bytes[..16]);
            bytes[16..20].copy_from_slice(&hcrc.to_le_bytes());
            let err = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(matches!(err, WireError::BadPayload(_)), "{bad:#04x}: {err}");
        }
    }

    #[test]
    fn version_error_codes_round_trip_typed() {
        for (code, raw) in [
            (ErrorCode::UnsupportedVersion, 6),
            (ErrorCode::ShardUnavailable, 7),
            (ErrorCode::NotPrimary, 8),
            (ErrorCode::Fenced, 9),
        ] {
            assert_eq!(code.as_u16(), raw);
            assert_eq!(ErrorCode::from_u16(raw), code);
            let frame = Frame::Error {
                code,
                message: "partition 1 (127.0.0.1:7402) unreachable".into(),
            };
            let bytes = frame.encode();
            let (back, _) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn replication_frames_round_trip() {
        for frame in [
            Frame::Replicate {
                epoch: 2,
                segment: 5,
                offset: 1 << 20,
                snapshot: false,
                frontier_segment: 6,
                frontier_offset: 512,
                bytes: Frame::QueryJoin.encode(),
            },
            // Snapshot bootstrap chunk.
            Frame::Replicate {
                epoch: 1,
                segment: 9,
                offset: 0,
                snapshot: true,
                frontier_segment: 9,
                frontier_offset: 0,
                bytes: vec![0xAB; 300],
            },
            // Caught-up poll reply: empty chunk.
            Frame::Replicate {
                epoch: 1,
                segment: 0,
                offset: 0,
                snapshot: false,
                frontier_segment: 0,
                frontier_offset: 0,
                bytes: vec![],
            },
            Frame::ReplicateAck {
                epoch: u64::MAX,
                segment: 3,
                offset: 77,
            },
            Frame::Heartbeat {
                epoch: 0,
                primary: false,
                segment: 0,
                offset: 0,
            },
            Frame::Heartbeat {
                epoch: 4,
                primary: true,
                segment: 12,
                offset: 4096,
            },
            Frame::Promote { epoch: 2 },
        ] {
            let bytes = frame.encode();
            let (back, n) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(back, frame);
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn replicate_rejects_bad_tags_and_trailing_bytes() {
        // A bad snapshot-presence tag is a structural error.
        let mut bytes = Frame::Replicate {
            epoch: 1,
            segment: 1,
            offset: 1,
            snapshot: false,
            frontier_segment: 1,
            frontier_offset: 1,
            bytes: vec![],
        }
        .encode();
        // payload = epoch, segment, offset (1 varint byte each), then tag.
        let tag_at = HEADER_LEN + 3;
        bytes[tag_at] = 7;
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        let hcrc = crc32(&bytes[..16]);
        bytes[16..20].copy_from_slice(&hcrc.to_le_bytes());
        let err = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)), "{err}");

        // A chunk whose declared length stops short of the payload tail
        // leaves trailing bytes, which the decoder rejects.
        let mut ack = Frame::ReplicateAck {
            epoch: 1,
            segment: 1,
            offset: 1,
        }
        .encode();
        ack.push(0x00);
        let len = (ack.len() - HEADER_LEN) as u32;
        ack[8..12].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&ack[HEADER_LEN..]);
        ack[12..16].copy_from_slice(&crc.to_le_bytes());
        let hcrc = crc32(&ack[..16]);
        ack[16..20].copy_from_slice(&hcrc.to_le_bytes());
        let err = Frame::decode(&ack, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes), "{err}");
    }

    #[test]
    fn protocol_version_range_is_sane() {
        const { assert!(MIN_PROTOCOL_VERSION <= PROTOCOL_VERSION) }
        // The frame format itself did not change with protocol v3.
        assert_eq!(VERSION, 2);
    }

    #[test]
    fn oversize_is_rejected_before_allocation() {
        let frame = Frame::SnapshotReply {
            stream: StreamId::F,
            sketch: vec![0xAB; 4096],
        };
        let bytes = frame.encode();
        let err = Frame::decode(&bytes, 16).unwrap_err();
        assert!(matches!(err, WireError::Oversize { max: 16, .. }), "{err}");
    }
}
