//! End-to-end loopback contract of the serving layer.
//!
//! The load-bearing property mirrors the ingestion pipeline's: sketches
//! fed over the wire must be **bit-identical** to sketches fed
//! in-process from the same update stream, and therefore every estimate
//! the server returns must equal the in-process estimate exactly — the
//! network boundary introduces no approximation. On top of that:
//! overload must surface as THROTTLE frames with the pool's pending
//! count capped (bounded memory), protocol violations must get ERROR
//! frames rather than hangs, and shutdown must drain every acknowledged
//! batch.

use skimmed_sketch::{
    estimate_join, estimate_self_join, EstimatorConfig, SkimmedSchema, SkimmedSketch,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use stream_model::{Domain, Update};
use stream_server::{BatchOutcome, ClientError, Server, ServerClient, ServerConfig};
use stream_wire::{ErrorCode, Frame, StreamId, WireError, DEFAULT_MAX_PAYLOAD, VERSION};

/// Deterministic mixed inserts/deletes with varied weights.
fn mixed_updates(n: usize, domain_log2: u32, salt: u64) -> Vec<Update> {
    (0..n as u64)
        .map(|i| {
            let v = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - domain_log2);
            let w = match i % 7 {
                0 => -2,
                1 => 3,
                2 => -1,
                3 => 5,
                _ => 1,
            };
            Update {
                value: v,
                weight: w,
            }
        })
        .collect()
}

fn read_reply(sock: &mut TcpStream) -> Frame {
    for _ in 0..100 {
        match Frame::read_from(sock, DEFAULT_MAX_PAYLOAD) {
            Ok((frame, _)) => return frame,
            Err(WireError::Idle) => continue,
            Err(e) => panic!("reply read failed: {e}"),
        }
    }
    panic!("no reply within patience window");
}

#[test]
fn wire_ingestion_is_bit_identical_to_in_process() {
    let domain_log2 = 12;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 5, 128, 7);
    let mut config = ServerConfig::new(schema.clone());
    config.handler_threads = 2;
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let uf = mixed_updates(30_000, domain_log2, 0xF00D);
    let ug = mixed_updates(30_000, domain_log2, 0xBEEF);
    let mut local_f = SkimmedSketch::new(schema.clone());
    let mut local_g = SkimmedSketch::new(schema.clone());
    local_f.add_batch(&uf);
    local_g.add_batch(&ug);

    let mut client = ServerClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.info().domain_log2, domain_log2 as u16);
    assert_eq!(client.info().tables, 5);
    // The advertised schema rebuilds the same hash families: a sketch
    // built from it merges with the server's.
    use stream_sketches::linear::LinearSynopsis;
    assert!(SkimmedSketch::new(client.schema()).compatible(&local_f));

    let rf = client.send_all(StreamId::F, &uf, 1_000).unwrap();
    let rg = client.send_all(StreamId::G, &ug, 1_000).unwrap();
    assert_eq!(rf.updates, uf.len() as u64);
    assert_eq!(rg.updates, ug.len() as u64);

    // Shipped snapshots are bit-identical to the in-process sketches.
    let snap_f = client.snapshot(StreamId::F).unwrap();
    let snap_g = client.snapshot(StreamId::G).unwrap();
    assert_eq!(snap_f.level_counters(), local_f.level_counters());
    assert_eq!(snap_g.level_counters(), local_g.level_counters());
    assert_eq!(snap_f.l1_mass(), local_f.l1_mass());

    // Therefore the server's answers equal the in-process estimates
    // exactly — not approximately.
    let cfg = EstimatorConfig::default();
    let local_est = estimate_join(&local_f, &local_g, &cfg);
    let answer = client.query_join().unwrap();
    assert_eq!(answer.estimate, local_est.estimate);
    assert_eq!(answer.dense_dense, local_est.dense_dense);
    assert_eq!(answer.sparse_sparse, local_est.sparse_sparse);
    assert_eq!(answer.dense_f, local_est.dense_f as u64);

    let self_f = client.query_self_join(StreamId::F).unwrap();
    assert_eq!(self_f, estimate_self_join(&local_f, &cfg));

    client.goodbye().unwrap();

    // Shutdown drains the pools; the final sketches hold every
    // acknowledged update.
    let (fin_f, fin_g) = server.shutdown().unwrap();
    assert_eq!(fin_f.level_counters(), local_f.level_counters());
    assert_eq!(fin_g.level_counters(), local_g.level_counters());
}

#[test]
fn overload_gets_throttled_and_the_queue_stays_bounded() {
    // Dyadic extraction multiplies per-update sketch work by the number
    // of levels, making the single ingest worker decisively slower than
    // the wire path — so a flooding client must hit THROTTLE.
    let domain_log2 = 16;
    let schema = SkimmedSchema::dyadic(Domain::with_log2(domain_log2), 7, 512, 3);
    let mut config = ServerConfig::new(schema);
    config.handler_threads = 1;
    config.ingest_workers = 1;
    config.queue_depth = 1;
    config.max_batch = 50_000;
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let cap = server.queue_capacity();
    assert_eq!(cap, 2, "1 worker × (1 queued + 1 in flight)");

    let batch = mixed_updates(40_000, domain_log2, 0xCAFE);
    let mut client = ServerClient::connect(server.local_addr()).unwrap();
    let mut throttled = 0u64;
    let mut accepted = 0u64;
    for _ in 0..100 {
        match client.send_batch(StreamId::F, &batch).unwrap() {
            BatchOutcome::Accepted(n) => accepted += n,
            BatchOutcome::Throttled { pending, limit } => {
                assert_eq!(limit, cap);
                assert!(pending <= limit, "pending {pending} beyond cap {limit}");
                throttled += 1;
            }
        }
        // The pool's pending count — the server's only buffer of decoded
        // updates — never exceeds its advertised capacity, no matter how
        // hard the client pushes.
        assert!(server.pending_chunks(StreamId::F) <= cap);
        if throttled >= 3 && accepted > 0 {
            break;
        }
    }
    assert!(throttled >= 3, "expected sustained overload to throttle");
    assert!(accepted > 0, "some batches must land");
    client.goodbye().unwrap();

    // Accounting stays exact under overload: the drained sketch holds
    // exactly the acknowledged updates (each batch adds the same mass).
    let (fin_f, _g) = server.shutdown().unwrap();
    assert_eq!(fin_f.l1_mass() % batch_l1(&batch), 0);
    assert_eq!(
        fin_f.l1_mass() / batch_l1(&batch),
        accepted / batch.len() as u64
    );
}

/// Sum of |weights| — the l1 mass one batch contributes.
fn batch_l1(batch: &[Update]) -> u64 {
    batch.iter().map(|u| u.weight.unsigned_abs()).sum()
}

#[test]
fn requests_before_hello_are_rejected() {
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let mut config = ServerConfig::new(schema);
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::QueryJoin.write_to(&mut sock).unwrap();
    match read_reply(&mut sock) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected ERROR, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn garbage_and_corruption_get_error_frames_then_close() {
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let mut config = ServerConfig::new(schema);
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    // Raw garbage: the header CRC (or magic) fails, the server reports
    // and closes.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    sock.write_all(&[0xAAu8; 64]).unwrap();
    match read_reply(&mut sock) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // A handshaken session sending one corrupted frame: same outcome.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: VERSION,
        client: "corruptor".into(),
    }
    .write_to(&mut sock)
    .unwrap();
    assert!(matches!(read_reply(&mut sock), Frame::HelloAck(_)));
    let mut bytes = Frame::UpdateBatch {
        stream: StreamId::F,
        client_id: 0,
        seq: 0,
        updates: vec![Update::insert(1); 16],
    }
    .encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40; // payload corruption: caught by the payload CRC
    sock.write_all(&bytes).unwrap();
    match read_reply(&mut sock) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected ERROR, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn oversized_batches_are_refused_without_closing_the_session() {
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let mut config = ServerConfig::new(schema);
    config.max_batch = 10;
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let mut client = ServerClient::connect(server.local_addr()).unwrap();
    let too_big = vec![Update::insert(1); 20];
    match client.send_batch(StreamId::F, &too_big) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BatchTooLarge),
        other => panic!("expected BatchTooLarge, got {other:?}"),
    }
    // The session survives the refusal.
    let ok = client.send_batch(StreamId::G, &too_big[..10]).unwrap();
    assert_eq!(ok, BatchOutcome::Accepted(10));
    client.goodbye().unwrap();
    let (_f, g) = server.shutdown().unwrap();
    assert_eq!(g.l1_mass(), 10);
}

#[test]
fn shutdown_closes_idle_connections_and_drains() {
    let schema = SkimmedSchema::scanning(Domain::with_log2(10), 4, 64, 11);
    let mut config = ServerConfig::new(schema.clone());
    config.read_timeout = Duration::from_millis(25);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    let updates = mixed_updates(5_000, 10, 0xD00D);
    let mut client = ServerClient::connect(server.local_addr()).unwrap();
    client.send_all(StreamId::F, &updates, 500).unwrap();

    // Shut down while the client connection is still open and idle: the
    // handler notices at the next read tick and the pools drain fully.
    let (fin_f, fin_g) = server.shutdown().unwrap();
    let mut local = SkimmedSketch::new(schema);
    local.add_batch(&updates);
    assert_eq!(fin_f.level_counters(), local.level_counters());
    assert_eq!(fin_g.l1_mass(), 0);
}

#[test]
fn v2_session_refuses_v3_requests_client_side() {
    use stream_server::ClientConfig;
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let mut config = ServerConfig::new(schema);
    config.read_timeout = Duration::from_millis(50);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    // A default session negotiates the current protocol.
    let current = ServerClient::connect(server.local_addr()).unwrap();
    assert_eq!(current.protocol(), stream_wire::PROTOCOL_VERSION);
    current.goodbye().unwrap();

    // A session pinned to protocol 2 handshakes fine (the server's
    // accepted range starts at 2) but every v3-only request is refused
    // before any bytes hit the wire: the server never sees a frame kind
    // a v2 peer could not decode.
    let mut v2 = ServerClient::connect_with(
        server.local_addr(),
        ClientConfig {
            offer_protocol: 2,
            read_timeout: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    assert_eq!(v2.protocol(), 2);
    for result in [
        v2.shard_map().map(|_| ()),
        v2.shard_query(0b11).map(|_| ()),
        v2.heartbeat(1).map(|_| ()),
        v2.promote(1).map(|_| ()),
        v2.replicate_poll(1, 0, 0).map(|_| ()),
    ] {
        match result {
            Err(ClientError::V3Required { negotiated }) => assert_eq!(negotiated, 2),
            other => panic!("expected V3Required, got {other:?}"),
        }
    }
    // The refusals are purely local: the session is still healthy.
    let ok = v2.send_batch(StreamId::F, &[Update::insert(1)]).unwrap();
    assert_eq!(ok, BatchOutcome::Accepted(1));
    v2.goodbye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn zero_handler_threads_is_a_typed_bind_error() {
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let mut config = ServerConfig::new(schema);
    config.handler_threads = 0;
    match Server::bind("127.0.0.1:0", config) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("a server with no handlers must refuse to bind"),
    }
}
