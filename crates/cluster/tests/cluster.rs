//! Cluster integration suite: routed answers must be **bit-identical**
//! to a single node fed the same stream, for every shard count; failure
//! and version mismatches must surface as their *typed* errors.
//!
//! Tests serialize on a process-wide mutex: they spin up servers,
//! routers, and (with telemetry compiled in) share the global registry.

use skimmed_sketch::{estimate_join, estimate_self_join, EstimatorConfig, SkimmedSchema};
use ss_cluster::{Router, RouterConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use stream_model::{Domain, Update};
use stream_server::{BackoffConfig, ClientConfig, ClientError, Server, ServerClient, ServerConfig};
use stream_wire::{
    ErrorCode, Frame, ShardMapInfo, StreamId, WireError, DEFAULT_MAX_PAYLOAD, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic mixed inserts/deletes within `domain_log2`.
fn mixed_updates(n: usize, domain_log2: u32, salt: u64) -> Vec<Update> {
    (0..n as u64)
        .map(|i| {
            let v = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - domain_log2);
            let w = match i % 5 {
                0 => -1,
                1 => 3,
                _ => 1,
            };
            Update {
                value: v,
                weight: w,
            }
        })
        .collect()
}

fn shard_config(schema: Arc<SkimmedSchema>) -> ServerConfig {
    let mut config = ServerConfig::new(schema);
    config.handler_threads = 2;
    config.ingest_workers = 2;
    config.read_timeout = Duration::from_millis(50);
    config.shard = true;
    config
}

fn start_shards(n: usize, schema: &Arc<SkimmedSchema>) -> (Vec<Server>, Vec<String>) {
    let shards: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", shard_config(schema.clone())).unwrap())
        .collect();
    let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
    (shards, addrs)
}

fn test_router_config(addrs: Vec<String>) -> RouterConfig {
    let mut config = RouterConfig::new(addrs);
    config.handler_threads = 2;
    config.shard_read_timeout = Duration::from_millis(100);
    config.shard_reply_retries = 10;
    config.retry_budget = 3;
    config.backoff = BackoffConfig {
        base: Duration::from_micros(200),
        cap: Duration::from_millis(5),
        seed: 0xC1A5_5EED,
    };
    config
}

fn test_client_config(client_id: u64) -> ClientConfig {
    ClientConfig {
        name: "cluster-test".into(),
        client_id,
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(500),
        reply_retries: 30,
        backoff: BackoffConfig::default(),
        ..ClientConfig::default()
    }
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

// ---------------------------------------------------------------------
// bit-identity across shard counts
// ---------------------------------------------------------------------

#[test]
fn routed_answers_are_bit_identical_across_shard_counts() {
    let _guard = serial();
    let domain_log2 = 12;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 5, 64, 7);
    let uf = mixed_updates(12_000, domain_log2, 0xF00D);
    let ug = mixed_updates(12_000, domain_log2, 0xBEEF);

    // Ground truth #1: the in-process estimate.
    let mut local_f = skimmed_sketch::SkimmedSketch::new(schema.clone());
    let mut local_g = skimmed_sketch::SkimmedSketch::new(schema.clone());
    local_f.add_batch(&uf);
    local_g.add_batch(&ug);
    let cfg = EstimatorConfig::default();
    let local_join = estimate_join(&local_f, &local_g, &cfg).estimate;
    let local_self_f = estimate_self_join(&local_f, &cfg);

    // Ground truth #2: a served single node fed the same stream.
    let single = Server::bind("127.0.0.1:0", shard_config(schema.clone())).unwrap();
    let mut client =
        ServerClient::connect_with(single.local_addr(), test_client_config(21)).unwrap();
    client.send_all(StreamId::F, &uf, 1_000).unwrap();
    client.send_all(StreamId::G, &ug, 1_000).unwrap();
    let single_join = client.query_join().unwrap().estimate;
    assert_eq!(single_join, local_join);
    client.goodbye().unwrap();
    single.shutdown().unwrap();

    for shard_count in [1usize, 2, 4] {
        let (shards, addrs) = start_shards(shard_count, &schema);
        let router = Router::bind("127.0.0.1:0", test_router_config(addrs)).unwrap();

        // The router is indistinguishable from a server at handshake:
        // it advertises the shards' (shared) schema.
        let mut client =
            ServerClient::connect_with(router.local_addr(), test_client_config(21)).unwrap();
        assert_eq!(client.info().domain_log2 as u32, domain_log2);

        client.send_all(StreamId::F, &uf, 1_000).unwrap();
        client.send_all(StreamId::G, &ug, 1_000).unwrap();

        let routed = client.query_join().unwrap();
        assert_eq!(
            routed.estimate, single_join,
            "routed join over {shard_count} shard(s) must be bit-identical to a single node"
        );
        assert_eq!(client.query_self_join(StreamId::F).unwrap(), local_self_f);

        // The merged snapshot is the single node's sketch, bit for bit.
        let merged = client.snapshot(StreamId::F).unwrap();
        assert_eq!(merged.level_counters(), local_f.level_counters());

        // The router answers RESUME with the fleet minimum: never beyond
        // what every shard applied (12 sequenced batches per stream).
        drop(client);
        let mut resumer =
            ServerClient::connect_with(router.local_addr(), test_client_config(21)).unwrap();
        let (last_f, last_g) = resumer.resume().unwrap();
        assert!(last_f <= 12 && last_g <= 12, "fleet minimum, never beyond");
        drop(resumer);

        // Replaying the *entire* sequenced stream through the router —
        // a fresh session re-sends seq 1.. — is absorbed by shard-side
        // dedup: same answer, nothing doubled.
        let mut replayer =
            ServerClient::connect_with(router.local_addr(), test_client_config(21)).unwrap();
        replayer.send_all(StreamId::F, &uf, 1_000).unwrap();
        replayer.send_all(StreamId::G, &ug, 1_000).unwrap();
        assert_eq!(
            replayer.query_join().unwrap().estimate,
            single_join,
            "full sequenced replay must be deduplicated shard-side"
        );
        replayer.goodbye().unwrap();

        router.shutdown().unwrap();
        for shard in shards {
            shard.shutdown().unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// degraded mode: typed partial-answer error
// ---------------------------------------------------------------------

#[test]
fn dead_shard_yields_typed_shard_unavailable_naming_the_partition() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 32, 3);
    let (mut shards, addrs) = start_shards(2, &schema);
    let router = Router::bind("127.0.0.1:0", test_router_config(addrs)).unwrap();

    let mut client =
        ServerClient::connect_with(router.local_addr(), test_client_config(33)).unwrap();
    let uf = mixed_updates(2_000, domain_log2, 0xAB);
    client.send_all(StreamId::F, &uf, 500).unwrap();

    // Kill partition 1 and keep it down: queries need *every* shard.
    shards.remove(1).halt();
    let err = client.query_join().unwrap_err();
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(
                message.contains("partition 1"),
                "degraded error must name the missing partition, got: {message}"
            );
        }
        other => panic!("expected a typed SHARD_UNAVAILABLE server error, got {other}"),
    }

    // Writes that land on the dead partition degrade the same way; the
    // healthy partition keeps accepting its share (no ack was sent, so
    // a sequenced retry after recovery converges — see the chaos suite).
    let mut refused = false;
    for batch in uf.chunks(500) {
        match client.send_batch(StreamId::F, batch) {
            Ok(_) => {}
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                refused = true;
                break;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(refused, "some sub-batch must route to the dead partition");

    // SHARD_MAP now reports the partition unhealthy.
    let map = client.shard_map().unwrap();
    assert_eq!(map.version, 1);
    assert_eq!(map.shards.len(), 2);
    assert!(map.shards[0].healthy);
    assert!(!map.shards[1].healthy);

    drop(client);
    router.shutdown().unwrap();
    for shard in shards {
        shard.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// HELLO version negotiation (router and shard alike)
// ---------------------------------------------------------------------

fn hello_raw(addr: std::net::SocketAddr, protocol: u16) -> Frame {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol,
        client: "versioner".into(),
    }
    .write_to(&mut sock)
    .unwrap();
    read_reply(&mut sock)
}

#[test]
fn hello_negotiation_accepts_the_range_and_rejects_outside_it_typed() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let (shards, addrs) = start_shards(1, &schema);
    let router = Router::bind("127.0.0.1:0", test_router_config(addrs)).unwrap();

    for addr in [shards[0].local_addr(), router.local_addr()] {
        // Both ends of the accepted range handshake fine.
        assert!(matches!(
            hello_raw(addr, MIN_PROTOCOL_VERSION),
            Frame::HelloAck(_)
        ));
        assert!(matches!(
            hello_raw(addr, PROTOCOL_VERSION),
            Frame::HelloAck(_)
        ));
        // Outside the range: the *typed* rejection, naming the range.
        for bad in [1u16, PROTOCOL_VERSION + 1] {
            match hello_raw(addr, bad) {
                Frame::Error { code, message } => {
                    assert_eq!(code, ErrorCode::UnsupportedVersion);
                    assert!(
                        message.contains(&format!("{MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}")),
                        "rejection must name the accepted range, got: {message}"
                    );
                }
                other => panic!("expected UNSUPPORTED_VERSION, got {other:?}"),
            }
        }
    }

    // A v2 session may not speak the v3 cluster vocabulary.
    let mut sock = TcpStream::connect(router.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: MIN_PROTOCOL_VERSION,
        client: "v2".into(),
    }
    .write_to(&mut sock)
    .unwrap();
    assert!(matches!(read_reply(&mut sock), Frame::HelloAck(_)));
    Frame::ShardMap(ShardMapInfo {
        version: 0,
        seed: 0,
        shards: Vec::new(),
    })
    .write_to(&mut sock)
    .unwrap();
    match read_reply(&mut sock) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("v2 session sent SHARD_MAP, expected rejection, got {other:?}"),
    }
    drop(sock);

    router.shutdown().unwrap();
    for shard in shards {
        shard.shutdown().unwrap();
    }
}

#[test]
fn client_surfaces_version_rejection_as_typed_mismatch() {
    let _guard = serial();
    // A fake "old" server that rejects every HELLO with the typed code.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let _ = Frame::read_from(&mut sock, DEFAULT_MAX_PAYLOAD);
        Frame::Error {
            code: ErrorCode::UnsupportedVersion,
            message: "server speaks 1..=1".into(),
        }
        .write_to(&mut sock)
        .unwrap();
    });
    let err = ServerClient::connect_with(addr, test_client_config(0)).unwrap_err();
    match err {
        ClientError::VersionMismatch { offered, message } => {
            assert_eq!(offered, PROTOCOL_VERSION);
            assert!(message.contains("1..=1"));
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    fake.join().unwrap();
}

// ---------------------------------------------------------------------
// SHARD_MAP manifest
// ---------------------------------------------------------------------

#[test]
fn shard_map_serves_the_versioned_manifest() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let (shards, addrs) = start_shards(2, &schema);
    let mut config = test_router_config(addrs.clone());
    config.partition_seed = 0xFEED_5EED;
    let router = Router::bind("127.0.0.1:0", config).unwrap();

    let mut client = ServerClient::connect(router.local_addr()).unwrap();
    let map = client.shard_map().unwrap();
    assert_eq!(map.version, 1);
    assert_eq!(map.seed, 0xFEED_5EED);
    let got: Vec<&str> = map.shards.iter().map(|s| s.addr.as_str()).collect();
    let want: Vec<&str> = addrs.iter().map(String::as_str).collect();
    assert_eq!(got, want, "manifest order IS the partition map");
    assert!(map.shards.iter().all(|s| s.healthy));

    // A client can rebuild the exact partition function from the wire
    // manifest — the property that makes client-side routing possible.
    let remote = ss_cluster::Partitioner::new(map.seed, map.shards.len());
    let local = router.manifest().partitioner();
    assert!((0..4096u64).all(|v| remote.shard_of(v) == local.shard_of(v)));

    // Plain shard servers do not serve SHARD_MAP.
    let mut direct = ServerClient::connect(shards[0].local_addr()).unwrap();
    assert!(matches!(
        direct.shard_map(),
        Err(ClientError::Server {
            code: ErrorCode::Protocol,
            ..
        })
    ));

    client.goodbye().unwrap();
    router.shutdown().unwrap();
    for shard in shards {
        shard.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// bind-time schema verification
// ---------------------------------------------------------------------

#[test]
fn router_refuses_mixed_schemas_and_non_shard_servers() {
    let _guard = serial();
    let schema_a = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let schema_b = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 2); // different seed
    let shard_a = Server::bind("127.0.0.1:0", shard_config(schema_a.clone())).unwrap();
    let shard_b = Server::bind("127.0.0.1:0", shard_config(schema_b)).unwrap();

    let config = test_router_config(vec![
        shard_a.local_addr().to_string(),
        shard_b.local_addr().to_string(),
    ]);
    match Router::bind("127.0.0.1:0", config) {
        Err(ss_cluster::RouterError::SchemaMismatch {
            partition, field, ..
        }) => {
            assert_eq!(partition, 1);
            assert_eq!(field, "seed");
        }
        Ok(_) => panic!("mixed schemas must refuse to route"),
        Err(other) => panic!("expected SchemaMismatch, got {other}"),
    }
    shard_b_cleanup(shard_b);

    // A plain (non-shard-role) server fails the bind-time probe.
    let mut plain_config = ServerConfig::new(schema_a);
    plain_config.handler_threads = 2;
    plain_config.read_timeout = Duration::from_millis(50);
    let plain = Server::bind("127.0.0.1:0", plain_config).unwrap();
    let config = test_router_config(vec![
        shard_a.local_addr().to_string(),
        plain.local_addr().to_string(),
    ]);
    match Router::bind("127.0.0.1:0", config) {
        Err(ss_cluster::RouterError::Probe { partition, .. }) => assert_eq!(partition, 1),
        Ok(_) => panic!("a non-shard server must fail the probe"),
        Err(other) => panic!("expected Probe failure, got {other}"),
    }

    plain.shutdown().unwrap();
    shard_a.shutdown().unwrap();
}

fn shard_b_cleanup(shard: Server) {
    shard.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// typed bind-time config errors
// ---------------------------------------------------------------------

fn assert_invalid_config(config: RouterConfig) {
    match Router::bind("127.0.0.1:0", config) {
        Err(ss_cluster::RouterError::InvalidConfig(_)) => {}
        Err(e) => panic!("expected InvalidConfig, got {e}"),
        Ok(_) => panic!("an invalid router config must refuse to bind"),
    }
}

#[test]
fn router_without_shards_is_a_typed_config_error() {
    assert_invalid_config(RouterConfig::new(Vec::new()));
}

#[test]
fn router_with_zero_handlers_is_a_typed_config_error() {
    // Rejected before any shard is probed, so no live shard is needed.
    let mut config = RouterConfig::new(vec!["127.0.0.1:1".into()]);
    config.handler_threads = 0;
    assert_invalid_config(config);
}

#[test]
fn router_with_mismatched_followers_is_a_typed_config_error() {
    let mut config = RouterConfig::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
    config.followers = vec!["127.0.0.1:3".into()];
    assert_invalid_config(config);
}

// ---------------------------------------------------------------------
// serving substrate: overflow lane and drain on the router
// ---------------------------------------------------------------------

/// Runs `f` on a helper thread and waits at most `bound` for its result,
/// so a wedged router fails the test instead of hanging it.
fn within<T: Send + 'static>(bound: Duration, f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(bound).ok()
}

#[test]
fn pinned_router_pool_still_answers_new_clients_on_the_overflow_lane() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let (shards, addrs) = start_shards(1, &schema);
    let mut config = test_router_config(addrs);
    config.handler_threads = 1;
    config.read_timeout = Duration::from_millis(250);
    let router = Router::bind("127.0.0.1:0", config).unwrap();

    // Pin the only pooled handler with a session that never speaks again.
    let mut silent = TcpStream::connect(router.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: PROTOCOL_VERSION,
        client: "silent".into(),
    }
    .write_to(&mut silent)
    .unwrap();
    assert!(matches!(read_reply(&mut silent), Frame::HelloAck(_)));

    // A second client's HELLO and QUERY_JOIN are answered well inside
    // one 250 ms read tick: no waiting for the pinned handler.
    let addr = router.local_addr();
    let answered = within(Duration::from_millis(150), move || {
        let mut client = ServerClient::connect_with(addr, test_client_config(0)).unwrap();
        let answer = client.query_join().unwrap();
        let _ = client.goodbye();
        answer
    });
    assert!(
        answered.is_some_and(|a| a.estimate.is_finite()),
        "second client starved behind a pinned handler"
    );

    drop(silent);
    router.shutdown().unwrap();
    for shard in shards {
        shard.shutdown().unwrap();
    }
}

#[test]
fn router_shutdown_returns_while_a_producer_never_pauses() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let (shards, addrs) = start_shards(1, &schema);
    let router = Router::bind("127.0.0.1:0", test_router_config(addrs)).unwrap();

    // A producer pipelining batches back to back, never idle for a
    // read tick, until the router refuses it.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let producer = {
        let addr = router.local_addr();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = ServerClient::connect_with(addr, test_client_config(0)).unwrap();
            let updates = mixed_updates(4_096, 8, 7);
            let mut rounds = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                if client.send_all(StreamId::F, &updates, 256).is_err() {
                    break;
                }
                rounds += 1;
            }
            rounds
        })
    };
    // Let it reach full speed before draining.
    std::thread::sleep(Duration::from_millis(200));

    let stopped = within(Duration::from_secs(2), move || router.shutdown().is_ok());
    stop.store(true, std::sync::atomic::Ordering::Release);
    let rounds = producer.join().unwrap();
    assert!(rounds > 0, "the producer never got going");
    assert_eq!(
        stopped,
        Some(true),
        "router shutdown wedged behind a producer that never goes quiet"
    );
    for shard in shards {
        shard.shutdown().unwrap();
    }
}
