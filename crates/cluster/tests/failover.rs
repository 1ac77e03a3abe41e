//! Failover chaos suite: kill a shard's primary mid-stream and prove
//! the router's supervisor detects it, PROMOTEs the follower under the
//! next fencing epoch, repoints its sessions, and that the cluster
//! converges to answers **bit-identical** to an uninterrupted single
//! node — at S ∈ {1, 2, 4} shards.
//!
//! Why bit-identity survives a failover: the follower applied the
//! primary's own WAL bytes through the recovery path, so its sketch
//! state (and its dedup table) is byte-equal to what the primary
//! persisted. The producer's ResilientClient replays unacknowledged
//! batches after the window; the replicated dedup table absorbs every
//! replay exactly once. Linearity does the rest.
//!
//! The suite must pass identically with and without the `telemetry`
//! feature (CI runs both).

use skimmed_sketch::{estimate_join, EstimatorConfig, SkimmedSchema, SkimmedSketch};
use ss_cluster::{Router, RouterConfig};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use stream_durability::WalConfig;
use stream_model::{Domain, Update};
use stream_server::{
    BackoffConfig, ClientConfig, ResilientClient, Server, ServerClient, ServerConfig,
};
use stream_wire::{ErrorCode, Frame, StreamId, WireError, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ss-failover-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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

fn shard_config(schema: Arc<SkimmedSchema>, wal_dir: &PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(schema);
    config.handler_threads = 2;
    config.ingest_workers = 2;
    config.read_timeout = Duration::from_millis(50);
    config.replication_poll = Duration::from_millis(5);
    config.shard = true;
    config.wal = Some(WalConfig::new(wal_dir));
    config
}

fn follower_config(schema: Arc<SkimmedSchema>, wal_dir: &PathBuf, primary: &str) -> ServerConfig {
    let mut config = shard_config(schema, wal_dir);
    config.follower_of = Some(primary.to_string());
    config
}

/// A router with fast failure detection and enough shard-retry budget
/// for its sessions to bridge the detection + promotion window.
fn failover_router_config(addrs: Vec<String>, followers: Vec<String>) -> RouterConfig {
    let mut config = RouterConfig::new(addrs);
    config.handler_threads = 2;
    config.shard_read_timeout = Duration::from_millis(100);
    config.shard_reply_retries = 10;
    config.retry_budget = 400;
    config.backoff = BackoffConfig {
        base: Duration::from_micros(500),
        cap: Duration::from_millis(10),
        seed: 0xFA11_05EED,
    };
    config.followers = followers;
    config.heartbeat_every = Duration::from_millis(30);
    config.heartbeat_timeout = Duration::from_millis(80);
    config.heartbeat_misses = 2;
    config
}

/// Sequenced upstream producer with enough reply patience to sit out
/// the failover window behind the router.
fn producer_config(client_id: u64) -> ClientConfig {
    ClientConfig {
        name: "failover-producer".into(),
        client_id,
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(500),
        reply_retries: 100,
        backoff: BackoffConfig::default(),
        ..ClientConfig::default()
    }
}

/// Polls `cond` for up to five seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// One full failover round at `shards` partitions: stream half the
/// load, kill partition `victim`'s primary, stream the rest through
/// the automatic failover, and check bit-identity plus the re-announced
/// shard map. Returns the promoted follower's address for follow-up
/// assertions.
fn failover_round(shards: usize, victim: usize) -> String {
    let domain_log2 = 12;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 5, 64, 7);
    let uf = mixed_updates(16_000, domain_log2, 0xF00D ^ shards as u64);
    let ug = mixed_updates(16_000, domain_log2, 0xBEEF ^ shards as u64);

    // Ground truth: the linearity-exact local sketches an uninterrupted
    // single node would hold (the plain cluster suite already proves
    // served == local for the unfaulted path).
    let mut local_f = SkimmedSketch::new(schema.clone());
    let mut local_g = SkimmedSketch::new(schema.clone());
    local_f.add_batch(&uf);
    local_g.add_batch(&ug);
    let truth = estimate_join(&local_f, &local_g, &EstimatorConfig::default()).estimate;

    // S primaries, each with a WAL-shipping follower.
    let mut primaries = Vec::new();
    let mut followers = Vec::new();
    let mut dirs = Vec::new();
    for p in 0..shards {
        let pdir = scratch_dir(&format!("s{shards}p{p}"));
        let fdir = scratch_dir(&format!("s{shards}f{p}"));
        let primary = Server::bind("127.0.0.1:0", shard_config(schema.clone(), &pdir)).unwrap();
        let follower = Server::bind(
            "127.0.0.1:0",
            follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
        )
        .unwrap();
        primaries.push(primary);
        followers.push(follower);
        dirs.push(pdir);
        dirs.push(fdir);
    }
    let addrs: Vec<String> = primaries
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let follower_addrs: Vec<String> = followers
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let promoted_addr = follower_addrs[victim].clone();
    let router = Router::bind(
        "127.0.0.1:0",
        failover_router_config(addrs.clone(), follower_addrs.clone()),
    )
    .unwrap();
    let version_before = router.manifest().version();

    let mut producer =
        ResilientClient::new(router.local_addr(), producer_config(77)).with_max_reconnects(40);

    // First half flows normally.
    producer.send_all(StreamId::F, &uf[..8_000], 500).unwrap();
    producer.send_all(StreamId::G, &ug[..8_000], 500).unwrap();

    // kill -9 the victim's primary mid-stream. Nobody restarts it: the
    // supervisor must notice the missed heartbeats and PROMOTE the
    // follower while the producer keeps streaming.
    primaries.remove(victim).halt();

    producer.send_all(StreamId::F, &uf[8_000..], 500).unwrap();
    producer.send_all(StreamId::G, &ug[8_000..], 500).unwrap();

    // Convergence: bit-identical to the uninterrupted single node.
    let routed = producer.query_join().unwrap().estimate;
    assert_eq!(routed, truth, "S={shards}: routed answer diverged");
    let merged_f = producer.session().unwrap().snapshot(StreamId::F).unwrap();
    assert_eq!(merged_f.level_counters(), local_f.level_counters());
    let merged_g = producer.session().unwrap().snapshot(StreamId::G).unwrap();
    assert_eq!(merged_g.level_counters(), local_g.level_counters());

    // The re-announced map records the failover: the victim partition
    // now lists the promoted follower as its primary (standby slot
    // emptied), the manifest version is bumped, and — once the quiet
    // cluster's replicas have drained — every surviving follower's lag
    // is back to zero.
    let map = producer.session().unwrap().shard_map().unwrap();
    assert_eq!(map.shards.len(), shards);
    assert_eq!(map.shards[victim].addr, promoted_addr);
    assert_eq!(
        map.shards[victim].follower, "",
        "promoted standby slot must empty"
    );
    assert!(map.shards.iter().all(|s| s.healthy));
    assert!(
        map.version > version_before,
        "failover must bump the manifest version"
    );
    assert_eq!(router.manifest().version(), map.version);
    assert!(
        eventually(|| {
            let mut probe = match ServerClient::connect(router.local_addr()) {
                Ok(c) => c,
                Err(_) => return false,
            };
            probe
                .shard_map()
                .is_ok_and(|m| m.shards.iter().all(|s| s.lag_bytes == 0))
        }),
        "surviving followers must drain to zero reported lag"
    );

    // A full sequenced replay after the chaos is still absorbed: a
    // fresh session under the same producer identity restarts at seq 1,
    // and the promoted follower's *replicated* dedup table — covering
    // the pre-kill prefix it never acknowledged itself — plus the
    // surviving shards' own tables absorb every batch.
    producer.goodbye().unwrap();
    let mut replayer =
        ServerClient::connect_with(router.local_addr(), producer_config(77)).unwrap();
    replayer.send_all(StreamId::F, &uf, 500).unwrap();
    replayer.send_all(StreamId::G, &ug, 500).unwrap();
    assert_eq!(replayer.query_join().unwrap().estimate, truth);
    replayer.goodbye().unwrap();

    router.shutdown().unwrap();
    for s in primaries {
        s.shutdown().unwrap();
    }
    // The promoted follower is in here too — shutdown() serves any role.
    for s in followers {
        s.shutdown().unwrap();
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    promoted_addr
}

#[test]
fn failover_converges_bit_identically_at_one_shard() {
    let _guard = serial();
    failover_round(1, 0);
}

#[test]
fn failover_converges_bit_identically_at_two_shards() {
    let _guard = serial();
    failover_round(2, 1);
}

#[test]
fn failover_converges_bit_identically_at_four_shards() {
    let _guard = serial();
    failover_round(4, 2);
}

#[test]
fn fenced_ex_primary_cannot_replicate_into_the_promoted_follower() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 64, 3);
    let (pdir, fdir) = (scratch_dir("zombie-p"), scratch_dir("zombie-f"));

    let primary = Server::bind("127.0.0.1:0", shard_config(schema.clone(), &pdir)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
    )
    .unwrap();
    let router = Router::bind(
        "127.0.0.1:0",
        failover_router_config(
            vec![primary.local_addr().to_string()],
            vec![follower.local_addr().to_string()],
        ),
    )
    .unwrap();

    let mut producer =
        ResilientClient::new(router.local_addr(), producer_config(31)).with_max_reconnects(40);
    let uf = mixed_updates(2_000, domain_log2, 0x2049);
    producer.send_all(StreamId::F, &uf, 250).unwrap();

    // Kill the primary; the supervisor promotes the follower.
    primary.halt();
    assert!(
        eventually(|| {
            ServerClient::connect(follower.local_addr())
                .ok()
                .and_then(|mut c| c.heartbeat(0).ok())
                .is_some_and(|s| s.primary && s.epoch == 2)
        }),
        "supervisor never promoted the follower"
    );

    // The deposed primary resurrects believing in epoch 1 and writes a
    // late REPLICATE at its old follower, chained onto its frontier.
    // Replication is pull-only, so the promoted node refuses the
    // unsolicited frame outright and neither its log nor its sketches
    // move.
    let frontier = || {
        let mut probe = ServerClient::connect(follower.local_addr()).unwrap();
        let status = probe.heartbeat(0).unwrap();
        (status.segment, status.offset)
    };
    let mass = || follower.snapshot(StreamId::F).unwrap().l1_mass();
    let (at, mass_before) = (frontier(), mass());
    let mut zombie = TcpStream::connect(follower.local_addr()).unwrap();
    zombie
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: PROTOCOL_VERSION,
        client: "zombie".into(),
    }
    .write_to(&mut zombie)
    .unwrap();
    assert!(matches!(read_reply(&mut zombie), Frame::HelloAck(_)));
    let record = stream_wire::encode_update_batch(StreamId::F, 0, 0, &uf[..64]);
    Frame::Replicate {
        epoch: 1,
        segment: at.0,
        offset: at.1,
        snapshot: false,
        frontier_segment: at.0,
        frontier_offset: at.1 + record.len() as u64,
        bytes: record,
    }
    .write_to(&mut zombie)
    .unwrap();
    match read_reply(&mut zombie) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("an unsolicited REPLICATE must be refused, got {other:?}"),
    }
    drop(zombie);
    assert_eq!(frontier(), at, "the refused chunk reached the WAL");
    assert_eq!(
        mass(),
        mass_before,
        "the refused chunk reached the sketches"
    );

    // The promoted node still serves the stream it replicated.
    assert!(producer.query_join().is_ok());
    producer.goodbye().unwrap();

    router.shutdown().unwrap();
    follower.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// Reads one reply frame off a raw session, absorbing idle ticks.
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
