//! Replication suite: primary→follower WAL shipping, typed write
//! refusal, promotion, fencing, snapshot bootstrap, and lag behaviour
//! under stalled wires.
//!
//! The central invariant mirrors the single-node chaos suite's: a
//! follower that has caught up holds **bit-identical** sketch state to
//! its primary — replication ships the same WAL bytes the primary
//! persisted, the follower applies them through the same recovery path,
//! and sketch linearity does the rest. Everything else here (fencing
//! epochs, NOT_PRIMARY refusals, dedup-table replication) defends that
//! identity against split-brain and double-apply.
//!
//! Tests serialize on a process-wide mutex: they spin up thread pools
//! and some assert on global telemetry.

use skimmed_sketch::SkimmedSchema;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use stream_durability::{ConnPlan, FaultPlan, FaultyTransport, WalConfig};
use stream_model::{Domain, Update};
use stream_server::{
    BatchOutcome, ClientConfig, ClientError, Role, Server, ServerClient, ServerConfig,
};
use stream_wire::{
    ErrorCode, Frame, StreamId, WireError, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION, VERSION,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ss-repl-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

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

/// A WAL-backed server config with a fast replication poll.
fn wal_config(schema: std::sync::Arc<SkimmedSchema>, dir: &PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(schema);
    config.handler_threads = 2;
    config.ingest_workers = 2;
    config.read_timeout = Duration::from_millis(50);
    config.replication_poll = Duration::from_millis(5);
    config.wal = Some(WalConfig::new(dir));
    config
}

/// The same, as a follower of `primary`.
fn follower_config(
    schema: std::sync::Arc<SkimmedSchema>,
    dir: &PathBuf,
    primary: &str,
) -> ServerConfig {
    let mut config = wal_config(schema, dir);
    config.follower_of = Some(primary.to_string());
    config
}

fn client_config(client_id: u64) -> ClientConfig {
    ClientConfig {
        name: "repl-test".into(),
        client_id,
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(500),
        reply_retries: 10,
        ..ClientConfig::default()
    }
}

/// Polls `cond` for up to five seconds (replication needs a few poll
/// round trips; stalled-wire tests need more).
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

/// Waits until `follower`'s durable frontier reaches `primary`'s.
///
/// Frontier comparison (not `replication_lag_bytes`): the lag gauge is
/// a last-poll-time estimate, so right after a burst of sends it can
/// still read the `0` computed during the quiet period before them.
fn caught_up(primary: &Server, follower: &Server) -> bool {
    let mut p = ServerClient::connect(primary.local_addr()).expect("probe primary");
    let target = p.heartbeat(0).expect("primary heartbeat");
    let _ = p.goodbye();
    let mut f = ServerClient::connect(follower.local_addr()).expect("probe follower");
    let ok = eventually(|| {
        f.heartbeat(0)
            .is_ok_and(|s| (s.segment, s.offset) >= (target.segment, target.offset))
    });
    let _ = f.goodbye();
    // The next poll after the frontier match records the lag as 0.
    ok && eventually(|| follower.replication_lag_bytes() == Some(0))
}

/// Asserts both streams of `a` and `b` carry bit-identical sketch state.
fn assert_bit_identical(a: &Server, b: &Server) {
    for stream in [StreamId::F, StreamId::G] {
        let sa = a.snapshot(stream).expect("snapshot a");
        let sb = b.snapshot(stream).expect("snapshot b");
        assert_eq!(
            sa.level_counters(),
            sb.level_counters(),
            "stream {stream:?} diverged between primary and follower"
        );
    }
}

#[test]
fn follower_mirrors_primary_bit_identically() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 64, 3);
    let (pdir, fdir) = (scratch_dir("mirror-p"), scratch_dir("mirror-f"));

    let primary = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &pdir)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
    )
    .unwrap();
    assert_eq!(primary.role(), Role::Primary);
    assert_eq!(follower.role(), Role::Follower);
    assert_eq!(
        primary.replication_lag_bytes(),
        None,
        "primaries have no lag"
    );

    let uf = mixed_updates(8_000, domain_log2, 0xF00D);
    let ug = mixed_updates(8_000, domain_log2, 0xBEEF);
    let mut client = ServerClient::connect_with(primary.local_addr(), client_config(21)).unwrap();
    client.send_all(StreamId::F, &uf, 500).unwrap();
    client.send_all(StreamId::G, &ug, 500).unwrap();
    let answer = client.query_join().unwrap();
    client.goodbye().unwrap();

    assert!(caught_up(&primary, &follower), "follower never caught up");
    assert_bit_identical(&primary, &follower);

    // Queries are served by the follower too (reads are safe on both
    // roles), and the answer matches by linearity + bit identity.
    let mut reader = ServerClient::connect(follower.local_addr()).unwrap();
    assert_eq!(reader.query_join().unwrap().estimate, answer.estimate);
    reader.goodbye().unwrap();

    // The follower's heartbeat advertises its role and the primary's
    // matches its own frontier.
    let mut hb = ServerClient::connect(follower.local_addr()).unwrap();
    let fs = hb.heartbeat(0).unwrap();
    assert!(!fs.primary);
    hb.goodbye().unwrap();
    let mut hb = ServerClient::connect(primary.local_addr()).unwrap();
    let ps = hb.heartbeat(0).unwrap();
    assert!(ps.primary);
    assert_eq!(
        (ps.segment, ps.offset),
        (fs.segment, fs.offset),
        "caught-up follower sits at the primary's durable frontier"
    );
    hb.goodbye().unwrap();

    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn follower_refuses_client_writes_with_typed_error() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let (pdir, fdir) = (scratch_dir("refuse-p"), scratch_dir("refuse-f"));

    let primary = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &pdir)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
    )
    .unwrap();

    let mut client = ServerClient::connect(follower.local_addr()).unwrap();
    let err = client
        .send_batch(StreamId::F, &[Update::insert(1); 8])
        .expect_err("follower must refuse client writes");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert!(
                message.contains(&primary.local_addr().to_string()),
                "refusal names the primary: {message}"
            );
        }
        other => panic!("expected typed NOT_PRIMARY, got {other:?}"),
    }
    // The refusal is not fatal to the session: reads still work.
    assert!(client.query_join().is_ok());
    client.goodbye().unwrap();

    assert_eq!(
        follower.snapshot(StreamId::F).unwrap().l1_mass(),
        0,
        "refused batch must not touch the sketch"
    );
    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn promotion_preserves_dedup_and_accepts_writes() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 64, 7);
    let (pdir, fdir) = (scratch_dir("promote-p"), scratch_dir("promote-f"));

    let primary = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &pdir)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
    )
    .unwrap();

    let uf = mixed_updates(4_000, domain_log2, 0xCAFE);
    let mut producer = ServerClient::connect_with(primary.local_addr(), client_config(7)).unwrap();
    producer.send_all(StreamId::F, &uf, 500).unwrap(); // 8 sequenced batches
    drop(producer);
    assert!(caught_up(&primary, &follower));
    let mass_before = follower.snapshot(StreamId::F).unwrap().l1_mass();

    // The primary dies; the supervisor (here: the test) promotes the
    // follower under the next fencing epoch.
    primary.halt();
    let mut admin = ServerClient::connect(follower.local_addr()).unwrap();
    assert_eq!(admin.promote(2).unwrap(), 2);
    admin.goodbye().unwrap();
    assert_eq!(follower.role(), Role::Primary);
    assert_eq!(follower.epoch(), 2);

    // The replicated idempotency table survived the role flip: RESUME
    // reports the producer's full progress, and a replayed batch is
    // acknowledged without being applied again.
    let mut producer = ServerClient::connect_with(follower.local_addr(), client_config(7)).unwrap();
    assert_eq!(producer.resume().unwrap(), (8, 0));
    let mut raw = TcpStream::connect(follower.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: VERSION,
        client: "replayer".into(),
    }
    .write_to(&mut raw)
    .unwrap();
    assert!(matches!(read_reply(&mut raw), Frame::HelloAck(_)));
    Frame::UpdateBatch {
        stream: StreamId::F,
        client_id: 7,
        seq: 1,
        updates: uf[..500].to_vec(),
    }
    .write_to(&mut raw)
    .unwrap();
    assert!(matches!(read_reply(&mut raw), Frame::BatchAck { .. }));
    drop(raw);
    assert_eq!(
        follower.snapshot(StreamId::F).unwrap().l1_mass(),
        mass_before,
        "replayed batch must dedup on the promoted primary"
    );

    // Fresh writes land now that it is the primary.
    producer
        .send_batch(StreamId::F, &[Update::insert(3); 64])
        .unwrap();
    assert_eq!(
        follower.snapshot(StreamId::F).unwrap().l1_mass(),
        mass_before + 64
    );
    producer.goodbye().unwrap();

    // Promotion is idempotent at the same epoch and fenced below it.
    let mut admin = ServerClient::connect(follower.local_addr()).unwrap();
    assert_eq!(admin.promote(2).unwrap(), 2);
    match admin.promote(1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Fenced),
        other => panic!("stale-epoch PROMOTE must be fenced, got {other:?}"),
    }
    drop(admin);

    follower.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn fenced_zombie_replicate_is_rejected() {
    let _guard = serial();
    let domain_log2 = 8;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 3, 32, 1);
    let (pdir, fdir) = (scratch_dir("fence-p"), scratch_dir("fence-f"));

    let primary = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &pdir)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &primary.local_addr().to_string()),
    )
    .unwrap();
    let mut producer = ServerClient::connect_with(primary.local_addr(), client_config(3)).unwrap();
    producer
        .send_all(StreamId::F, &mixed_updates(1_000, domain_log2, 0xFE4C), 250)
        .unwrap();
    producer.goodbye().unwrap();
    assert!(caught_up(&primary, &follower));
    primary.halt();
    let mut admin = ServerClient::connect(follower.local_addr()).unwrap();
    assert_eq!(admin.promote(2).unwrap(), 2);
    admin.goodbye().unwrap();
    let (frontier, mass) = (frontier_of(&follower), total_mass(&follower));

    // A resurrected ex-primary still believes in epoch 1 and writes a
    // late REPLICATE at the promoted node: a well-formed record chained
    // exactly onto its frontier. Replication is pull-only, so no node
    // takes a REPLICATE it did not poll for: the frame is refused as a
    // protocol error before anything touches the WAL (split-brain
    // defense).
    let mut zombie = raw_session(&follower);
    let record = stream_wire::encode_update_batch(StreamId::F, 0, 0, &[Update::insert(1); 16]);
    Frame::Replicate {
        epoch: 1,
        segment: frontier.0,
        offset: frontier.1,
        snapshot: false,
        frontier_segment: frontier.0,
        frontier_offset: frontier.1 + record.len() as u64,
        bytes: record,
    }
    .write_to(&mut zombie)
    .unwrap();
    match read_reply(&mut zombie) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("an unsolicited REPLICATE must be refused, got {other:?}"),
    }
    drop(zombie);
    assert_eq!(
        frontier_of(&follower),
        frontier,
        "the refused chunk reached the WAL"
    );
    assert_eq!(
        total_mass(&follower),
        mass,
        "the refused chunk reached the sketches"
    );

    follower.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn follower_drops_poll_replies_from_a_deposed_primary() {
    let _guard = serial();
    let domain_log2 = 8;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 3, 32, 5);
    let (adir, bdir, cdir, ddir) = (
        scratch_dir("depose-a"),
        scratch_dir("depose-b"),
        scratch_dir("depose-c"),
        scratch_dir("depose-d"),
    );

    // A (primary) → B; B is promoted to epoch 2 and C follows it,
    // learning epoch 2 from B's replies.
    let a = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &adir)).unwrap();
    let b = {
        let b = Server::bind(
            "127.0.0.1:0",
            follower_config(schema.clone(), &bdir, &a.local_addr().to_string()),
        )
        .unwrap();
        let mut producer = ServerClient::connect_with(a.local_addr(), client_config(61)).unwrap();
        producer
            .send_all(StreamId::F, &mixed_updates(1_000, domain_log2, 0xA), 250)
            .unwrap();
        producer.goodbye().unwrap();
        assert!(caught_up(&a, &b));
        a.halt();
        let mut admin = ServerClient::connect(b.local_addr()).unwrap();
        assert_eq!(admin.promote(2).unwrap(), 2);
        admin.goodbye().unwrap();
        b
    };
    let c = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &cdir, &b.local_addr().to_string()),
    )
    .unwrap();
    assert!(eventually(|| c.epoch() == 2), "C never learned epoch 2");
    assert!(eventually(|| total_mass(&c) == total_mass(&b)));
    let (frontier, mass) = (frontier_of(&c), total_mass(&c));

    // D: a fresh epoch-1 primary with more log than C holds, so its
    // records would chain onto C's frontier if C took them.
    let dconfig = wal_config(schema.clone(), &ddir);
    let seeded = Server::bind("127.0.0.1:0", dconfig.clone()).unwrap();
    let mut producer = ServerClient::connect_with(seeded.local_addr(), client_config(62)).unwrap();
    producer
        .send_all(StreamId::F, &mixed_updates(4_000, domain_log2, 0xD), 250)
        .unwrap();
    producer.goodbye().unwrap();
    seeded.halt();

    // B dies and D comes up on B's address, so C's poll loop reconnects
    // to it and gets epoch-1 replies.
    let fenced = || {
        stream_telemetry::global()
            .counter("server_replication_fenced_total")
            .get()
    };
    let fenced_before = fenced();
    let b_addr = b.local_addr();
    b.halt();
    let d = Server::bind(b_addr, dconfig).unwrap();
    assert_eq!(d.epoch(), 1);
    if stream_telemetry::ENABLED {
        assert!(
            eventually(|| fenced() > fenced_before),
            "C never polled the deposed epoch"
        );
    } else {
        std::thread::sleep(Duration::from_millis(300));
    }
    assert_eq!(frontier_of(&c), frontier, "a fenced reply reached C's WAL");
    assert_eq!(total_mass(&c), mass, "a fenced reply reached C's sketches");
    assert_eq!(c.epoch(), 2);

    c.shutdown().unwrap();
    d.shutdown().unwrap();
    for dir in [adir, bdir, cdir, ddir] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn gated_acks_are_released_by_the_follower_ack_not_a_poll_tick() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 9);
    let (pdir, fdir) = (scratch_dir("gate-p"), scratch_dir("gate-f"));
    // A long hold window: a follower that only re-polled on a timer
    // would make every gated ack wait most of it.
    let slow_poll = |mut config: ServerConfig| {
        config.replication_poll = Duration::from_millis(200);
        config.read_timeout = Duration::from_secs(1);
        config
    };
    let primary =
        Server::bind("127.0.0.1:0", slow_poll(wal_config(schema.clone(), &pdir))).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        slow_poll(follower_config(
            schema.clone(),
            &fdir,
            &primary.local_addr().to_string(),
        )),
    )
    .unwrap();
    // Attach the follower: once it has polled, every sequenced ack
    // waits for its covering ack.
    let mut producer = ServerClient::connect_with(primary.local_addr(), client_config(71)).unwrap();
    producer
        .send_batch(StreamId::F, &[Update::insert(1); 8])
        .unwrap();
    assert!(caught_up(&primary, &follower));

    let start = Instant::now();
    for i in 0..20u64 {
        let outcome = producer
            .send_batch(StreamId::F, &[Update::insert(i); 8])
            .unwrap();
        assert_eq!(
            outcome,
            BatchOutcome::Accepted(8),
            "batch {i} was not acked"
        );
    }
    let took = start.elapsed();
    producer.goodbye().unwrap();
    assert!(
        took < Duration::from_secs(1),
        "20 gated acks took {took:?}: acks wait on a poll tick"
    );
    assert!(caught_up(&primary, &follower));
    assert_bit_identical(&primary, &follower);

    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn fresh_follower_bootstraps_from_pruned_primary_snapshot() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 64, 11);
    let (pdir, fdir) = (scratch_dir("boot-p"), scratch_dir("boot-f"));

    // Small segments + frequent snapshots: by the time the follower
    // appears, the log's early segments are pruned and only a snapshot
    // covers the prefix.
    let mut pconfig = wal_config(schema.clone(), &pdir);
    if let Some(w) = pconfig.wal.as_mut() {
        w.segment_bytes = 4_096;
        w.snapshot_every = 8;
    }
    let primary = Server::bind("127.0.0.1:0", pconfig).unwrap();
    let uf = mixed_updates(12_000, domain_log2, 0x5EED);
    let mut client = ServerClient::connect_with(primary.local_addr(), client_config(31)).unwrap();
    client.send_all(StreamId::F, &uf, 250).unwrap();
    client.goodbye().unwrap();
    let segments = std::fs::read_dir(&pdir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .count();
    assert!(
        std::fs::read_dir(&pdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("snap-")),
        "primary installed no snapshot; the bootstrap path is untested"
    );

    // A brand-new follower has no prefix to tail: bind-time bootstrap
    // adopts the primary's snapshot, then tails the remaining segments.
    let mut fconfig = follower_config(schema.clone(), &fdir, &primary.local_addr().to_string());
    if let Some(w) = fconfig.wal.as_mut() {
        w.segment_bytes = 4_096;
        w.snapshot_every = 8;
    }
    let follower = Server::bind("127.0.0.1:0", fconfig).unwrap();
    let report = follower.recovery().expect("follower recovery ran");
    assert!(
        report.snapshot_loaded,
        "bootstrap must seed recovery with the adopted snapshot \
         ({segments} primary segments on disk)"
    );
    assert_eq!(report.torn_tail_truncations, 0);
    assert!(!follower.replication_needs_bootstrap());
    assert!(caught_up(&primary, &follower));
    assert_bit_identical(&primary, &follower);

    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn follower_lag_stays_bounded_through_asymmetric_stalls() {
    let _guard = serial();
    let domain_log2 = 10;
    let schema = SkimmedSchema::scanning(Domain::with_log2(domain_log2), 4, 64, 13);
    let (pdir, fdir) = (scratch_dir("stall-p"), scratch_dir("stall-f"));

    let primary = Server::bind("127.0.0.1:0", wal_config(schema.clone(), &pdir)).unwrap();

    // The replication wire stalls asymmetrically: the poll direction
    // (follower→primary) hiccups early, the chunk direction
    // (primary→follower) stalls repeatedly and longer — the shape of a
    // congested or half-broken link. `repeated` keeps every reconnect
    // on the same schedule.
    let conn = ConnPlan::stalls(&[(256, 80)], &[(1_024, 150), (16_384, 150)]);
    let proxy =
        FaultyTransport::start(primary.local_addr(), FaultPlan::repeated(conn, 32)).unwrap();
    let follower = Server::bind(
        "127.0.0.1:0",
        follower_config(schema.clone(), &fdir, &proxy.local_addr().to_string()),
    )
    .unwrap();

    let uf = mixed_updates(10_000, domain_log2, 0x57A1);
    let ug = mixed_updates(10_000, domain_log2, 0x57A2);
    let mut client = ServerClient::connect_with(primary.local_addr(), client_config(41)).unwrap();
    client.send_all(StreamId::F, &uf, 500).unwrap();
    client.send_all(StreamId::G, &ug, 500).unwrap();
    client.goodbye().unwrap();

    // Lag is bounded, not monotone: despite every stall the follower
    // drains back to zero and lands bit-identical.
    assert!(
        caught_up(&primary, &follower),
        "stalled wire must delay replication, never wedge it \
         (lag {:?})",
        follower.replication_lag_bytes()
    );
    assert_bit_identical(&primary, &follower);

    proxy.stop();
    follower.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

#[test]
fn torn_wal_tail_is_truncated_and_counted_on_recovery() {
    let _guard = serial();
    let schema = SkimmedSchema::scanning(Domain::with_log2(8), 3, 32, 1);
    let dir = scratch_dir("torn");

    // Write a few batches, crash, then tear the active segment's tail
    // mid-record — the shape a power cut leaves behind.
    let config = wal_config(schema.clone(), &dir);
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut client = ServerClient::connect_with(server.local_addr(), client_config(51)).unwrap();
    for _ in 0..4 {
        client
            .send_batch(StreamId::F, &[Update::insert(9); 64])
            .unwrap();
    }
    drop(client);
    server.halt();
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .max()
        .expect("active segment exists");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 7).unwrap(); // mid-record: not a frame boundary
    f.sync_all().unwrap();
    drop(f);

    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let report = *server.recovery().expect("recovery ran");
    assert_eq!(
        report.torn_tail_truncations, 1,
        "one torn tail, one truncation"
    );
    assert!(report.torn_bytes > 0);
    assert_eq!(
        report.batches_replayed, 3,
        "the torn fourth batch is cut, the acknowledged prefix survives"
    );
    if stream_telemetry::ENABLED {
        assert!(
            stream_telemetry::global()
                .counter("wal_torn_tail_truncations_total")
                .get()
                >= 1
        );
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A node's durable WAL frontier, read over HEARTBEAT.
fn frontier_of(server: &Server) -> (u64, u64) {
    let mut probe = ServerClient::connect(server.local_addr()).expect("probe");
    let status = probe.heartbeat(0).expect("heartbeat");
    let _ = probe.goodbye();
    (status.segment, status.offset)
}

/// Total sketch mass over both streams.
fn total_mass(server: &Server) -> u64 {
    [StreamId::F, StreamId::G]
        .iter()
        .map(|&s| server.snapshot(s).expect("snapshot").l1_mass())
        .sum()
}

/// A raw protocol-v3 session on `server`, past the HELLO exchange.
fn raw_session(server: &Server) -> TcpStream {
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    Frame::Hello {
        protocol: PROTOCOL_VERSION,
        client: "raw".into(),
    }
    .write_to(&mut raw)
    .unwrap();
    assert!(matches!(read_reply(&mut raw), Frame::HelloAck(_)));
    raw
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
