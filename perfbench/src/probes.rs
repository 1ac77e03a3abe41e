//! Layer probes of the traced run. Each probe calls one layer's public
//! functions on the workload's own batches (or its node's state), with a
//! span around every call, after the traffic has stopped — so no probe
//! perturbs the measured traffic, and every span comes from this crate.

use crate::data::{schema, Tally};
use crate::topology::{shadow_node, BoxError, Replicated, ScratchDir};
use crate::trace::Recorder;
use crate::workloads::WRITER_ID;
use skimmed_sketch::{est_subjoin, estimate_join, EstimatorConfig, SkimmedSketch};
use std::path::Path;
use std::time::Instant;
use stream_durability::{Wal, WalConfig};
use stream_ingest::IngestPool;
use stream_model::Update;
use stream_server::{ClientConfig, ResilientClient, Server, ServerClient, ServerConfig};
use stream_wire::{encode_update_batch, Frame, StreamId, SHARD_STREAM_BOTH};

/// Counts the probes measured alongside their spans.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// Updates put through the codec, kernel, WAL and in-process probes.
    pub updates: u64,
    /// Encoded UPDATE_BATCH bytes for those updates.
    pub wire_bytes: u64,
    /// WAL bytes appended for those updates.
    pub wal_bytes: u64,
    /// Wall time of the in-process `IngestPool` run, seconds.
    pub inproc_s: f64,
    /// Dense values skimmed from F and G by the last query anatomy.
    pub dense_values: u64,
    /// Largest follower lag seen after a probe ack, bytes.
    pub lag_max: u64,
    /// Probe results that disagreed with their reference.
    pub failures: Vec<String>,
}

/// Runs every probe. `batches` are the workload's batches; `node` is the
/// in-process node that answers the workload's queries, and `reader`
/// the connection the workload reads through.
#[allow(clippy::too_many_arguments)]
pub fn run_all(
    batches: &[(StreamId, &[Update])],
    limit: usize,
    node: &Server,
    reader: &mut ServerClient,
    queries: usize,
    acks: usize,
    scratch: &Path,
    rec: &Recorder,
) -> Result<ProbeCounts, BoxError> {
    let mut used = 0usize;
    let picked: Vec<(StreamId, &[Update])> = batches
        .iter()
        .take_while(|(_, b)| {
            used += b.len();
            used - b.len() < limit
        })
        .copied()
        .collect();
    let mut counts = ProbeCounts::default();
    let label = |probe: &'static str| move |e: BoxError| format!("{probe} probe: {e}");
    let kernel = codec_kernel_wal(&picked, scratch, rec, &mut counts).map_err(label("codec"))?;
    inproc_ingest(&picked, &kernel, rec, &mut counts).map_err(label("in-process ingest"))?;
    query_anatomy(node, reader, queries, rec, &mut counts).map_err(label("query anatomy"))?;
    replicated_acks(batches, acks, scratch, rec, &mut counts).map_err(label("replicated ack"))?;
    Ok(counts)
}

/// Encode → decode → `add_batch` → WAL append, one operation per batch.
/// Returns the `add_batch` sketches (F, G) as the in-process reference.
fn codec_kernel_wal(
    batches: &[(StreamId, &[Update])],
    scratch: &Path,
    rec: &Recorder,
    counts: &mut ProbeCounts,
) -> Result<[SkimmedSketch; 2], BoxError> {
    let dir = ScratchDir::new(scratch, "wal-probe")?;
    let (mut wal, _) = Wal::open(WalConfig::new(dir.path()))?;
    let schema = schema();
    let mut sketches = [
        SkimmedSketch::new(schema.clone()),
        SkimmedSketch::new(schema),
    ];
    let wal_start = wal.active_segment_len();
    for &(stream, batch) in batches {
        let op = rec.new_op();
        let bytes = rec.timed("wire.encode", op, 0, |_| {
            encode_update_batch(stream, 0, 0, batch)
        });
        let decoded = rec.timed("wire.decode", op, 0, |_| {
            Frame::decode(&bytes, stream_wire::DEFAULT_MAX_PAYLOAD)
        });
        match decoded {
            Ok((Frame::UpdateBatch { updates, .. }, used))
                if updates == batch && used == bytes.len() => {}
            _ => counts
                .failures
                .push("wire probe: decoded batch differs from the encoded one".into()),
        }
        let sketch = &mut sketches[stream as usize];
        rec.timed("sketches.add_batch", op, 0, |_| sketch.add_batch(batch));
        rec.timed("durability.append", op, 0, |_| wal.append_encoded(&bytes))?;
        counts.updates += batch.len() as u64;
        counts.wire_bytes += bytes.len() as u64;
    }
    counts.wal_bytes = wal.active_segment_len() - wal_start;
    drop(wal);
    Ok(sketches)
}

/// The same batches through two `IngestPool`s (F and G, serving-default
/// workers and queue depth), no socket: the in-process baseline.
fn inproc_ingest(
    batches: &[(StreamId, &[Update])],
    reference: &[SkimmedSketch; 2],
    rec: &Recorder,
    counts: &mut ProbeCounts,
) -> Result<(), BoxError> {
    let schema = schema();
    let defaults = ServerConfig::new(schema.clone());
    let pool = || {
        let schema = schema.clone();
        IngestPool::with_queue_depth(defaults.ingest_workers, defaults.queue_depth, move || {
            SkimmedSketch::new(schema.clone())
        })
    };
    let owned: Vec<(StreamId, Vec<Update>)> =
        batches.iter().map(|&(s, b)| (s, b.to_vec())).collect();
    let op = rec.new_op();
    let t = Instant::now();
    let sketches = rec.timed("ingest.inproc", op, 0, |parent| {
        let pools = [pool(), pool()];
        for (stream, batch) in owned {
            rec.timed("ingest.dispatch", op, parent, |_| {
                pools[stream as usize].dispatch(batch)
            });
        }
        let [pf, pg] = pools;
        let f = rec.timed("ingest.finish", op, parent, |_| pf.finish());
        let g = rec.timed("ingest.finish", op, parent, |_| pg.finish());
        (f, g)
    });
    counts.inproc_s = t.elapsed().as_secs_f64();
    let (f, g) = (sketches.0?, sketches.1?);
    if f.level_counters() != reference[0].level_counters()
        || g.level_counters() != reference[1].level_counters()
    {
        counts
            .failures
            .push("in-process pool sketch differs from add_batch".into());
    }
    Ok(())
}

/// QUERY_JOIN over the workload's own read path (`reader`: straight to
/// the node, or through the router for `replicated`), then the same
/// answer taken apart in process on `node`: `Server::snapshot` of both streams and ESTSKIMJOINSIZE step
/// by step (clone, SKIMDENSE per stream, dense·dense, two sub-joins, the
/// skimmed bucket dot product). Every step's result must rebuild the
/// served estimate bit for bit.
fn query_anatomy(
    node: &Server,
    client: &mut ServerClient,
    queries: usize,
    rec: &Recorder,
    counts: &mut ProbeCounts,
) -> Result<(), BoxError> {
    let cfg = EstimatorConfig::default();
    for _ in 0..queries {
        let op = rec.new_op();
        let served = rec.timed("server.query_rtt", op, 0, |_| client.query_join())?;
        let (sf, sg) = rec.timed("ingest.snapshot", op, 0, |_| {
            (node.snapshot(StreamId::F), node.snapshot(StreamId::G))
        });
        let (sf, sg) = (sf?, sg?);
        let (estimate, dense) = rec.timed("core.estimate_join", op, 0, |id| {
            let (mut f, mut g) = rec.timed("core.clone", op, id, |_| (sf.clone(), sg.clone()));
            let tf = cfg.policy.threshold(f.base(), f.l1_mass());
            let tg = cfg.policy.threshold(g.base(), g.l1_mass());
            let df = rec.timed("core.skim", op, id, |_| f.skim(tf, cfg.max_candidates));
            let dg = rec.timed("core.skim", op, id, |_| g.skim(tg, cfg.max_candidates));
            let dd = df.dot(&dg) as f64;
            let ds = rec.timed("core.subjoin", op, id, |_| est_subjoin(&df, g.base()));
            let sd = rec.timed("core.subjoin", op, id, |_| est_subjoin(&dg, f.base()));
            let ss = rec.timed("sketches.bucket_dot", op, id, |_| {
                f.base().join_estimate(g.base())
            });
            (dd + ds + sd + ss, (df.len() + dg.len()) as u64)
        });
        let whole = estimate_join(&sf, &sg, &cfg).estimate;
        if estimate.to_bits() != served.estimate.to_bits() || whole.to_bits() != estimate.to_bits()
        {
            counts.failures.push(format!(
                "query anatomy: served {} vs step-by-step {estimate} vs estimate_join {whole}",
                served.estimate
            ));
        }
        counts.dense_values = dense;
    }
    Ok(())
}

/// A fresh replicated shard plus a *shadow* node (WAL, no follower).
/// Each operation sends the same sequenced batch through the router —
/// router hop, WAL append, replication ack gate — and straight to the
/// shadow, then fetches the primary's raw state with SHARD_QUERY.
/// The first two operations warm the sessions up and are not counted.
fn replicated_acks(
    batches: &[(StreamId, &[Update])],
    ops: usize,
    scratch: &Path,
    rec: &Recorder,
    counts: &mut ProbeCounts,
) -> Result<(), BoxError> {
    let schema = schema();
    let topo = Replicated::start(&schema, scratch)?;
    let dir = ScratchDir::new(scratch, "shadow")?;
    let shadow = shadow_node(&schema, dir.path())?;
    let config = ClientConfig {
        name: "perfbench-probe".into(),
        client_id: WRITER_ID + 1,
        ..ClientConfig::default()
    };
    let mut routed = ResilientClient::new(topo.router.local_addr(), config.clone());
    let mut direct = ServerClient::connect_with(shadow.local_addr(), config)?;
    let mut fetch = ServerClient::connect_named(topo.primary.local_addr(), "perfbench-probe")?;
    let mut tally = Tally::default();
    // Warm-up operations record into a recorder that is thrown away.
    let warm_up = Recorder::default();
    for (i, &(stream, batch)) in batches.iter().cycle().take(ops).enumerate() {
        let r = if i < 2 { &warm_up } else { rec };
        let op = r.new_op();
        let via_router = r.timed("cluster.routed_send", op, 0, |_| {
            routed.send_all(stream, batch, batch.len())
        })?;
        let lag = topo.follower.replication_lag_bytes().unwrap_or(0);
        let direct_ack = r.timed("server.shadow_send", op, 0, |_| {
            direct.send_all(stream, batch, batch.len())
        })?;
        r.timed("cluster.shard_fetch", op, 0, |_| {
            fetch.shard_query(SHARD_STREAM_BOTH)
        })?;
        let acked = [via_router.updates, direct_ack.updates];
        if acked != [batch.len() as u64; 2] {
            counts.failures.push(format!(
                "probe acks {acked:?} for a {}-update batch",
                batch.len()
            ));
        }
        counts.lag_max = counts.lag_max.max(lag);
        tally.add(stream, batch, 1);
    }
    let expected = tally.reference(&schema).estimate.estimate;
    let via_router = routed.query_join()?.estimate;
    let via_shadow = direct.query_join()?.estimate;
    if via_router.to_bits() != expected.to_bits() || via_shadow.to_bits() != expected.to_bits() {
        counts.failures.push(format!(
            "probe answers: routed {via_router}, shadow {via_shadow}, expected {expected}"
        ));
    }
    routed.goodbye()?;
    direct.goodbye()?;
    fetch.goodbye()?;
    shadow.shutdown()?;
    topo.stop()?;
    Ok(())
}
