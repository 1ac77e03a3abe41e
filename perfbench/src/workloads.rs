//! The three workloads. Each one is set up from the seed (generation,
//! topology, preload), then *driven* for a fixed time by at most two
//! load threads over at most two connections; every timed window ends
//! with a `query_join` barrier, so counted updates are acknowledged
//! *and* absorbed.
//!
//! * `ingest` — one connection replays pre-generated F and G buffers
//!   with pipelined, unsequenced `send_all` (8192-update batches) into
//!   one in-memory node, closed loop.
//! * `query` — one node preloaded during set-up; one closed-loop
//!   `query_join` reader beside one sequenced writer that sends a
//!   4096-update batch every [`Sizes::writer_period`] (open loop, about
//!   1% of ingest capacity), its acks timed from each batch's due time.
//! * `replicated` — a router before a WAL-backed primary with one
//!   follower (ack gate on); one sequenced `ResilientClient` producer
//!   sending one 4096-update batch per call on the same open-loop
//!   schedule, beside one closed-loop routed `query_join` reader. (A
//!   closed-loop producer phase-locks to the follower's poll tick and
//!   its ack median flips between a ~8 ms and a ~22 ms mode from run to
//!   run; batches due on a fixed schedule arrive at every poll phase.)

use crate::data::{interleaved_slots, Seeds, Slot, Tally};
use crate::topology::{single_node, BoxError, Replicated};
use crate::trace::{maybe, Recorder};
use skimmed_sketch::SkimmedSchema;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream_model::Update;
use stream_server::{
    ClientConfig, ClientError, JoinAnswer, ResilientClient, SendReport, Server, ServerClient,
};
use stream_wire::StreamId;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bulk pipelined ingest into one node.
    Ingest,
    /// Queries on a preloaded node beside a slow open-loop writer.
    Query,
    /// Sequenced ingest and routed queries through a replicated shard.
    Replicated,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Ingest, Kind::Query, Kind::Replicated];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Query => "query",
            Kind::Replicated => "replicated",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input and phase sizes. [`Sizes::full`] is the benchmark;
/// [`Sizes::smoke`] runs every code path at toy scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Updates per stream in the `ingest` replay buffers (one buffer
    /// is one `send_all` call).
    pub ingest_buffer: usize,
    /// Updates per stream preloaded into the `query` node.
    pub preload: usize,
    /// Updates per stream in the writer/producer slot cycle of `query`
    /// and `replicated`.
    pub writer_buffer: usize,
    /// Batch size of `ingest`'s pipelined sends.
    pub ingest_batch: usize,
    /// Batch size of the sequenced writers.
    pub writer_batch: usize,
    /// Due-time spacing of the sequenced writers' batches.
    pub writer_period: Duration,
    /// Checked queries after the timed phase (at most 8 on workloads
    /// that read while driving; `ingest` takes its query latency from
    /// these).
    pub verify_queries: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Updates put through each layer probe in the traced run.
    pub probe_updates: usize,
    /// Query-anatomy operations in the traced run.
    pub probe_queries: usize,
    /// Routed-vs-direct ack operations in the traced run (the first two
    /// are warm-up and not counted).
    pub probe_acks: usize,
}

impl Sizes {
    /// Benchmark scale.
    pub fn full() -> Sizes {
        Sizes {
            ingest_buffer: 1 << 19,
            preload: 1 << 20,
            writer_buffer: 1 << 18,
            ingest_batch: 8192,
            writer_batch: 4096,
            writer_period: Duration::from_millis(32),
            verify_queries: 64,
            setup_reps: 5,
            probe_updates: 1 << 18,
            probe_queries: 7,
            probe_acks: 18,
        }
    }

    /// Toy scale for the smoke test: every phase and probe still runs.
    pub fn smoke() -> Sizes {
        Sizes {
            ingest_buffer: 1 << 14,
            preload: 1 << 14,
            writer_buffer: 1 << 14,
            verify_queries: 2,
            setup_reps: 1,
            probe_updates: 1 << 14,
            probe_queries: 2,
            probe_acks: 4,
            ..Sizes::full()
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// From the first send to the barrier answer.
    pub elapsed: Duration,
    /// Updates acknowledged in the window.
    pub acked_updates: u64,
    /// Per-operation ack latency, ms (see each workload for the unit of
    /// operation).
    pub ack_ms: Vec<f64>,
    /// Per-query latency of the concurrent reader, ms.
    pub query_ms: Vec<f64>,
    /// How late each send started against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Batches acknowledged (from `SendReport`).
    pub batches: u64,
    /// THROTTLE replies absorbed by retries (from `SendReport`).
    pub throttled: u64,
    /// Operations attempted (sends and queries).
    pub attempted: u64,
    /// Failures: client errors and unacknowledged updates.
    pub failures: Vec<String>,
    /// Largest `Server::pending_chunks` (F + G) seen after an operation
    /// (traced windows only).
    pub pending_max: u64,
    /// Largest follower `replication_lag_bytes` seen after an ack
    /// (traced `replicated` windows only).
    pub lag_max: u64,
}

impl Phase {
    fn record_send(&mut self, slot: &mut Slot, r: Result<SendReport, ClientError>) {
        match r {
            Ok(r) if r.updates == slot.updates.len() as u64 => {
                slot.acked += 1;
                self.acked_updates += r.updates;
                self.batches += r.batches;
                self.throttled += r.throttled;
            }
            Ok(r) => self.failures.push(format!(
                "{} of {} updates acknowledged",
                r.updates,
                slot.updates.len()
            )),
            Err(e) => self.failures.push(format!("send: {e}")),
        }
    }

    fn merge(&mut self, other: Phase) {
        self.acked_updates += other.acked_updates;
        self.ack_ms.extend(other.ack_ms);
        self.query_ms.extend(other.query_ms);
        self.late_ms.extend(other.late_ms);
        self.batches += other.batches;
        self.throttled += other.throttled;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.pending_max = self.pending_max.max(other.pending_max);
        self.lag_max = self.lag_max.max(other.lag_max);
    }

    /// Ends the window with a `query_join` barrier on `client`, traced
    /// as `span`.
    fn barrier(
        &mut self,
        t0: Instant,
        client: &mut ServerClient,
        rec: Option<&Recorder>,
        span: &'static str,
    ) {
        self.attempted += 1;
        let op = rec.map_or(0, Recorder::new_op);
        if let Err(e) = maybe(rec, span, op, || client.query_join()) {
            self.failures.push(format!("barrier query: {e}"));
        }
        self.elapsed = t0.elapsed();
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples `Server::pending_chunks` inside a span (traced windows only).
fn sample_pending(rec: Option<&Recorder>, op: u64, node: &Server, max: &mut u64) {
    if let Some(r) = rec {
        let p = r.timed("ingest.pending_chunks", op, 0, |_| {
            node.pending_chunks(StreamId::F) + node.pending_chunks(StreamId::G)
        });
        *max = (*max).max(p);
    }
}

fn sequenced(name: &str, client_id: u64) -> ClientConfig {
    ClientConfig {
        name: name.to_string(),
        client_id,
        ..ClientConfig::default()
    }
}

/// A workload stood up and ready to drive.
// One value per process: variant size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    /// See the module docs.
    Ingest {
        /// The node under test.
        node: Server,
        /// The producer (and barrier/verification) connection.
        client: ServerClient,
        /// `[F buffer, G buffer]`.
        slots: Vec<Slot>,
        /// Next slot to send.
        cursor: usize,
        /// Updates per pipelined batch.
        batch: usize,
    },
    /// See the module docs.
    Query {
        /// The node under test.
        node: Server,
        /// The reader connection (also carried the preload).
        reader: ServerClient,
        /// The sequenced writer connection.
        writer: ServerClient,
        /// What the preload put in.
        base: Tally,
        /// The writer's batch cycle.
        slots: Vec<Slot>,
        /// Next slot to send.
        cursor: usize,
        /// Due-time spacing of the writer.
        period: Duration,
    },
    /// See the module docs.
    Replicated {
        /// Router, primary and follower.
        topo: Replicated,
        /// The sequenced producer (through the router).
        producer: ResilientClient,
        /// The routed reader.
        reader: ServerClient,
        /// The producer's batch cycle.
        slots: Vec<Slot>,
        /// Next slot to send.
        cursor: usize,
        /// Due-time spacing of the producer.
        period: Duration,
    },
}

/// See [`Workload::probe_parts`].
pub type ProbeParts<'a> = (
    Vec<(StreamId, &'a [Update])>,
    &'a Server,
    &'a mut ServerClient,
);

fn slot_batches(slots: &[Slot]) -> Vec<(StreamId, &[Update])> {
    slots
        .iter()
        .map(|s| (s.stream, s.updates.as_slice()))
        .collect()
}

/// Sequenced producer identities used by the benchmark's writers.
pub const WRITER_ID: u64 = 0x5EED_0001;

impl Workload {
    /// Generates the inputs from `seed` and stands the topology up
    /// (everything `setup_s` covers).
    pub fn setup(
        kind: Kind,
        seed: u64,
        sizes: &Sizes,
        schema: &Arc<SkimmedSchema>,
        scratch: &Path,
    ) -> Result<Workload, BoxError> {
        let seeds = Seeds::new(seed);
        let writer_slots = || {
            interleaved_slots(
                seeds.stream(2, StreamId::F, sizes.writer_buffer),
                seeds.stream(2, StreamId::G, sizes.writer_buffer),
                sizes.writer_batch,
            )
        };
        match kind {
            Kind::Ingest => {
                let slots = vec![
                    Slot::new(
                        StreamId::F,
                        seeds.stream(1, StreamId::F, sizes.ingest_buffer),
                    ),
                    Slot::new(
                        StreamId::G,
                        seeds.stream(1, StreamId::G, sizes.ingest_buffer),
                    ),
                ];
                let node = single_node(schema)?;
                let client = ServerClient::connect_named(node.local_addr(), "perfbench-ingest")?;
                Ok(Workload::Ingest {
                    node,
                    client,
                    slots,
                    cursor: 0,
                    batch: sizes.ingest_batch,
                })
            }
            Kind::Query => {
                let pf = seeds.stream(1, StreamId::F, sizes.preload);
                let pg = seeds.stream(1, StreamId::G, sizes.preload);
                let slots = writer_slots();
                let node = single_node(schema)?;
                let mut reader =
                    ServerClient::connect_named(node.local_addr(), "perfbench-reader")?;
                let mut base = Tally::default();
                for (stream, updates) in [(StreamId::F, &pf), (StreamId::G, &pg)] {
                    let r = reader.send_all(stream, updates, sizes.ingest_batch)?;
                    if r.updates != updates.len() as u64 {
                        return Err(
                            format!("preload: {} of {} acked", r.updates, updates.len()).into()
                        );
                    }
                    base.add(stream, updates, 1);
                }
                reader.query_join()?;
                let writer = ServerClient::connect_with(
                    node.local_addr(),
                    sequenced("perfbench-writer", WRITER_ID),
                )?;
                Ok(Workload::Query {
                    node,
                    reader,
                    writer,
                    base,
                    slots,
                    cursor: 0,
                    period: sizes.writer_period,
                })
            }
            Kind::Replicated => {
                let slots = writer_slots();
                let topo = Replicated::start(schema, scratch)?;
                let router = topo.router.local_addr();
                let mut producer =
                    ResilientClient::new(router, sequenced("perfbench-producer", WRITER_ID));
                producer.session()?;
                let mut reader = ServerClient::connect_named(router, "perfbench-reader")?;
                reader.query_join()?;
                Ok(Workload::Replicated {
                    topo,
                    producer,
                    reader,
                    slots,
                    cursor: 0,
                    period: sizes.writer_period,
                })
            }
        }
    }

    /// Drives the workload for `dur`, with spans when `rec` is given.
    pub fn drive(&mut self, dur: Duration, rec: Option<&Recorder>) -> Phase {
        match self {
            Workload::Ingest {
                node,
                client,
                slots,
                cursor,
                batch,
            } => drive_ingest(node, client, slots, cursor, *batch, dur, rec),
            Workload::Query {
                node,
                reader,
                writer,
                slots,
                cursor,
                period,
                ..
            } => drive_mixed(
                slots,
                cursor,
                *period,
                dur,
                rec,
                ("server.send_all", "server.query_join"),
                |s| writer.send_all(s.stream, &s.updates, s.updates.len()),
                |rec, op, ph| sample_pending(rec, op, node, &mut ph.pending_max),
                reader,
            ),
            Workload::Replicated {
                topo,
                producer,
                reader,
                slots,
                cursor,
                period,
            } => drive_mixed(
                slots,
                cursor,
                *period,
                dur,
                rec,
                ("cluster.routed_send", "cluster.routed_query"),
                |s| producer.send_all(s.stream, &s.updates, s.updates.len()),
                |rec, op, ph| {
                    if let Some(r) = rec {
                        let lag = r.timed("replication.lag", op, 0, |_| {
                            topo.follower.replication_lag_bytes().unwrap_or(0)
                        });
                        ph.lag_max = ph.lag_max.max(lag);
                    }
                    sample_pending(rec, op, &topo.primary, &mut ph.pending_max);
                },
                reader,
            ),
        }
    }

    /// Whether `drive` runs a concurrent reader (else query latency is
    /// taken from the verification queries).
    pub fn reads_while_driving(&self) -> bool {
        !matches!(self, Workload::Ingest { .. })
    }

    /// What the layer probes reuse: the batches the workload sends (in
    /// order), the in-process node whose state answers its queries (the
    /// primary shard for `replicated`), and the connection it reads
    /// through (the router for `replicated`).
    pub fn probe_parts(&mut self) -> ProbeParts<'_> {
        match self {
            Workload::Ingest {
                node,
                client,
                slots,
                batch,
                ..
            } => {
                let mut batches = Vec::new();
                for s in slots.iter() {
                    batches.extend(s.updates.chunks(*batch).map(|c| (s.stream, c)));
                }
                (batches, node, client)
            }
            Workload::Query {
                node,
                reader,
                slots,
                ..
            } => (slot_batches(slots), node, reader),
            Workload::Replicated {
                topo,
                reader,
                slots,
                ..
            } => (slot_batches(slots), &topo.primary, reader),
        }
    }

    /// Exactly the updates acknowledged so far.
    pub fn tally(&self) -> Tally {
        let (base, slots) = match self {
            Workload::Ingest { slots, .. } | Workload::Replicated { slots, .. } => (None, slots),
            Workload::Query { base, slots, .. } => (Some(base), slots),
        };
        let mut t = Tally::default();
        if let Some(b) = base {
            t.merge(b);
        }
        t.add_slots(slots);
        t
    }

    /// One `query_join` on the connection the workload reads through.
    pub fn query(&mut self) -> Result<JoinAnswer, ClientError> {
        match self {
            Workload::Ingest { client, .. } => client.query_join(),
            Workload::Query { reader, .. } | Workload::Replicated { reader, .. } => {
                reader.query_join()
            }
        }
    }

    /// Closes the connections and shuts the topology down cleanly.
    pub fn stop(self) -> Result<(), BoxError> {
        match self {
            Workload::Ingest { node, client, .. } => {
                client.goodbye()?;
                node.shutdown()?;
            }
            Workload::Query {
                node,
                reader,
                writer,
                ..
            } => {
                reader.goodbye()?;
                writer.goodbye()?;
                node.shutdown()?;
            }
            Workload::Replicated {
                topo,
                producer,
                reader,
                ..
            } => {
                producer.goodbye()?;
                reader.goodbye()?;
                topo.stop()?;
            }
        }
        Ok(())
    }
}

/// `ingest`: one operation is one pipelined `send_all` of a whole
/// buffer (64 batches at full scale); `ack_ms` times it, `late_ms` is the
/// generator's gap between operations.
fn drive_ingest(
    node: &Server,
    client: &mut ServerClient,
    slots: &mut [Slot],
    cursor: &mut usize,
    batch: usize,
    dur: Duration,
    rec: Option<&Recorder>,
) -> Phase {
    let mut ph = Phase::default();
    let t0 = Instant::now();
    let mut prev = t0;
    while prev < t0 + dur {
        let slot = &mut slots[*cursor % slots.len()];
        *cursor += 1;
        let op = rec.map_or(0, Recorder::new_op);
        let start = Instant::now();
        ph.late_ms.push(ms(start - prev));
        ph.attempted += 1;
        let r = maybe(rec, "server.send_all", op, || {
            client.send_all(slot.stream, &slot.updates, batch)
        });
        ph.ack_ms.push(ms(start.elapsed()));
        let failed = r.is_err();
        ph.record_send(slot, r);
        sample_pending(rec, op, node, &mut ph.pending_max);
        if failed {
            break;
        }
        prev = Instant::now();
    }
    ph.barrier(t0, client, rec, "server.query_join");
    ph
}

/// `query` and `replicated`: one open-loop sequenced writer beside one
/// closed-loop reader. The writer sends batch `k` when it falls due at
/// `t0 + k·period`, never earlier (late batches go out at once, and the
/// lateness is recorded); each ack is timed from its batch's due time.
#[allow(clippy::too_many_arguments)]
fn drive_mixed(
    slots: &mut [Slot],
    cursor: &mut usize,
    period: Duration,
    dur: Duration,
    rec: Option<&Recorder>,
    names: (&'static str, &'static str),
    mut send: impl FnMut(&Slot) -> Result<SendReport, ClientError> + Send,
    after_ack: impl Fn(Option<&Recorder>, u64, &mut Phase) + Sync,
    reader: &mut ServerClient,
) -> Phase {
    let (send_span, query_span) = names;
    let t0 = Instant::now();
    let deadline = t0 + dur;
    let mut ph = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| {
            let mut ph = Phase::default();
            let mut due = t0;
            while due < deadline {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let slot = &mut slots[*cursor % slots.len()];
                *cursor += 1;
                let op = rec.map_or(0, Recorder::new_op);
                let start = Instant::now();
                ph.late_ms.push(ms(start - due));
                ph.attempted += 1;
                let r = maybe(rec, send_span, op, || send(slot));
                ph.ack_ms.push(ms(due.elapsed()));
                let failed = r.is_err();
                ph.record_send(slot, r);
                after_ack(rec, op, &mut ph);
                if failed {
                    break;
                }
                due += period;
            }
            ph
        });
        let mut ph = Phase::default();
        while Instant::now() < deadline {
            let op = rec.map_or(0, Recorder::new_op);
            let t = Instant::now();
            ph.attempted += 1;
            match maybe(rec, query_span, op, || reader.query_join()) {
                Ok(_) => ph.query_ms.push(ms(t.elapsed())),
                Err(e) => {
                    ph.failures.push(format!("reader: {e}"));
                    break;
                }
            }
        }
        match writer_thread.join() {
            Ok(w) => ph.merge(w),
            Err(_) => ph.failures.push("writer thread panicked".into()),
        }
        ph
    });
    ph.barrier(t0, reader, rec, query_span);
    ph
}
