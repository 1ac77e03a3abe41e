//! One benchmark invocation: set up (several times), drive, verify, and
//! — for the traced run — probe every layer; then derive the metrics.

use crate::data::schema;
use crate::fingerprint::Fingerprint;
use crate::json::{obj, Json};
use crate::metrics::{peak_rss_mb, unit, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{mean, median, quantile};
use crate::topology::BoxError;
use crate::trace::{Ledger, Recorder};
use crate::workloads::{ms, Kind, Phase, Sizes, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stream_model::ratio_error;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to drive.
    pub kind: Kind,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics from spans.
    pub trace: bool,
    /// Toy sizes (the self-test).
    pub smoke: bool,
    /// Where spans, results and scratch WAL directories go.
    pub out: PathBuf,
    /// Repository root (for the commit in the fingerprint).
    pub root: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (sends, queries, probe operations).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host and build that produced the numbers.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` (each metric with its value and unit).
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = unit(name).unwrap_or("");
            (
                name,
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// Runs one invocation end to end.
pub fn run(opts: &Options) -> Result<Outcome, BoxError> {
    std::fs::create_dir_all(&opts.out)?;
    let fingerprint = Fingerprint::current(&opts.root);
    println!("fingerprint {}", fingerprint.to_json().render());
    let sizes = if opts.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let schema = schema();

    // Set-up: generation, topology, preload — repeated, median reported.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for rep in 0..sizes.setup_reps {
        let t = Instant::now();
        let w = Workload::setup(opts.kind, opts.seed, &sizes, &schema, &opts.out)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < sizes.setup_reps {
            w.stop()?;
        } else {
            workload = Some(w);
        }
    }
    let mut w = workload.ok_or("no set-up repetitions")?;

    // Measured traffic. The traced run spends half its window untraced
    // and half traced, on the same topology, so the difference is the
    // tracing overhead.
    let window = Duration::from_secs_f64(opts.seconds);
    let drive_rec = Recorder::default();
    let (main, untraced) = if opts.trace {
        let untraced = w.drive(window / 2, None);
        (w.drive(window / 2, Some(&drive_rec)), Some(untraced))
    } else {
        (w.drive(window, None), None)
    };

    // Correctness gate: the final answer must equal in-process
    // `estimate_join` over exactly the acknowledged updates.
    let mut failures: Vec<String> = main.failures.clone();
    let mut attempted = main.attempted;
    if let Some(u) = &untraced {
        failures.extend(u.failures.clone());
        attempted += u.attempted;
    }
    let tally = w.tally();
    let reference = tally.reference(&schema);
    let acked_total =
        main.acked_updates + untraced.as_ref().map_or(0, |u| u.acked_updates) + preload(&w, &sizes);
    if tally.l1() != acked_total {
        failures.push(format!(
            "acknowledged {} updates but the tally holds {}",
            acked_total,
            tally.l1()
        ));
    }
    let mut verify_ms = Vec::new();
    let mut final_estimate = f64::NAN;
    // `ingest` takes its query latency from these, so it asks more.
    let reads = w.reads_while_driving();
    let checks = if reads {
        sizes.verify_queries.min(8)
    } else {
        sizes.verify_queries
    };
    for _ in 0..checks {
        attempted += 1;
        let t = Instant::now();
        match w.query() {
            Ok(a) => {
                verify_ms.push(ms(t.elapsed()));
                final_estimate = a.estimate;
                let r = &reference.estimate;
                if a.estimate.to_bits() != r.estimate.to_bits()
                    || a.dense_f != r.dense_f as u64
                    || a.dense_g != r.dense_g as u64
                {
                    failures.push(format!(
                        "served estimate {} (dense {}+{}) != in-process {} (dense {}+{})",
                        a.estimate, a.dense_f, a.dense_g, r.estimate, r.dense_f, r.dense_g
                    ));
                }
            }
            Err(e) => failures.push(format!("verification query: {e}")),
        }
    }

    let mut metrics = Vec::new();
    if opts.trace {
        let probe_rec = Recorder::default();
        attempted += (sizes.probe_queries + sizes.probe_acks) as u64;
        let (batches, node, reader) = w.probe_parts();
        let counts = probes::run_all(
            &batches,
            sizes.probe_updates,
            node,
            reader,
            sizes.probe_queries,
            sizes.probe_acks,
            &opts.out,
            &probe_rec,
        )?;
        failures.extend(counts.failures.clone());
        let base = opts
            .out
            .join(format!("trace-{}-s{}", opts.kind.name(), opts.seed));
        drive_rec.write_jsonl(&base.with_extension("drive.jsonl"))?;
        probe_rec.write_jsonl(&base.with_extension("probes.jsonl"))?;
        let drive = Ledger::from_spans(&drive_rec.spans());
        let probe = Ledger::from_spans(&probe_rec.spans());
        print_ledger("traced traffic", &drive);
        print_ledger("layer probes", &probe);
        let untraced = untraced
            .as_ref()
            .ok_or("traced run without an untraced half")?;
        metrics = per_layer(opts.kind, &main, untraced, &probe, &counts);
    }
    w.stop()?;

    if !opts.trace {
        let (q_ms, q_elapsed) = if reads {
            (main.query_ms.clone(), main.elapsed.as_secs_f64())
        } else {
            (verify_ms.clone(), verify_ms.iter().sum::<f64>() / 1e3)
        };
        metrics = vec![
            ("setup_s", median(&setup_s)),
            (
                "ingest_melem_s",
                main.acked_updates as f64 / main.elapsed.as_secs_f64() / 1e6,
            ),
            ("ack_p50_ms", quantile(&main.ack_ms, 0.5)),
            ("query_p50_ms", quantile(&q_ms, 0.5)),
            ("query_p90_ms", quantile(&q_ms, 0.9)),
            ("queries_per_s", q_ms.len() as f64 / q_elapsed),
            (
                "ratio_error",
                ratio_error(final_estimate, reference.exact as f64),
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        // The ack p90 sits on the knee between the fast and the delayed
        // acks (query: ~10% of writes wait behind a scan), so which side
        // it lands on changes from run to run; it is reported here but
        // not gated.
        println!(
            "samples: ack {} (p90 {:.4} ms, p99 {:.4} ms), query {}; {} THROTTLEs; \
             generator {:.4} ms late on average; setup reps {}; acked {} updates in {:.3} s",
            main.ack_ms.len(),
            quantile(&main.ack_ms, 0.9),
            quantile(&main.ack_ms, 0.99),
            q_ms.len(),
            main.throttled,
            mean(&main.late_ms),
            setup_s.len(),
            main.acked_updates,
            main.elapsed.as_secs_f64()
        );
    }
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in expected {
        if !metrics.iter().any(|(n, _)| n == name) {
            failures.push(format!("metric {name} was not measured"));
        }
    }
    let failed = failures.len() as u64;
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for f in &failures {
        println!("FAILED: {f}");
    }
    let outcome = Outcome {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        fingerprint,
    };
    save(opts, &outcome)?;
    Ok(outcome)
}

/// Updates the set-up preloaded (acknowledged before any timed window).
fn preload(w: &Workload, sizes: &Sizes) -> u64 {
    match w {
        Workload::Query { .. } => 2 * sizes.preload as u64,
        _ => 0,
    }
}

/// Derives the per-layer metrics from the traced window, its untraced
/// twin and the probe spans.
fn per_layer(
    kind: Kind,
    traced: &Phase,
    untraced: &Phase,
    probe: &Ledger,
    counts: &probes::ProbeCounts,
) -> Vec<(&'static str, f64)> {
    let updates = counts.updates.max(1) as f64;
    let per_update = |name: &str| probe.total_ns(name) as f64 / updates;
    let op_ms = |name: &str| probe.median_op_ns(name) / 1e6;
    let estimate_ms = op_ms("core.estimate_join")
        + op_ms("core.clone")
        + op_ms("core.skim")
        + op_ms("core.subjoin")
        + op_ms("sketches.bucket_dot");
    let rate = |p: &Phase| p.acked_updates as f64 / p.elapsed.as_secs_f64();
    let overhead = match kind {
        Kind::Ingest => rate(untraced) / rate(traced) - 1.0,
        Kind::Query => median(&traced.query_ms) / median(&untraced.query_ms) - 1.0,
        Kind::Replicated => median(&traced.ack_ms) / median(&untraced.ack_ms) - 1.0,
    };
    let appends = probe.count("durability.append").max(1) as f64;
    vec![
        ("wire.encode_ns_per_update", per_update("wire.encode")),
        ("wire.decode_ns_per_update", per_update("wire.decode")),
        ("wire.bytes_per_update", counts.wire_bytes as f64 / updates),
        (
            "sketches.add_batch_ns_per_update",
            per_update("sketches.add_batch"),
        ),
        (
            "sketches.bucket_dot_us",
            probe.median_op_ns("sketches.bucket_dot") / 1e3,
        ),
        ("ingest.inproc_melem_s", updates / counts.inproc_s / 1e6),
        ("ingest.pending_chunks_max", traced.pending_max as f64),
        ("ingest.snapshot_ms", op_ms("ingest.snapshot")),
        (
            "server.throttled_frac",
            traced.throttled as f64 / (traced.batches + traced.throttled).max(1) as f64,
        ),
        (
            "server.query_overhead_ms",
            op_ms("server.query_rtt") - op_ms("ingest.snapshot") - estimate_ms,
        ),
        ("core.estimate_join_ms", estimate_ms),
        ("core.skim_ms", op_ms("core.skim")),
        ("core.clone_ms", op_ms("core.clone")),
        ("core.subjoin_ms", op_ms("core.subjoin")),
        ("core.dense_values", counts.dense_values as f64),
        (
            "durability.append_us_per_batch",
            probe.total_ns("durability.append") as f64 / appends / 1e3,
        ),
        (
            "durability.bytes_per_update",
            counts.wal_bytes as f64 / updates,
        ),
        ("cluster.shard_fetch_ms", op_ms("cluster.shard_fetch")),
        (
            "cluster.routed_minus_direct_ack_ms",
            op_ms("cluster.routed_send") - op_ms("server.shadow_send"),
        ),
        (
            "replication.lag_bytes_max",
            traced.lag_max.max(counts.lag_max) as f64,
        ),
        ("trace.overhead_frac", overhead),
        ("gen_late_ms", mean(&traced.late_ms)),
    ]
}

fn print_ledger(title: &str, ledger: &Ledger) {
    println!("{title}: self time by span");
    for (name, ns, n) in ledger.rows() {
        println!("  {name:<36} {:>12.3} ms  {n:>7} spans", ns as f64 / 1e6);
    }
}

/// Writes the result with its fingerprint for `compare`.
fn save(opts: &Options, outcome: &Outcome) -> Result<(), BoxError> {
    let mut doc = outcome.result_line();
    if let Json::Obj(m) = &mut doc {
        m.insert("fingerprint".into(), outcome.fingerprint.to_json());
        m.insert("workload".into(), Json::Str(opts.kind.name().into()));
        m.insert("seed".into(), Json::Num(opts.seed as f64));
        m.insert("trace".into(), Json::Bool(opts.trace));
        m.insert("seconds".into(), Json::Num(opts.seconds));
    }
    let path = opts.out.join(format!(
        "result-{}-s{}-t{}.json",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, doc.render() + "\n")?;
    println!("result saved to {}", path.display());
    Ok(())
}

/// `compare A B`: refuses results whose host fingerprints differ, else
/// prints each shared metric's change from A to B.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    let fp = |v: &Json| {
        v.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| "result has no fingerprint".to_string())
    };
    let (fa, fb) = (fp(a)?, fp(b)?);
    let diff = fa.incomparable(&fb);
    if !diff.is_empty() {
        return Err(format!(
            "refusing to compare results from different hosts or builds: {}",
            diff.join("; ")
        ));
    }
    for key in ["workload", "trace", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("refusing to compare: `{key}` differs"));
        }
    }
    let empty = Json::Obj(Default::default());
    let (ma, mb) = (
        a.get("metrics").unwrap_or(&empty),
        b.get("metrics").unwrap_or(&empty),
    );
    let mut lines = vec![format!("A commit {} → B commit {}", fa.commit, fb.commit)];
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        let value = |m: &Json| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        if let (Some(x), Some(y)) = (value(ma), value(mb)) {
            let rel = if x != 0.0 {
                (y - x) / x * 100.0
            } else {
                f64::NAN
            };
            lines.push(format!("{name:<36} {x:>14.6} → {y:>14.6}  ({rel:+.2}%)"));
        }
    }
    Ok(lines)
}
