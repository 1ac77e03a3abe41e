//! Golden fixtures: one pair per lint. Each lint gets a minimal source
//! (or manifest) that must trigger exactly the expected finding, and a
//! suppressed twin whose `ss-analyze: allow` directive must silence it
//! without tripping the A0 hygiene lints. Together they pin both halves
//! of the contract: true positives are caught, justified false
//! positives stay quiet.

use ss_analyze::manifest::{self, Manifest};
use ss_analyze::source::SourceFile;
use ss_analyze::{analyze_parsed, Analysis};

fn run(files: &[(&str, &str)]) -> Analysis {
    let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    analyze_parsed(&parsed, &[])
}

fn run_manifests(manifests: &[(&str, &str)]) -> Analysis {
    let parsed: Vec<Manifest> = manifests
        .iter()
        .map(|(p, s)| manifest::parse(p, s))
        .collect();
    analyze_parsed(&[], &parsed)
}

fn lints(a: &Analysis) -> Vec<&'static str> {
    a.findings.iter().map(|f| f.lint).collect()
}

// ---------------------------------------------------------------- A1

#[test]
fn a1_unjustified_relaxed_is_caught() {
    let a = run(&[(
        "crates/core/src/thing.rs",
        "fn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n\
         \u{20}   x.load(Ordering::Relaxed)\n\
         }\n",
    )]);
    assert_eq!(lints(&a), ["a1-atomic-ordering"]);
    assert_eq!(a.findings[0].line, 2);
}

#[test]
fn a1_ordering_comment_and_suppression_are_both_honored() {
    // A trailing `ordering:` justification satisfies the lint directly…
    let a = run(&[(
        "crates/core/src/thing.rs",
        "fn f(x: &A) -> u64 { x.load(Ordering::Relaxed) } // ordering: monotone counter, no edge needed\n",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // …and an explicit allow directive silences it too, without going
    // stale (no a0-unused-suppression).
    let b = run(&[(
        "crates/core/src/thing.rs",
        "// ss-analyze: allow(a1-atomic-ordering) -- fixture: justified elsewhere\n\
         fn f(x: &A) -> u64 { x.load(Ordering::Relaxed) }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A2

#[test]
fn a2_unwrap_in_serving_code_is_caught() {
    let a = run(&[(
        "crates/server/src/lib.rs",
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )]);
    assert_eq!(lints(&a), ["a2-panic-free"]);
}

#[test]
fn a2_index_expression_is_caught_but_slice_pattern_is_not() {
    let a = run(&[(
        "crates/wire/src/frame.rs",
        "fn f(v: &[u8]) -> u8 { v[0] }\n",
    )]);
    assert_eq!(lints(&a), ["a2-panic-free"]);
    let b = run(&[(
        "crates/wire/src/frame.rs",
        "fn f(v: [u8; 2]) -> u8 { let [a, _b] = v; a }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn a2_is_scoped_suppressed_and_test_masked() {
    // Same source outside the serving crates: not a finding.
    let a = run(&[(
        "crates/bench/src/grid.rs",
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )]);
    assert!(a.findings.is_empty());
    // Suppression with a reason silences it in scope.
    let b = run(&[(
        "crates/ingest/src/lib.rs",
        "fn f(x: Option<u8>) -> u8 {\n\
         \u{20}   // ss-analyze: allow(a2-panic-free) -- fixture: invariant holds\n\
         \u{20}   x.unwrap()\n\
         }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
    // `#[cfg(test)] mod tests` is masked wholesale.
    let c = run(&[(
        "crates/durability/src/wal.rs",
        "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n",
    )]);
    assert!(c.findings.is_empty(), "{:?}", c.findings);
}

// ---------------------------------------------------------------- A3

const A3_TELEMETRY_TOML: &str = "[package]\n\
    name = \"stream-telemetry\"\n\
    [features]\n\
    enabled = []\n";

#[test]
fn a3_default_features_edge_is_caught() {
    let a = run_manifests(&[
        ("crates/telemetry/Cargo.toml", A3_TELEMETRY_TOML),
        (
            "crates/foo/Cargo.toml",
            "[package]\n\
             name = \"foo\"\n\
             [dependencies]\n\
             stream-telemetry = { path = \"../telemetry\" }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a3-telemetry-edge"]);
    assert_eq!(a.findings[0].path, "crates/foo/Cargo.toml");
}

#[test]
fn a3_clean_edge_and_suppressed_edge_are_quiet() {
    // default-features = false + gate forwarding: clean.
    let a = run_manifests(&[
        ("crates/telemetry/Cargo.toml", A3_TELEMETRY_TOML),
        (
            "crates/foo/Cargo.toml",
            "[package]\n\
             name = \"foo\"\n\
             [dependencies]\n\
             stream-telemetry = { path = \"../telemetry\", default-features = false }\n\
             [features]\n\
             telemetry = [\"stream-telemetry/enabled\"]\n",
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // TOML suppressions use `#` comments and the same directive grammar.
    let b = run_manifests(&[
        ("crates/telemetry/Cargo.toml", A3_TELEMETRY_TOML),
        (
            "crates/foo/Cargo.toml",
            "[package]\n\
             name = \"foo\"\n\
             [dependencies]\n\
             # ss-analyze: allow(a3-telemetry-edge) -- fixture: intentional default edge\n\
             stream-telemetry = { path = \"../telemetry\" }\n",
        ),
    ]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A4

#[test]
fn a4_mutex_in_hot_path_is_caught() {
    let a = run(&[(
        "crates/sketches/src/agms.rs",
        "fn f() { let _m = Mutex::new(0u8); }\n",
    )]);
    assert_eq!(lints(&a), ["a4-blocking-hot-path"]);
}

#[test]
fn a4_use_statement_and_suppression_are_quiet() {
    // `use std::sync::{Arc, Mutex};` is an import, not a lock.
    let a = run(&[(
        "crates/telemetry/src/gauges.rs",
        "use std::sync::{Arc, Mutex};\nfn f() {}\n",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let b = run(&[(
        "crates/core/src/estimator.rs",
        "// ss-analyze: allow(a4-blocking-hot-path) -- fixture: cold registration path\n\
         fn f() { let _m = Mutex::new(0u8); }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn a4_scope_covers_replication_modules() {
    // The replication poll/gate module and the WAL tailer joined the
    // hot-path scope with the failover work: both serve every
    // replication poll (and the ack gate sits before every sequenced
    // ack), so an unjustified block there stalls producers fleet-wide.
    let a = run(&[(
        "crates/server/src/replication.rs",
        "fn f() { std::thread::sleep(d); }\n",
    )]);
    assert_eq!(lints(&a), ["a4-blocking-hot-path"]);
    let b = run(&[(
        "crates/durability/src/tailer.rs",
        "fn f() { let _m = Mutex::new(0u8); }\n",
    )]);
    assert_eq!(lints(&b), ["a4-blocking-hot-path"]);
    // Client-side retry code stays out of scope: its sleeps are the
    // backoff design, not a hot-path hazard.
    let c = run(&[(
        "crates/server/src/resilient.rs",
        "fn f() { std::thread::sleep(d); }\n",
    )]);
    assert!(c.findings.is_empty(), "{:?}", c.findings);
}

#[test]
fn a4_condvar_is_a_blocking_wait() {
    // A condvar wait parks the thread just as a sleep does, so swapping
    // a flagged sleep for a wait must not make the finding disappear.
    let a = run(&[(
        "crates/server/src/replication.rs",
        "fn f() { let _c = Condvar::new(); }\n",
    )]);
    assert_eq!(lints(&a), ["a4-blocking-hot-path"]);
    assert!(a.findings[0].message.contains("Condvar"));
    let b = run(&[(
        "crates/server/src/replication.rs",
        "// ss-analyze: allow(a4-blocking-hot-path) -- fixture: wait bounded by a deadline\n\
         fn f() { let _c = Condvar::new(); }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A5

#[test]
fn a5_narrowing_cast_in_codec_is_caught() {
    let a = run(&[(
        "crates/sketches/src/codec.rs",
        "fn f(x: u64) -> u32 { x as u32 }\n",
    )]);
    assert_eq!(lints(&a), ["a5-numeric-narrowing"]);
}

#[test]
fn a5_scope_usize_and_suppression_are_quiet() {
    // Out of scope (not a codec/estimator module): quiet.
    let a = run(&[(
        "crates/stream/src/model.rs",
        "fn f(x: u64) -> u32 { x as u32 }\n",
    )]);
    assert!(a.findings.is_empty());
    // `as usize` is sanctioned (bounds-checked at the use site).
    let b = run(&[(
        "crates/core/src/estimator.rs",
        "fn f(x: u64) -> usize { x as usize }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
    let c = run(&[(
        "crates/core/src/dyadic.rs",
        "// ss-analyze: allow(a5-numeric-narrowing) -- fixture: format-bounded field\n\
         fn f(x: u64) -> u32 { x as u32 }\n",
    )]);
    assert!(c.findings.is_empty(), "{:?}", c.findings);
}

// ---------------------------------------------------------------- A6

/// The fixture frame enum: three kinds, so a match naming only one and
/// absorbing the rest with `_` is a hole.
const A6_FRAME_RS: &str = "pub enum Frame {\n\
    \u{20}   Hello,\n\
    \u{20}   BatchAck { seq: u64 },\n\
    \u{20}   Goodbye,\n\
    }\n";

#[test]
fn a6_catch_all_over_frame_is_caught() {
    let a = run(&[
        ("crates/wire/src/frame.rs", A6_FRAME_RS),
        (
            "crates/server/src/lib.rs",
            "fn f(fr: Frame) -> u8 {\n\
             \u{20}   match fr {\n\
             \u{20}       Frame::Hello => 1,\n\
             \u{20}       _ => 0,\n\
             \u{20}   }\n\
             }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a6-frame-exhaustive"]);
    assert!(
        a.findings[0].message.contains("BatchAck") && a.findings[0].message.contains("Goodbye"),
        "{}",
        a.findings[0].message
    );
}

#[test]
fn a6_exhaustive_match_and_suppression_are_quiet() {
    // Naming every variant (struct patterns included) is clean even
    // with no catch-all possible.
    let a = run(&[
        ("crates/wire/src/frame.rs", A6_FRAME_RS),
        (
            "crates/server/src/lib.rs",
            "fn f(fr: Frame) -> u8 {\n\
             \u{20}   match fr {\n\
             \u{20}       Frame::Hello => 1,\n\
             \u{20}       Frame::BatchAck { .. } => 2,\n\
             \u{20}       Frame::Goodbye => 3,\n\
             \u{20}   }\n\
             }\n",
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // A justified catch-all stays quiet via the directive on the arm.
    let b = run(&[
        ("crates/wire/src/frame.rs", A6_FRAME_RS),
        (
            "crates/server/src/lib.rs",
            "fn f(fr: Frame) -> u8 {\n\
             \u{20}   match fr {\n\
             \u{20}       Frame::Hello => 1,\n\
             \u{20}       // ss-analyze: allow(a6-frame-exhaustive) -- fixture: uniform rejection\n\
             \u{20}       _ => 0,\n\
             \u{20}   }\n\
             }\n",
        ),
    ]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ------------------------------------------------------- A0 hygiene

#[test]
fn a0_stale_suppression_is_itself_a_finding() {
    let a = run(&[(
        "crates/core/src/estimator.rs",
        "// ss-analyze: allow(a5-numeric-narrowing) -- fixture: nothing here narrows\n\
         fn f(x: u64) -> u64 { x }\n",
    )]);
    assert_eq!(lints(&a), ["a0-unused-suppression"]);
}

#[test]
fn a0_missing_reason_and_unknown_lint_are_findings() {
    let a = run(&[(
        "crates/core/src/estimator.rs",
        "// ss-analyze: allow(a5-numeric-narrowing)\n\
         fn f(x: u64) -> u32 { x as u32 }\n",
    )]);
    assert!(
        lints(&a).contains(&"a0-bad-suppression"),
        "{:?}",
        a.findings
    );
    let b = run(&[(
        "crates/core/src/estimator.rs",
        "// ss-analyze: allow(a9-no-such-lint) -- fixture\nfn f(x: u64) -> u64 { x }\n",
    )]);
    assert!(lints(&b).contains(&"a0-unknown-lint"), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A7

/// Minimal wire `Kind` enum the a7 pass derives the v3 variant set
/// from: `Promote = 23` is v3-only, `Hello = 1` is not.
const FRAME_RS: (&str, &str) = (
    "crates/wire/src/frame.rs",
    "pub enum Kind { Hello = 1, Promote = 23 }\n",
);

#[test]
fn a7_ungated_v3_construction_is_caught() {
    let a = run(&[
        FRAME_RS,
        (
            "crates/server/src/lib.rs",
            "fn send(out: &mut O) { out.emit(Frame::Promote { epoch: 1 }); }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a7-version-gating"]);
    assert!(a.findings[0].message.contains("Frame::Promote"));
}

#[test]
fn a7_local_gate_caller_gate_and_suppression_are_honored() {
    // A protocol guard earlier in the same body gates the construction…
    let a = run(&[
        FRAME_RS,
        (
            "crates/server/src/lib.rs",
            "fn send(session_protocol: u16, out: &mut O) {\n\
             \u{20}   if session_protocol < 3 { return; }\n\
             \u{20}   out.emit(Frame::Promote { epoch: 1 });\n\
             }\n",
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // …a guard in the sole (non-test) caller gates it transitively…
    let b = run(&[
        FRAME_RS,
        (
            "crates/server/src/lib.rs",
            "fn dispatch(session_protocol: u16, out: &mut O) {\n\
             \u{20}   if session_protocol < 3 { return; }\n\
             \u{20}   send_promote(out);\n\
             }\n\
             fn send_promote(out: &mut O) { out.emit(Frame::Promote { epoch: 1 }); }\n",
        ),
    ]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
    // …and an explicit allow directive silences an ungated one.
    let c = run(&[
        FRAME_RS,
        (
            "crates/server/src/lib.rs",
            "// ss-analyze: allow(a7-version-gating) -- fixture: v2 peers filtered upstream\n\
             fn send(out: &mut O) { out.emit(Frame::Promote { epoch: 1 }); }\n",
        ),
    ]);
    assert!(c.findings.is_empty(), "{:?}", c.findings);
}

#[test]
fn a7_patterns_and_the_codec_crate_are_exempt() {
    // Matching on a v3 frame is how v2 paths *reject* it — only
    // construction is gated. The codec crate itself must name every
    // kind and is exempt wholesale.
    let a = run(&[
        FRAME_RS,
        (
            "crates/server/src/lib.rs",
            "fn epoch_of(f: &Frame) -> u64 {\n\
             \u{20}   if let Frame::Promote { epoch } = f { *epoch } else { 0 }\n\
             }\n",
        ),
        (
            "crates/wire/src/codec.rs",
            "fn encode() -> Frame { Frame::Promote { epoch: 1 } }\n",
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

// ---------------------------------------------------------------- A8

#[test]
fn a8_role_read_before_epoch_comparison_is_caught() {
    // Seeded reorder: the handler consults its role, *then* compares
    // the caller's fencing epoch — the stale-role window.
    let a = run(&[(
        "crates/server/src/replication.rs",
        "fn apply(epoch: u64, state: &S) -> bool {\n\
         \u{20}   if state.role() != Role::Primary { return false; }\n\
         \u{20}   if epoch < state.epoch() { return false; }\n\
         \u{20}   true\n\
         }\n",
    )]);
    assert_eq!(lints(&a), ["a8-fence-order"]);
    assert!(a.findings[0].message.contains("stale-role"));
}

#[test]
fn a8_fence_first_and_suppression_are_honored() {
    // The hoisted epoch comparison dominates the role read: clean.
    let a = run(&[(
        "crates/server/src/replication.rs",
        "fn apply(epoch: u64, state: &S) -> bool {\n\
         \u{20}   if epoch < state.epoch() { return false; }\n\
         \u{20}   if state.role() != Role::Primary { return false; }\n\
         \u{20}   true\n\
         }\n",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // A justified suppression on the role-read line is honored.
    let b = run(&[(
        "crates/server/src/replication.rs",
        "fn observe(epoch: u64, state: &S) -> bool {\n\
         \u{20}   // ss-analyze: allow(a8-fence-order) -- fixture: read-only probe, role is advisory\n\
         \u{20}   state.role() == Role::Primary && epoch > 0\n\
         }\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A9

#[test]
fn a9_bump_before_append_is_caught() {
    // Seeded reorder: dedup frontier advanced before the WAL append —
    // a crash between them loses a batch the frontier claims applied.
    let a = run(&[(
        "crates/server/src/ingest.rs",
        "fn handle(w: &mut W, seq: u64) {\n\
         \u{20}   w.bump_dedup(seq);\n\
         \u{20}   w.wal.append(seq);\n\
         \u{20}   ack(seq);\n\
         }\n",
    )]);
    assert_eq!(lints(&a), ["a9-persist-order"]);
    assert!(a.findings[0].message.contains("before the WAL append"));
}

#[test]
fn a9_ack_before_bump_is_caught() {
    // Seeded reorder: the ack leaves before the dedup bump that covers
    // it — recovery re-applies a batch the producer saw acknowledged.
    let a = run(&[(
        "crates/server/src/ingest.rs",
        "fn handle(w: &mut W, seq: u64) {\n\
         \u{20}   w.wal.append(seq);\n\
         \u{20}   ack(seq);\n\
         \u{20}   w.bump_dedup(seq);\n\
         }\n",
    )]);
    assert_eq!(lints(&a), ["a9-persist-order"]);
    assert!(a.findings[0].message.contains("ack before the dedup bump"));
}

#[test]
fn a9_correct_order_and_suppression_are_honored() {
    // append -> bump -> ack is the documented order: clean. The early
    // duplicate-ack path (ack, then the real sequence later) is
    // tolerated by the last-occurrence reading.
    let a = run(&[(
        "crates/server/src/ingest.rs",
        "fn handle(w: &mut W, seq: u64) {\n\
         \u{20}   if w.seen(seq) { ack(seq); return; }\n\
         \u{20}   w.wal.append(seq);\n\
         \u{20}   w.bump_dedup(seq);\n\
         \u{20}   ack(seq);\n\
         }\n",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    // A justified suppression on the offending token's line is honored.
    let b = run(&[(
        "crates/server/src/ingest.rs",
        "fn replay(w: &mut W, seq: u64) { w.bump_dedup(seq); w.wal.append(seq); ack(seq); } // ss-analyze: allow(a9-persist-order) -- fixture: recovery replay, frontier restored from the log itself\n",
    )]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ---------------------------------------------------------------- A10

#[test]
fn a10_panic_reachable_from_entry_point_is_caught() {
    // `serve_frame` (a serving entry point) calls into a crate
    // outside a2's module allowlist; the unwrap there is reachable.
    // The uncalled neighbor with the same unwrap is not flagged.
    let a = run(&[
        (
            "crates/server/src/lib.rs",
            "fn serve_frame(x: Option<u8>) -> u8 { helper_crunch(x) }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn helper_crunch(x: Option<u8>) -> u8 { x.unwrap() }\n\
             pub fn lonely(x: Option<u8>) -> u8 { x.unwrap() }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a10-reachable-panic"]);
    assert!(a.findings[0].message.contains("helper_crunch"));
    assert_eq!(a.findings[0].path, "crates/query/src/lib.rs");
}

#[test]
fn a10_blocking_reachable_from_entry_point_is_caught() {
    let a = run(&[
        (
            "crates/cluster/src/router.rs",
            "fn supervise(d: Duration) { pause_helper(d); }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn pause_helper(d: Duration) { std::thread::sleep(d); }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a10-reachable-blocking"]);
    assert!(a.findings[0].message.contains("pause_helper"));
}

#[test]
fn a10_suppressions_are_honored() {
    let a = run(&[
        (
            "crates/server/src/lib.rs",
            "fn serve_frame(x: Option<u8>) -> u8 { helper_crunch(x) }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn helper_crunch(x: Option<u8>) -> u8 {\n\
             \u{20}   // ss-analyze: allow(a10-reachable-panic) -- fixture: Some by construction\n\
             \u{20}   x.unwrap()\n\
             }\n",
        ),
    ]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let b = run(&[
        (
            "crates/cluster/src/router.rs",
            "fn supervise(d: Duration) { pause_helper(d); }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn pause_helper(d: Duration) {\n\
             \u{20}   // ss-analyze: allow(a10-reachable-blocking) -- fixture: cold supervision tick\n\
             \u{20}   std::thread::sleep(d);\n\
             }\n",
        ),
    ]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn a10_condvar_reachable_from_entry_point_is_caught() {
    let a = run(&[
        (
            "crates/server/src/lib.rs",
            "fn serve_frame(g: G) { park_helper(g); }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn park_helper(g: G) { let _c = Condvar::new(); }\n",
        ),
    ]);
    assert_eq!(lints(&a), ["a10-reachable-blocking"]);
    assert!(a.findings[0].message.contains("Condvar"));
    let b = run(&[
        (
            "crates/server/src/lib.rs",
            "fn serve_frame(g: G) { park_helper(g); }\n",
        ),
        (
            "crates/query/src/lib.rs",
            "pub fn park_helper(g: G) {\n\
             \u{20}   // ss-analyze: allow(a10-reachable-blocking) -- fixture: wait bounded by a deadline\n\
             \u{20}   let _c = Condvar::new();\n\
             }\n",
        ),
    ]);
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

// ------------------------------------------------- A0 rename orphan

#[test]
fn a0_suppression_orphaned_by_file_rename_is_reported() {
    // A suppression written when this code lived in a linted path
    // (say `crates/server/src/query.rs`, inside a2's allowlist)
    // travels with the code to a path the lint does not cover. The
    // directive now matches nothing — A0 reports it instead of letting
    // a dead `allow` rot in place and silently mask a future finding.
    let src = "fn pick(x: Option<u8>) -> u8 {\n\
               \u{20}   // ss-analyze: allow(a2-panic-free) -- checked by caller\n\
               \u{20}   x.unwrap()\n\
               }\n";
    // In the original location the suppression is live: no findings.
    let before = run(&[("crates/server/src/query.rs", src)]);
    assert!(before.findings.is_empty(), "{:?}", before.findings);
    // After the rename, a2 no longer applies and the directive is
    // orphaned: exactly one a0-unused-suppression, anchored to it.
    let after = run(&[("crates/query/src/pick.rs", src)]);
    assert_eq!(lints(&after), ["a0-unused-suppression"]);
    assert_eq!(after.findings[0].line, 2);
}
