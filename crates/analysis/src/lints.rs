//! The workspace lints (A1–A6).
//!
//! Each lint is a pure function from an indexed [`SourceFile`] (or the
//! manifest set, for A3) to raw findings; suppression filtering and
//! baseline subtraction happen in the engine. Scoping — which crates or
//! modules a lint applies to — lives in the `*_SCOPE` constants here,
//! documented in DESIGN.md §10.

use crate::findings::{lint_info, Finding, Severity};
use crate::lexer::{Tok, TokKind};
use crate::manifest::Manifest;
use crate::source::SourceFile;

/// Crates whose non-test code must be panic-free (A2): a panic in any
/// of these kills a connection handler, an ingest worker, or recovery —
/// exactly the paths the fault-tolerance layer promises to keep alive.
/// Public because a10 extends this allowlist by call-graph
/// reachability: it inspects reachable fns *outside* this scope.
pub const A2_SCOPE: &[&str] = &[
    "crates/wire/src/",
    // The shared varint/zigzag reader under every wire frame, sketch
    // and trace decoder: a panic here is a panic in all of them.
    "crates/stream/src/codec.rs",
    "crates/server/src/",
    "crates/durability/src/",
    "crates/ingest/src/",
    // The flight recorder runs inside every handler and worker; a panic
    // while recording would take down the very thread it is observing.
    "crates/trace/src/",
    // The cluster router's handlers make the same promise as the
    // server's: a panic while routing drops every session the handler
    // owns and silently degrades the fleet.
    "crates/cluster/src/",
];

/// Hot-path modules for A4: code on the per-update / per-frame path
/// where one blocking call stalls a whole pipeline stage. Client-side
/// retry loops (`client.rs`, `resilient.rs`) and the fault-injection
/// proxy (`fault.rs`, test tooling) are deliberately outside this list.
/// Public for the same reason as [`A2_SCOPE`]: a10 inspects reachable
/// fns this allowlist does not cover.
pub const A4_SCOPE: &[&str] = &[
    "crates/ingest/src/",
    "crates/telemetry/src/",
    "crates/wire/src/",
    "crates/sketches/src/",
    "crates/hashing/src/",
    "crates/core/src/",
    "crates/server/src/lib.rs",
    // The serving substrate reads and writes every frame of both front
    // ends; its accept-path hand-off mutex carries an explicit allow.
    "crates/server/src/serve.rs",
    // The replication module's poll loop and ack gate sit between the
    // persist lock and every sequenced ack; its deliberate waits (the
    // gate's condvar, the lock behind it, reconnect backoff) carry
    // explicit allows.
    "crates/server/src/replication.rs",
    "crates/durability/src/wal.rs",
    // The WAL tailer serves every replication poll on a handler
    // thread; it must stay a bounded, lock-free directory read.
    "crates/durability/src/tailer.rs",
    // Span recording sits on the per-frame and per-batch paths; the
    // seqlock rings must stay lock-free (the registry mutex at ring
    // creation and the post-mortem path carry explicit allows).
    "crates/trace/src/",
    // Router fan-out sits on the per-batch path end to end; the
    // shard-retry backoff sleeps carry explicit allows.
    "crates/cluster/src/",
];

/// File name stems in A5 scope: codec and estimator arithmetic, where
/// the i128 overflow class of PR 1 lived, plus the limb-lane kernel
/// modules (`lanes.rs`, `family.rs`) whose correctness rests on exact
/// 32/30-bit limb bounds — an unnoticed narrowing cast there would
/// silently break the bit-identity contract.
const A5_STEMS: &[&str] = &[
    "estimator.rs",
    "skim.rs",
    "extracted.rs",
    "dyadic.rs",
    "agms.rs",
    "hash_sketch.rs",
    "countmin.rs",
    "linear.rs",
    "lanes.rs",
    "family.rs",
];

/// Cast targets A5 flags: every numeric type narrower than 128 bits
/// except `usize` (index casts are bounds-checked at the use site and
/// would drown the signal). `f64` and `i128`/`u128` are the sanctioned
/// wide types.
const A5_NARROW: &[&str] = &[
    "i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64", "isize", "f32",
];

/// Crates whose `match`es over `Frame` A6 audits.
const A6_SCOPE: &[&str] = &[
    "crates/wire/src/",
    "crates/server/src/",
    "crates/durability/src/",
];

/// Keywords that may directly precede `[` without it being an index
/// expression (slice patterns, array literals in expression position).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "break", "continue", "move", "mut", "ref", "as",
    "box", "where", "for", "while", "loop", "impl", "fn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "dyn", "unsafe", "async", "await", "crate", "super",
    "yield",
];

fn make(lint: &'static str, path: &str, tok: &Tok, message: String) -> Finding {
    Finding {
        lint,
        severity: Severity::Error,
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
        hint: lint_info(lint).map(|l| l.hint).unwrap_or(""),
    }
}

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|s| path.starts_with(s) || path == s.trim_end_matches('/'))
}

/// Public scope test for the pass layer (a10 asks "is this path already
/// covered by a2/a4's module allowlist?").
pub fn in_lint_scope(path: &str, scope: &[&str]) -> bool {
    in_scope(path, scope)
}

/// A1: `Ordering::Relaxed` / `Ordering::SeqCst` must carry a comment
/// containing the `ordering:` tag on the same line or the contiguous
/// comment block above. `Acquire`/`Release`/`AcqRel` name their edge in
/// the type system and are exempt; `Relaxed` forgoes an edge and
/// `SeqCst` buys a global order, so both must say why.
pub fn a1_atomic_ordering(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "Relaxed" && t.text != "SeqCst") {
            continue;
        }
        if i < 2 || file.toks[i - 1].text != "::" || file.toks[i - 2].text != "Ordering" {
            continue;
        }
        if file.mask[i] || file.in_use_statement(i) {
            continue;
        }
        if file.comments_attached(t.line).contains("ordering:") {
            continue;
        }
        out.push(make(
            "a1-atomic-ordering",
            &file.path,
            t,
            format!(
                "`Ordering::{}` without an `ordering:` justification comment",
                t.text
            ),
        ));
    }
    out
}

/// A2: panic-freedom in the serving crates' non-test code — no
/// `.unwrap()`, `.expect(...)`, `panic!`-family macros, or slice/array
/// index expressions (which panic on out-of-bounds).
pub fn a2_panic_free(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.path, A2_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &file.toks[j]);
        let next = file.toks.get(i + 1);
        let issue = match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "unwrap" | "expect")
                if prev.map(|p| p.text.as_str()) == Some(".")
                    && next.map(|n| n.text.as_str()) == Some("(") =>
            {
                Some(format!("`.{}()` in non-test serving code", t.text))
            }
            (TokKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                if next.map(|n| n.text.as_str()) == Some("!") =>
            {
                Some(format!("`{}!` in non-test serving code", t.text))
            }
            (TokKind::Punct, "[") => {
                let indexing = match prev {
                    Some(p) => match p.kind {
                        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                        TokKind::Punct => p.text == ")" || p.text == "]",
                        _ => false,
                    },
                    None => false,
                };
                indexing.then(|| "slice/array index expression (panics when out of bounds)".into())
            }
            _ => None,
        };
        if let Some(message) = issue {
            out.push(make("a2-panic-free", &file.path, t, message));
        }
    }
    out
}

/// A3: telemetry feature-edge discipline across the workspace
/// manifests. An *instrumented* crate is one declaring a `telemetry`
/// feature (plus `stream-telemetry` itself, whose gate is `enabled`).
/// Every internal edge onto an instrumented crate must (a) resolve
/// `default-features = false` — directly or through its
/// `[workspace.dependencies]` entry — and (b) for non-dev edges from a
/// crate that itself participates in the gate, forward it:
/// the depender's `telemetry` feature must enable
/// `stream-telemetry/enabled` or `<dep>/telemetry`. Otherwise a single
/// default-on edge silently re-instruments `--no-default-features`
/// builds workspace-wide (cargo unifies features).
pub fn a3_telemetry_edges(manifests: &[Manifest]) -> Vec<Finding> {
    let instrumented = |name: &str| {
        // `stream-telemetry` and `ss-trace` gate on `enabled` rather
        // than declaring a `telemetry` feature of their own.
        name == "stream-telemetry"
            || name == "ss-trace"
            || manifests.iter().any(|m| {
                m.package_name.as_deref() == Some(name) && m.features.contains_key("telemetry")
            })
    };
    let members: Vec<&str> = manifests
        .iter()
        .filter_map(|m| m.package_name.as_deref())
        .collect();
    let root = manifests.iter().find(|m| !m.workspace_deps.is_empty());
    let mut out = Vec::new();
    let mut flagged_ws_lines: Vec<u32> = Vec::new();
    for m in manifests {
        let Some(pkg) = m.package_name.as_deref() else {
            continue;
        };
        for (dep, dev) in m
            .deps
            .iter()
            .map(|d| (d, false))
            .chain(m.dev_deps.iter().map(|d| (d, true)))
        {
            if !members.contains(&dep.name.as_str()) || !instrumented(&dep.name) {
                continue;
            }
            // (a) resolved default-features must be false.
            let ws_entry = root.and_then(|r| r.workspace_deps.iter().find(|w| w.name == dep.name));
            let resolved = dep
                .default_features
                .or_else(|| {
                    if dep.workspace {
                        ws_entry.and_then(|w| w.default_features)
                    } else {
                        None
                    }
                })
                .unwrap_or(true);
            if resolved {
                // Blame the workspace entry when the edge merely
                // inherits it, deduplicating across members.
                if let (true, Some(ws), Some(r)) = (dep.workspace, ws_entry, root) {
                    if ws.default_features.is_none() && !flagged_ws_lines.contains(&ws.line) {
                        flagged_ws_lines.push(ws.line);
                        out.push(Finding {
                            lint: "a3-telemetry-edge",
                            severity: Severity::Error,
                            path: r.path.clone(),
                            line: ws.line,
                            col: 1,
                            message: format!(
                                "[workspace.dependencies] entry for instrumented crate `{}` \
                                 does not set `default-features = false`",
                                dep.name
                            ),
                            hint: lint_info("a3-telemetry-edge").map(|l| l.hint).unwrap_or(""),
                        });
                    }
                } else {
                    out.push(Finding {
                        lint: "a3-telemetry-edge",
                        severity: Severity::Error,
                        path: m.path.clone(),
                        line: dep.line,
                        col: 1,
                        message: format!(
                            "dependency edge `{pkg}` → `{}` leaves default features on \
                             (re-enables telemetry in --no-default-features builds)",
                            dep.name
                        ),
                        hint: lint_info("a3-telemetry-edge").map(|l| l.hint).unwrap_or(""),
                    });
                }
            }
            // (b) forwarding, for non-dev edges from gated crates.
            if !dev && m.features.contains_key("telemetry") {
                let fwd = m.features["telemetry"].iter().any(|f| {
                    if dep.name == "ss-trace" {
                        // `stream-telemetry/enabled` does not imply the
                        // flight recorder: edges onto `ss-trace` must
                        // forward its own gate explicitly.
                        f == "ss-trace/enabled"
                    } else {
                        f == "stream-telemetry/enabled" || *f == format!("{}/telemetry", dep.name)
                    }
                });
                if !fwd {
                    out.push(Finding {
                        lint: "a3-telemetry-edge",
                        severity: Severity::Error,
                        path: m.path.clone(),
                        line: dep.line,
                        col: 1,
                        message: format!(
                            "`{pkg}` depends on instrumented `{}` but its `telemetry` feature \
                             does not forward the gate",
                            dep.name
                        ),
                        hint: lint_info("a3-telemetry-edge").map(|l| l.hint).unwrap_or(""),
                    });
                }
            }
        }
    }
    out
}

/// A4: no `Mutex`, `Condvar` or `thread::sleep` in hot-path modules
/// (non-test). A condvar wait blocks like a sleep does; only its wake
/// source differs.
pub fn a4_blocking_hot_path(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.path, A4_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.mask[i] {
            continue;
        }
        let what = match t.text.as_str() {
            "Mutex" => "`Mutex` (blocking lock) in a hot-path module",
            "Condvar" => "`Condvar` (blocking wait) in a hot-path module",
            "sleep" => "`thread::sleep` in a hot-path module",
            _ => continue,
        };
        if file.in_use_statement(i) {
            continue;
        }
        out.push(make("a4-blocking-hot-path", &file.path, t, what.into()));
    }
    out
}

/// A5: `as` casts to sub-128-bit numeric targets in codec/estimator
/// arithmetic. Lexically a cast's *source* type is unknowable, so even
/// a widening `x as u64` is flagged: `u64::from(x)` proves the
/// direction in the type system and is the required spelling.
pub fn a5_numeric_narrowing(file: &SourceFile) -> Vec<Finding> {
    let stem = file.path.rsplit('/').next().unwrap_or(&file.path);
    if !(file.path.contains("codec") || A5_STEMS.contains(&stem)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || file.mask[i] {
            continue;
        }
        let Some(target) = file.toks.get(i + 1) else {
            continue;
        };
        if target.kind == TokKind::Ident && A5_NARROW.contains(&target.text.as_str()) {
            out.push(make(
                "a5-numeric-narrowing",
                &file.path,
                t,
                format!("`as {}` cast in codec/estimator arithmetic", target.text),
            ));
        }
    }
    out
}

/// A6: in wire/server/durability code, a `match` whose arms name
/// `Frame::` variants must not also have a catch-all arm (`_` or a bare
/// binding): a catch-all silently absorbs every frame kind added later.
/// `frame_variants` is the variant list parsed from the `Frame` enum.
pub fn a6_frame_exhaustive(file: &SourceFile, frame_variants: &[String]) -> Vec<Finding> {
    if !in_scope(&file.path, A6_SCOPE) || frame_variants.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "match" && !file.mask[i] {
            if let Some(f) = audit_match(file, i, frame_variants) {
                out.push(f);
            }
        }
    }
    out
}

/// Audits one `match` starting at token index `i` (the `match`
/// keyword). Returns a finding when the match is over `Frame` and has a
/// catch-all arm while not every variant is named.
fn audit_match(file: &SourceFile, i: usize, variants: &[String]) -> Option<Finding> {
    let toks = &file.toks;
    // Find the body `{` at bracket/paren depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    let body_start = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break j,
            ";" if depth == 0 => return None, // not a match expression after all
            _ => {}
        }
        j += 1;
    };
    // Scan the body at depth 1, splitting out arm patterns (the token
    // runs ending at each depth-1 `=>`). `in_pattern` distinguishes a
    // struct *pattern*'s closing `}` (`Frame::BatchAck { .. } =>`),
    // which is part of the pattern, from a block *body*'s closing `}`,
    // which ends the arm.
    let mut named: Vec<&str> = Vec::new();
    let mut catch_all: Option<&Tok> = None;
    let mut depth = 1i32;
    let mut in_pattern = true;
    let mut pat_start = body_start + 1;
    let mut j = body_start + 1;
    while depth > 0 {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 1 && t.text == "}" && !in_pattern {
                    // End of a block arm body: next pattern starts after
                    // it (an optional `,` is skipped below).
                    pat_start = j + 1;
                    in_pattern = true;
                }
            }
            "," if depth == 1 && !in_pattern => {
                pat_start = j + 1;
                in_pattern = true;
            }
            "=>" if depth == 1 && in_pattern => {
                let pat = &toks[pat_start..j];
                // Collect `Frame::Variant` mentions in the pattern.
                for (k, p) in pat.iter().enumerate() {
                    if p.text == "Frame" && pat.get(k + 1).map(|x| x.text.as_str()) == Some("::") {
                        if let Some(v) = pat.get(k + 2) {
                            named.push(v.text.as_str());
                        }
                    }
                }
                // A catch-all is a one-token pattern: `_` or a bare
                // binding identifier (lowercase by convention; an
                // uppercase single ident is a unit variant/const).
                if pat.len() == 1 {
                    let p = &pat[0];
                    let is_binding = p.kind == TokKind::Ident
                        && p.text.chars().next().map(|c| c.is_lowercase()) == Some(true)
                        && !NON_INDEX_KEYWORDS.contains(&p.text.as_str());
                    if p.text == "_" || is_binding {
                        catch_all = Some(p);
                    }
                }
                in_pattern = false;
            }
            _ => {}
        }
        j += 1;
    }
    let ca = catch_all?;
    if named.is_empty() {
        return None; // not a Frame match
    }
    let missing: Vec<&str> = variants
        .iter()
        .map(String::as_str)
        .filter(|v| !named.contains(v))
        .collect();
    if missing.is_empty() {
        return None;
    }
    Some(make(
        "a6-frame-exhaustive",
        &file.path,
        ca,
        format!(
            "catch-all arm in a `Frame` match absorbs unhandled kinds: {}",
            missing.join(", ")
        ),
    ))
}

/// Extracts the variant names of `enum Frame` from the wire frame
/// source, skipping attributes and variant payloads.
pub fn frame_variants(file: &SourceFile) -> Vec<String> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let Some(start) = toks
        .windows(2)
        .position(|w| w[0].kind == TokKind::Ident && w[0].text == "enum" && w[1].text == "Frame")
    else {
        return out;
    };
    let mut j = start + 2;
    while j < toks.len() && toks[j].text != "{" {
        j += 1;
    }
    let mut depth = 1i32;
    let mut expect_name = true;
    j += 1;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            "," if depth == 1 => expect_name = true,
            "#" if depth == 1 => {
                // Skip the attribute's bracket group.
                j += 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("[") {
                    let mut d = 1i32;
                    j += 1;
                    while j < toks.len() && d > 0 {
                        match toks[j].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    continue;
                }
            }
            _ if depth == 1 && expect_name && t.kind == TokKind::Ident => {
                out.push(t.text.clone());
                expect_name = false;
            }
            _ => {}
        }
        j += 1;
    }
    out
}
