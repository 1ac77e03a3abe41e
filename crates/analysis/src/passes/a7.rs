//! a7-version-gating: v3-only frame vocabulary is only built on
//! version-gated paths.
//!
//! The wire protocol reserves kinds ≥ [`V3_FIRST_KIND`] for sessions
//! that negotiated protocol ≥ 3 (DESIGN.md §12): REPLICATE, PROMOTE,
//! SHARD_MAP and friends. Constructing one of those frames on a path a
//! v2 session can reach means a v2 peer receives a kind it cannot
//! decode — the failure shows up as a remote codec error long after the
//! bug. This pass derives the v3 variant set from the `Kind` enum's
//! discriminants, finds every construction of a v3 `Frame` variant
//! outside the codec crate, and requires the constructing function to
//! be *gated*: either a protocol-version guard appears earlier in the
//! same body, or every non-test caller is (transitively) gated. A
//! function nobody calls and nothing guards is treated as v2-reachable.

use super::{finding, group_end, is_pattern_position, Pass, Workspace};
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// First frame kind reserved for protocol ≥ 3 sessions. Mirrors the
/// version table in `crates/wire/src/lib.rs` (kinds 13–16 shipped with
/// v2 RESUME/INSPECT; the replication/sharding vocabulary starts at
/// SHARD_MAP = 17).
pub const V3_FIRST_KIND: u64 = 17;

/// The a7 pass.
pub struct VersionGating;

impl Pass for VersionGating {
    fn id(&self) -> &'static str {
        "a7-version-gating"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let v3 = v3_variants(ws);
        if v3.is_empty() {
            return Vec::new();
        }
        let gates = local_gates(ws);
        let gated = propagate_gates(ws, &gates);
        let mut out = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if file.path.starts_with("crates/wire/src/") {
                continue; // The codec must name every kind.
            }
            for v in v3_mentions(file, &v3) {
                if file.mask.get(v).copied().unwrap_or(false) {
                    continue;
                }
                if is_pattern_position(file, v) || file.in_use_statement(v) {
                    continue;
                }
                let ok = match ws.fn_containing(fi, v) {
                    Some(f) => {
                        let local_ok = gates[f].map(|g| g < v).unwrap_or(false);
                        local_ok || caller_gated(ws, &gated, f)
                    }
                    None => false,
                };
                if !ok {
                    out.push(finding(
                        "a7-version-gating",
                        &file.path,
                        &file.toks[v],
                        format!(
                            "v3-only `Frame::{}` constructed on a path not gated on \
                             protocol >= 3",
                            file.toks[v].ident_name()
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Token indices of v3 `Frame::Variant` variant idents in `file`.
fn v3_mentions(file: &SourceFile, v3: &[String]) -> Vec<usize> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "Frame"
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("::")
        {
            if let Some(v) = toks.get(i + 2) {
                if v.kind == TokKind::Ident && v3.iter().any(|n| n == v.ident_name()) {
                    out.push(i + 2);
                }
            }
        }
    }
    out
}

/// Variant names whose `Kind` discriminant is ≥ [`V3_FIRST_KIND`],
/// parsed from the wire frame source (`enum Kind { Name = N, … }`).
/// `Kind` and `Frame` variant names coincide by construction.
pub fn v3_variants(ws: &Workspace) -> Vec<String> {
    let Some(file) = ws
        .files
        .iter()
        .find(|f| f.path.ends_with("wire/src/frame.rs"))
    else {
        return Vec::new();
    };
    let toks = &file.toks;
    let Some(start) = toks
        .windows(2)
        .position(|w| w[0].kind == TokKind::Ident && w[0].text == "enum" && w[1].text == "Kind")
    else {
        return Vec::new();
    };
    let Some(open) = toks[start..]
        .iter()
        .position(|t| t.text == "{")
        .map(|p| start + p)
    else {
        return Vec::new();
    };
    let Some(close) = group_end(file, open) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut j = open + 1;
    while j + 2 < close {
        // `Name = N` triples at body depth (the enum is flat).
        if toks[j].kind == TokKind::Ident
            && toks[j + 1].text == "="
            && toks[j + 2].kind == TokKind::Num
        {
            if let Ok(n) = toks[j + 2].text.parse::<u64>() {
                if n >= V3_FIRST_KIND {
                    out.push(toks[j].ident_name().to_string());
                }
            }
            j += 3;
        } else {
            j += 1;
        }
    }
    out
}

/// For each fn: the token index of the first protocol-version guard in
/// its body, if any. A guard is an identifier containing `protocol`
/// compared against a number within the next few tokens (the
/// `session_protocol < 3` idiom), or a call whose name contains `v3`
/// (the client's `require_v3()` idiom).
fn local_gates(ws: &Workspace) -> Vec<Option<usize>> {
    ws.fns
        .iter()
        .map(|f| {
            let (open, close) = f.body?;
            let file = &ws.files[f.file];
            let toks = &file.toks;
            (open + 1..close).find(|&j| {
                let t = &toks[j];
                if t.kind != TokKind::Ident {
                    return false;
                }
                let name = t.ident_name().to_ascii_lowercase();
                if name.contains("protocol") {
                    let cmp_near = (1..=3).any(|d| {
                        toks.get(j + d)
                            .map(|n| n.kind == TokKind::Num)
                            .unwrap_or(false)
                    });
                    if cmp_near {
                        return true;
                    }
                }
                name.contains("v3") && toks.get(j + 1).map(|n| n.text.as_str()) == Some("(")
            })
        })
        .collect()
}

/// Fixpoint: a fn is gated when it has a local guard, or when it has at
/// least one non-test caller and every non-test caller is gated.
fn propagate_gates(ws: &Workspace, gates: &[Option<usize>]) -> Vec<bool> {
    let mut gated: Vec<bool> = gates.iter().map(Option::is_some).collect();
    loop {
        let mut changed = false;
        for f in 0..ws.fns.len() {
            if gated[f] {
                continue;
            }
            if caller_gated_in(ws, &gated, f) {
                gated[f] = true;
                changed = true;
            }
        }
        if !changed {
            return gated;
        }
    }
}

fn caller_gated_in(ws: &Workspace, gated: &[bool], f: usize) -> bool {
    let live: Vec<&usize> = ws.graph.callers[f]
        .iter()
        .filter(|&&c| !ws.fns[c].is_test)
        .collect();
    !live.is_empty() && live.iter().all(|&&c| gated[c])
}

/// Is `f` gated purely through its callers (used for constructions that
/// appear before — or without — a local guard in the same body)?
fn caller_gated(ws: &Workspace, gated: &[bool], f: usize) -> bool {
    caller_gated_in(ws, gated, f)
}
