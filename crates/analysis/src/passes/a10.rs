//! a10-reachable-panic / a10-reachable-blocking: call-graph
//! reachability from the serving entry points.
//!
//! a2/a4 scope by module allowlist, which misses helpers in "safe"
//! crates that hot paths actually call — a `query`-crate helper that
//! unwraps is invisible to a2 until a connection handler starts calling
//! it. These passes walk the call graph from the serving/replication
//! entry points and inspect every reachable fn that the module-scoped
//! lints do *not* already cover:
//!
//! * `a10-reachable-panic` — `.unwrap()` / `.expect()` /
//!   `panic!`-family macros. Slice indexing is deliberately *not*
//!   flagged here (unlike a2): the sketch kernels index on the hot path
//!   under schema-checked bounds, and a2's per-module opt-in is the
//!   right granularity for that judgement.
//! * `a10-reachable-blocking` — `Mutex` / `Condvar` / `thread::sleep`,
//!   as in a4.
//!
//! Resolution is over-approximate (same-name fallback across crates),
//! which is the sound direction: an extra edge can only pull more code
//! under inspection.

use super::{finding, Pass, Workspace};
use crate::findings::Finding;
use crate::items::FnItem;
use crate::lexer::TokKind;
use crate::lints;
use crate::source::SourceFile;

/// The serving/replication entry points reachability starts from:
/// `(path suffix, fn name)`. The serving substrate's acceptor,
/// connection loop and frame reader, each front end's request handler,
/// the replication poll loop and its wire-facing handlers, and the
/// router's supervision/failover path.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/server/src/serve.rs", "accept_loop"),
    ("crates/server/src/serve.rs", "serve_connection"),
    ("crates/server/src/serve.rs", "next_frame"),
    ("crates/server/src/lib.rs", "serve_frame"),
    ("crates/server/src/lib.rs", "handle_update_batch"),
    ("crates/server/src/replication.rs", "run"),
    ("crates/server/src/replication.rs", "serve_poll"),
    ("crates/server/src/replication.rs", "apply_chunk"),
    ("crates/server/src/replication.rs", "promote"),
    ("crates/cluster/src/router.rs", "serve_frame"),
    ("crates/cluster/src/router.rs", "supervise"),
    ("crates/cluster/src/router.rs", "try_failover"),
];

/// Shared sweep: indices of reachable, non-test fns whose file is *not*
/// already covered by `scope` (the module allowlist of the lexical
/// lint this pass extends).
fn uncovered_reachable(ws: &Workspace, scope: &[&str]) -> Vec<usize> {
    let entries = ws.find_entries(ENTRY_POINTS);
    let reach = ws.graph.reachable(&entries);
    (0..ws.fns.len())
        .filter(|&i| {
            reach[i]
                && !ws.fns[i].is_test
                && !lints::in_lint_scope(&ws.files[ws.fns[i].file].path, scope)
        })
        .collect()
}

/// Describes why a fn is being inspected, for the finding message.
fn via(f: &FnItem) -> String {
    format!("`{}` (reachable from serving entry points)", f.name)
}

/// The a10 panic-reachability pass.
pub struct ReachablePanic;

impl Pass for ReachablePanic {
    fn id(&self) -> &'static str {
        "a10-reachable-panic"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for i in uncovered_reachable(ws, lints::A2_SCOPE) {
            let f = &ws.fns[i];
            let file = &ws.files[f.file];
            let Some((open, close)) = f.body else {
                continue;
            };
            for j in open + 1..close {
                if file.mask[j] {
                    continue;
                }
                if let Some(what) = panic_site(file, j) {
                    out.push(finding(
                        "a10-reachable-panic",
                        &file.path,
                        &file.toks[j],
                        format!("{what} in {}", via(f)),
                    ));
                }
            }
        }
        out
    }
}

/// The a10 blocking-reachability pass.
pub struct ReachableBlocking;

impl Pass for ReachableBlocking {
    fn id(&self) -> &'static str {
        "a10-reachable-blocking"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for i in uncovered_reachable(ws, lints::A4_SCOPE) {
            let f = &ws.fns[i];
            let file = &ws.files[f.file];
            let Some((open, close)) = f.body else {
                continue;
            };
            for j in open + 1..close {
                if file.mask[j] || file.toks[j].kind != TokKind::Ident {
                    continue;
                }
                let what = match file.toks[j].text.as_str() {
                    "Mutex" => "`Mutex` (blocking lock)",
                    "Condvar" => "`Condvar` (blocking wait)",
                    "sleep" => "`thread::sleep`",
                    _ => continue,
                };
                if file.in_use_statement(j) {
                    continue;
                }
                out.push(finding(
                    "a10-reachable-blocking",
                    &file.path,
                    &file.toks[j],
                    format!("{what} in {}", via(f)),
                ));
            }
        }
        out
    }
}

/// Matches the a2 panic-site shapes minus slice indexing.
fn panic_site(file: &SourceFile, j: usize) -> Option<&'static str> {
    let toks = &file.toks;
    let t = &toks[j];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev = j.checked_sub(1).map(|p| toks[p].text.as_str());
    let next = toks.get(j + 1).map(|n| n.text.as_str());
    match t.text.as_str() {
        "unwrap" if prev == Some(".") && next == Some("(") => Some("`.unwrap()`"),
        "expect" if prev == Some(".") && next == Some("(") => Some("`.expect()`"),
        "panic" if next == Some("!") => Some("`panic!`"),
        "unreachable" if next == Some("!") => Some("`unreachable!`"),
        "todo" if next == Some("!") => Some("`todo!`"),
        "unimplemented" if next == Some("!") => Some("`unimplemented!`"),
        _ => None,
    }
}
