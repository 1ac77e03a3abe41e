//! a8-fence-order: the fencing-epoch comparison dominates every `Role`
//! read in replication handlers.
//!
//! DESIGN.md §12's failover safety argument rests on fence-then-role:
//! a handler that consults its `Role` before comparing the caller's
//! fencing epoch can act on a stale role — the "role before epoch" bug
//! class where a network-healed ex-primary accepts REPLICATE or
//! PROMOTE traffic it should have refused as fenced. This pass scopes
//! to `replication.rs` functions that take an epoch parameter *and*
//! read a role; in each, the first epoch comparison must come before
//! the first role read.

use super::{finding, Pass, Workspace};
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// The a8 pass.
pub struct FenceOrder;

impl Pass for FenceOrder {
    fn id(&self) -> &'static str {
        "a8-fence-order"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, f) in ws.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            if !file.path.ends_with("replication.rs") || f.is_test {
                continue;
            }
            if !f.params.iter().any(|p| p.contains("epoch")) {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let role = (open + 1..close).find(|&j| is_role_read(file, j));
            let fence = (open + 1..close).find(|&j| is_epoch_comparison(file, j));
            let Some(role) = role else {
                continue; // Takes an epoch but never consults the role.
            };
            let fenced_first = fence.map(|e| e < role).unwrap_or(false);
            if !fenced_first {
                out.push(finding(
                    "a8-fence-order",
                    &file.path,
                    &file.toks[role],
                    format!(
                        "`{}` reads the replication role before comparing the fencing \
                         epoch (stale-role window)",
                        ws.fns[i].name
                    ),
                ));
            }
        }
        out
    }
}

/// A role read: the `role` accessor or a `Role` enum mention.
fn is_role_read(file: &SourceFile, j: usize) -> bool {
    let t = &file.toks[j];
    t.kind == TokKind::Ident && matches!(t.ident_name(), "role" | "Role")
}

/// An epoch comparison: an identifier containing `epoch` adjacent to a
/// comparison operator. `<=`, `>=`, `==`, `!=` lex as two puncts, so
/// the first punct (`<`, `>`, `!`, or `=` followed by `=`) is the
/// signal; a bare `=` alone is an assignment and does not count.
fn is_epoch_comparison(file: &SourceFile, j: usize) -> bool {
    let toks = &file.toks;
    let t = &toks[j];
    if t.kind != TokKind::Ident || !t.ident_name().contains("epoch") {
        return false;
    }
    let after = |d: usize| toks.get(j + d).map(|n| n.text.as_str());
    let cmp_after = matches!(after(1), Some("<") | Some(">") | Some("!"))
        || (after(1) == Some("=") && after(2) == Some("="));
    let before = |d: usize| {
        j.checked_sub(d)
            .and_then(|p| toks.get(p))
            .map(|n| n.text.as_str())
    };
    let cmp_before = matches!(before(1), Some("<") | Some(">"))
        || (before(1) == Some("=")
            && matches!(before(2), Some("<") | Some(">") | Some("=") | Some("!")));
    cmp_after || cmp_before
}
