//! Findings, the lint catalog, and the checked-in baseline.
//!
//! A [`Finding`] is one violation at one span. The catalog in [`LINTS`]
//! is the closed set of lint ids: suppressions naming an id outside it
//! are themselves findings, so typos cannot silently disable a lint.
//!
//! The baseline (`crates/analysis/baseline.txt`) lets the gate land
//! clean on a tree with known debt: fingerprints listed there are
//! subtracted from `check`'s failure set. Policy is ratchet-only — CI
//! asserts the baseline never grows, and this workspace ships with an
//! **empty** baseline (every pre-existing finding was fixed or granted
//! a written suppression).

use std::fmt;

/// How bad a finding is. Every cataloged lint gates the build; the
/// distinction exists so future advisory lints don't have to fail CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Blocks `ss-analyze -- check` (exit code 2).
    Error,
    /// Reported but never fails the gate.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint violation, anchored to a file/line/column span.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Catalog id, e.g. `a2-panic-free`.
    pub lint: &'static str,
    /// Gate severity.
    pub severity: Severity,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong, specific to the span.
    pub message: String,
    /// How to fix it (or how to justify it), from the catalog.
    pub hint: &'static str,
}

impl Finding {
    /// Stable identity used for baseline matching. Line/column are
    /// deliberately excluded so unrelated edits above a known finding
    /// do not churn the baseline.
    pub fn fingerprint(&self) -> String {
        format!("{}\t{}\t{}", self.lint, self.path, self.message)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}:{}: {}\n  help: {}",
            self.severity, self.lint, self.path, self.line, self.col, self.message, self.hint
        )
    }
}

/// Catalog entry for one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable id used in findings and `allow(...)` suppressions.
    pub id: &'static str,
    /// One-line statement of the invariant the lint enforces.
    pub summary: &'static str,
    /// Fix hint attached to every finding of this lint.
    pub hint: &'static str,
}

/// The closed lint catalog. `allow(...)` ids are validated against it.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "a0-bad-suppression",
        summary: "every `ss-analyze: allow(...)` must be well-formed and carry a `-- <reason>`",
        hint: "write `// ss-analyze: allow(<lint-id>) -- <why this is sound>`",
    },
    LintInfo {
        id: "a0-unknown-lint",
        summary: "suppressions must name lint ids from the catalog",
        hint: "run `ss-analyze -- lints` for the catalog of valid ids",
    },
    LintInfo {
        id: "a0-unused-suppression",
        summary: "a suppression that matches no finding is stale and must be removed",
        hint: "delete the `ss-analyze: allow(...)` comment (the code it excused is gone)",
    },
    LintInfo {
        id: "a1-atomic-ordering",
        summary: "every `Ordering::Relaxed`/`Ordering::SeqCst` use must carry an `ordering:` \
                  comment naming the happens-before edge it relies on (or forgoes)",
        hint: "add `// ordering: <edge or why none is needed>` trailing or immediately above",
    },
    LintInfo {
        id: "a2-panic-free",
        summary: "no unwrap/expect/panic!/slice-index in non-test code of the serving crates \
                  (wire, server, durability, ingest)",
        hint: "return a typed error (WireError/ServerError/IngestError/WalError) or justify \
               the bound with a suppression",
    },
    LintInfo {
        id: "a3-telemetry-edge",
        summary: "every internal dependency edge on an instrumented crate must resolve \
                  `default-features = false` and forward the telemetry gate",
        hint: "set `default-features = false` on the edge (or its [workspace.dependencies] \
               entry) and forward via `telemetry = [\"stream-telemetry/enabled\"]`",
    },
    LintInfo {
        id: "a4-blocking-hot-path",
        summary: "no std::sync::Mutex / Condvar / thread::sleep in hot-path modules",
        hint: "use the lock-free atomics idiom of telemetry/ingest, move the blocking call \
               off the hot path, or justify with a suppression",
    },
    LintInfo {
        id: "a5-numeric-narrowing",
        summary: "no `as` casts to sub-128-bit numeric types in codec/estimator arithmetic \
                  (the i128-overflow class fixed in PR 1)",
        hint: "use From/TryFrom (which encode the direction in the type system), widen to \
               i128/u128/f64, or justify the bound with a suppression",
    },
    LintInfo {
        id: "a6-frame-exhaustive",
        summary: "no catch-all arm may absorb `Frame` kinds: every wire match lists every \
                  frame it does not handle",
        hint: "enumerate the remaining Frame kinds explicitly (rejecting is fine — \
               silently absorbing is not) or justify with a suppression",
    },
    LintInfo {
        id: "a7-version-gating",
        summary: "v3-only frame kinds (SHARD_MAP and above) may only be constructed on \
                  paths gated on protocol >= 3 — a v2 session must never receive them",
        hint: "guard the path on the negotiated protocol (`session_protocol < 3` reject, \
               or the client's `require_v3()`), or justify with a suppression",
    },
    LintInfo {
        id: "a8-fence-order",
        summary: "replication handlers taking a fencing epoch must compare it before \
                  reading the role (role-before-epoch acts on a stale role)",
        hint: "hoist the epoch comparison above the first `role()` read, or justify \
               with a suppression",
    },
    LintInfo {
        id: "a9-persist-order",
        summary: "on the sequenced path, WAL append precedes the dedup bump precedes the \
                  ack write (DESIGN.md §9 lock ordering)",
        hint: "reorder to append → bump_dedup → ack, or justify with a suppression",
    },
    LintInfo {
        id: "a10-reachable-panic",
        summary: "no unwrap/expect/panic-family macros in fns reachable from the serving \
                  entry points, even outside a2's module allowlist",
        hint: "return a typed error, or justify the impossibility with a suppression",
    },
    LintInfo {
        id: "a10-reachable-blocking",
        summary: "no Mutex/Condvar/thread::sleep in fns reachable from the serving entry points, \
                  even outside a4's module allowlist",
        hint: "use the lock-free atomics idiom, move the call off the reachable path, \
               or justify with a suppression",
    },
];

/// Looks up a catalog entry by id.
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == id)
}

/// Parses baseline text into fingerprints. Lines starting with `#` and
/// blank lines are ignored.
pub fn parse_baseline(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Splits `findings` into (new, baselined) against the baseline
/// multiset, and returns the stale baseline entries that matched no
/// finding. Matching is by [`Finding::fingerprint`], one entry
/// consuming one finding.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[String],
) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
    let mut remaining: Vec<Option<&String>> = baseline.iter().map(Some).collect();
    let mut new = Vec::new();
    let mut old = Vec::new();
    for f in findings {
        let fp = f.fingerprint();
        match remaining
            .iter_mut()
            .find(|slot| slot.map(|s| *s == fp).unwrap_or(false))
        {
            Some(slot) => {
                *slot = None;
                old.push(f);
            }
            None => new.push(f),
        }
    }
    let stale = remaining.into_iter().flatten().cloned().collect();
    (new, old, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, msg: &str) -> Finding {
        Finding {
            lint,
            severity: Severity::Error,
            path: "crates/x/src/lib.rs".into(),
            line: 1,
            col: 1,
            message: msg.into(),
            hint: "",
        }
    }

    #[test]
    fn baseline_consumes_one_match_per_entry() {
        let f1 = finding("a2-panic-free", "dup");
        let f2 = finding("a2-panic-free", "dup");
        let base = vec![f1.fingerprint()];
        let (new, old, stale) = apply_baseline(vec![f1, f2], &base);
        assert_eq!(new.len(), 1);
        assert_eq!(old.len(), 1);
        assert!(stale.is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let base = vec!["a1-atomic-ordering\tgone.rs\tmsg".to_string()];
        let (new, old, stale) = apply_baseline(vec![], &base);
        assert!(new.is_empty() && old.is_empty());
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn catalog_ids_are_unique() {
        for (i, a) in LINTS.iter().enumerate() {
            for b in &LINTS[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
