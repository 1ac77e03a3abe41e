//! Workspace call graph over the extracted [`FnItem`]s.
//!
//! Call sites are recognized lexically (`name(`, `path::name(`,
//! `.name(`) and resolved by name with locality preference: candidates
//! in the same file win over same-crate candidates, which win over the
//! rest of the workspace. Resolution is deliberately
//! *over-approximate* — a method call resolves to every workspace impl
//! fn of that name when no closer candidate exists — because the
//! passes built on top (reachability, gating propagation) are sound
//! under over-approximation: extra edges can only widen the set of
//! functions a lint inspects, never exempt one.
//!
//! Calls into `std` or shimmed externals resolve to nothing and simply
//! produce no edge.

use crate::items::FnItem;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::HashMap;

/// One lexical call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name, raw-identifier prefix stripped.
    pub callee: String,
    /// The path segment directly before `::callee(`, when present
    /// (`Wal::open(` → `Some("Wal")`, `wal.append(` → `None`).
    pub qualifier: Option<String>,
    /// `true` for `.callee(` method-call syntax.
    pub method: bool,
    /// Token index of the callee ident.
    pub tok: usize,
}

/// The workspace call graph: `edges[f]` lists the fn indices `f` may
/// call, deduplicated, in source order of their call sites.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per fn index.
    pub edges: Vec<Vec<usize>>,
    /// Incoming edges per fn index (computed alongside `edges`).
    pub callers: Vec<Vec<usize>>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "move", "fn", "as", "loop", "else", "let",
    "mut", "ref", "box", "dyn", "impl", "where", "use", "pub", "crate", "super", "self", "Self",
];

/// Extracts the call sites of `item` from its body token span, skipping
/// spans that belong to fns nested inside it (their calls are their
/// own).
pub fn call_sites(file: &SourceFile, item: &FnItem, all_in_file: &[&FnItem]) -> Vec<CallSite> {
    let Some((open, close)) = item.body else {
        return Vec::new();
    };
    // Body spans of fns nested strictly inside this one.
    let nested: Vec<(usize, usize)> = all_in_file
        .iter()
        .filter_map(|f| f.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect();
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        if nested.iter().any(|&(o, c)| j >= o && j <= c) {
            j += 1;
            continue;
        }
        let t = &toks[j];
        if t.kind == TokKind::Ident
            && toks.get(j + 1).map(|n| n.text.as_str()) == Some("(")
            && !NON_CALL_KEYWORDS.contains(&t.ident_name())
        {
            let prev = j.checked_sub(1).map(|p| &toks[p]);
            let method = prev.map(|p| p.text.as_str()) == Some(".");
            // A macro is `name!(…)` — the `!` sits between name and `(`,
            // so `name(` is never a macro. `name !(…)` with the bang
            // before is a *different* token position and already missed.
            let qualifier = match prev {
                Some(p) if p.text == "::" => j
                    .checked_sub(2)
                    .map(|q| &toks[q])
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.ident_name().to_string()),
                _ => None,
            };
            out.push(CallSite {
                callee: t.ident_name().to_string(),
                qualifier,
                method,
                tok: j,
            });
        }
        j += 1;
    }
    out
}

/// Builds the workspace call graph for `fns` over `files`.
pub fn build(files: &[SourceFile], fns: &[FnItem]) -> CallGraph {
    // Name index: fn name → candidate indices.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let crate_of: Vec<&str> = fns
        .iter()
        .map(|f| FnItem::crate_of(&files[f.file].path))
        .collect();

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        let file = &files[f.file];
        let in_file: Vec<&FnItem> = fns.iter().filter(|g| g.file == f.file).collect();
        for site in call_sites(file, f, &in_file) {
            let Some(cands) = by_name.get(site.callee.as_str()) else {
                continue;
            };
            let resolved = resolve(&site, cands, files, fns, &crate_of, f, crate_of[i]);
            for r in resolved {
                if !edges[i].contains(&r) {
                    edges[i].push(r);
                }
            }
        }
    }
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (i, outs) in edges.iter().enumerate() {
        for &o in outs {
            if !callers[o].contains(&i) {
                callers[o].push(i);
            }
        }
    }
    CallGraph { edges, callers }
}

/// Resolves one call site to candidate fn indices with locality
/// preference: qualifier filter first, then same file → same crate →
/// whole workspace.
fn resolve(
    site: &CallSite,
    cands: &[usize],
    files: &[SourceFile],
    fns: &[FnItem],
    crate_of: &[&str],
    caller: &FnItem,
    caller_crate: &str,
) -> Vec<usize> {
    // Qualifier narrows by impl type (`Wal::open`), module/crate name
    // (`wal::recover`, `stream_wire::read_frame`), or file-stem module
    // (`replication::serve_poll` resolving into `replication.rs`). When
    // the filter matches nothing the qualifier named a non-workspace
    // type (e.g. `Vec::new`) — resolve to nothing rather than
    // over-matching.
    if let Some(q) = &site.qualifier {
        let qn = q.replace('-', "_");
        let stem_rs = format!("/{qn}.rs");
        let filtered: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let f = &fns[c];
                f.impl_type.as_deref() == Some(q.as_str())
                    || f.modules.contains(&qn)
                    || crate_of[c].replace('-', "_") == qn
                    || files[f.file].path.ends_with(&stem_rs)
                    || q == "Self"
                    || q == "self"
                    || q == "crate"
            })
            .collect();
        return prefer_local(filtered, fns, crate_of, caller, caller_crate);
    }
    if site.method {
        // Method calls bind to impl fns anywhere in the workspace;
        // free fns of the same name are not callable as `.name(…)`.
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                fns[c].impl_type.is_some()
                    || fns[c].params.first().map(String::as_str) == Some("self")
            })
            .collect();
        return prefer_local(methods, fns, crate_of, caller, caller_crate);
    }
    prefer_local(cands.to_vec(), fns, crate_of, caller, caller_crate)
}

/// Keeps the closest non-empty locality tier: same file, else same
/// crate, else all candidates.
fn prefer_local(
    cands: Vec<usize>,
    fns: &[FnItem],
    crate_of: &[&str],
    caller: &FnItem,
    caller_crate: &str,
) -> Vec<usize> {
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| crate_of[c] == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands
}

impl CallGraph {
    /// Every fn reachable from `entries` by following call edges,
    /// including the entries themselves.
    pub fn reachable(&self, entries: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.edges.len()];
        let mut stack: Vec<usize> = entries.to_vec();
        for &e in entries {
            if e < seen.len() {
                seen[e] = true;
            }
        }
        while let Some(f) = stack.pop() {
            for &g in &self.edges[f] {
                if !seen[g] {
                    seen[g] = true;
                    stack.push(g);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract_fns;
    use crate::source::SourceFile;

    fn ws(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<FnItem>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        let graph = build(&files, &fns);
        (files, fns, graph)
    }

    fn idx(fns: &[FnItem], name: &str) -> usize {
        fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn same_file_resolution_wins() {
        let (_, fns, g) = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper() } fn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let c = idx(&fns, "caller");
        assert_eq!(g.edges[c], vec![1]);
    }

    #[test]
    fn cross_crate_fallback_resolves_all() {
        let (_, fns, g) = ws(&[
            ("crates/a/src/lib.rs", "fn caller() { remote() }"),
            ("crates/b/src/lib.rs", "fn remote() {}"),
            ("crates/c/src/lib.rs", "fn remote() {}"),
        ]);
        let c = idx(&fns, "caller");
        assert_eq!(g.edges[c].len(), 2);
    }

    #[test]
    fn method_calls_resolve_to_impl_fns_only() {
        let (_, fns, g) = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller(w: Wal) { w.append(1) } fn append() {}",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Wal { fn append(&mut self, x: u32) {} }",
            ),
        ]);
        let c = idx(&fns, "caller");
        let target = fns
            .iter()
            .position(|f| f.impl_type.as_deref() == Some("Wal"))
            .unwrap();
        assert_eq!(g.edges[c], vec![target]);
    }

    #[test]
    fn qualified_calls_filter_by_type_and_module() {
        let (_, fns, g) = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { Wal::open(); other::open(); Vec::new() }",
            ),
            ("crates/b/src/lib.rs", "impl Wal { fn open() {} }"),
            (
                "crates/c/src/lib.rs",
                "mod other { pub fn open() {} } fn new() {}",
            ),
        ]);
        let c = idx(&fns, "caller");
        let wal_open = fns
            .iter()
            .position(|f| f.impl_type.as_deref() == Some("Wal"))
            .unwrap();
        let mod_open = fns.iter().position(|f| f.modules == ["other"]).unwrap();
        assert!(g.edges[c].contains(&wal_open));
        assert!(g.edges[c].contains(&mod_open));
        // `Vec::new` must not resolve to the unrelated free fn `new`.
        assert!(!g.edges[c].contains(&idx(&fns, "new")));
    }

    #[test]
    fn reachability_walks_transitively() {
        let (_, fns, g) = ws(&[(
            "crates/a/src/lib.rs",
            "fn entry() { mid() } fn mid() { leaf() } fn leaf() {} fn island() {}",
        )]);
        let r = g.reachable(&[idx(&fns, "entry")]);
        assert!(r[idx(&fns, "leaf")]);
        assert!(!r[idx(&fns, "island")]);
    }

    #[test]
    fn raw_identifier_calls_resolve() {
        let (_, fns, g) = ws(&[(
            "crates/a/src/lib.rs",
            "fn caller() { r#type() } fn r#type() {}",
        )]);
        let c = idx(&fns, "caller");
        assert_eq!(g.edges[c], vec![idx(&fns, "type")]);
    }

    #[test]
    fn callers_are_the_reverse_edges() {
        let (_, fns, g) = ws(&[(
            "crates/a/src/lib.rs",
            "fn a() { shared() } fn b() { shared() } fn shared() {}",
        )]);
        let s = idx(&fns, "shared");
        assert_eq!(g.callers[s].len(), 2);
    }
}
