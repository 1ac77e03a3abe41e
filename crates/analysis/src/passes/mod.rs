//! The inter-procedural pass layer.
//!
//! [`Workspace`] is the semantic model the passes share: every file's
//! extracted [`FnItem`]s plus the workspace [`CallGraph`]. A [`Pass`]
//! is one lint over that model; the registry in [`all_passes`] is what
//! the engine runs. The original token-level lints (a1–a6) are wrapped
//! as passes too, so one runner owns lint execution end to end — their
//! per-file semantics are unchanged (the empty baseline stays empty),
//! while the new passes (a7–a10) consume the call graph:
//!
//! * [`a7`] — v3-only frame vocabulary may only be built on
//!   version-gated paths,
//! * [`a8`] — fencing-epoch comparison dominates every `Role` read in
//!   replication handlers,
//! * [`a9`] — WAL append → dedup bump → ack, in that order, on the
//!   sequenced path,
//! * [`a10`] — panic/blocking reachability from the serving entry
//!   points, extending a2/a4 beyond their module allowlists.

pub mod a10;
pub mod a7;
pub mod a8;
pub mod a9;

use crate::callgraph::{self, CallGraph};
use crate::findings::{lint_info, Finding, Severity};
use crate::items::{extract_fns, FnItem};
use crate::lexer::{Tok, TokKind};
use crate::lints;
use crate::source::SourceFile;

/// The semantic model shared by every pass: files, extracted fns, and
/// the call graph over them.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// The parsed source files, in walk order.
    pub files: &'a [SourceFile],
    /// Every extracted fn, grouped by file in extraction order.
    pub fns: Vec<FnItem>,
    /// The call graph over `fns`.
    pub graph: CallGraph,
}

impl<'a> Workspace<'a> {
    /// Extracts items and builds the call graph for `files`.
    pub fn build(files: &'a [SourceFile]) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        let graph = callgraph::build(files, &fns);
        Workspace { files, fns, graph }
    }

    /// The innermost fn whose body span contains token `tok` of file
    /// `file`, or `None` for module-level tokens.
    pub fn fn_containing(&self, file: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.file == file
                    && f.body
                        .map(|(o, c)| tok >= f.sig_start && tok >= o && tok <= c)
                        .unwrap_or(false)
            })
            .min_by_key(|(_, f)| {
                let (o, c) = f.body.unwrap_or((0, usize::MAX));
                c - o
            })
            .map(|(i, _)| i)
    }

    /// Indices of fns matching `(path_suffix, name)` entry-point specs.
    pub fn find_entries(&self, specs: &[(&str, &str)]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && specs.iter().any(|(suffix, name)| {
                        f.name == *name && self.files[f.file].path.ends_with(suffix)
                    })
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// One lint over the [`Workspace`] model.
pub trait Pass {
    /// The catalog id of the lint this pass implements.
    fn id(&self) -> &'static str;
    /// Produces raw findings (suppression filtering happens in the
    /// engine).
    fn run(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Builds a finding for `lint` anchored at `tok`.
pub(crate) fn finding(lint: &'static str, path: &str, tok: &Tok, message: String) -> Finding {
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

/// Index of the token closing the group opened at `open` (`(`, `[` or
/// `{`), balancing all three delimiter kinds together.
pub(crate) fn group_end(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in file.toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// `true` when the `Frame::Variant` mention whose variant ident sits at
/// `variant` is a *pattern* (match arm, `if let`, or-pattern) rather
/// than a construction. After the variant's payload group (if any) and
/// any run of closing `)`, a pattern is followed by `=>`, `|`, or the
/// `=` of `if let … = expr`.
pub(crate) fn is_pattern_position(file: &SourceFile, variant: usize) -> bool {
    let toks = &file.toks;
    let mut j = variant + 1;
    if matches!(toks.get(j).map(|t| t.text.as_str()), Some("(") | Some("{")) {
        match group_end(file, j) {
            Some(c) => j = c + 1,
            None => return false,
        }
    }
    while toks.get(j).map(|t| t.text.as_str()) == Some(")") {
        j += 1;
    }
    matches!(
        toks.get(j).map(|t| t.text.as_str()),
        Some("=>") | Some("|") | Some("=")
    )
}

/// Wraps the token-level per-file lints (a1, a2, a4, a5, a6) as a pass.
/// Their scoping and semantics are exactly the pre-pass-API behavior;
/// the wrapper only changes who drives the iteration.
pub struct LexicalPass {
    /// Catalog id of the wrapped lint.
    pub lint: &'static str,
    /// The per-file lint body.
    pub f: fn(&SourceFile) -> Vec<Finding>,
}

impl Pass for LexicalPass {
    fn id(&self) -> &'static str {
        self.lint
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        ws.files.iter().flat_map(|f| (self.f)(f)).collect()
    }
}

/// A6 needs the `Frame` variant list, so it gets its own wrapper.
struct FrameExhaustivePass;

impl Pass for FrameExhaustivePass {
    fn id(&self) -> &'static str {
        "a6-frame-exhaustive"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let variants = ws
            .files
            .iter()
            .find(|f| f.path.ends_with("wire/src/frame.rs"))
            .map(lints::frame_variants)
            .unwrap_or_default();
        ws.files
            .iter()
            .flat_map(|f| lints::a6_frame_exhaustive(f, &variants))
            .collect()
    }
}

/// The full pass registry, in catalog order. A3 stays outside: it
/// anchors in manifests, which the [`Workspace`] does not model.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(LexicalPass {
            lint: "a1-atomic-ordering",
            f: lints::a1_atomic_ordering,
        }),
        Box::new(LexicalPass {
            lint: "a2-panic-free",
            f: lints::a2_panic_free,
        }),
        Box::new(LexicalPass {
            lint: "a4-blocking-hot-path",
            f: lints::a4_blocking_hot_path,
        }),
        Box::new(LexicalPass {
            lint: "a5-numeric-narrowing",
            f: lints::a5_numeric_narrowing,
        }),
        Box::new(FrameExhaustivePass),
        Box::new(a7::VersionGating),
        Box::new(a8::FenceOrder),
        Box::new(a9::PersistOrder),
        Box::new(a10::ReachablePanic),
        Box::new(a10::ReachableBlocking),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_containing_picks_the_innermost() {
        let files = vec![SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn outer() { fn inner() { body() } inner() }",
        )];
        let ws = Workspace::build(&files);
        let body = files[0].toks.iter().position(|t| t.text == "body").unwrap();
        let f = ws.fn_containing(0, body).unwrap();
        assert_eq!(ws.fns[f].name, "inner");
    }

    #[test]
    fn pattern_vs_construction_positions() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn f(x: Frame) { match x { Frame::Replicate { seg } => (), _ => () } \
             let y = Frame::Replicate { seg: 1 }; \
             if let Frame::Heartbeat(e) = x {} \
             send(Frame::Promote { epoch: 2 }); }",
        );
        let mentions: Vec<usize> = f
            .toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.text == "Frame" && f.toks.get(i + 1).map(|n| n.text.as_str()) == Some("::")
            })
            .map(|(i, _)| i + 2)
            .collect();
        assert_eq!(mentions.len(), 4);
        assert!(is_pattern_position(&f, mentions[0]));
        assert!(!is_pattern_position(&f, mentions[1]));
        assert!(is_pattern_position(&f, mentions[2]));
        assert!(!is_pattern_position(&f, mentions[3]));
    }

    #[test]
    fn entry_specs_match_path_suffix_and_name() {
        let files = vec![
            SourceFile::parse("crates/server/src/lib.rs", "fn serve_frames() {}"),
            SourceFile::parse("crates/other/src/lib.rs", "fn serve_frames() {}"),
        ];
        let ws = Workspace::build(&files);
        let e = ws.find_entries(&[("server/src/lib.rs", "serve_frames")]);
        assert_eq!(e.len(), 1);
        assert_eq!(ws.fns[e[0]].file, 0);
    }
}
