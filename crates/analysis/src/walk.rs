//! Workspace file discovery.
//!
//! The analyzer lints *shipped* source: `.rs` files under a `src/`
//! directory of any workspace crate (which includes `src/bin`, so the
//! bench-harness bins in `crates/bench/src/bin` are covered), plus the
//! workspace `examples/` tree (examples are documentation users copy —
//! a gated invariant violated in an example propagates), plus every
//! `Cargo.toml`. It deliberately skips:
//!
//! * `shims/` — vendored stand-ins for external crates (offline build
//!   environment); their code is not this workspace's to lint, and
//!   they carry no telemetry feature edges,
//! * `tests/`, `benches/`, fixture trees — test-only code is exempt by
//!   design (the lints also mask `#[cfg(test)]` modules inside `src/`),
//! * `target/`, `.git/`, `results/` — build and output artifacts.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "shims", "results", "tests", "benches", "fixtures",
];

/// A file selected for analysis, with its repo-relative path and text.
#[derive(Debug)]
pub struct Input {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// Collected analysis inputs.
#[derive(Debug, Default)]
pub struct Inputs {
    /// Rust sources under `src/` trees, sorted by path.
    pub sources: Vec<Input>,
    /// `Cargo.toml` manifests, sorted by path (root manifest included).
    pub manifests: Vec<Input>,
}

/// Walks `root` collecting sources and manifests.
pub fn collect(root: &Path) -> io::Result<Inputs> {
    let mut out = Inputs::default();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
                continue;
            }
            let rel = rel_path(root, &path);
            if name == "Cargo.toml" {
                out.manifests.push(Input {
                    path: rel,
                    text: fs::read_to_string(&path)?,
                });
            } else if name.ends_with(".rs")
                && rel.split('/').any(|seg| seg == "src" || seg == "examples")
            {
                out.sources.push(Input {
                    path: rel,
                    text: fs::read_to_string(&path)?,
                });
            }
        }
    }
    out.sources.sort_by(|a, b| a.path.cmp(&b.path));
    out.manifests.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Repo-relative `/`-separated path for display and fingerprints.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
