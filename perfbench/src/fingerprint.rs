//! Host and build fingerprint stamped on every result.
//!
//! Two results are comparable only when their *host* part and telemetry
//! setting agree: same CPU model, same vector ISA, same kernel choice,
//! same core count. The commit is recorded but may differ — comparing
//! two commits on one host is the point of an A/B.

use crate::json::{obj, Json};
use std::path::Path;

/// Identity of the machine and build that produced a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// The CPU reports AVX2 at run time.
    pub avx2: bool,
    /// The CPU reports AVX-512F at run time.
    pub avx512f: bool,
    /// `stream_hash::lanes::VECTOR_KERNEL`: the blocked update kernel
    /// was compiled in.
    pub vector_kernel: bool,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Telemetry compiled in (`stream_telemetry::ENABLED`).
    pub telemetry: bool,
    /// Git commit of the tree the benchmark was built from, or
    /// `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Fingerprints this process's host and build; `root` is the
    /// repository root (where `.git` would be).
    pub fn current(root: &Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            avx2: has_feature("avx2"),
            avx512f: has_feature("avx512f"),
            vector_kernel: stream_hash::lanes::VECTOR_KERNEL,
            parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
            telemetry: stream_telemetry::ENABLED,
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        obj([
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("avx2", Json::Bool(self.avx2)),
            ("avx512f", Json::Bool(self.avx512f)),
            ("vector_kernel", Json::Bool(self.vector_kernel)),
            ("parallelism", Json::Num(self.parallelism as f64)),
            ("telemetry", Json::Bool(self.telemetry)),
            ("commit", Json::Str(self.commit.clone())),
        ])
    }

    /// Reads a fingerprint back from [`Fingerprint::to_json`] output.
    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        let flag = |k: &str| match v.get(k)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        Some(Fingerprint {
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            avx2: flag("avx2")?,
            avx512f: flag("avx512f")?,
            vector_kernel: flag("vector_kernel")?,
            parallelism: v.get("parallelism")?.as_f64()? as usize,
            telemetry: flag("telemetry")?,
            commit: v.get("commit")?.as_str()?.to_string(),
        })
    }

    /// The fields on which `self` and `other` differ, ignoring the
    /// commit. Empty means the two results may be compared.
    pub fn incomparable(&self, other: &Fingerprint) -> Vec<String> {
        let mut diff = Vec::new();
        let mut check = |name: &str, a: String, b: String| {
            if a != b {
                diff.push(format!("{name}: {a} vs {b}"));
            }
        };
        check("cpu_model", self.cpu_model.clone(), other.cpu_model.clone());
        check("avx2", self.avx2.to_string(), other.avx2.to_string());
        check(
            "avx512f",
            self.avx512f.to_string(),
            other.avx512f.to_string(),
        );
        check(
            "vector_kernel",
            self.vector_kernel.to_string(),
            other.vector_kernel.to_string(),
        );
        check(
            "parallelism",
            self.parallelism.to_string(),
            other.parallelism.to_string(),
        );
        check(
            "telemetry",
            self.telemetry.to_string(),
            other.telemetry.to_string(),
        );
        diff
    }
}

#[cfg(target_arch = "x86_64")]
fn has_feature(name: &str) -> bool {
    match name {
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn has_feature(_name: &str) -> bool {
    false
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process): a
/// detached hash, a loose ref, or an entry in `packed-refs`.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_ignores_commit() {
        let a = Fingerprint::current(Path::new("."));
        let back = Fingerprint::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let mut b = a.clone();
        b.commit = "other".into();
        assert!(a.incomparable(&b).is_empty());
        b.parallelism += 1;
        assert_eq!(a.incomparable(&b).len(), 1);
    }
}
