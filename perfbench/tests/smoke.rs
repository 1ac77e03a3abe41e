//! Self-test: every workload runs at toy size (`--smoke`), untraced and
//! traced, passes its correctness gate, and prints every metric named in
//! `BENCHMARK.json` with its unit; `compare` refuses results from
//! different hosts.

use perfbench::json::{self, Json};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::Kind;
use std::path::{Path, PathBuf};
use std::process::Command;

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
}

/// Runs one smoke invocation and returns its parsed result line.
fn smoke(kind: Kind, trace: bool) -> Json {
    let out = bench()
        .args(["--workload", kind.name(), "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        kind.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().unwrap()).unwrap()
}

fn check_result(kind: Kind, trace: bool) {
    let r = smoke(kind, trace);
    let Json::Obj(top) = &r else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert!(r.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(r.get("failed").unwrap().as_f64(), Some(0.0));
    let Some(Json::Obj(metrics)) = r.get("metrics") else {
        panic!("metrics is not an object")
    };
    let expected = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{}: {metrics:?}",
        kind.name()
    );
    for (name, unit) in expected {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{}: metric {name} missing", kind.name()));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} = {v:?}");
    }
    if !trace {
        for name in ["setup_s", "ingest_melem_s", "ack_p50_ms", "query_p50_ms"] {
            let v = metrics[name].get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{}: {name} = {v}", kind.name());
        }
    }
}

#[test]
fn ingest_emits_every_metric() {
    check_result(Kind::Ingest, false);
    check_result(Kind::Ingest, true);
}

#[test]
fn query_emits_every_metric() {
    check_result(Kind::Query, false);
    check_result(Kind::Query, true);
}

#[test]
fn replicated_emits_every_metric() {
    check_result(Kind::Replicated, false);
    check_result(Kind::Replicated, true);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn compare_refuses_other_hosts() {
    let dir = out_dir("compare");
    let result = |parallelism: f64, commit: &str, value: f64| {
        let text = format!(
            r#"{{"workload": "ingest", "trace": false, "seconds": 10,
                "fingerprint": {{"cpu_model": "x", "avx2": true, "avx512f": false,
                  "vector_kernel": true, "parallelism": {parallelism}, "telemetry": true,
                  "commit": "{commit}"}},
                "metrics": {{"ingest_melem_s": {{"value": {value}, "unit": "Melem/s"}}}}}}"#
        );
        let path = dir.join(format!("r-{parallelism}-{commit}.json"));
        std::fs::write(&path, text).unwrap();
        path
    };
    let a = result(2.0, "aaa", 10.0);
    let b = result(2.0, "bbb", 12.0);
    let c = result(4.0, "aaa", 10.0);
    let same_host = bench().arg("compare").arg(&a).arg(&b).output().unwrap();
    assert!(same_host.status.success());
    let text = String::from_utf8_lossy(&same_host.stdout);
    assert!(
        text.contains("ingest_melem_s") && text.contains("+20.00%"),
        "{text}"
    );
    let other_host = bench().arg("compare").arg(&a).arg(&c).output().unwrap();
    assert_eq!(other_host.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&other_host.stderr).contains("parallelism"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "ingest"],
        vec!["--workload", "ingest", "--seed", "1", "--trace", "2"],
    ] {
        let out = bench().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
