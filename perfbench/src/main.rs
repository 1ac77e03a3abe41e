//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <ingest|query|replicated> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit
//! code is 0 only when every correctness gate passed.

#![forbid(unsafe_code)]

use perfbench::json;
use perfbench::run::{compare, run, Options};
use perfbench::workloads::Kind;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ingest|query|replicated> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke]\n       \
                     perfbench compare <result-a.json> <result-b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.result_line().render());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut opts = Options {
        kind: Kind::Ingest,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: manifest.join("out"),
        root: manifest.join(".."),
    };
    let mut kind = None;
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag} has invalid value `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    Ok(opts)
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    match load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b))) {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
