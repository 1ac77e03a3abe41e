//! Seeded end-to-end and per-layer benchmark of the served
//! skimmed-sketch system (see `README.md` in this directory).
//!
//! One command drives one workload (`ingest`, `query`, `replicated`)
//! against real serving topologies stood up in-process on loopback,
//! gates the final answer bit for bit against an in-process reference,
//! and prints every metric by name and unit. `--trace 1` runs the same
//! traffic with spans around every call into a layer, plus layer probes,
//! and reports per-layer self time instead.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod data;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod workloads;
