//! # skimmed-sketches
//!
//! A complete reproduction of **"Processing Data-Stream Join Aggregates
//! Using Skimmed Sketches"** (Ganguly, Garofalakis & Rastogi, EDBT 2004).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`hash`] (`stream-hash`) — k-wise independent hash families over
//!   `Z_{2^61-1}` and GF(2^64).
//! * [`model`] (`stream-model`) — the update-stream data model, workload
//!   generators, exact reference computation, and the paper's error metric.
//! * [`sketches`] (`stream-sketches`) — basic AGMS sketching (the paper's
//!   baseline), the CountSketch hash structure, top-k tracking, Count-Min.
//! * [`skim`] (`skimmed-sketch`) — the paper's contribution: SKIMDENSE,
//!   dyadic extraction, and ESTSKIMJOINSIZE.
//! * [`query`] (`stream-query`) — a one-pass COUNT/SUM/AVERAGE join-query
//!   engine with predicates and chain multi-joins.
//! * [`ingest`] (`stream-ingest`) — batched, multi-core ingestion: a
//!   sharded worker pool feeding per-thread sketches via the
//!   loop-interchanged batch kernels, merged by linearity into a sketch
//!   bit-identical to sequential ingest.
//!
//! See `examples/` for runnable walkthroughs and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

pub use skimmed_sketch as skim;
pub use stream_hash as hash;
pub use stream_ingest as ingest;
pub use stream_model as model;
pub use stream_query as query;
pub use stream_sketches as sketches;

/// Convenience prelude for downstream users.
pub mod prelude {
    pub use skimmed_sketch::{
        estimate_join, estimate_self_join, EstimatorConfig, JoinEstimate, SkimmedSchema,
        SkimmedSketch, ThresholdPolicy,
    };
    pub use stream_ingest::{ingest_parallel, IngestPool};
    pub use stream_model::{Domain, FrequencyVector, StreamSink, Update};
    pub use stream_query::{Aggregate, JoinQueryEngine, Op, Predicate, Record, Side};
    pub use stream_sketches::LinearSynopsis;
}
