//! # skimmed-sketch
//!
//! The skimmed-sketch join-size estimator of Ganguly, Garofalakis &
//! Rastogi, *"Processing Data-Stream Join Aggregates Using Skimmed
//! Sketches"* (EDBT 2004) — the paper's primary contribution, implemented
//! in full:
//!
//! * [`SkimmedSketch`] — the per-stream synopsis: `s1` hash tables of `b`
//!   AMS counters (update cost `O(s1)`, logarithmic), optionally augmented
//!   with dyadic levels for fast dense-value extraction;
//! * [`skim::skim_dense_scan`] / [`DyadicHashSketch::skim_dense`] —
//!   SKIMDENSE, which pulls every frequency ≥ `T ≈ n/√b` out of the sketch
//!   and leaves a residual-only skimmed sketch;
//! * [`estimate_join`] — ESTSKIMJOINSIZE, summing an exact dense⋈dense
//!   term with three median-boosted sub-join estimates;
//! * [`ThresholdPolicy`] — worst-case and adaptive dense thresholds;
//! * [`analysis`] — the exact error-budget arithmetic of §3.
//!
//! ## Quick example
//!
//! ```
//! use skimmed_sketch::{estimate_join, EstimatorConfig, SkimmedSchema, SkimmedSketch};
//! use stream_model::{Domain, StreamSink, Update};
//!
//! let domain = Domain::with_log2(16);
//! let schema = SkimmedSchema::scanning(domain, 7, 256, 42);
//! let mut f = SkimmedSketch::new(schema.clone());
//! let mut g = SkimmedSketch::new(schema);
//! for v in 0..1000 {
//!     f.update(Update::insert(v % 64));   // skewed stream F
//!     g.update(Update::insert(v % 128));  // stream G
//! }
//! let est = estimate_join(&f, &g, &EstimatorConfig::default());
//! assert!(est.estimate > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod audit;
pub mod codec;
pub mod confidence;
pub mod dyadic;
pub mod estimator;
pub mod extracted;
pub mod planner;
pub mod skim;
pub(crate) mod telem;
pub mod threshold;
pub mod windowed;

pub use audit::audit_ratio_error;
pub use codec::{decode_skimmed, encode_skimmed};
pub use confidence::{estimate_join_with_confidence, ConfidenceEstimate};
pub use dyadic::{DyadicHashSketch, DyadicSchema};
pub use estimator::{
    est_subjoin, est_subjoin_in_table, estimate_join, estimate_self_join, EstimatorConfig,
    ExtractionStrategy, JoinEstimate, SkimmedSchema, SkimmedSketch,
};
pub use extracted::ExtractedDense;
pub use planner::{plan, Plan, PlannerInput};
pub use threshold::ThresholdPolicy;
pub use windowed::{estimate_windowed_join, WindowedSkimmedSketch};
