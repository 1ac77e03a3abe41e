//! # stream-model
//!
//! The data-stream substrate of the skimmed-sketches reproduction: the
//! update model (§2.1 of the paper — unordered insert/delete streams over
//! an integer domain), exact reference computation, workload generators for
//! every experiment in §5, the paper's error metric, trace I/O, and the
//! varint/zigzag [`codec`] that every wire, sketch and trace format is
//! built on.
//!
//! Nothing in this crate approximates anything; it is the ground truth that
//! the sketch crates are tested and benchmarked against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod domain;
pub mod freq;
pub mod gen;
pub mod io;
pub mod metrics;
pub mod stats;
pub mod table;
pub mod trace;
pub mod update;

pub use domain::Domain;
pub use freq::FrequencyVector;
pub use metrics::{ratio_error, Summary, ERROR_SANITY_BOUND};
pub use stats::WorkloadStats;
pub use update::{StreamSink, Update, UpdateKind};
