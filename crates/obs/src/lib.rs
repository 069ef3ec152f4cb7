//! Observability for the study pipeline: span trees and the
//! machine-readable run report.
//!
//! Speed is whatever the run report shows, so the pipeline must emit
//! machine-readable measurements in the first place. This crate is that
//! substrate, kept deliberately std-only (the workspace builds fully
//! offline):
//!
//! - [`span`] — [`Span`], one measured step `{name, wall, items, bytes,
//!   children}`; every layer reports through it, so one `/`-separated
//!   path names any measurement;
//! - [`report`] — [`RunReport`], the aggregate a completed run hands to
//!   callers: the span roots plus the config echo, the faults section and
//!   the incremental-engine accounting, rendering to text and to JSON;
//! - [`json`] — a hand-rolled [`Json`] value with a serializer that
//!   never emits `Infinity` or `NaN` (non-finite numbers become `null`),
//!   because the report's consumers are JSON parsers with no tolerance
//!   for IEEE special values.
//!
//! Instrumentation is passive: spans observe the pipeline but never feed
//! back into it, so enabling them cannot change simulated output (the
//! serial-vs-parallel byte-equivalence contract is tested with
//! instrumentation both on and off).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod span;

pub use json::Json;
pub use report::{FaultStat, IncrementalStat, RunReport};
pub use span::{rate_per_sec, stem, Span};
