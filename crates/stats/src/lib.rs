//! Statistical substrate for the IPv6 user-level behavior study.
//!
//! This crate provides the numerical building blocks that every analysis in
//! the study rests on. It is deliberately dependency-free so that results are
//! bit-for-bit reproducible across platforms:
//!
//! - [`hash`] — a stable 64-bit hash (an xxHash64 implementation) used by the
//!   deterministic attribute samplers described in §3.1 of the paper. Rust's
//!   `DefaultHasher` is explicitly *not* stable across releases, so we carry
//!   our own.
//! - [`ecdf`] — empirical CDFs over integer-valued observations, the workhorse
//!   behind Figures 2, 3, 5, 7, 8, 9 and 10.
//! - [`counter`] — top-k heavy-hitter tracking: *which ASNs host the most
//!   heavily-populated addresses*.
//! - [`roc`] — Receiver Operating Characteristic curves for the day-*n* →
//!   day-*n+1* actioning analysis of §7.1 (Figure 11).
//! - [`extrapolate`] — prevalence ratios across samples of different sizes,
//!   mirroring the paper's "extrapolating from our sample" argument (§5.1.3).
//!
//! # Example
//!
//! ```
//! use ipv6_study_stats::ecdf::Ecdf;
//!
//! // Number of IPv6 addresses observed for five users in one day.
//! let ecdf = Ecdf::from_values([1u64, 1, 2, 3, 9]);
//! assert_eq!(ecdf.fraction_le(1), 0.4);   // 40% of users had one address
//! assert_eq!(ecdf.fraction_le(8), 0.8);
//! assert_eq!(ecdf.max(), Some(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod dist;
pub mod ecdf;
pub mod extrapolate;
pub mod hash;
pub mod roc;
pub mod testgen;

pub use counter::TopK;
pub use ecdf::Ecdf;
pub use hash::{stable_hash64, SeededBuildHasher, StableHashMap, StableHashSet, StableHasher};
pub use roc::{RocCurve, RocPoint};
pub use testgen::TestGen;
