//! The study's analyses: every figure and table, as pure functions over
//! request datasets.
//!
//! Each module mirrors a section of the paper:
//!
//! - [`characterize`] — §4 data characterization: the daily IPv6 prevalence
//!   series (Figure 1), the top-ASN and top-country tables (Tables 1–2,
//!   Figure 12's choropleth data), and the client address patterns of §4.4
//!   (transition protocols, EUI-64 embeddings, IID reuse).
//! - [`user_centric`] — §5: addresses per user (Figures 2–3), IPv6 prefixes
//!   per user (Figure 4), and IP/prefix life spans (Figures 5–6).
//! - [`ip_centric`] — §6: users per address (Figures 7–8) and users per
//!   IPv6 prefix (Figures 9–10).
//! - [`outliers`] — the outlier analyses of §5.1.3, §5.3.3, §6.1.3 and
//!   §6.2.3: heavy users, heavy addresses, heavy prefixes, their ASN
//!   concentration, and the gateway-signature predictability result.
//! - [`similarity`] — the "most similar prefix length" machinery behind the
//!   paper's claims that IPv4 addresses behave like IPv6 /48s (Figure 9) or
//!   /56s (Figure 10) depending on the lens.
//! - [`index`] — the shared [`index::DatasetIndex`]: one windowed record
//!   slice re-ordered by user and by address with run boundaries, so the
//!   group-by analyses are slice walks instead of per-pass hash grouping.
//! - [`report`] — plottable series/table types shared by the bench harness
//!   and the `repro` binary.
//!
//! Group-by analyses take a pre-windowed [`index::DatasetIndex`]; series
//! and ratio analyses take plain `&[RequestRecord]` slices (pre-windowed by
//! [`RequestStore`](ipv6_study_telemetry::RequestStore)). Either way they
//! know nothing about the simulator, so they would run unchanged over real
//! platform telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod index;
pub mod ip_centric;
pub mod outliers;
pub mod report;
pub mod similarity;
pub mod user_centric;
pub mod windows;

pub use index::{DatasetIndex, IndexMode};
pub use report::{CdfSeries, FigureReport, TableReport};
