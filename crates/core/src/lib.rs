//! The study pipeline: configuration, simulation driver, experiment
//! registry, and report rendering.
//!
//! This crate ties the workspace together. [`Study::run`] builds the world
//! (`ipv6-study-netmodel`), generates the population and attacker request
//! streams (`ipv6-study-behavior`), routes them through the deterministic
//! samplers into the four dataset families (`ipv6-study-telemetry`), and
//! exposes everything the analyses need. [`experiments`] then regenerates
//! every table and figure in the paper from those datasets.
//!
//! # Quickstart
//!
//! ```
//! use ipv6_study_core::{Study, StudyConfig};
//!
//! use ipv6_study_core::experiments::AnalysisCtx;
//!
//! let study = Study::run(StudyConfig::tiny()).unwrap();
//! let ctx = AnalysisCtx::new(&study);
//! let fig2 = ipv6_study_core::experiments::fig2_addrs_per_user(&ctx);
//! assert_eq!(fig2.figures[0].id, "Figure 2");
//! ```
//!
//! # Simulation phases
//!
//! The driver runs in two phases for tractability, mirroring what each
//! dataset actually needs:
//!
//! 1. **Panel phase** (study start → day before the dense window): only
//!    users in the user-sample panel are simulated. This feeds the
//!    longitudinal analyses — Figure 1's daily series and the 28-day
//!    life-span lookbacks — which are all computed on the user sample.
//! 2. **Dense phase** (the dense window, ending Apr 19): every user is
//!    simulated and offered to all samplers, feeding the IP-centric
//!    analyses (IP and prefix random samples) and the day-pair actioning
//!    ROC.
//!
//! Abusive accounts are simulated on *all* days and additionally retained
//! in a complete `abuse_store` (the label join of §3.1 — feasible because
//! abusive accounts are a small population).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod config;
pub mod ctx;
pub mod driver;
pub mod experiments;
pub mod faults;
pub mod incremental;
pub mod paper;
mod pool;
pub mod report;
pub mod study;

pub use ablation::Ablation;
pub use config::{ConfigError, SamplingPlan, StudyConfig};
pub use driver::{RunMetrics, ShardMetrics};
pub use experiments::{AnalysisCtx, ExperimentOutput};
pub use faults::{
    FailurePolicy, FaultInjector, FaultKind, FaultReport, ShardFailure, StudyError, StudyOutcome,
};
pub use incremental::IncrementalRun;
pub use ipv6_study_obs::{IncrementalStat, RunReport};
pub use ipv6_study_telemetry::{SpillError, StorageMode, DEFAULT_SEGMENT_ROWS};
pub use study::Study;
