//! # ipv6-user-study
//!
//! A from-scratch Rust reproduction of **"Towards A User-Level Understanding
//! of IPv6 Behavior"** (Li & Freeman, IMC 2020): a calibrated internet/user
//! simulator standing in for the paper's proprietary platform telemetry,
//! the paper's deterministic-sampling methodology, every analysis behind its
//! figures and tables, and the security-application harness of §7.
//!
//! This crate is the facade: it re-exports the workspace's public API. See
//! `DESIGN.md` for the architecture and substitution argument, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use ipv6_user_study::experiments::{self, AnalysisCtx};
//! use ipv6_user_study::{Study, StudyConfig};
//!
//! // Simulate a small platform and regenerate Figure 7.
//! let study = Study::run(StudyConfig::tiny()).unwrap();
//! let ctx = AnalysisCtx::new(&study);
//! let fig7 = experiments::fig7_users_per_ip(&ctx);
//! let v6_single = fig7.get_stat("fig7.v6_day_single").unwrap();
//! let v4_single = fig7.get_stat("fig7.v4_day_single").unwrap();
//! assert!(v6_single > v4_single, "IPv6 addresses are sparsely populated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ipv6_study_core::{
    experiments, incremental, paper, report, ConfigError, FailurePolicy, FaultInjector, FaultKind,
    FaultReport, IncrementalRun, IncrementalStat, RunMetrics, RunReport, SamplingPlan,
    ShardFailure, ShardMetrics, SpillError, StorageMode, Study, StudyConfig, StudyError,
    StudyOutcome, DEFAULT_SEGMENT_ROWS,
};

/// Statistical substrate: ECDFs, ROC curves, hashing, extrapolation.
pub use ipv6_study_core::experiments::ExperimentOutput;

// Re-export the component crates under stable names so downstream users can
// reach any layer of the system.
pub use ipv6_study_analysis as analysis;
pub use ipv6_study_behavior as behavior;
pub use ipv6_study_netaddr as netaddr;
pub use ipv6_study_netmodel as netmodel;
pub use ipv6_study_obs as obs;
pub use ipv6_study_secapp as secapp;
pub use ipv6_study_stats as stats;
pub use ipv6_study_telemetry as telemetry;
