//! Study configuration, validation errors and scale presets.

use std::fmt;

use crate::ablation::Ablation;
use crate::faults::{FailurePolicy, FaultInjector};
use ipv6_study_netaddr::STUDY_PREFIX_LENGTHS;
use ipv6_study_telemetry::time::{study_end, study_start};
use ipv6_study_telemetry::{DateRange, Samplers, SimDate, StorageMode};

/// Why a [`StudyConfig`] cannot be run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `households` is zero: there is no population to simulate.
    NoHouseholds,
    /// The dense window must end exactly where the full window ends and
    /// start no earlier than it (the dense phase is the *suffix* of the
    /// study; see the crate-level phase description).
    DenseWindowNotSuffix {
        /// The offending dense window.
        dense: DateRange,
        /// The full study window it must suffix.
        full: DateRange,
    },
    /// `prefix_lengths` is empty: at least one prefix sample is required.
    NoPrefixLengths,
    /// A prefix length exceeds 128 bits.
    PrefixLengthTooLong(u8),
    /// `threads` is zero: the driver needs at least one worker.
    ZeroThreads,
    /// `analysis_threads` is `Some(0)`: the analysis engine needs at least
    /// one worker (leave it `None` to inherit `threads`).
    ZeroAnalysisThreads,
    /// `max_shard_retries` exceeds the sanity cap: a deterministic shard
    /// that failed dozens of times will not succeed on attempt 100.
    TooManyRetries(u32),
    /// The fault injector's `panic_rate` is outside `[0, 1]` (or NaN).
    FaultRateOutOfRange(f64),
    /// `storage` is [`StorageMode::Spill`] with `segment_rows == 0`: a
    /// segment must stage at least one row.
    ZeroSegmentRows,
    /// `disk_budget_bytes` is `Some(0)`: a zero budget rejects the very
    /// first spill write (leave it `None` for unlimited).
    ZeroDiskBudget,
    /// `disk_budget_bytes` is set but `storage` is
    /// [`StorageMode::InMemory`]: the budget governs spill writes only,
    /// so setting it without spill storage is a misconfiguration.
    DiskBudgetWithoutSpill,
    /// Storage the configuration names cannot be used: the spill
    /// session directory cannot be created, or a state dir is refused
    /// (another checkpoint schema or configuration, or a range shorter
    /// than the one it covers). Disk failures and damaged files are
    /// [`crate::StudyError::Spill`] instead.
    Storage(String),
    /// A fixed sampling rate is not a probability in `(0, 1]` (or NaN).
    InvalidSamplingRate(f64),
    /// The sampling plan expects fewer than one sampled user at the
    /// configured population — every sampled dataset would be empty in
    /// expectation, which is a misconfiguration, not a study.
    SamplingTooSparse {
        /// The configured per-entity rate.
        rate: f64,
        /// The approximate user population the rate applies to.
        population: u64,
    },
    /// The world's network portfolio cannot be materialized from this
    /// configuration (an address-assignment invariant would be violated).
    Network(String),
    /// `extend_days` pushes the simulated end past Dec 31 2020 — the
    /// calendar model covers one year, so an extension must stay inside
    /// it.
    ExtensionPastCalendar {
        /// The configured extension.
        extend_days: u16,
        /// The base window's last day.
        base_end: SimDate,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoHouseholds => write!(f, "households must be at least 1"),
            ConfigError::DenseWindowNotSuffix { dense, full } => write!(
                f,
                "dense window {}..{} must be a suffix of the full window {}..{}",
                dense.start, dense.end, full.start, full.end
            ),
            ConfigError::NoPrefixLengths => {
                write!(f, "at least one prefix length must be collected")
            }
            ConfigError::PrefixLengthTooLong(l) => {
                write!(f, "prefix length /{l} exceeds 128 bits")
            }
            ConfigError::ZeroThreads => write!(f, "threads must be at least 1"),
            ConfigError::ZeroAnalysisThreads => {
                write!(f, "analysis_threads must be at least 1 (or None)")
            }
            ConfigError::TooManyRetries(n) => {
                write!(
                    f,
                    "max_shard_retries {n} exceeds the cap of {MAX_SHARD_RETRIES_CAP}"
                )
            }
            ConfigError::FaultRateOutOfRange(r) => {
                write!(f, "fault panic_rate {r} must be within [0, 1]")
            }
            ConfigError::ZeroSegmentRows => {
                write!(f, "spill segment_rows must be at least 1")
            }
            ConfigError::ZeroDiskBudget => {
                write!(
                    f,
                    "disk_budget_bytes must be at least 1 (or None for unlimited)"
                )
            }
            ConfigError::DiskBudgetWithoutSpill => {
                write!(
                    f,
                    "disk_budget_bytes requires the spill storage mode (it caps on-disk bytes)"
                )
            }
            ConfigError::Storage(msg) => write!(f, "storage unusable: {msg}"),
            ConfigError::InvalidSamplingRate(r) => {
                write!(f, "sampling rate {r} must be within (0, 1]")
            }
            ConfigError::SamplingTooSparse { rate, population } => write!(
                f,
                "sampling rate {rate} over ~{population} users expects fewer than one \
                 sampled user"
            ),
            ConfigError::Network(msg) => write!(f, "network portfolio invalid: {msg}"),
            ConfigError::ExtensionPastCalendar {
                extend_days,
                base_end,
            } => write!(
                f,
                "extend_days {extend_days} pushes the window past Dec 31 2020 \
                 (base window ends {base_end})"
            ),
        }
    }
}

/// Upper bound on `max_shard_retries`. Shards are pure functions of the
/// config, so only transient environmental (or injected) faults can be
/// retried away; a budget beyond this is a misconfiguration, not
/// resilience.
pub const MAX_SHARD_RETRIES_CAP: u32 = 64;

impl std::error::Error for ConfigError {}

/// How the §3.1 sampler rates are chosen for a run.
///
/// The plan is resolved against the *final* configured population
/// exactly once, at [`crate::Study::run`] time, so setting `households`
/// after choosing it cannot leave stale rates; [`StudyConfig::validate`]
/// checks it against that population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum SamplingPlan {
    /// Rates scaled so each sampled dataset stays analysis-sized at any
    /// population ([`Samplers::scaled_for`]) — the default.
    #[default]
    Scaled,
    /// The paper's fixed 0.1% rates ([`Samplers::paper`]); rejected when
    /// the population is too small to expect even one sampled user.
    Paper,
    /// One fixed rate for all four samplers.
    Fixed {
        /// The per-entity sampling probability, in `(0, 1]`.
        rate: f64,
    },
}

impl SamplingPlan {
    /// Resolves the plan into concrete sampler rates for a population of
    /// approximately `population` users.
    pub fn resolve(&self, population: u64) -> Samplers {
        match *self {
            SamplingPlan::Scaled => Samplers::scaled_for(population),
            SamplingPlan::Paper => Samplers::paper(),
            SamplingPlan::Fixed { rate } => Samplers {
                request_rate: rate,
                user_rate: rate,
                ip_rate: rate,
                prefix_rate: rate,
            },
        }
    }

    /// Machine-readable label echoed into `BENCH_run.json`
    /// (`"scaled"` / `"paper"` / `"fixed:RATE"`).
    pub fn label(&self) -> String {
        match *self {
            SamplingPlan::Scaled => "scaled".to_string(),
            SamplingPlan::Paper => "paper".to_string(),
            SamplingPlan::Fixed { rate } => format!("fixed:{rate}"),
        }
    }

    /// Validates the plan against the configured population.
    fn validate(&self, population: u64) -> Result<(), ConfigError> {
        let fixed_rate = match *self {
            // `scaled_for` clamps itself into a sane range for any
            // population; nothing to reject.
            SamplingPlan::Scaled => return Ok(()),
            SamplingPlan::Paper => Samplers::paper().user_rate,
            SamplingPlan::Fixed { rate } => {
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(ConfigError::InvalidSamplingRate(rate));
                }
                rate
            }
        };
        if fixed_rate * (population as f64) < 1.0 {
            return Err(ConfigError::SamplingTooSparse {
                rate: fixed_rate,
                population,
            });
        }
        Ok(())
    }
}

/// Configuration for one study run: start from a preset
/// ([`StudyConfig::tiny`], [`StudyConfig::test_scale`],
/// [`StudyConfig::default_scale`], [`StudyConfig::full_scale`]) and
/// override fields with struct-update syntax; [`crate::Study::run`]
/// validates it once.
///
/// ```
/// use ipv6_study_core::{Study, StudyConfig};
///
/// let study = Study::run(StudyConfig {
///     seed: 7,
///     threads: 2,
///     ..StudyConfig::tiny()
/// })
/// .unwrap();
/// assert_eq!(study.config().seed, 7);
/// ```
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed; every address, user and campaign derives from it.
    pub seed: u64,
    /// Number of benign households (≈ 2.1 users each).
    pub households: u64,
    /// Number of attacker campaigns.
    pub campaigns: u32,
    /// Full study window (the paper's Jan 23 – Apr 19 2020).
    pub full_range: DateRange,
    /// Dense window: all users simulated (must end at `full_range.end`).
    pub dense_range: DateRange,
    /// IPv6 prefix lengths collected by the prefix random samples.
    pub prefix_lengths: Vec<u8>,
    /// Mechanism ablation (Baseline for the real model).
    pub ablation: Ablation,
    /// Worker threads for the sharded simulation driver. The emitted
    /// datasets are byte-identical at any thread count; this knob only
    /// trades wall-clock for cores.
    pub threads: usize,
    /// Worker threads for the parallel analysis engine
    /// ([`crate::experiments::run_all`]), or `None` to inherit `threads`.
    /// Pass outputs merge in registry order, so the rendered figures and
    /// run report are byte-identical at any count.
    pub analysis_threads: Option<usize>,
    /// Whether to collect the observability [`RunReport`] (phase timers,
    /// per-shard/per-figure stats). Instrumentation is passive — it never
    /// feeds back into the simulation — so toggling it cannot change the
    /// emitted datasets (covered by a determinism test).
    ///
    /// [`RunReport`]: ipv6_study_obs::RunReport
    pub instrument: bool,
    /// What the driver does when a shard worker panics (default:
    /// [`FailurePolicy::Abort`]). See [`crate::faults`] for the
    /// isolation/retry/degradation semantics.
    pub failure_policy: FailurePolicy,
    /// Extra attempts a failed shard gets under [`FailurePolicy::Retry`]
    /// or [`FailurePolicy::Degrade`] before it counts as exhausted.
    /// Retries reproduce the exact bytes of a clean attempt (shards are
    /// pure functions of the config), so the determinism guarantee holds.
    pub max_shard_retries: u32,
    /// Deterministic fault-injection harness, off (`None`) by default.
    /// Only test and chaos configurations set this.
    pub faults: Option<FaultInjector>,
    /// Where retained streams live during the sim phase:
    /// [`StorageMode::InMemory`] (default) or [`StorageMode::Spill`],
    /// which bounds peak memory by streaming every dataset family into
    /// sorted on-disk segments. The emitted datasets are byte-identical
    /// in both modes.
    pub storage: StorageMode,
    /// Hard cap on the spill session's total on-disk bytes, `None` for
    /// unlimited. Exceeding the budget surfaces a typed
    /// `SpillError::Budget` on the offending shard; what happens next is
    /// the [`FailurePolicy`]'s call (under
    /// [`FailurePolicy::Degrade`] the shard is dropped and the run
    /// completes on the survivors — graceful degradation instead of a
    /// full disk). Requires [`StorageMode::Spill`].
    pub disk_budget_bytes: Option<u64>,
    /// How the §3.1 sampler rates are derived from the configured
    /// population (resolved once, at run time).
    pub sampling: SamplingPlan,
    /// Days simulated *past* `full_range.end` by the incremental engine
    /// (0 = the classic batch run). The base window stays the anchor for
    /// everything config-derived — shard plan, samplers, campaign
    /// placement, the calendar-anchored analysis windows — so a run at
    /// `extend_days = n` emits byte-identical rows for the base days as
    /// a run at `extend_days = 0`, which is what lets
    /// [`crate::incremental`] reuse frozen day deltas instead of
    /// re-simulating them. Only the end-relative read sets (the Figure
    /// 11 pair window, the §7.2/EC1 day pairs, Figure 1's prevalence
    /// span, and the driver's pair routing) follow the extended end; see
    /// [`ipv6_study_analysis::windows`].
    pub extend_days: u16,
}

impl StudyConfig {
    /// The default scale: large enough that every figure's shape is
    /// populated, small enough to run in seconds in release mode.
    pub fn default_scale() -> Self {
        Self::at_scale(42, 20_000)
    }

    /// A small scale for integration tests (debug-mode friendly).
    pub fn test_scale() -> Self {
        let mut cfg = Self::at_scale(42, 2_500);
        cfg.dense_range = DateRange::new(SimDate::ymd(4, 12), SimDate::ymd(4, 19));
        cfg
    }

    /// A minimal scale for doctests and smoke tests.
    pub fn tiny() -> Self {
        let mut cfg = Self::at_scale(42, 400);
        cfg.full_range = DateRange::new(SimDate::ymd(4, 6), SimDate::ymd(4, 19));
        cfg.dense_range = DateRange::new(SimDate::ymd(4, 13), SimDate::ymd(4, 19));
        cfg.campaigns = 20;
        cfg
    }

    /// A large scale for the full reproduction run (release mode).
    pub fn full_scale() -> Self {
        Self::at_scale(42, 60_000)
    }

    /// Builds a config at the given household scale with the standard
    /// windows: panel over the full study range, dense over the last two
    /// weeks (Apr 6–19), campaigns sized to ~1 per 25 households.
    pub fn at_scale(seed: u64, households: u64) -> Self {
        Self {
            seed,
            households,
            campaigns: (households / 25).max(20) as u32,
            full_range: DateRange::new(study_start(), study_end()),
            dense_range: DateRange::new(SimDate::ymd(4, 6), SimDate::ymd(4, 19)),
            prefix_lengths: STUDY_PREFIX_LENGTHS.to_vec(),
            ablation: Ablation::Baseline,
            threads: 1,
            analysis_threads: None,
            instrument: true,
            failure_policy: FailurePolicy::Abort,
            max_shard_retries: 2,
            faults: None,
            storage: StorageMode::InMemory,
            disk_budget_bytes: None,
            sampling: SamplingPlan::Scaled,
            extend_days: 0,
        }
    }

    /// The last *simulated* day: `full_range.end` plus `extend_days`.
    pub fn sim_end(&self) -> SimDate {
        self.full_range.end + self.extend_days
    }

    /// The full simulated window: the base `full_range` plus any
    /// extension days appended by the incremental engine.
    pub fn sim_range(&self) -> DateRange {
        DateRange::new(self.full_range.start, self.sim_end())
    }

    /// Whether `day` is simulated densely (all users, not just the
    /// panel). The dense window is the suffix of the base range, and
    /// extension days — which are always appended after it — stay dense:
    /// density is monotone along the timeline, so a day's rows never
    /// depend on how far the run eventually extends.
    pub fn is_dense(&self, day: SimDate) -> bool {
        self.dense_range.contains(day) || day > self.full_range.end
    }

    /// The approximate user population this config simulates — the number
    /// the sampling plan is resolved and validated against.
    pub fn approx_users(&self) -> u64 {
        ipv6_study_behavior::approx_users(self.households)
    }

    /// Validates internal consistency, reporting the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.households == 0 {
            return Err(ConfigError::NoHouseholds);
        }
        if self.dense_range.start < self.full_range.start
            || self.dense_range.end != self.full_range.end
        {
            return Err(ConfigError::DenseWindowNotSuffix {
                dense: self.dense_range,
                full: self.full_range,
            });
        }
        if usize::from(self.full_range.end.index()) + usize::from(self.extend_days) > 365 {
            return Err(ConfigError::ExtensionPastCalendar {
                extend_days: self.extend_days,
                base_end: self.full_range.end,
            });
        }
        if self.prefix_lengths.is_empty() {
            return Err(ConfigError::NoPrefixLengths);
        }
        for &l in &self.prefix_lengths {
            if l > 128 {
                return Err(ConfigError::PrefixLengthTooLong(l));
            }
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.analysis_threads == Some(0) {
            return Err(ConfigError::ZeroAnalysisThreads);
        }
        if self.max_shard_retries > MAX_SHARD_RETRIES_CAP {
            return Err(ConfigError::TooManyRetries(self.max_shard_retries));
        }
        if let StorageMode::Spill { segment_rows, .. } = &self.storage {
            if *segment_rows == 0 {
                return Err(ConfigError::ZeroSegmentRows);
            }
        }
        match self.disk_budget_bytes {
            Some(0) => return Err(ConfigError::ZeroDiskBudget),
            Some(_) if !self.storage.is_spill() => return Err(ConfigError::DiskBudgetWithoutSpill),
            _ => {}
        }
        self.sampling.validate(self.approx_users())?;
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        // Prove the network portfolio materializes: every world invariant
        // (pool sizes, deployment ratios) is checked here, so a violation
        // surfaces as a `ConfigError` instead of a panic mid-run.
        ipv6_study_netmodel::World::try_sized(self.seed, self.households)
            .map_err(|e| ConfigError::Network(e.to_string()))?;
        Ok(())
    }

    /// The analysis-engine worker count actually used: `analysis_threads`
    /// when set, the simulation `threads` otherwise.
    pub fn effective_analysis_threads(&self) -> usize {
        self.analysis_threads.unwrap_or(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        StudyConfig::default_scale().validate().unwrap();
        StudyConfig::test_scale().validate().unwrap();
        StudyConfig::tiny().validate().unwrap();
        StudyConfig::full_scale().validate().unwrap();
    }

    #[test]
    fn scales_are_ordered() {
        assert!(StudyConfig::tiny().households < StudyConfig::test_scale().households);
        assert!(StudyConfig::test_scale().households < StudyConfig::default_scale().households);
        assert!(StudyConfig::default_scale().households < StudyConfig::full_scale().households);
    }

    #[test]
    fn invalid_dense_window_rejected() {
        let mut cfg = StudyConfig::tiny();
        cfg.dense_range = DateRange::new(SimDate::ymd(2, 1), SimDate::ymd(2, 5));
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::DenseWindowNotSuffix { .. })
        ));
    }

    #[test]
    fn each_constraint_has_its_own_error() {
        let mut cfg = StudyConfig::tiny();
        cfg.households = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoHouseholds));

        let mut cfg = StudyConfig::tiny();
        cfg.prefix_lengths.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoPrefixLengths));

        let mut cfg = StudyConfig::tiny();
        cfg.prefix_lengths.push(129);
        assert_eq!(cfg.validate(), Err(ConfigError::PrefixLengthTooLong(129)));

        let mut cfg = StudyConfig::tiny();
        cfg.threads = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroThreads));

        let mut cfg = StudyConfig::tiny();
        cfg.analysis_threads = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroAnalysisThreads));

        let mut cfg = StudyConfig::tiny();
        cfg.storage = StorageMode::Spill {
            dir: None,
            segment_rows: 0,
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSegmentRows));

        let mut cfg = StudyConfig::tiny();
        cfg.storage = StorageMode::spill();
        cfg.disk_budget_bytes = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDiskBudget));

        let mut cfg = StudyConfig::tiny();
        cfg.disk_budget_bytes = Some(1 << 20);
        assert_eq!(cfg.validate(), Err(ConfigError::DiskBudgetWithoutSpill));
        cfg.storage = StorageMode::spill();
        assert_eq!(cfg.validate(), Ok(()));

        let mut cfg = StudyConfig::tiny();
        cfg.sampling = SamplingPlan::Fixed { rate: 1.5 };
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidSamplingRate(1.5)));
        cfg.sampling = SamplingPlan::Fixed { rate: 0.0 };
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidSamplingRate(0.0)));
        cfg.sampling = SamplingPlan::Fixed { rate: f64::NAN };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidSamplingRate(_))
        ));
    }

    #[test]
    fn sampling_plan_is_validated_against_the_final_population() {
        // The paper's 0.1% over the tiny preset's ~960 users expects less
        // than one sampled user: rejected.
        let mut cfg = StudyConfig::tiny();
        cfg.sampling = SamplingPlan::Paper;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::SamplingTooSparse {
                rate: 0.001,
                population: cfg.approx_users(),
            })
        );
        // The same plan at default scale (~48k users) is fine.
        let mut cfg = StudyConfig::default_scale();
        cfg.sampling = SamplingPlan::Paper;
        cfg.validate().unwrap();

        // The plan resolves against the final population, so choosing it
        // before setting the households cannot produce stale rates.
        let mut cfg = StudyConfig {
            sampling: SamplingPlan::Paper,
            ..StudyConfig::tiny()
        };
        cfg.households = 20_000;
        cfg.validate().unwrap();
        assert_eq!(cfg.sampling.resolve(cfg.approx_users()), Samplers::paper());
    }

    #[test]
    fn sampling_plan_labels_and_resolution() {
        assert_eq!(SamplingPlan::Scaled.label(), "scaled");
        assert_eq!(SamplingPlan::Paper.label(), "paper");
        assert_eq!(SamplingPlan::Fixed { rate: 0.25 }.label(), "fixed:0.25");
        assert_eq!(
            SamplingPlan::Scaled.resolve(1_000),
            Samplers::scaled_for(1_000)
        );
        let fixed = SamplingPlan::Fixed { rate: 0.25 }.resolve(1_000);
        assert_eq!(fixed.request_rate, 0.25);
        assert_eq!(fixed.user_rate, 0.25);
        assert_eq!(fixed.ip_rate, 0.25);
        assert_eq!(fixed.prefix_rate, 0.25);
    }

    #[test]
    fn analysis_threads_inherits_threads_unless_set() {
        let cfg = StudyConfig {
            threads: 4,
            ..StudyConfig::tiny()
        };
        assert_eq!(cfg.effective_analysis_threads(), 4);
        let cfg = StudyConfig {
            threads: 4,
            analysis_threads: Some(8),
            ..StudyConfig::tiny()
        };
        assert_eq!(cfg.effective_analysis_threads(), 8);
    }

    #[test]
    fn errors_render_usefully() {
        let mut cfg = StudyConfig::tiny();
        cfg.dense_range = DateRange::new(SimDate::ymd(2, 1), SimDate::ymd(2, 5));
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.contains("suffix"), "{msg}");
        assert!(ConfigError::ZeroThreads.to_string().contains("at least 1"));
    }
}
