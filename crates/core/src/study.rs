//! The simulation entry point: world + population + attacker setup, the
//! sharded driver (see [`crate::driver`]), then the one freeze.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ipv6_study_netmodel::World;
use ipv6_study_obs::{FaultStat, Json, RunReport, Span};
use ipv6_study_secapp::actioning::DayCounts;
use ipv6_study_telemetry::{
    AbuseLabels, DateRange, FamilyRuns, FrozenDatasets, FrozenStore, SimDate, SpillPolicy,
    SpillSession, SpillStats, StorageMode,
};

use crate::config::{ConfigError, StudyBuilder, StudyConfig};
use crate::driver::{self, Frozen, RunMetrics, SimInputs, Simulated};
use crate::faults::{FaultReport, StudyError, StudyOutcome};

/// A completed study run: the world, the sampled datasets, the complete
/// abusive-request store, and the labels.
///
/// All state is reached through accessor methods — the fields are crate
/// private so the storage backend (in-memory vs spill, see
/// [`StorageMode`]) can evolve without breaking consumers, and so derived
/// quantities like [`Study::user_sample_rate`] always come from the run's
/// realized counters rather than from fields a caller could desync.
#[derive(Debug)]
pub struct Study {
    /// The configuration that produced this run.
    pub(crate) config: StudyConfig,
    /// The static world.
    pub(crate) world: World,
    /// The four sampled dataset families (§3.1), frozen immutable so the
    /// parallel analysis engine can query them through `&self`.
    pub(crate) datasets: FrozenDatasets,
    /// Every abusive-account request (the complete label join).
    pub(crate) abuse_store: FrozenStore,
    /// Every request (benign and abusive) on the final four days of the
    /// window — the full-population day pairs behind the Figure 11 ROC
    /// (pooled over three consecutive day pairs, echoing the paper's
    /// "we repeat our analysis over different days"), without sampling
    /// noise.
    pub(crate) pair_store: FrozenStore,
    /// The abusive-account labels.
    pub(crate) labels: AbuseLabels,
    /// Expected user count (for extrapolation scales).
    pub(crate) approx_users: u64,
    /// Distinct benign users the sim enumerated on the first study day.
    pub(crate) users_seen: u64,
    /// How many of those the user sampler selected.
    pub(crate) users_sampled: u64,
    /// Per-phase wall-clock and per-shard throughput of this run.
    pub(crate) metrics: RunMetrics,
    /// Shard failures the run absorbed: retried-then-recovered shards,
    /// and (under [`crate::FailurePolicy::Degrade`]) dropped ones. Clean
    /// on a run with no failures.
    pub(crate) faults: FaultReport,
    /// The observability aggregate: the `run` span tree (plan, sim,
    /// merge, freeze), extended with `run/analysis` when the analyses run
    /// and with the `resume` root on a warm state-dir resume. Serialized
    /// to `BENCH_run.json` by `bench_run`. Records nothing when
    /// `config.instrument` is off.
    pub(crate) report: RunReport,
    /// Per-day aggregation-trie cache over the pair store: each of the
    /// pair window's days is folded into its [`DayCounts`] trie pair at
    /// most once, shared between the Figure 11 sweep, the §7.2 ML pair
    /// and the EC1 entropy blocklist — and carried across
    /// [`Study::extend_days`] for days still inside the sliding window.
    pub(crate) day_counts: DayCountsCache,
}

/// Interior-mutable per-day [`DayCounts`] cache (see
/// [`Study::day_counts`]). A newtype so `Study` can keep deriving
/// `Debug` without requiring it of the trie internals.
#[derive(Default)]
pub(crate) struct DayCountsCache(Mutex<BTreeMap<SimDate, Arc<DayCounts>>>);

/// The leading days of a run that are not simulated again: their runs
/// (checkpoint day files or frozen day ranges) and the counters that
/// cannot be re-derived from rows.
#[derive(Debug, Default)]
pub(crate) struct History {
    pub runs: FamilyRuns,
    /// How many leading days of `sim_range()` the runs cover.
    pub days: u16,
    pub offered: u64,
    pub users_seen: u64,
    pub users_sampled: u64,
    /// Wall spent opening the runs, reported as part of the merge phase.
    pub load_wall: Duration,
}

impl std::fmt::Debug for DayCountsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let days: Vec<SimDate> = self
            .0
            .lock()
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        f.debug_tuple("DayCountsCache").field(&days).finish()
    }
}

impl Study {
    /// Starts a fluent configuration; finish with
    /// [`StudyBuilder::run`].
    pub fn builder() -> StudyBuilder {
        StudyBuilder::new()
    }

    /// Runs the full simulation described by `config`.
    ///
    /// Results are byte-identical for a given config at any
    /// `config.threads` value *and any [`StorageMode`]*; see
    /// [`crate::driver`] for how — including runs where shards failed and
    /// were retried. Returns [`StudyError::Config`] on an invalid config
    /// (or an unusable spill directory) and [`StudyError::ShardsFailed`]
    /// when shard failures exceed what `config.failure_policy` tolerates.
    pub fn run(config: StudyConfig) -> StudyOutcome {
        config.validate()?;
        let started = Instant::now();
        let world = SimInputs::world(&config);
        Self::absorb(config, world, History::default(), started)
    }

    /// Simulates the days of `config.sim_range()` after `history`, then
    /// freezes the history's runs and the new ones in one pass — the path
    /// behind [`Study::run`], [`Study::extend_days`] and a warm
    /// [`crate::incremental::run`]. `world` must be
    /// [`SimInputs::world`] of `config`; `started` anchors the run's
    /// total wall.
    pub(crate) fn absorb(
        config: StudyConfig,
        world: World,
        history: History,
        started: Instant,
    ) -> StudyOutcome {
        let inputs = SimInputs::new(&config, &world);
        // The spill session (when configured) lives until the freeze has
        // streamed its segment files into frozen columns.
        let spill = open_spill(&config)?;
        let range = config.sim_range();
        let Simulated {
            runs,
            offered,
            users_seen,
            users_sampled,
            mut metrics,
            mut faults,
        } = if history.days < range.num_days() {
            let days = DateRange::new(range.start + history.days, range.end);
            driver::simulate(&config, &world, &inputs, spill.as_ref(), days)?
        } else {
            Simulated::nothing(&config)
        };

        // History runs hold earlier days, so they go first.
        let t_merge = Instant::now();
        let mut all = history.runs;
        all.append(runs);
        metrics.merge_wall += history.load_wall + t_merge.elapsed();

        let Frozen {
            datasets,
            abuse_store,
            pair_store,
            span: freeze,
        } = driver::freeze(all, inputs.samplers.clone(), history.offered + offered)?;
        metrics.sort_wall = freeze.wall;
        // The freeze's read passes verify every run checksum; fold the
        // final storage counters into the fault report.
        let spill_stats = spill.as_ref().map(SpillSession::stats).unwrap_or_default();
        faults.io_retries = spill_stats.io_retries;
        faults.checksum_failures = spill_stats.checksum_failures;
        // Every record now lives in frozen columns; delete the segment
        // files before the (potentially long) analysis phase.
        drop(spill);

        let labels = inputs.abuse.labels();
        let approx_users = inputs.pop.approx_users();
        metrics.total_wall = started.elapsed();
        let mut study = Self {
            config,
            world,
            datasets,
            abuse_store,
            pair_store,
            labels,
            approx_users,
            users_seen: history.users_seen + users_seen,
            users_sampled: history.users_sampled + users_sampled,
            metrics,
            faults,
            report: RunReport::default(),
            day_counts: DayCountsCache::default(),
        };
        study.report = build_report(&study, spill_stats, freeze);
        Ok(study)
    }

    /// Extends the simulated timeline by `n` days without re-simulating
    /// any day this study already covers — the incremental engine's core
    /// operation (see [`crate::incremental`] for the mechanism and the
    /// byte-equality argument).
    ///
    /// Consumes the study and returns the extended one plus what was
    /// reused vs. computed. The result is byte-identical — datasets,
    /// EXPERIMENTS.md, figure digests — to a from-scratch
    /// [`Study::run`] whose config carries the summed `extend_days`, at
    /// any thread count and either [`StorageMode`]; the equivalence
    /// suite (`tests/incremental.rs`) pins this. Errors if the extension
    /// leaves the calendar ([`ConfigError::ExtensionPastCalendar`]) or
    /// the suffix simulation fails.
    ///
    /// [`ConfigError::ExtensionPastCalendar`]: crate::config::ConfigError::ExtensionPastCalendar
    pub fn extend_days(
        self,
        n: u16,
    ) -> Result<(Study, ipv6_study_obs::IncrementalStat), StudyError> {
        crate::incremental::extend(self, n)
    }

    /// The configuration that produced this run.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The static world the run simulated.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The four sampled dataset families (§3.1), frozen immutable.
    pub fn datasets(&self) -> &FrozenDatasets {
        &self.datasets
    }

    /// Every abusive-account request (the complete label join).
    pub fn abuse_store(&self) -> &FrozenStore {
        &self.abuse_store
    }

    /// Every request on the final four days of the window (the Figure 11
    /// full-population day pairs).
    pub fn pair_store(&self) -> &FrozenStore {
        &self.pair_store
    }

    /// The abusive-account labels.
    pub fn labels(&self) -> &AbuseLabels {
        &self.labels
    }

    /// Expected user count (for extrapolation scales).
    pub fn approx_users(&self) -> u64 {
        self.approx_users
    }

    /// Per-phase wall-clock and per-shard throughput of this run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Shard failures the run absorbed (clean on a run without failures).
    pub fn faults(&self) -> &FaultReport {
        &self.faults
    }

    /// The observability aggregate for this run.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The [`DayCounts`] aggregation-trie pair for one pair-window day,
    /// built on first request and cached for the study's lifetime.
    ///
    /// `DayCounts::build` reads only raw entity keys and labels (never
    /// dense intern ids), so a cached day survives the re-encoding that
    /// [`Study::extend_days`] performs — which is why the cache can be
    /// carried across extensions for days still inside the sliding pair
    /// window instead of being rebuilt.
    pub fn day_counts(&self, day: SimDate) -> Arc<DayCounts> {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        if let Some(c) = cache.get(&day) {
            return Arc::clone(c);
        }
        let built = Arc::new(DayCounts::build(self.pair_store.on_day(day), &self.labels));
        cache.insert(day, Arc::clone(&built));
        built
    }

    /// Days currently held by the per-day trie cache (diagnostic; the
    /// incremental suite asserts carried days are not rebuilt).
    pub fn cached_day_counts(&self) -> Vec<SimDate> {
        self.day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Moves the cached per-day tries for `days` out of this study (used
    /// by [`Study::extend_days`] to carry still-valid days into the
    /// extended study while dropping days that left the pair window).
    pub(crate) fn take_day_counts(&self, days: DateRange) -> BTreeMap<SimDate, Arc<DayCounts>> {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        std::mem::take(&mut *cache)
            .into_iter()
            .filter(|&(day, _)| days.contains(day))
            .collect()
    }

    /// Seeds the per-day trie cache (the carry half of
    /// [`Study::take_day_counts`]).
    pub(crate) fn seed_day_counts(&self, seeded: BTreeMap<SimDate, Arc<DayCounts>>) {
        let mut cache = self
            .day_counts
            .0
            .lock()
            .expect("day-counts cache not poisoned");
        *cache = seeded;
    }

    /// The *realized* user-sample inclusion rate: sampled users over
    /// distinct users enumerated on the first study day. This is the rate
    /// extrapolation must divide by — on small populations the hash
    /// sampler's realized fraction differs measurably from the configured
    /// probability. Falls back to the configured rate when the run saw no
    /// users (e.g. every benign shard dropped under `Degrade`).
    pub fn user_sample_rate(&self) -> f64 {
        if self.users_seen == 0 {
            self.datasets.samplers.user_rate
        } else {
            self.users_sampled as f64 / self.users_seen as f64
        }
    }
}

/// Opens the run's spill session when `config.storage` is `Spill`. The
/// session's storage policy carries the run's disk budget and any
/// injected I/O fault plan.
fn open_spill(config: &StudyConfig) -> Result<Option<SpillSession>, StudyError> {
    match &config.storage {
        StorageMode::Spill { dir, .. } => {
            let policy = SpillPolicy {
                disk_budget_bytes: config.disk_budget_bytes,
                faults: config
                    .faults
                    .as_ref()
                    .and_then(|inj| inj.spill_fault_plan(config.seed)),
                ..SpillPolicy::default()
            };
            Ok(Some(
                SpillSession::create_with(dir.as_deref(), policy)
                    .map_err(|e| StudyError::Config(ConfigError::Storage(e.to_string())))?,
            ))
        }
        StorageMode::InMemory => Ok(None),
    }
}

/// Builds the run's [`RunReport`] from a freshly frozen study: a config
/// echo, fault and storage stats, and the `run` span tree around the
/// freeze's span. Returns an empty (disabled) report when
/// instrumentation is off.
fn build_report(study: &Study, spill: SpillStats, freeze: Span) -> RunReport {
    let (config, metrics, faults) = (&study.config, &study.metrics, &study.faults);
    let mut report = RunReport::new(config.instrument);
    report.failure_policy = faults.policy.as_str().to_string();
    if !config.instrument {
        return report;
    }
    // Batch accounting: every simulated day was computed this run. The
    // incremental paths overwrite this with their reuse split.
    report.incremental.days_computed = u64::from(config.sim_range().num_days());
    report.set_config("seed", Json::UInt(config.seed));
    report.set_config("households", Json::UInt(config.households));
    report.set_config("campaigns", Json::UInt(u64::from(config.campaigns)));
    report.set_config("threads", Json::UInt(config.threads as u64));
    report.set_config(
        "analysis_threads",
        Json::UInt(config.effective_analysis_threads() as u64),
    );
    report.set_config(
        "failure_policy",
        Json::str(faults.policy.as_str().to_string()),
    );
    report.set_config(
        "max_shard_retries",
        Json::UInt(u64::from(config.max_shard_retries)),
    );
    report.set_config("storage", Json::str(config.storage.label().to_string()));
    report.set_config(
        "segment_rows",
        Json::UInt(match &config.storage {
            StorageMode::Spill { segment_rows, .. } => *segment_rows as u64,
            StorageMode::InMemory => 0,
        }),
    );
    report.set_config(
        "disk_budget_bytes",
        Json::UInt(config.disk_budget_bytes.unwrap_or(0)),
    );
    report.set_config("sampling", Json::str(config.sampling.label()));
    report.set_config(
        "full_range",
        Json::str(format!(
            "{}..{}",
            config.full_range.start, config.full_range.end
        )),
    );
    report.set_config(
        "dense_range",
        Json::str(format!(
            "{}..{}",
            config.dense_range.start, config.dense_range.end
        )),
    );
    report.set_config("extend_days", Json::UInt(u64::from(config.extend_days)));
    report.faults = faults
        .failures
        .iter()
        .map(|f| FaultStat {
            shard: f.shard as u64,
            label: f.label.clone(),
            attempts: u64::from(f.attempts),
            retries: u64::from(f.retries()),
            dropped: f.dropped,
            records_lost: f.records_lost,
            kind: f.kind.as_str().to_string(),
            panic_msg: f.panic_msg.clone(),
        })
        .collect();
    report.io_retries = faults.io_retries;
    report.checksum_failures = faults.checksum_failures;
    report.spill_bytes_verified = spill.bytes_verified;
    report
        .spans
        .push(metrics.span(study.datasets.offered, freeze));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use ipv6_study_telemetry::time::focus_week;

    #[test]
    fn tiny_study_produces_all_datasets() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        assert!(
            study.datasets().offered > 10_000,
            "offered {}",
            study.datasets().offered
        );
        assert!(!study.datasets().user_sample.is_empty());
        assert!(!study.datasets().ip_sample.is_empty());
        assert!(!study.datasets().request_sample.is_empty());
        assert!(!study.abuse_store().is_empty());
        assert!(study.labels().len() > 50);
        // The focus week is inside the dense window, so the IP sample has
        // traffic there.
        assert!(!study.datasets().ip_sample.in_range(focus_week()).is_empty());
        // Prefix samples exist for the configured lengths.
        assert!(!study.datasets().prefix_sample(64).is_empty());
        // The pair store holds full-population traffic for the last two days.
        assert!(
            study.pair_store().len()
                > 3 * study
                    .datasets()
                    .ip_sample
                    .on_day(ipv6_study_telemetry::time::focus_day_user())
                    .len()
        );
        // Metrics cover the whole run.
        assert_eq!(study.metrics().total_records(), study.datasets().offered);
        assert!(!study.metrics().shards.is_empty());
        assert!(study.metrics().total_wall >= study.metrics().sim_wall);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = Study::run(StudyConfig::tiny()).unwrap();
        let b = Study::run(StudyConfig::tiny()).unwrap();
        assert_eq!(a.datasets().offered, b.datasets().offered);
        assert_eq!(
            a.datasets().user_sample.len(),
            b.datasets().user_sample.len()
        );
        assert_eq!(a.abuse_store().len(), b.abuse_store().len());
        assert_eq!(a.labels().len(), b.labels().len());
    }

    #[test]
    fn abusive_traffic_is_labeled() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        for rec in study.abuse_store().all().records() {
            assert!(study.labels().is_abusive(rec.user));
        }
    }

    #[test]
    fn invalid_config_is_rejected_not_panicked() {
        use crate::config::ConfigError;
        let mut cfg = StudyConfig::tiny();
        cfg.households = 0;
        let err = Study::run(cfg).unwrap_err();
        assert!(
            matches!(err, StudyError::Config(ConfigError::NoHouseholds)),
            "got {err}"
        );
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        assert!(study.faults().is_clean());
        assert_eq!(study.faults().total_retries(), 0);
        assert_eq!(study.faults().records_lost(), 0);
    }

    #[test]
    fn user_sample_rate_is_realized_not_configured() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        let realized = study.user_sample_rate();
        let configured = study.datasets().samplers.user_rate;
        // The counters actually ran: the rate is a proper fraction near
        // (but on a tiny population, not exactly) the configured one.
        assert!(realized > 0.0 && realized <= 1.0, "realized {realized}");
        assert!(
            (realized - configured).abs() < 0.15,
            "realized {realized} vs configured {configured}"
        );
        assert!(
            study.users_seen > 0 && study.users_sampled <= study.users_seen,
            "seen {} sampled {}",
            study.users_seen,
            study.users_sampled
        );
    }
}
