//! Fault tolerance for the sharded driver: failure policies, the fault
//! report, and a seeded fault-injection harness.
//!
//! The driver (see [`crate::driver`]) isolates every shard attempt behind
//! `std::panic::catch_unwind`, so a panicking shard never kills its
//! worker or reaches the merge. What happens *next* is governed by the
//! [`FailurePolicy`]:
//!
//! - [`FailurePolicy::Abort`] — any shard failure fails the run (after
//!   in-flight shards finish their current attempt). This is the default:
//!   a deterministic simulation that panics has hit a bug, and retrying a
//!   pure function of `(seed, shard)` would reproduce the same panic.
//! - [`FailurePolicy::Retry`] — a failed shard retries in place up to
//!   `max_shard_retries` extra attempts; a shard that exhausts its
//!   retries fails the run. Because each shard is a pure function of the
//!   config, a successful retry produces the *exact bytes* the first
//!   attempt would have, so the byte-identical-at-any-thread-count
//!   guarantee survives transient (environmental or injected) faults.
//! - [`FailurePolicy::Degrade`] — shards that exhaust their retries are
//!   dropped; the run completes on the surviving shards and the
//!   [`FaultReport`] records exactly what was lost.
//!
//! Every failure path is testable in CI through the [`FaultInjector`]: a
//! deterministic harness that panics or delays chosen shard attempts,
//! keyed off `(seed, shard index, attempt)` through the workspace's
//! stable hash — no wall-clock or OS randomness anywhere, so a chaos test
//! reproduces bit-for-bit.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use ipv6_study_stats::dist::uniform01;
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::{SpillError, SpillFaultPlan};

use crate::config::ConfigError;

/// What the driver does when a shard attempt panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Fail the run on the first shard failure (the default).
    #[default]
    Abort,
    /// Retry a failed shard up to `max_shard_retries` extra attempts;
    /// fail the run if any shard exhausts them.
    Retry,
    /// Retry like [`FailurePolicy::Retry`], but drop shards that exhaust
    /// their retries and complete the run on the survivors.
    Degrade,
}

impl FailurePolicy {
    /// Stable lowercase name, used in reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            FailurePolicy::Abort => "abort",
            FailurePolicy::Retry => "retry",
            FailurePolicy::Degrade => "degrade",
        }
    }

    /// Parses a policy name as written by [`FailurePolicy::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(FailurePolicy::Abort),
            "retry" => Some(FailurePolicy::Retry),
            "degrade" => Some(FailurePolicy::Degrade),
            _ => None,
        }
    }
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a shard attempt (or the run's merge phase) failed — panics and
/// typed storage errors are reported distinctly so an environmental EIO
/// is never mistaken for a model bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The attempt panicked (a bug, or an injected panic).
    #[default]
    Panic,
    /// A spill I/O operation failed past its op-retry budget
    /// ([`SpillError::Io`]) — transient-capable, worth a shard retry.
    Io,
    /// On-disk data failed checksum/framing verification
    /// ([`SpillError::Corrupt`]) — re-running the same work cannot fix
    /// bit rot, so this never consumes retries.
    Corrupt,
    /// The session disk budget was exhausted ([`SpillError::Budget`]) —
    /// also non-retryable: the budget would still be exceeded.
    Budget,
    /// A row gave an address a second (ASN, country) pair
    /// ([`SpillError::Attributes`]) — the sim is deterministic, so a
    /// retry would give it again: never retried.
    Attributes,
}

impl FaultKind {
    /// Stable lowercase name, used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Budget => "budget",
            FaultKind::Attributes => "attributes",
        }
    }

    /// Classifies a typed storage error.
    pub fn from_spill(e: &SpillError) -> Self {
        match e {
            SpillError::Io { .. } => FaultKind::Io,
            SpillError::Corrupt { .. } => FaultKind::Corrupt,
            SpillError::Budget { .. } => FaultKind::Budget,
            SpillError::Attributes { .. } => FaultKind::Attributes,
            _ => FaultKind::Io,
        }
    }

    /// Whether a shard-level retry could plausibly clear this failure.
    /// Panics retry (the injector models transient panics); Io errors
    /// retry; corruption, budget overruns and an address's second pair
    /// do not.
    pub fn is_retryable(self) -> bool {
        matches!(self, FaultKind::Panic | FaultKind::Io)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A scripted fault for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFault {
    /// The first `fail_attempts` attempts of the shard panic
    /// (`u32::MAX` = every attempt, for unrecoverable-shard tests).
    pub fail_attempts: u32,
    /// Delay injected before each attempt's simulation, in microseconds.
    /// Delays reorder *scheduling* (which worker finishes when) without
    /// touching output bytes — exactly the nondeterminism the merge must
    /// be immune to.
    pub delay_micros: u64,
    /// How many simulated days a panicking attempt completes before it
    /// panics. Nonzero values leave partially filled shard-local buffers
    /// behind, proving the unwind discards them cleanly.
    pub panic_after_days: u16,
}

/// The injector's decision for one `(shard, attempt)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Sleep this long before starting the attempt.
    pub delay: Duration,
    /// `Some(n)`: panic after simulating `n` days (0 = before any work).
    pub panic_after_days: Option<u16>,
}

/// Deterministic fault-injection harness (off by default: the
/// `StudyConfig::faults` field is `None`).
///
/// Faults come in two flavors, both pure functions of
/// `(seed, shard, attempt)`:
///
/// - **scripted** — [`FaultInjector::fail_shard`] /
///   [`FaultInjector::delay_shard`] target explicit shard indices;
/// - **probabilistic** — [`FaultInjector::with_panic_rate`] panics each
///   attempt with probability `rate`, drawn from the stable hash of the
///   attempt key (so "random" chaos is still replayable from the seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultInjector {
    scripted: BTreeMap<usize, ShardFault>,
    /// Probability in `[0, 1]` that any given attempt panics.
    pub panic_rate: f64,
    /// Deterministic storage-layer faults, all rates zero by default; the
    /// run's seed goes in through [`FaultInjector::spill_fault_plan`].
    pub io: SpillFaultPlan,
}

impl FaultInjector {
    /// An injector that does nothing until faults are scripted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripts the first `attempts` attempts of shard `shard` to panic
    /// after one simulated day of work.
    pub fn fail_shard(mut self, shard: usize, attempts: u32) -> Self {
        let f = self.scripted.entry(shard).or_default();
        f.fail_attempts = attempts;
        if f.panic_after_days == 0 {
            f.panic_after_days = 1;
        }
        self
    }

    /// Scripts *every* attempt of shard `shard` to panic — the shard is
    /// unrecoverable under any retry budget.
    pub fn always_fail_shard(self, shard: usize) -> Self {
        self.fail_shard(shard, u32::MAX)
    }

    /// Scripts a pre-attempt delay for shard `shard` (all attempts).
    pub fn delay_shard(mut self, shard: usize, micros: u64) -> Self {
        self.scripted.entry(shard).or_default().delay_micros = micros;
        self
    }

    /// Sets the probabilistic panic rate (validated by
    /// `StudyConfig::validate` to be in `[0, 1]`).
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the transient write-failure rate for spill segment appends.
    pub fn with_io_write_fail_rate(mut self, rate: f64) -> Self {
        self.io.write_fail_rate = rate;
        self
    }

    /// Sets the transient read-failure rate for spill reads.
    pub fn with_io_read_fail_rate(mut self, rate: f64) -> Self {
        self.io.read_fail_rate = rate;
        self
    }

    /// Sets the fraction of faulted writes that tear a short prefix onto
    /// disk before failing.
    pub fn with_short_write_rate(mut self, rate: f64) -> Self {
        self.io.short_write_rate = rate;
        self
    }

    /// Sets the per-segment byte-corruption rate (caught by the
    /// read-side checks as a typed [`SpillError::Corrupt`]).
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.io.corrupt_rate = rate;
        self
    }

    /// Sets how many consecutive io attempts a faulted op fails before
    /// succeeding (default 1 — one in-place retry recovers it).
    pub fn with_io_fail_attempts(mut self, attempts: u32) -> Self {
        self.io.fail_attempts = attempts;
        self
    }

    /// True when no fault can ever fire.
    pub fn is_inert(&self) -> bool {
        self.panic_rate <= 0.0
            && self.io.is_inert()
            && self
                .scripted
                .values()
                .all(|f| f.fail_attempts == 0 && f.delay_micros == 0)
    }

    /// Validates the injector's parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for rate in [
            self.panic_rate,
            self.io.write_fail_rate,
            self.io.read_fail_rate,
            self.io.short_write_rate,
            self.io.corrupt_rate,
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(ConfigError::FaultRateOutOfRange(rate));
            }
        }
        Ok(())
    }

    /// The spill layer's deterministic fault plan for this injector, or
    /// `None` when no I/O fault can fire.
    pub fn spill_fault_plan(&self, seed: u64) -> Option<SpillFaultPlan> {
        (!self.io.is_inert()).then(|| SpillFaultPlan {
            seed,
            ..self.io.clone()
        })
    }

    /// The deterministic decision for one attempt of one shard.
    pub fn decide(&self, seed: u64, shard: usize, attempt: u32) -> FaultDecision {
        let mut d = FaultDecision::default();
        if let Some(f) = self.scripted.get(&shard) {
            d.delay = Duration::from_micros(f.delay_micros);
            if attempt < f.fail_attempts {
                d.panic_after_days = Some(f.panic_after_days);
            }
        }
        if d.panic_after_days.is_none() && self.panic_rate > 0.0 {
            let mut h = StableHasher::new(0x4641_554C); // "FAUL"
            h.write_u64(seed)
                .write_u64(shard as u64)
                .write_u64(u64::from(attempt));
            if uniform01(h.finish()) < self.panic_rate {
                d.panic_after_days = Some(1);
            }
        }
        d
    }
}

/// One shard that failed at least one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the shard in the plan (= merge) order.
    pub shard: usize,
    /// Human-readable shard description, e.g. `benign hh 0..312`.
    pub label: String,
    /// Total attempts made (first try + retries).
    pub attempts: u32,
    /// How the last failed attempt failed (panic vs typed storage error).
    pub kind: FaultKind,
    /// Panic payload or typed-error message of the last failed attempt.
    pub panic_msg: String,
    /// Whether the shard was permanently dropped (only under
    /// [`FailurePolicy::Degrade`] after exhausting retries).
    pub dropped: bool,
    /// Records the last failed attempt had emitted by its final completed
    /// day boundary — the partial progress the unwind discarded. For a
    /// recovered shard this measures wasted work, not lost data.
    pub records_lost: u64,
}

impl ShardFailure {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Everything that went wrong (and was recovered or dropped) in one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// The policy the run executed under.
    pub policy: FailurePolicy,
    /// Per-shard failures, ascending by shard index. A shard appears here
    /// iff at least one of its attempts failed — including shards that
    /// later recovered.
    pub failures: Vec<ShardFailure>,
    /// Op-level I/O retries absorbed inside the spill layer (transient
    /// write/read errors recovered without failing a shard attempt).
    pub io_retries: u64,
    /// Spill runs that failed checksum or framing verification.
    pub checksum_failures: u64,
}

impl FaultReport {
    /// True when no shard ever failed an attempt.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Shards permanently dropped from the merged output.
    pub fn dropped(&self) -> impl Iterator<Item = &ShardFailure> {
        self.failures.iter().filter(|f| f.dropped)
    }

    /// Number of permanently dropped shards.
    pub fn dropped_count(&self) -> usize {
        self.dropped().count()
    }

    /// Total retry attempts across all failed shards.
    pub fn total_retries(&self) -> u64 {
        self.failures.iter().map(|f| u64::from(f.retries())).sum()
    }

    /// Total records discarded with failed attempts (see
    /// [`ShardFailure::records_lost`]).
    pub fn records_lost(&self) -> u64 {
        self.failures.iter().map(|f| f.records_lost).sum()
    }

    /// One line per failure, for logs and stderr.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "faults ({}): {} failed shard(s), {} retries, {} dropped, {} records lost",
            self.policy,
            self.failures.len(),
            self.total_retries(),
            self.dropped_count(),
            self.records_lost(),
        );
        if self.io_retries > 0 || self.checksum_failures > 0 {
            let _ = writeln!(
                out,
                "  storage: {} io retry(ies) absorbed, {} checksum failure(s)",
                self.io_retries, self.checksum_failures,
            );
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "  shard {:3} {:<24} {} attempt(s){}  last {}: {}",
                f.shard,
                f.label,
                f.attempts,
                if f.dropped { ", DROPPED" } else { "" },
                f.kind,
                f.panic_msg,
            );
        }
        out
    }
}

/// Why a study run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Shard workers failed beyond what the [`FailurePolicy`] tolerates:
    /// any failure under `Abort`, or an exhausted-retry shard under
    /// `Retry`. The report lists every failed shard.
    ShardsFailed(FaultReport),
    /// The storage layer failed outside any single shard attempt: the
    /// freeze's read of a spilled segment, or a state-dir file or
    /// directory (a day segment, the manifest, the `days` directory).
    Spill(SpillError),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Config(e) => write!(f, "invalid configuration: {e}"),
            StudyError::ShardsFailed(r) => {
                write!(
                    f,
                    "{} shard(s) failed under the {} policy",
                    r.failures.len(),
                    r.policy
                )
            }
            StudyError::Spill(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Config(e) => Some(e),
            StudyError::ShardsFailed(_) => None,
            StudyError::Spill(e) => Some(e),
        }
    }
}

impl From<ConfigError> for StudyError {
    fn from(e: ConfigError) -> Self {
        StudyError::Config(e)
    }
}

impl From<SpillError> for StudyError {
    fn from(e: SpillError) -> Self {
        StudyError::Spill(e)
    }
}

/// The result of [`crate::Study::run`]: the completed study (which under
/// [`FailurePolicy::Degrade`] carries a non-clean `Study::faults` report)
/// or the error that stopped it.
pub type StudyOutcome = Result<crate::Study, StudyError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{Asn, Country};

    #[test]
    fn injector_decisions_are_deterministic_and_keyed() {
        let inj = FaultInjector::new()
            .fail_shard(3, 2)
            .delay_shard(5, 1_000)
            .with_panic_rate(0.25);
        for shard in 0..16usize {
            for attempt in 0..4u32 {
                assert_eq!(
                    inj.decide(42, shard, attempt),
                    inj.decide(42, shard, attempt),
                    "same key, same decision"
                );
            }
        }
        // Scripted shard 3 fails attempts 0 and 1, then recovers.
        assert!(inj.decide(42, 3, 0).panic_after_days.is_some());
        assert!(inj.decide(42, 3, 1).panic_after_days.is_some());
        assert_eq!(inj.decide(42, 3, 2).panic_after_days, None);
        // Scripted delay never panics by itself.
        let d = inj.decide(42, 5, 0);
        assert_eq!(d.delay, Duration::from_micros(1_000));
        // The probabilistic rate is seed-sensitive: across many keys, some
        // panic and some do not.
        let fired: usize = (0..64usize)
            .filter(|&s| inj.decide(42, s, 0).panic_after_days.is_some())
            .count();
        assert!(fired > 0 && fired < 64, "rate 0.25 fired {fired}/64");
    }

    #[test]
    fn inert_and_validation() {
        assert!(FaultInjector::new().is_inert());
        assert!(!FaultInjector::new().fail_shard(0, 1).is_inert());
        assert!(!FaultInjector::new().with_panic_rate(0.1).is_inert());
        assert!(FaultInjector::new().with_panic_rate(0.5).validate().is_ok());
        assert!(matches!(
            FaultInjector::new().with_panic_rate(1.5).validate(),
            Err(ConfigError::FaultRateOutOfRange(_))
        ));
        assert!(matches!(
            FaultInjector::new().with_panic_rate(f64::NAN).validate(),
            Err(ConfigError::FaultRateOutOfRange(_))
        ));
    }

    #[test]
    fn fault_kinds_classify_spill_errors_and_gate_retries() {
        let io = SpillError::Io {
            path: "seg".into(),
            op: ipv6_study_telemetry::IoOp::Write,
            kind: std::io::ErrorKind::Interrupted,
            detail: "injected".into(),
        };
        let corrupt = SpillError::Corrupt {
            path: "seg".into(),
            run: 0,
            offset: 20,
            reason: "checksum mismatch".into(),
        };
        let budget = SpillError::Budget {
            budget_bytes: 100,
            attempted_bytes: 120,
        };
        assert_eq!(FaultKind::from_spill(&io), FaultKind::Io);
        assert_eq!(FaultKind::from_spill(&corrupt), FaultKind::Corrupt);
        assert_eq!(FaultKind::from_spill(&budget), FaultKind::Budget);
        let attributes = SpillError::Attributes {
            ip: "10.0.0.1".parse().unwrap(),
            first: (Asn(64496), Country::new("US")),
            then: (Asn(64497), Country::new("US")),
        };
        assert_eq!(FaultKind::from_spill(&attributes), FaultKind::Attributes);
        assert!(FaultKind::Panic.is_retryable());
        assert!(FaultKind::Io.is_retryable());
        assert!(!FaultKind::Corrupt.is_retryable());
        assert!(!FaultKind::Budget.is_retryable());
        assert!(!FaultKind::Attributes.is_retryable());
        assert_eq!(FaultKind::Attributes.to_string(), "attributes");
        assert_eq!(FaultKind::Corrupt.to_string(), "corrupt");
        // Spill errors lift into StudyError with a source chain.
        let e = StudyError::from(corrupt);
        assert!(e
            .to_string()
            .starts_with("storage failure: corrupt data in"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_faults_feed_the_spill_plan() {
        let inj = FaultInjector::new()
            .with_io_write_fail_rate(0.05)
            .with_short_write_rate(0.5)
            .with_io_fail_attempts(2);
        assert!(!inj.is_inert());
        assert!(inj.validate().is_ok());
        let plan = inj.spill_fault_plan(42).expect("io faults configured");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.write_fail_rate, 0.05);
        assert_eq!(plan.fail_attempts, 2);
        // No io faults -> no plan, and bad rates fail validation.
        assert!(FaultInjector::new().spill_fault_plan(42).is_none());
        assert!(matches!(
            FaultInjector::new().with_corrupt_rate(2.0).validate(),
            Err(ConfigError::FaultRateOutOfRange(_))
        ));
    }

    #[test]
    fn report_aggregates() {
        let report = FaultReport {
            policy: FailurePolicy::Degrade,
            failures: vec![
                ShardFailure {
                    shard: 2,
                    label: "benign hh 128..192".into(),
                    attempts: 3,
                    kind: FaultKind::Panic,
                    panic_msg: "injected".into(),
                    dropped: true,
                    records_lost: 120,
                },
                ShardFailure {
                    shard: 7,
                    label: "abuse camp 0..4".into(),
                    attempts: 2,
                    kind: FaultKind::Io,
                    panic_msg: "injected".into(),
                    dropped: false,
                    records_lost: 40,
                },
            ],
            io_retries: 5,
            checksum_failures: 1,
        };
        assert!(!report.is_clean());
        assert_eq!(report.dropped_count(), 1);
        assert_eq!(report.total_retries(), 3);
        assert_eq!(report.records_lost(), 160);
        let text = report.render();
        assert!(text.contains("DROPPED"));
        assert!(text.contains("benign hh 128..192"));
        assert!(text.contains("storage: 5 io retry(ies) absorbed, 1 checksum failure(s)"));
        assert!(text.contains("last panic:"));
        assert!(text.contains("last io:"));
    }

    #[test]
    fn policy_round_trips_through_names() {
        for p in [
            FailurePolicy::Abort,
            FailurePolicy::Retry,
            FailurePolicy::Degrade,
        ] {
            assert_eq!(FailurePolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(FailurePolicy::parse("nope"), None);
    }

    #[test]
    fn study_error_wraps_config_errors() {
        let e: StudyError = ConfigError::NoHouseholds.into();
        assert!(matches!(e, StudyError::Config(ConfigError::NoHouseholds)));
        assert!(e.to_string().contains("households"));
        let e = StudyError::ShardsFailed(FaultReport::default());
        assert!(e.to_string().contains("policy"));
    }
}
