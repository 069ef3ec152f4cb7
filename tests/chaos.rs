//! Fault-injection ("chaos") tests for the driver's fault-tolerant
//! execution layer.
//!
//! Three contracts under test, all exercised through the deterministic
//! [`FaultInjector`] so CI replays every failure path bit-for-bit:
//!
//! 1. **Retry determinism** — a run whose shards panic and get retried
//!    produces byte-identical datasets to a fault-free run, at every
//!    thread count (each shard is a pure function of the config, so a
//!    retry reproduces the exact bytes the first attempt would have).
//! 2. **Graceful degradation** — under `FailurePolicy::Degrade`, an
//!    unrecoverable shard is dropped, the run completes, and the fault
//!    report (and its `faults` section in the `BENCH_run.json` document)
//!    names exactly that shard.
//! 3. **Failure policies** — `Abort` fails on the first failure without
//!    retrying; `Retry` fails only after the retry budget is exhausted.

use ipv6_user_study::{FailurePolicy, FaultInjector, Study, StudyConfig, StudyError};

mod common;
use common::assert_studies_identical;

/// The tiny preset's shard plan: 7 benign shards (indices 0..7) then 5
/// abuse shards (indices 7..12). Failing one of each flavor exercises
/// both shard kinds; the delay shuffles worker scheduling without
/// touching output.
fn chaotic_config(threads: usize) -> StudyConfig {
    let mut cfg = StudyConfig::tiny();
    cfg.threads = threads;
    cfg.failure_policy = FailurePolicy::Retry;
    cfg.max_shard_retries = 2;
    cfg.faults = Some(
        FaultInjector::new()
            .fail_shard(0, 2) // benign shard: recovers on 3rd attempt
            .fail_shard(8, 1) // abuse shard: recovers on 2nd attempt
            .delay_shard(3, 500),
    );
    cfg
}

#[test]
fn fault_injected_runs_are_byte_identical_to_fault_free() {
    let clean = Study::run(StudyConfig::tiny()).expect("fault-free run");
    assert!(clean.faults().is_clean());

    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let chaotic = Study::run(chaotic_config(threads)).expect("retries recover every shard");
        // The injector really fired: 2 + 1 retries across two shards.
        assert_eq!(
            chaotic.faults().total_retries(),
            3,
            "threads={threads}: retries"
        );
        assert_eq!(chaotic.faults().failures.len(), 2);
        assert_eq!(chaotic.faults().dropped_count(), 0);
        assert!(
            chaotic.faults().records_lost() > 0,
            "panics after one simulated day must discard partial work"
        );
        assert_studies_identical(
            &clean,
            &chaotic,
            &format!("fault-free vs chaotic threads={threads}"),
        );
        reports.push(chaotic.faults().clone());
    }
    // A shard retries in place on the worker that claimed it, and every
    // attempt is a pure function of (seed, shard, attempt): the whole
    // report — attempts, kinds, messages, records lost — is the same at
    // every thread count.
    for (threads, report) in [2, 8].into_iter().zip(&reports[1..]) {
        assert_eq!(report, &reports[0], "threads={threads} vs 1");
    }
}

#[test]
fn degrade_policy_completes_and_reports_exactly_the_dead_shard() {
    const DEAD_SHARD: usize = 11; // last abuse shard of the tiny plan
    let run = |threads: usize| {
        let mut cfg = StudyConfig::tiny();
        cfg.threads = threads;
        cfg.instrument = true;
        cfg.failure_policy = FailurePolicy::Degrade;
        cfg.max_shard_retries = 1;
        cfg.faults = Some(FaultInjector::new().always_fail_shard(DEAD_SHARD));
        Study::run(cfg).expect("degrade completes without the dead shard")
    };
    let degraded = run(2);

    // Exactly the dead shard is reported, dropped, with its full budget
    // spent (1 try + 1 retry).
    assert_eq!(degraded.faults().failures.len(), 1);
    let failure = &degraded.faults().failures[0];
    assert_eq!(failure.shard, DEAD_SHARD);
    assert!(failure.dropped);
    assert_eq!(failure.attempts, 2);
    assert!(failure.panic_msg.contains("injected fault"));
    assert_eq!(degraded.faults().dropped_count(), 1);

    // The merged output holds exactly the surviving shards' records.
    assert_eq!(degraded.metrics().shards.len(), 11, "12 planned, 1 dropped");
    let surviving: u64 = degraded.metrics().shards.iter().map(|s| s.records).sum();
    assert_eq!(degraded.datasets().offered, surviving);

    // Versus a clean run, only the dead shard's records are missing.
    let clean = Study::run(StudyConfig::tiny()).expect("fault-free run");
    let dead_records = clean.metrics().shards[DEAD_SHARD].records;
    assert!(dead_records > 0, "the dead shard does real work");
    assert_eq!(
        degraded.datasets().offered + dead_records,
        clean.datasets().offered
    );

    // The shard is listed in the faults section of the BENCH_run.json
    // document (the acceptance criterion).
    let json = degraded.report().to_json_string();
    assert!(json.contains(&format!("\"shard\": {DEAD_SHARD}")), "{json}");
    assert!(json.contains("\"dropped\": true"));
    assert!(json.contains("\"policy\": \"degrade\""));

    // Degraded runs keep the thread-count determinism contract too.
    assert_studies_identical(&degraded, &run(8), "degrade threads=2 vs 8");
}

#[test]
fn abort_policy_fails_fast_without_retrying() {
    let mut cfg = StudyConfig::tiny();
    cfg.threads = 4;
    cfg.failure_policy = FailurePolicy::Abort;
    cfg.max_shard_retries = 5; // ignored under Abort
    cfg.faults = Some(FaultInjector::new().always_fail_shard(2));
    match Study::run(cfg) {
        Err(StudyError::ShardsFailed(report)) => {
            assert_eq!(report.policy, FailurePolicy::Abort);
            assert!(report.failures.iter().any(|f| f.shard == 2));
            let failed = report.failures.iter().find(|f| f.shard == 2).unwrap();
            assert_eq!(failed.attempts, 1, "Abort never retries");
        }
        other => panic!("expected ShardsFailed, got {other:?}"),
    }
}

#[test]
fn retry_policy_fails_once_the_budget_is_exhausted() {
    let mut cfg = StudyConfig::tiny();
    cfg.threads = 2;
    cfg.failure_policy = FailurePolicy::Retry;
    cfg.max_shard_retries = 2;
    cfg.faults = Some(FaultInjector::new().always_fail_shard(5));
    match Study::run(cfg) {
        Err(StudyError::ShardsFailed(report)) => {
            let failed = report.failures.iter().find(|f| f.shard == 5).unwrap();
            assert_eq!(failed.attempts, 3, "1 try + 2 retries");
            assert!(!failed.dropped, "Retry never drops, it fails the run");
        }
        other => panic!("expected ShardsFailed, got {other:?}"),
    }
}

#[test]
fn probabilistic_chaos_is_reproducible() {
    let run = || {
        let mut cfg = StudyConfig::tiny();
        cfg.threads = 4;
        cfg.failure_policy = FailurePolicy::Retry;
        cfg.max_shard_retries = 8;
        cfg.faults = Some(FaultInjector::new().with_panic_rate(0.2));
        Study::run(cfg).expect("rate 0.2 with 8 retries recovers")
    };
    let a = run();
    let b = run();
    // The "random" chaos is a pure function of (seed, shard, attempt):
    // both runs see the same failures and produce the same bytes.
    assert_eq!(a.faults().total_retries(), b.faults().total_retries());
    assert_eq!(
        a.faults()
            .failures
            .iter()
            .map(|f| (f.shard, f.attempts))
            .collect::<Vec<_>>(),
        b.faults()
            .failures
            .iter()
            .map(|f| (f.shard, f.attempts))
            .collect::<Vec<_>>()
    );
    assert_studies_identical(&a, &b, "probabilistic chaos twice");
}
