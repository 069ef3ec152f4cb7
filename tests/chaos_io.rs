//! Storage-layer chaos tests: deterministic I/O fault injection through
//! the spill pipeline.
//!
//! Four contracts under test, the crash-safe storage layer's acceptance
//! criteria:
//!
//! 1. **I/O retry determinism** — transient write/read faults (including
//!    torn short writes) absorbed by op-level retries, and faulted shard
//!    attempts recovered by shard-level retries, leave the merged
//!    datasets byte-identical to a fault-free run at any thread count.
//! 2. **Typed corruption** — flipped on-disk bytes surface as
//!    [`SpillError::Corrupt`] naming the file, section, and byte offset —
//!    never as a panic — and the failed run leaves no orphan spill files.
//! 3. **Budget degradation** — a too-small `disk_budget_bytes` fails
//!    shards with a non-retryable budget fault; under
//!    `FailurePolicy::Degrade` the run completes and reports every
//!    dropped shard with `kind: "budget"`.
//! 4. **Sparse shards** — near-empty populations (zero-record families,
//!    shards that seal nothing) flow through the fallible merge unchanged.
//!
//! Every fault here is a pure function of the study seed, so each test
//! replays bit-for-bit.

use std::path::PathBuf;

use ipv6_user_study::{
    FailurePolicy, FaultInjector, FaultKind, SpillError, StorageMode, Study, StudyConfig,
    StudyError,
};

mod common;
use common::assert_studies_identical;

fn spill_config(threads: usize, segment_rows: usize) -> StudyConfig {
    let mut cfg = StudyConfig::tiny();
    cfg.threads = threads;
    cfg.storage = StorageMode::Spill {
        dir: None,
        segment_rows,
    };
    cfg
}

/// Transient write, read, and torn-write faults — all within the
/// op-level retry budget — are absorbed inside the spill layer: no shard
/// ever fails, the counters prove the faults fired, and the merged bytes
/// match a fault-free run at 1 and 8 threads.
#[test]
fn absorbed_io_faults_leave_runs_byte_identical_at_1_and_8_threads() {
    let clean = Study::run(spill_config(2, 256)).expect("fault-free spill run");
    assert!(clean.faults().is_clean());
    assert_eq!(clean.faults().io_retries, 0);

    let mut retries_by_threads = Vec::new();
    for threads in [1usize, 8] {
        let mut cfg = spill_config(threads, 256);
        cfg.instrument = true;
        cfg.faults = Some(
            FaultInjector::new()
                .with_io_write_fail_rate(0.05)
                .with_io_read_fail_rate(0.05)
                .with_short_write_rate(0.5),
        );
        let chaotic = Study::run(cfg).expect("op-level retries absorb every fault");
        assert!(
            chaotic.faults().is_clean(),
            "threads={threads}: absorbed faults must not fail shards"
        );
        assert!(
            chaotic.faults().io_retries > 0,
            "threads={threads}: the injector fired"
        );
        retries_by_threads.push(chaotic.faults().io_retries);
        assert_studies_identical(
            &clean,
            &chaotic,
            &format!("absorbed faults threads={threads}"),
        );

        // The v5 report carries the storage counters.
        let json = chaotic.report().to_json_string();
        assert!(json.contains("\"io_retries\""), "{json}");
        assert!(json.contains("\"spill_bytes_verified\""), "{json}");
    }
    // Fault decisions key off the segment stream, not the worker that
    // wrote it, so the absorbed-retry count is thread-count invariant.
    assert_eq!(retries_by_threads[0], retries_by_threads[1]);
}

/// Write faults that outlast the op-level retry budget fail the shard
/// attempt with a typed Io fault; the shard-level retry re-runs the pure
/// shard function and the recovered run stays byte-identical, with the
/// same failures at 1 and 8 threads.
///
/// The fault rate is the lowest of an ascending ladder at which a serial
/// run fails some attempt, so the test fires by construction however few
/// appends a run makes.
#[test]
fn exhausted_op_retries_fail_the_shard_and_a_shard_retry_recovers_it() {
    let clean = Study::run(spill_config(2, 256)).expect("fault-free spill run");
    let faulty = |threads: usize, rate: f64| {
        let mut cfg = spill_config(threads, 256);
        cfg.failure_policy = FailurePolicy::Retry;
        cfg.max_shard_retries = 8;
        // Each faulted op fails 16 io attempts in a row — far past the
        // op budget — so the owning shard attempt fails with Io.
        cfg.faults = Some(
            FaultInjector::new()
                .with_io_write_fail_rate(rate)
                .with_io_fail_attempts(16),
        );
        Study::run(cfg).expect("shard retries recover io-failed attempts")
    };
    let (rate, serial) = [0.001, 0.004, 0.016, 0.064, 0.256]
        .into_iter()
        .map(|rate| (rate, faulty(1, rate)))
        .find(|(_, run)| !run.faults().is_clean())
        .expect("some rate of the ladder fails a shard attempt");
    let parallel = faulty(8, rate);

    for (threads, run) in [(1, &serial), (8, &parallel)] {
        assert!(
            run.faults()
                .failures
                .iter()
                .all(|f| f.kind == FaultKind::Io && !f.dropped),
            "threads={threads}: {:?}",
            run.faults().failures
        );
        let rendered = run.faults().render();
        assert!(rendered.contains("last io:"), "{rendered}");
        assert_studies_identical(
            &clean,
            run,
            &format!("io shard retry threads={threads} rate={rate}"),
        );
    }
    // The messages name the session directory, so compare what else a
    // failure shows.
    let shown = |run: &Study| {
        run.faults()
            .failures
            .iter()
            .map(|f| (f.shard, f.attempts, f.kind, f.records_lost, f.dropped))
            .collect::<Vec<_>>()
    };
    assert_eq!(shown(&serial), shown(&parallel), "rate={rate}");
    assert_eq!(serial.faults().io_retries, parallel.faults().io_retries);
}

/// Flipped on-disk bytes are detected by the freeze's verified read and
/// surface as a typed [`SpillError::Corrupt`] naming the file, section,
/// and offset — never a panic — and the failed session leaves nothing
/// on disk (the mid-merge `StudyError` orphan check).
#[test]
fn injected_corruption_is_a_typed_error_and_leaves_no_orphans() {
    let parent = std::env::temp_dir().join(format!("ipv6-chaos-io-{}", std::process::id()));
    std::fs::create_dir_all(&parent).expect("create spill parent");

    let mut cfg = StudyConfig::tiny();
    cfg.threads = 2;
    cfg.storage = StorageMode::Spill {
        dir: Some(PathBuf::from(&parent)),
        segment_rows: 256,
    };
    // Every successfully written segment gets one byte flipped afterwards.
    cfg.faults = Some(FaultInjector::new().with_corrupt_rate(1.0));

    match Study::run(cfg) {
        Err(StudyError::Spill(e @ SpillError::Corrupt { .. })) => {
            let SpillError::Corrupt {
                ref path,
                run,
                offset,
                ref reason,
            } = e
            else {
                unreachable!()
            };
            assert!(
                path.starts_with(&parent),
                "corrupt path {path:?} outside the session"
            );
            assert!(!reason.is_empty(), "reason names what failed to verify");
            // The rendered error carries the full locator.
            let msg = e.to_string();
            assert!(msg.contains(&format!("run {run}")), "{msg}");
            assert!(msg.contains(&format!("byte offset {offset}")), "{msg}");
        }
        other => panic!("expected SpillError::Corrupt, got {other:?}"),
    }

    // The session directory is torn down with the error: only the
    // user-supplied parent remains, empty.
    let leftovers: Vec<_> = std::fs::read_dir(&parent)
        .expect("parent dir survives the failed run")
        .collect();
    assert!(leftovers.is_empty(), "orphan spill entries: {leftovers:?}");
    std::fs::remove_dir(&parent).expect("cleanup");
}

/// A too-small disk budget fails spilling shards with a budget fault.
/// The fault is non-retryable — the budget would still be exceeded — so
/// even with retries configured each shard is abandoned after one
/// attempt; under `Degrade` the run completes on whatever fit.
#[test]
fn disk_budget_exhaustion_degrades_gracefully_with_budget_kind() {
    let run = |policy: FailurePolicy| {
        let mut cfg = spill_config(1, 256);
        cfg.instrument = true;
        cfg.failure_policy = policy;
        cfg.max_shard_retries = 3;
        cfg.disk_budget_bytes = Some(4096);
        Study::run(cfg)
    };

    let degraded = run(FailurePolicy::Degrade).expect("degrade completes within the budget");
    assert!(degraded.faults().dropped_count() > 0, "the budget bit");
    for f in degraded.faults().failures.iter().filter(|f| f.dropped) {
        assert_eq!(f.kind, FaultKind::Budget);
        assert_eq!(f.attempts, 1, "budget faults never consume retries");
        assert!(f.panic_msg.contains("budget"), "{}", f.panic_msg);
    }
    // The dropped shards are visible in the v5 report, and the config
    // echo records the budget that caused them.
    let json = degraded.report().to_json_string();
    assert!(json.contains("\"kind\": \"budget\""), "{json}");
    assert!(json.contains("\"disk_budget_bytes\": 4096"), "{json}");

    // The same budget under Abort fails the run instead of degrading.
    match run(FailurePolicy::Abort) {
        Err(StudyError::ShardsFailed(report)) => {
            assert!(report
                .failures
                .iter()
                .all(|f| f.kind == FaultKind::Budget && f.attempts == 1));
        }
        other => panic!("expected ShardsFailed, got {other:?}"),
    }

    // An ample budget changes nothing: byte-identical to no budget.
    let mut roomy = spill_config(2, 256);
    roomy.disk_budget_bytes = Some(1 << 30);
    let roomy = Study::run(roomy).expect("ample budget");
    assert!(roomy.faults().is_clean());
    let unbudgeted = Study::run(spill_config(2, 256)).expect("no budget");
    assert_studies_identical(&unbudgeted, &roomy, "ample budget vs none");
}

/// Near-empty populations — where whole families spill zero records and
/// some shards seal nothing — flow through the fallible merge and still
/// match the in-memory path byte for byte.
#[test]
fn sparse_shards_with_empty_families_merge_identically() {
    let tiny_pop = |storage: StorageMode| {
        let mut cfg = StudyConfig::tiny();
        cfg.households = 3;
        cfg.threads = 4;
        cfg.storage = storage;
        Study::run(cfg).expect("sparse run")
    };
    let memory = tiny_pop(StorageMode::InMemory);
    let spilled = tiny_pop(StorageMode::Spill {
        dir: None,
        segment_rows: 64,
    });
    assert_studies_identical(&memory, &spilled, "sparse population");
    // With 3 households the run is truly sparse, but the samplers still
    // retained something — the test exercises real (if small) merges.
    assert!(memory.datasets().offered > 0);
}
