//! The out-of-core pipeline's equivalence contract: a spill-mode run is
//! byte-identical to an in-memory run of the same config — at any thread
//! count, any segment size, and across mid-run shard failures.
//!
//! Why this holds: each shard's segments keep emission order whether
//! they sit in memory or in its spill file, the merge concatenates the
//! shards' segment lists in plan order, and the freeze stable-sorts each
//! family's plan-order concatenation by timestamp in both modes, so only
//! the split into segments differs. Entity tables are order-independent (ranked key sets), so
//! dense ids — and therefore every frozen column byte — agree too.

use std::path::PathBuf;

use ipv6_user_study::experiments::run_all;
use ipv6_user_study::report::render_markdown;
use ipv6_user_study::{
    FailurePolicy, FaultInjector, StorageMode, Study, StudyConfig, DEFAULT_SEGMENT_ROWS,
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

#[test]
fn spill_runs_match_memory_runs_through_the_full_analysis_at_1_and_8_threads() {
    let memory = Study::run(StudyConfig::tiny()).expect("in-memory run");
    for threads in [1usize, 8] {
        let mut cfg = spill_config(threads, DEFAULT_SEGMENT_ROWS);
        cfg.analysis_threads = Some(threads);
        let mut spilled = Study::run(cfg).expect("spill run");
        assert_studies_identical(&memory, &spilled, &format!("threads={threads}"));
        assert!(
            spilled.metrics().peak_store_bytes > 0,
            "the gauge actually measured the sim phase"
        );
        // The whole experiment registry — every table and figure —
        // renders the same bytes over the spill-built columns.
        let md = render_markdown(&run_all(&mut spilled));
        let mut memory_again = Study::run({
            let mut c = StudyConfig::tiny();
            c.analysis_threads = Some(threads);
            c
        })
        .expect("in-memory rerun");
        let memory_md = render_markdown(&run_all(&mut memory_again));
        assert_eq!(md, memory_md, "threads={threads}: markdown differs");
    }
}

/// Segment-boundary property: the merged output cannot depend on where
/// segment boundaries fall — tiny segments (many seals per shard), the
/// default, and `usize::MAX` (one whole-shard segment, never a mid-shard
/// seal) all produce the same bytes.
#[test]
fn digest_is_invariant_under_segment_row_boundaries() {
    let memory = Study::run(StudyConfig::tiny()).expect("in-memory run");
    for segment_rows in [64usize, DEFAULT_SEGMENT_ROWS, usize::MAX] {
        let spilled = Study::run(spill_config(2, segment_rows)).expect("spill run");
        assert_studies_identical(&memory, &spilled, &format!("segment_rows={segment_rows}"));
    }
}

/// A shard attempt that panics mid-run (with segments already spilled)
/// must leave nothing behind: the retry's output replaces it exactly and
/// the attempt's segment files are deleted, so the explicit parent
/// directory is empty once the study completes.
#[test]
fn mid_segment_panic_retry_leaves_no_orphan_spill_files() {
    let parent = std::env::temp_dir().join(format!("ipv6-spill-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&parent).expect("create spill parent");

    let clean = Study::run(StudyConfig::tiny()).expect("fault-free run");
    let mut cfg = StudyConfig::tiny();
    cfg.threads = 2;
    cfg.failure_policy = FailurePolicy::Retry;
    cfg.max_shard_retries = 2;
    // Small segments so the failing attempts have already spilled files
    // when the injected panic fires (shard 0 fails twice, shard 8 once).
    cfg.storage = StorageMode::Spill {
        dir: Some(PathBuf::from(&parent)),
        segment_rows: 64,
    };
    cfg.faults = Some(
        FaultInjector::new()
            .fail_shard(0, 2)
            .fail_shard(8, 1)
            .delay_shard(3, 500),
    );
    let chaotic = Study::run(cfg).expect("retries recover every shard");
    assert_eq!(chaotic.faults().total_retries(), 3, "the injector fired");
    assert_studies_identical(&clean, &chaotic, "chaotic spill run");

    // The session directory (and with it every segment file, including
    // any a failed attempt wrote) is gone; only the user-supplied parent
    // remains, empty.
    let leftovers: Vec<_> = std::fs::read_dir(&parent)
        .expect("parent dir survives the run")
        .collect();
    assert!(leftovers.is_empty(), "orphan spill entries: {leftovers:?}");
    std::fs::remove_dir(&parent).expect("cleanup");
}

/// An unusable spill directory is a config-style error, reported before
/// any simulation work starts — not a mid-run panic.
#[test]
fn unusable_spill_dir_is_rejected_as_config_error() {
    let mut cfg = StudyConfig::tiny();
    // A file, not a directory: session creation must fail cleanly.
    let bogus = std::env::temp_dir().join(format!("ipv6-spill-bogus-{}", std::process::id()));
    std::fs::write(&bogus, b"not a directory").expect("create blocker file");
    cfg.storage = StorageMode::Spill {
        dir: Some(bogus.clone()),
        segment_rows: DEFAULT_SEGMENT_ROWS,
    };
    let err = Study::run(cfg).expect_err("file as spill parent");
    assert!(
        matches!(err, ipv6_user_study::StudyError::Config(_)),
        "got {err}"
    );
    std::fs::remove_file(&bogus).expect("cleanup");
}
