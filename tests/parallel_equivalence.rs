//! The sharded driver's determinism contract: a study run is
//! byte-identical at any thread count, and reproducible run-to-run at the
//! same thread count. See `crates/core/src/driver.rs` for why this holds
//! by construction.

use ipv6_user_study::{Study, StudyConfig};

mod common;
use common::assert_studies_identical;

fn run_with_threads(threads: usize) -> Study {
    let mut cfg = StudyConfig::tiny();
    cfg.threads = threads;
    Study::run(cfg).expect("tiny preset is valid")
}

#[test]
fn serial_and_parallel_runs_are_identical() {
    let serial = run_with_threads(1);
    let parallel = run_with_threads(4);
    assert_eq!(serial.metrics().threads, 1);
    assert!(
        parallel.metrics().threads > 1,
        "tiny plan has enough shards for 4 workers"
    );
    assert_studies_identical(&serial, &parallel, "threads=1 vs threads=4");
}

#[test]
fn parallel_runs_are_reproducible() {
    // Two parallel runs race their shard claims differently; the merged
    // output must not notice.
    assert_studies_identical(
        &run_with_threads(4),
        &run_with_threads(4),
        "threads=4 vs threads=4",
    );
}
