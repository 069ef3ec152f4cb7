//! The incremental engine's correctness bar (DESIGN.md §14): extending a
//! study day-over-day is **byte-identical** to a from-scratch run of the
//! longer range — datasets, EXPERIMENTS.md, console summary — at any
//! thread count and either storage mode; and a `--state-dir` checkpoint
//! resumes to the same bytes while re-running only the passes whose read
//! windows cover the new days.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};
use std::time::Duration;

use ipv6_user_study::experiments::run_all;
use ipv6_user_study::stats::hash::StableHasher;
use ipv6_user_study::stats::TestGen;
use ipv6_user_study::telemetry::{ColumnSlice, IoOp, IpTable, UserTable};
use ipv6_user_study::{
    incremental, report, ConfigError, SpillError, StorageMode, Study, StudyConfig, StudyError,
};

/// Order-sensitive digest of a record sequence.
fn digest(records: ColumnSlice<'_>) -> u64 {
    let mut h = StableHasher::new(0x494E_4331); // "INC1"
    for r in records.records() {
        h.write_u64(u64::from(r.ts.secs()))
            .write_u64(r.user.raw())
            .write_u64(r.ip_key())
            .write_u64(u64::from(r.asn.0));
    }
    h.finish()
}

/// Asserts every store and counter of two studies is byte-identical.
fn assert_studies_identical(a: &Study, b: &Study, what: &str) {
    assert_eq!(
        a.datasets().offered,
        b.datasets().offered,
        "{what}: offered"
    );
    assert_eq!(
        digest(a.datasets().request_sample.all()),
        digest(b.datasets().request_sample.all()),
        "{what}: request sample"
    );
    assert_eq!(
        digest(a.datasets().user_sample.all()),
        digest(b.datasets().user_sample.all()),
        "{what}: user sample"
    );
    assert_eq!(
        digest(a.datasets().ip_sample.all()),
        digest(b.datasets().ip_sample.all()),
        "{what}: ip sample"
    );
    let lengths = a.config().prefix_lengths.clone();
    assert_eq!(lengths, b.config().prefix_lengths);
    for &l in &lengths {
        assert_eq!(
            digest(a.datasets().prefix_sample(l).all()),
            digest(b.datasets().prefix_sample(l).all()),
            "{what}: prefix /{l}"
        );
    }
    assert_eq!(
        digest(a.abuse_store().all()),
        digest(b.abuse_store().all()),
        "{what}: abuse store"
    );
    assert_eq!(
        digest(a.pair_store().all()),
        digest(b.pair_store().all()),
        "{what}: pair store"
    );
    assert_eq!(
        a.user_sample_rate(),
        b.user_sample_rate(),
        "{what}: realized sample rate"
    );
}

/// Runs both registries and asserts the rendered documents match too.
fn assert_documents_identical(a: &mut Study, b: &mut Study, what: &str) {
    let ra = run_all(a);
    let rb = run_all(b);
    assert_eq!(
        report::render_markdown(&ra),
        report::render_markdown(&rb),
        "{what}: EXPERIMENTS.md"
    );
    assert_eq!(
        report::render_summary(&ra),
        report::render_summary(&rb),
        "{what}: summary"
    );
}

/// Satellite: the intern tables are order-isomorphic under key-set
/// growth — keys present before an extension keep their relative dense-id
/// order after new keys arrive. This is the property that lets cached
/// per-day structures and merged indexes survive the union re-encode.
#[test]
fn intern_tables_are_order_isomorphic_under_growth() {
    let mut g = TestGen::new(0x4953_4F4D); // "ISOM"
    for trial in 0..20 {
        let n_old = g.range_u64(1, 300) as usize;
        let n_new = g.range_u64(1, 300) as usize;
        let old_keys = g.vec_of(n_old, |g| g.next_u64());
        let mut all_keys = old_keys.clone();
        all_keys.extend(g.vec_of(n_new, |g| g.next_u64()));

        let small = UserTable::from_keys(old_keys.clone());
        let big = UserTable::from_keys(all_keys);
        // Walk the small table in dense order; the same users must appear
        // in strictly increasing dense order in the big table.
        let mut prev = None;
        for dense in 0..small.len() as u32 {
            let user = small.user(dense);
            let in_big = big.dense_of(user);
            assert_eq!(big.user(in_big), user, "trial {trial}: key survives");
            if let Some(p) = prev {
                assert!(
                    in_big > p,
                    "trial {trial}: dense order not preserved ({in_big} after {p})"
                );
            }
            prev = Some(in_big);
        }
        // Same property for the address table, both families. Dense ids
        // are per-family ascending-key positions, so walking the old keys
        // in sorted order must yield increasing indexes in the big table.
        let old_v4 = g.vec_of(n_old, |g| g.next_u64() as u32);
        let old_v6 = g.vec_of(n_old, |g| g.next_u128());
        let mut all_v4 = old_v4.clone();
        let mut all_v6 = old_v6.clone();
        all_v4.extend(g.vec_of(n_new, |g| g.next_u64() as u32));
        all_v6.extend(g.vec_of(n_new, |g| g.next_u128()));
        let small = IpTable::from_keys(old_v4.clone(), old_v6.clone());
        let big = IpTable::from_keys(all_v4, all_v6);
        let mut sorted_v4 = old_v4;
        sorted_v4.sort_unstable();
        sorted_v4.dedup();
        let mut prev = None;
        for &raw in &sorted_v4 {
            let addr = IpAddr::V4(Ipv4Addr::from(raw));
            assert_eq!(small.addr(small.id_of(addr)), addr, "trial {trial}");
            let in_big = big.id_of(addr);
            assert!(!in_big.is_v6(), "trial {trial}: family preserved");
            if let Some(p) = prev {
                assert!(in_big.index() > p, "trial {trial}: v4 order not preserved");
            }
            prev = Some(in_big.index());
        }
        let mut sorted_v6 = old_v6;
        sorted_v6.sort_unstable();
        sorted_v6.dedup();
        let mut prev = None;
        for &raw in &sorted_v6 {
            let addr = IpAddr::V6(Ipv6Addr::from(raw));
            assert_eq!(small.addr(small.id_of(addr)), addr, "trial {trial}");
            let in_big = big.id_of(addr);
            assert!(in_big.is_v6(), "trial {trial}: family preserved");
            if let Some(p) = prev {
                assert!(in_big.index() > p, "trial {trial}: v6 order not preserved");
            }
            prev = Some(in_big.index());
        }
    }
}

#[test]
fn extend_by_one_day_matches_scratch_in_memory() {
    let base = Study::run(StudyConfig::tiny()).expect("tiny preset is valid");
    let old_days = u64::from(base.config().sim_range().num_days());
    let (mut extended, stats) = base.extend_days(1).expect("one day fits the calendar");
    assert_eq!(stats.days_reused, old_days);
    assert_eq!(stats.days_computed, 1);
    assert_eq!(
        extended.report().incremental,
        stats,
        "report carries the reuse split"
    );

    let mut scratch_cfg = StudyConfig::tiny();
    scratch_cfg.extend_days = 1;
    let mut scratch = Study::run(scratch_cfg).expect("extended tiny is valid");
    assert_studies_identical(&extended, &scratch, "extend(1) vs scratch");
    assert_documents_identical(&mut extended, &mut scratch, "extend(1) vs scratch");
}

#[test]
fn extend_matches_scratch_across_thread_counts_and_spill() {
    // The extension runs serial+spill; the scratch run is parallel and
    // in-memory with a different analysis worker count — the bytes must
    // not care.
    let mut base_cfg = StudyConfig::tiny();
    base_cfg.threads = 1;
    base_cfg.analysis_threads = Some(1);
    base_cfg.storage = StorageMode::Spill {
        dir: None,
        segment_rows: 512,
    };
    let base = Study::run(base_cfg).expect("spill tiny is valid");
    let (mut extended, stats) = base.extend_days(2).expect("two days fit the calendar");
    assert_eq!(stats.days_computed, 2);

    let mut scratch_cfg = StudyConfig::tiny();
    scratch_cfg.threads = 4;
    scratch_cfg.analysis_threads = Some(8);
    scratch_cfg.extend_days = 2;
    let mut scratch = Study::run(scratch_cfg).expect("extended tiny is valid");
    assert_studies_identical(&extended, &scratch, "spill extend vs memory scratch");
    assert_documents_identical(
        &mut extended,
        &mut scratch,
        "spill extend vs memory scratch",
    );
}

#[test]
fn extend_zero_days_is_identity() {
    let base = Study::run(StudyConfig::tiny()).expect("tiny preset is valid");
    let before = digest(base.datasets().request_sample.all());
    let (extended, stats) = base.extend_days(0).expect("no-op extension");
    assert_eq!(stats.days_computed, 0);
    assert_eq!(
        stats.days_reused,
        u64::from(extended.config().sim_range().num_days())
    );
    assert_eq!(digest(extended.datasets().request_sample.all()), before);
}

#[test]
fn extension_past_calendar_is_rejected() {
    let base = Study::run(StudyConfig::tiny()).expect("tiny preset is valid");
    let err = base.extend_days(400).expect_err("past the calendar");
    assert!(
        matches!(
            err,
            StudyError::Config(ConfigError::ExtensionPastCalendar { .. })
        ),
        "got {err}"
    );
}

#[test]
fn day_count_tries_are_carried_across_extension() {
    let mut base = Study::run(StudyConfig::tiny()).expect("tiny preset is valid");
    let _ = run_all(&mut base); // populates the per-day trie cache
    let cached_before = base.cached_day_counts();
    assert!(
        !cached_before.is_empty(),
        "run_all builds pair-window tries"
    );
    let old_end = base.config().sim_end();
    let (extended, _) = base.extend_days(1).expect("one day fits");
    let carried = extended.cached_day_counts();
    // The pair window slid by one day: every carried day is an old cached
    // day still inside the new window, and at least one day survives.
    assert!(!carried.is_empty(), "overlap days are carried, not rebuilt");
    for day in &carried {
        assert!(cached_before.contains(day), "carried day was cached before");
        assert!(*day <= old_end, "carried days predate the extension");
    }
    assert!(
        carried.len() < cached_before.len() || cached_before.len() == 1,
        "days that left the sliding window are dropped"
    );
}

/// A scoped temp dir that cleans up on drop (tests must not leak state
/// dirs into the shared temp root).
struct ScopedDir(PathBuf);

impl ScopedDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ipv6-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        Self(dir)
    }
}

impl Drop for ScopedDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn state_dir_roundtrip_reuses_days_and_matches_scratch() {
    let state = ScopedDir::new("roundtrip");
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;

    // Cold start: everything computed, checkpoint written.
    let cold = incremental::run(cfg.clone(), &state.0).expect("cold run");
    let all_days = u64::from(cold.study.config().sim_range().num_days());
    assert_eq!(cold.stats.days_reused, 0);
    assert_eq!(cold.stats.days_computed, all_days);
    assert!(
        state.0.join("manifest.json").exists(),
        "commit point exists"
    );

    // Warm resume, one day further: exactly one day simulated.
    let mut ext_cfg = cfg.clone();
    ext_cfg.extend_days = 1;
    let warm = incremental::run(ext_cfg.clone(), &state.0).expect("warm extend");
    assert_eq!(warm.stats.days_reused, all_days);
    assert_eq!(warm.stats.days_computed, 1);
    assert_eq!(
        warm.study.report().incremental,
        warm.stats,
        "v7 report carries the split"
    );

    // The spliced documents are byte-identical to a from-scratch run of
    // the extended range.
    let mut scratch = Study::run(ext_cfg.clone()).expect("scratch extended run");
    assert_studies_identical(&warm.study, &scratch, "warm resume vs scratch");
    let rs = run_all(&mut scratch);
    assert_eq!(
        warm.markdown,
        report::render_markdown(&rs),
        "spliced EXPERIMENTS.md == scratch"
    );
    assert_eq!(
        warm.summary,
        report::render_summary(&rs),
        "spliced summary == scratch"
    );

    // Re-running the same extension is a pure cache hit: no days computed.
    let again = incremental::run(ext_cfg, &state.0).expect("repeat run");
    assert_eq!(again.stats.days_computed, 0);
    assert_eq!(again.stats.days_reused, all_days + 1);
    assert_eq!(again.markdown, warm.markdown, "cache-hit markdown stable");
}

/// An instrumented warm +1-day resume reports every step it takes: the
/// four `resume` steps, with the checkpoint save inside the resume wall,
/// and the passes it re-ran under `run/analysis/passes`.
#[test]
fn warm_resume_report_times_every_step_and_the_rerun_passes() {
    let state = ScopedDir::new("resume-report");
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;
    incremental::run(cfg.clone(), &state.0).expect("cold run");
    let mut ext_cfg = cfg;
    ext_cfg.extend_days = 1;
    let warm = incremental::run(ext_cfg.clone(), &state.0).expect("warm extend");
    let report = warm.study.report();

    let resume = report
        .span("resume")
        .expect("a warm resume reports its steps");
    let steps: Vec<&str> = resume.children.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(steps, ["load", "extend", "render", "checkpoint"]);
    for step in &resume.children {
        assert!(
            step.wall > Duration::ZERO,
            "resume/{} has no wall",
            step.name
        );
    }
    assert_eq!(
        resume.wall, warm.stats.extend_wall,
        "the resume wall is the extend wall, checkpoint save included"
    );
    assert!(resume.children.iter().map(|s| s.wall).sum::<Duration>() <= resume.wall);

    let passes = report
        .span("run/analysis/passes")
        .expect("the re-run passes are recorded");
    let ids: Vec<&str> = passes.children.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(ids, ["F1", "F11", "S7.2"]);

    // The freeze covers the whole history; the sim only the new day.
    let scratch = Study::run(ext_cfg).expect("scratch extended run");
    let items = |study: &Study, path: &str| {
        study
            .report()
            .span(path)
            .unwrap_or_else(|| panic!("no {path}"))
            .items
    };
    assert_eq!(
        items(&warm.study, "run/freeze"),
        items(&scratch, "run/freeze")
    );
    assert!(items(&warm.study, "run/sim") < items(&scratch, "run/sim"));
}

#[test]
fn state_dir_rejects_mismatched_config_and_backward_runs() {
    let state = ScopedDir::new("mismatch");
    let cfg = StudyConfig::tiny();
    let _ = incremental::run(cfg.clone(), &state.0).expect("cold run");

    // A different seed is a different study: refuse to mix.
    let mut other = cfg.clone();
    other.seed ^= 1;
    let err = incremental::run(other, &state.0).expect_err("seed mismatch");
    assert!(
        matches!(err, StudyError::Config(ConfigError::Storage(ref msg)) if msg.contains("different configuration")),
        "got {err}"
    );

    // Extend forward, then ask for the shorter range again: refused.
    let mut ext = cfg.clone();
    ext.extend_days = 2;
    let _ = incremental::run(ext, &state.0).expect("extend to 2");
    let err = incremental::run(cfg.clone(), &state.0).expect_err("backward request");
    assert!(
        matches!(err, StudyError::Config(ConfigError::Storage(ref msg)) if msg.contains("forward")),
        "got {err}"
    );

    // A manifest of another checkpoint schema is refused by number, not
    // mistaken for a different configuration.
    let manifest = state.0.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    assert!(text.contains("\"checkpoint_schema\": 2"), "{text}");
    let old = text.replace("\"checkpoint_schema\": 2", "\"checkpoint_schema\": 1");
    std::fs::write(&manifest, old).expect("rewrite manifest");
    let err = incremental::run(cfg, &state.0).expect_err("schema 1");
    assert!(
        matches!(err, StudyError::Config(ConfigError::Storage(ref msg))
            if msg.contains("checkpoint_schema 1")
                && msg.contains("checkpoint_schema 2")
                && !msg.contains("different configuration")),
        "got {err}"
    );
}

/// Every file under `dir` with its length, sorted.
fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).expect("read state dir") {
            let path = entry.expect("state dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let len = std::fs::metadata(&path).expect("stat").len();
                files.push((path, len));
            }
        }
    }
    files.sort();
    files
}

/// A damaged day file fails the resume with a typed storage error naming
/// the file, and nothing is written to the state dir. A truncated or
/// missing file fails as the history's day files are opened, before any
/// day is simulated; a flipped row byte keeps the file's length and
/// fails the freeze's checksum check.
#[test]
fn damaged_state_dir_fails_the_resume_with_a_typed_error() {
    let state = ScopedDir::new("damaged");
    let cfg = StudyConfig::tiny();
    let _ = incremental::run(cfg.clone(), &state.0).expect("cold run");
    let mut warm = cfg;
    warm.extend_days = 1;
    let seg = state.0.join("days").join("day096").join("user.seg");

    // One bit flipped past the 20-byte frame header: same length, bad
    // checksum.
    let mut bytes = std::fs::read(&seg).expect("day 96 has a user file");
    let _ = TestGen::new(0x464C_4950).flip_byte(&mut bytes, 20); // "FLIP"
    std::fs::write(&seg, &bytes).expect("rewrite user.seg");
    let before = listing(&state.0);
    match incremental::run(warm.clone(), &state.0).map(drop) {
        Err(StudyError::Spill(SpillError::Corrupt { path, .. })) => assert_eq!(path, seg),
        other => panic!("expected Corrupt naming {}, got {other:?}", seg.display()),
    }
    assert_eq!(listing(&state.0), before, "a failed resume writes nothing");

    // Truncated to 100 bytes: the header no longer matches the file.
    let len = bytes.len();
    assert!(len > 100, "user.seg holds {len} bytes");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .and_then(|f| f.set_len(100))
        .expect("truncate user.seg");
    let before = listing(&state.0);
    match incremental::run(warm.clone(), &state.0).map(drop) {
        Err(StudyError::Spill(SpillError::Corrupt { path, .. })) => assert_eq!(path, seg),
        other => panic!("expected Corrupt naming {}, got {other:?}", seg.display()),
    }
    assert_eq!(listing(&state.0), before, "a failed resume writes nothing");

    // Deleted: opening the day file fails.
    std::fs::remove_file(&seg).expect("delete user.seg");
    let before = listing(&state.0);
    match incremental::run(warm, &state.0).map(drop) {
        Err(StudyError::Spill(SpillError::Io {
            path,
            op: IoOp::Open,
            kind: std::io::ErrorKind::NotFound,
            ..
        })) => assert_eq!(path, seg),
        other => panic!("expected a NotFound open error, got {other:?}"),
    }
    assert_eq!(listing(&state.0), before, "a failed resume writes nothing");
}
