//! The observability layer's contracts:
//!
//! 1. **One span tree** — an instrumented run reports every layer as a
//!    node of the `run` tree, each addressable by one `/`-separated path
//!    in `BENCH_run.json` and carrying `wall_secs`, `items`, `bytes` and
//!    `items_per_sec`; the document's field set is stable run to run
//!    (timing values vary, the paths do not) and never contains
//!    `Infinity` or `NaN`.
//! 2. **Passivity** — instrumentation cannot perturb the simulation:
//!    runs with instrumentation on and off yield byte-identical
//!    datasets.

use ipv6_user_study::experiments::{experiment_ids, run_all};
use ipv6_user_study::obs::{stem, Json, Span};
use ipv6_user_study::stats::hash::StableHasher;
use ipv6_user_study::telemetry::ColumnSlice;
use ipv6_user_study::{Study, StudyConfig};

/// An instrumented tiny batch run at one sim and one analysis thread, so
/// every parent's wall bounds its children's.
fn instrumented_tiny_run() -> Study {
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;
    cfg.threads = 1;
    cfg.analysis_threads = Some(1);
    let mut study = Study::run(cfg).expect("tiny preset is valid");
    let _ = run_all(&mut study);
    study
}

/// The non-span sections of `BENCH_run.json`, as schema paths.
const REQUIRED_PATHS: &[&str] = &[
    "$.schema_version",
    "$.enabled",
    "$.config.seed",
    "$.config.households",
    "$.config.campaigns",
    "$.config.threads",
    "$.config.analysis_threads",
    "$.config.failure_policy",
    "$.config.max_shard_retries",
    "$.config.storage",
    "$.config.segment_rows",
    "$.config.disk_budget_bytes",
    "$.config.sampling",
    "$.config.full_range",
    "$.config.dense_range",
    "$.config.extend_days",
    "$.faults.policy",
    "$.faults.failed_shards[]",
    "$.faults.retries_total",
    "$.faults.dropped_shards",
    "$.faults.records_lost",
    "$.faults.io_retries",
    "$.faults.checksum_failures",
    "$.spill_bytes_verified",
    "$.incremental.days_reused",
    "$.incremental.days_computed",
    "$.incremental.extend_wall_secs",
];

/// The per-shard fault fields, present whenever a shard failed (pinned by
/// a fault-injected run below; a clean run's `failed_shards` is empty).
const FAULT_SHARD_PATHS: &[&str] = &[
    "$.faults.failed_shards[].shard",
    "$.faults.failed_shards[].label",
    "$.faults.failed_shards[].attempts",
    "$.faults.failed_shards[].retries",
    "$.faults.failed_shards[].dropped",
    "$.faults.failed_shards[].records_lost",
    "$.faults.failed_shards[].kind",
    "$.faults.failed_shards[].panic_msg",
];

/// The value at a `/`-separated path of a parsed document.
fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('/').try_fold(doc, |node, key| node.get(key))
}

fn names(span: &Span) -> Vec<&str> {
    span.children.iter().map(|c| c.name.as_str()).collect()
}

/// Every node path of a span tree, depth first.
fn node_paths(span: &Span, prefix: &str, out: &mut Vec<String>) {
    let path = if prefix.is_empty() {
        span.name.clone()
    } else {
        format!("{prefix}/{}", span.name)
    };
    for child in &span.children {
        node_paths(child, &path, out);
    }
    out.push(path);
}

/// Asserts every serial node's children fit inside its own wall.
fn assert_children_fit(span: &Span, path: &str) {
    let sum: std::time::Duration = span.children.iter().map(|c| c.wall).sum();
    assert!(
        sum <= span.wall,
        "{path}: children sum to {sum:?} > own wall {:?}",
        span.wall
    );
    for child in &span.children {
        assert_children_fit(child, &format!("{path}/{}", child.name));
    }
}

#[test]
fn bench_report_schema_is_stable_and_finite() {
    let study = instrumented_tiny_run();
    let report = study.report();
    let root_names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(root_names, ["run"], "a batch run has one root");
    let run = report.span("run").expect("run root");

    // Every node of the tree, by name.
    assert_eq!(names(run), ["plan", "sim", "merge", "freeze", "analysis"]);
    let shards: Vec<String> = (0..12).map(|i| format!("shard[{i}]")).collect();
    assert_eq!(
        names(run.get("sim").unwrap()),
        shards,
        "12 shards, plan order"
    );
    assert_eq!(names(run.get("freeze").unwrap()), ["intern", "merge"]);
    assert_eq!(names(run.get("analysis").unwrap()), ["index", "passes"]);
    assert_eq!(
        names(run.get("analysis/index").unwrap()),
        [
            "user_week",
            "user_day",
            "user_lookback",
            "ip_day",
            "ip_week",
            "abuse_week"
        ]
    );
    let passes: Vec<String> = experiment_ids().map(stem).collect();
    assert_eq!(passes.len(), 20);
    assert_eq!(names(run.get("analysis/passes").unwrap()), passes);
    assert_eq!(
        names(run.get("analysis/passes/F11/actioning").unwrap()),
        ["build", "read"]
    );
    assert_eq!(
        names(run.get("analysis/passes/F11/actioning/read").unwrap()),
        ["-128", "-64", "-56", "IPv4"],
        "one read per granularity"
    );

    // Each node serializes its four numbers under its path.
    let text = study.report().to_json_string();
    let doc = Json::parse(&text).expect("the report parses");
    let mut paths = Vec::new();
    node_paths(run, "", &mut paths);
    assert_eq!(paths.len(), 1 + 1 + 13 + 1 + 3 + 1 + 7 + 21 + 3 + 4);
    for path in &paths {
        for field in ["wall_secs", "items", "bytes", "items_per_sec"] {
            let leaf = format!("{path}/{field}");
            assert!(
                matches!(at(&doc, &leaf), Some(Json::UInt(_) | Json::Num(_))),
                "no number at {leaf}"
            );
        }
    }
    let schema = doc.schema_paths();
    for required in REQUIRED_PATHS {
        assert!(
            schema.iter().any(|p| p == required),
            "missing {required} in schema: {schema:#?}"
        );
    }
    assert_eq!(at(&doc, "schema_version"), Some(&Json::UInt(8)));

    // Serial children fit inside their parents.
    assert_children_fit(run, "run");

    // Values vary run to run; the field set must not.
    let again = instrumented_tiny_run();
    assert_eq!(
        schema,
        again.report().to_json().schema_paths(),
        "report schema differs between identical runs"
    );

    // The acceptance contract: no Infinity/NaN anywhere in the document.
    assert!(!text.contains("Infinity"), "report contains Infinity");
    assert!(!text.contains("NaN"), "report contains NaN");
    assert!(!text.contains("null"), "a number was not finite");
}

#[test]
fn faulty_run_pins_the_per_shard_fault_schema() {
    let mut cfg = StudyConfig::tiny();
    cfg.instrument = true;
    cfg.failure_policy = ipv6_user_study::FailurePolicy::Retry;
    cfg.faults = Some(ipv6_user_study::FaultInjector::default().fail_shard(0, 1));
    let study = Study::run(cfg).expect("one retry recovers the shard");
    assert_eq!(study.faults().total_retries(), 1);
    let paths = study.report().to_json().schema_paths();
    for required in FAULT_SHARD_PATHS {
        assert!(
            paths.iter().any(|p| p == required),
            "missing {required} in schema: {paths:#?}"
        );
    }
    let text = study.report().to_json_string();
    assert!(text.contains("\"policy\":"), "faults section names policy");
    assert!(!text.contains("Infinity") && !text.contains("NaN"));
}

#[test]
fn report_covers_every_experiment_and_all_sim_records() {
    let study = instrumented_tiny_run();
    let report = study.report();
    let span = |path: &str| report.span(path).unwrap_or_else(|| panic!("no {path}"));
    let metrics = study.metrics();

    assert_eq!(
        span("run/sim").items,
        metrics.total_records(),
        "shard spans must account for every simulated record"
    );
    let shard_sum: u64 = span("run/sim").children.iter().map(|s| s.items).sum();
    assert_eq!(shard_sum, metrics.total_records());
    assert_eq!(span("run/sim").bytes, metrics.peak_store_bytes);
    assert_eq!(span("run/sim").wall, metrics.sim_wall);
    assert_eq!(span("run/plan").wall, metrics.plan_wall);
    assert_eq!(span("run/merge").wall, metrics.merge_wall);
    assert_eq!(span("run").items, study.datasets().offered);
    assert_eq!(
        span("run").wall,
        metrics.total_wall + span("run/analysis").wall,
        "the run wall covers the simulation and the analysis"
    );

    let freeze = span("run/freeze");
    assert_eq!(freeze.wall, metrics.sort_wall);
    let rows = study.datasets().retained()
        + study.abuse_store().len() as u64
        + study.pair_store().len() as u64;
    assert_eq!(freeze.items, rows, "rows frozen");
    let tables = study.abuse_store().tables();
    assert_eq!(
        span("run/freeze/intern").items,
        (tables.users.len() + tables.ips.len()) as u64,
        "distinct keys"
    );
    let store_bytes = study.datasets().bytes()
        + study.abuse_store().bytes()
        + study.pair_store().bytes()
        + tables.bytes();
    assert_eq!(freeze.bytes, store_bytes as u64);

    let analysis = span("run/analysis");
    let passes = span("run/analysis/passes");
    assert!(passes.children.iter().any(|p| p.items > 0));
    assert_eq!(
        analysis.items,
        passes.children.iter().map(|p| p.items).sum::<u64>(),
        "analysis items are the passes' input records"
    );
    let index = span("run/analysis/index");
    assert_eq!(
        index.items,
        index.children.iter().map(|w| w.items).sum::<u64>()
    );
    assert!(index.children.iter().all(|w| w.items > 0 && w.bytes > 0));
    assert_eq!(analysis.bytes, index.bytes, "index bytes");
    assert_eq!(
        span("run/analysis/passes/F11/actioning/build").items,
        4,
        "one aggregation-trie pair per pooled day"
    );
    let read = span("run/analysis/passes/F11/actioning/read");
    assert!(read.children.iter().all(|cut| cut.items > 0));
    assert_eq!(
        read.items,
        read.children.iter().map(|c| c.items).sum::<u64>()
    );
    assert_eq!(report.incremental.days_computed, 14);
}

#[test]
fn calling_run_all_twice_leaves_one_analysis_subtree() {
    let mut study = instrumented_tiny_run();
    let _ = run_all(&mut study);
    let run = study.report().span("run").expect("run root");
    assert_eq!(names(run), ["plan", "sim", "merge", "freeze", "analysis"]);
    assert_eq!(
        run.get("analysis/passes").map(|p| p.children.len()),
        Some(20)
    );
    assert_eq!(
        run.wall,
        study.metrics().total_wall + run.get("analysis").unwrap().wall,
        "the run wall counts the latest analysis once"
    );
}

/// Order-sensitive digest of a record sequence.
fn digest(records: ColumnSlice<'_>) -> u64 {
    let mut h = StableHasher::new(0x4f42_5331); // "OBS1"
    for r in records.records() {
        h.write_u64(u64::from(r.ts.secs()))
            .write_u64(r.user.raw())
            .write_u64(r.ip_key())
            .write_u64(u64::from(r.asn.0));
    }
    h.finish()
}

#[test]
fn instrumentation_leaves_datasets_byte_identical() {
    let run = |instrument: bool| {
        let mut cfg = StudyConfig::tiny();
        cfg.instrument = instrument;
        Study::run(cfg).expect("tiny preset is valid")
    };
    let on = run(true);
    let off = run(false);
    assert!(on.report().enabled);
    assert!(!off.report().enabled);
    assert!(
        off.report().spans.is_empty(),
        "a disabled report records no spans"
    );

    assert_eq!(on.datasets().offered, off.datasets().offered);
    assert_eq!(
        on.datasets().user_sample.all(),
        off.datasets().user_sample.all()
    );
    assert_eq!(
        digest(on.datasets().request_sample.all()),
        digest(off.datasets().request_sample.all())
    );
    assert_eq!(
        digest(on.datasets().ip_sample.all()),
        digest(off.datasets().ip_sample.all())
    );
    assert_eq!(
        digest(on.abuse_store().all()),
        digest(off.abuse_store().all())
    );
    assert_eq!(
        digest(on.pair_store().all()),
        digest(off.pair_store().all())
    );
    let lengths = on.config().prefix_lengths.clone();
    for &l in &lengths {
        assert_eq!(
            digest(on.datasets().prefix_sample(l).all()),
            digest(off.datasets().prefix_sample(l).all()),
            "prefix /{l} digest"
        );
    }
}
