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

use ipv6_user_study::experiments::{experiment_ids, run_all, run_all_with};
use ipv6_user_study::obs::{stem, Json, Span};
use ipv6_user_study::{Study, StudyConfig};

mod common;
use common::assert_studies_identical;

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
    for shard in &run.get("sim").unwrap().children {
        assert_eq!(names(shard), ["emit", "route", "seal"], "{}", shard.name);
    }
    assert_eq!(
        names(run.get("freeze").unwrap()),
        ["read", "intern", "gather"]
    );
    assert_eq!(names(run.get("analysis").unwrap()), ["passes"]);
    let passes: Vec<String> = experiment_ids().map(stem).collect();
    assert_eq!(passes.len(), 20);
    assert_eq!(names(run.get("analysis/passes").unwrap()), passes);
    // Each index build sits under the first pass that reads it, once per
    // run: F10 re-uses F9's /128, /64, /72 and /68, S7.2 re-uses F7's
    // and F9's, and ApxA re-uses F5's lookback (at the tiny calendar its
    // 27-day lookback clips to the same rows).
    let builds: Vec<String> = run
        .get("analysis/passes")
        .unwrap()
        .children
        .iter()
        .filter_map(|p| Some(format!("{}: {}", p.name, names(p.get("index")?).join(" "))))
        .collect();
    assert_eq!(
        builds,
        [
            "T1: user_week",
            "F2: user_apr19",
            "F3: abuse_apr19",
            "O5.1: abuse_week",
            "F5: user_lookback",
            "F6: abuse_lookback",
            "F7: ip_apr13 ip_week",
            "F9: prefix128_week prefix72_week prefix68_week prefix64_week prefix48_week \
             prefix44_week",
            "F10: prefix60_week prefix56_week prefix52_week prefix96_week",
            "ApxA: user_feb_week",
        ]
    );
    assert_eq!(
        names(run.get("analysis/passes/F11/actioning").unwrap()),
        ["build", "read", "eval"]
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
    assert_eq!(
        paths.len(),
        1 + 1 + (13 + 36) + 1 + 4 + 1 + 21 + (10 + 19) + 4 + 4
    );
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
    // Nor does it vary with the analysis thread count: each index build
    // is filed under the same pass whichever worker built it.
    let mut parallel = again;
    let _ = run_all_with(&mut parallel, 8);
    assert_eq!(schema, parallel.report().to_json().schema_paths());
    let mut parallel_paths = Vec::new();
    node_paths(
        parallel.report().span("run").unwrap(),
        "",
        &mut parallel_paths,
    );
    assert_eq!(paths, parallel_paths, "the node set at 8 analysis threads");

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
    // Each shard emits and routes all its records, and its seals write
    // every row the freeze reads from its segments.
    for shard in &span("run/sim").children {
        let child = |name: &str| shard.get(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(child("emit").items, shard.items, "{} emit", shard.name);
        assert_eq!(child("route").items, shard.items, "{} route", shard.name);
        assert!(child("seal").bytes > 0, "{} seal bytes", shard.name);
    }
    let sealed: u64 = span("run/sim")
        .children
        .iter()
        .map(|s| s.get("seal").unwrap().items)
        .sum();
    assert_eq!(
        sealed,
        span("run/freeze/read").items,
        "rows sealed = rows frozen from emitted segments"
    );
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
    assert_eq!(span("run/freeze/read").items, rows, "rows read");
    assert_eq!(span("run/freeze/gather").items, rows, "rows gathered");
    let tables = study.abuse_store().tables();
    assert_eq!(
        span("run/freeze/intern").items,
        (tables.users.len() + tables.ips.len()) as u64,
        "distinct keys"
    );
    assert_eq!(span("run/freeze/intern").bytes, tables.bytes() as u64);
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
    let indexes: Vec<&Span> = passes
        .children
        .iter()
        .filter_map(|p| p.get("index"))
        .collect();
    for index in &indexes {
        let builds = &index.children;
        assert_eq!(index.items, builds.iter().map(|b| b.items).sum::<u64>());
        assert_eq!(index.bytes, builds.iter().map(|b| b.bytes).sum::<u64>());
        assert_eq!(index.wall, builds.iter().map(|b| b.wall).sum());
        assert!(builds.iter().all(|b| b.bytes > 0), "an index holds bytes");
    }
    assert_eq!(
        analysis.bytes,
        indexes.iter().map(|i| i.bytes).sum::<u64>(),
        "analysis bytes are the index builds' bytes"
    );
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

    assert_studies_identical(&on, &off, "instrumented vs not");
}
