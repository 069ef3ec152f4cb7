//! The analysis engine's determinism contract: the full experiment
//! registry renders byte-identical output at any `analysis_threads`
//! count and matches the pre-engine serial output pinned by a golden
//! digest, and every shared index window groups its rows exactly as
//! hash-map grouping does, in the grouping its family's index holds.
//!
//! See `crates/core/src/experiments.rs` for why this holds by
//! construction (registry-indexed result slots, merge in registry order).

use std::collections::HashMap;
use std::hash::Hash;

use ipv6_user_study::analysis::windows::lookback_window;
use ipv6_user_study::experiments::{run_all_with, AnalysisCtx};
use ipv6_user_study::report::{render_markdown, render_summary};
use ipv6_user_study::stats::hash::stable_hash64;
use ipv6_user_study::telemetry::time::{focus_day_ip, focus_day_user, focus_week};
use ipv6_user_study::telemetry::{ColumnSlice, RequestRecord};
use ipv6_user_study::{Study, StudyConfig};

/// `stable_hash64("ANEQ", markdown)` of the tiny-scale serial
/// `render_markdown` output, pinned from the serial engine before the
/// parallel rewrite. Any change to what the analyses compute — not just
/// how fast — moves this digest. Last repinned for the out-of-core PR:
/// `Study::user_sample_rate` switched from the configured probability to
/// the realized sampler-counter rate (it feeds the extrapolated o62
/// scale), and the rendered preamble now names the relocated `repro`
/// binary.
const GOLDEN_TINY_MARKDOWN_DIGEST: u64 = 0x8bca_6eb1_5de8_2ac9;

const DIGEST_SEED: u64 = 0x414E_4551; // "ANEQ"

fn tiny_study() -> Study {
    Study::run(StudyConfig::tiny()).expect("tiny preset is valid")
}

/// Renders the registry output at `threads` analysis workers.
fn rendered(threads: usize) -> (String, String) {
    let mut study = tiny_study();
    let results = run_all_with(&mut study, threads);
    (render_markdown(&results), render_summary(&results))
}

#[test]
fn parallel_engine_matches_serial_at_every_thread_count() {
    let (serial_md, serial_summary) = rendered(1);
    for threads in [2usize, 8] {
        let (md, summary) = rendered(threads);
        assert_eq!(
            serial_md, md,
            "markdown differs at analysis_threads={threads}"
        );
        assert_eq!(
            serial_summary, summary,
            "summary differs at analysis_threads={threads}"
        );
    }
}

/// The hash-grouping oracle: each row's `value`, bucketed by its `key`
/// in window order, buckets in ascending key order.
fn hash_groups<K: Ord + Hash + Copy, V>(
    rows: &[RequestRecord],
    key: impl Fn(&RequestRecord) -> K,
    value: impl Fn(&RequestRecord) -> V,
) -> Vec<(K, Vec<V>)> {
    let mut groups: HashMap<K, Vec<V>> = HashMap::new();
    for r in rows {
        groups.entry(key(r)).or_default().push(value(r));
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|&(k, _)| k);
    groups
}

/// Every shared window of the tiny study groups its rows exactly as the
/// hash-grouping oracle does, in the one grouping its family's index
/// holds: user windows by user, with each row's timestamp and address;
/// address windows by address, with each row's user. Keys ascend, and
/// each group's rows keep window order.
#[test]
fn naive_grouping_matches_the_sorted_index_path() {
    let study = tiny_study();
    let ctx = AnalysisCtx::new(&study);
    let d = study.datasets();
    let lookback = lookback_window(focus_day_user());
    let by_user = [
        (
            "user_week",
            ctx.user_week(),
            d.user_sample.in_range(focus_week()),
        ),
        (
            "user_day",
            ctx.user_day(),
            d.user_sample.on_day(focus_day_user()),
        ),
        (
            "user_lookback",
            ctx.user_lookback(),
            d.user_sample.in_range(lookback),
        ),
        (
            "abuse_week",
            ctx.abuse_week(),
            study.abuse_store().in_range(focus_week()),
        ),
    ];
    let rows_of = |window: ColumnSlice<'_>| window.records().collect::<Vec<_>>();
    for (name, index, window) in by_user {
        let rows = rows_of(window);
        assert!(!rows.is_empty(), "{name}: the window holds rows");
        let ips = &index.tables().ips;
        let groups: Vec<_> = index
            .user_groups()
            .map(|(u, g)| {
                let addrs = g.ip_ids().iter().map(|&id| ips.addr(id));
                (u, g.ts().iter().copied().zip(addrs).collect::<Vec<_>>())
            })
            .collect();
        let oracle = hash_groups(&rows, |r| r.user, |r| (r.ts, r.ip));
        assert_eq!(groups, oracle, "{name}: user groups");
    }
    let by_address = [
        ("ip_day", ctx.ip_day(), d.ip_sample.on_day(focus_day_ip())),
        ("ip_week", ctx.ip_week(), d.ip_sample.in_range(focus_week())),
    ];
    for (name, index, window) in by_address {
        let rows = rows_of(window);
        assert!(!rows.is_empty(), "{name}: the window holds rows");
        let users = &index.tables().users;
        let groups: Vec<_> = index
            .ip_groups()
            .map(|(ip, g)| (ip, g.users_dense().iter().map(|&u| users.user(u)).collect()))
            .collect();
        let oracle = hash_groups(&rows, |r| r.ip, |r| r.user);
        assert_eq!(groups, oracle, "{name}: address groups");
    }
}

#[test]
fn repeated_runs_produce_the_same_digest() {
    let digest = |md: &str| stable_hash64(DIGEST_SEED, md.as_bytes());
    let (a, _) = rendered(8);
    let (b, _) = rendered(8);
    assert_eq!(digest(&a), digest(&b), "same config, different output");
}

#[test]
fn serial_output_matches_the_pinned_golden_digest() {
    let (md, _) = rendered(1);
    let digest = stable_hash64(DIGEST_SEED, md.as_bytes());
    assert_eq!(
        digest, GOLDEN_TINY_MARKDOWN_DIGEST,
        "tiny-scale analysis output drifted from the pinned pre-engine \
         golden (update the constant only for intentional analysis changes)"
    );
}

/// The columnar-core contract: the interned struct-of-arrays engine must
/// reproduce the row-oriented serial output bit for bit — the pinned
/// pre-columnar golden digest — at both ends of the thread range. A
/// drifting intern order (dense ids not isomorphic to entity order)
/// or a lossy column round-trip shows up here first.
#[test]
fn columnar_engine_matches_the_row_golden_at_1_and_8_threads() {
    for threads in [1usize, 8] {
        let (md, _) = rendered(threads);
        let digest = stable_hash64(DIGEST_SEED, md.as_bytes());
        assert_eq!(
            digest, GOLDEN_TINY_MARKDOWN_DIGEST,
            "columnar output drifted from the row-store golden at \
             analysis_threads={threads}"
        );
    }
}
