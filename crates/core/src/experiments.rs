//! The experiment registry: one function per table/figure in the paper.
//!
//! Every function takes an [`AnalysisCtx`] — a completed [`Study`] plus the
//! shared per-window [`DatasetIndex`]es built once for all passes — and
//! returns an [`ExperimentOutput`] — figures (plottable series), tables, and
//! named scalar statistics. The scalar statistics are the quantities the
//! paper quotes in prose (e.g. "95% of IPv6 addresses had a single user");
//! the `repro` binary compares them against [`crate::paper`]'s reference
//! values to build EXPERIMENTS.md.
//!
//! [`run_all`] executes the registry on a deterministic worker pool (the
//! analysis mirror of [`crate::driver`]'s shard pool): workers claim passes
//! from a shared cursor, results land in per-pass slots, and outputs merge
//! in registry order — so the rendered figures and stats are
//! byte-identical at any `analysis_threads` count, and the run report's
//! `run/analysis` span lists its passes in registry order.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ipv6_study_analysis::characterize::{
    asn_low_v6_shares, asn_ratio_table, client_patterns, country_ratio_table, prevalence_series,
};
use ipv6_study_analysis::ip_centric::{
    abuse_per_ip, abuse_per_prefix, users_per_ip, users_per_prefix, users_per_v4_addr,
};
use ipv6_study_analysis::outliers::{
    heavy_ip_asn_concentration, heavy_prefix_asn_concentration, outlier_user_prevalence_ratio,
    signature_predictability, tail_stats,
};
use ipv6_study_analysis::similarity::most_similar;
use ipv6_study_analysis::user_centric::{
    address_lifespans, addrs_per_user, prefix_lifespans, prefixes_per_user,
};
use ipv6_study_analysis::windows;
use ipv6_study_analysis::{CdfSeries, DatasetIndex, FigureReport, IndexMode, TableReport};
use ipv6_study_obs::Span;
use ipv6_study_secapp::actioning::{
    actioning_roc_between, operating_points, DayCounts, Granularity,
};
use ipv6_study_secapp::blocklist::{evaluate_over_days, Blocklist};
use ipv6_study_secapp::mlfeatures::{training_set, LogisticModel};
use ipv6_study_secapp::ratelimit::recommend_threshold;
use ipv6_study_secapp::signatures::HeavyAddressPredictor;
use ipv6_study_secapp::threat_exchange::{half_life, value_decay};
use ipv6_study_stats::Ecdf;
use ipv6_study_telemetry::kernels::{mask_from, scratch_reset};
use ipv6_study_telemetry::time::{focus_day_ip, focus_day_user, focus_week};
use ipv6_study_telemetry::{ColumnSlice, SimDate, UserId};

use crate::study::Study;

/// The shared, immutable input of every experiment: the study plus the
/// [`DatasetIndex`]es of the windows most passes group over, built lazily
/// and shared so parallel passes re-use them instead of re-grouping per
/// pass.
///
/// The shared windows cover the focus day/week of the user and IP
/// samples, the 28-day lifespan lookback, and the abuse store's focus
/// week; passes with one-off windows build them through
/// [`AnalysisCtx::index`] (which honors the configured [`IndexMode`]).
///
/// Each shared window lives in a [`OnceLock`] and is built on first
/// access: a full [`run_all`] forces all six up front (so the
/// `run/analysis/index` span holds the whole index cost), while the
/// incremental engine's [`run_selected`] re-run of a few invalidated
/// passes only pays for the windows those passes actually touch — this
/// is what "no re-indexing of prior days" means in practice, since the
/// anchored windows' outputs are carried forward instead of rebuilt.
pub struct AnalysisCtx<'a> {
    /// The completed study this analysis reads.
    pub study: &'a Study,
    mode: IndexMode,
    user_week: OnceLock<DatasetIndex>,
    user_day: OnceLock<DatasetIndex>,
    user_lookback: OnceLock<DatasetIndex>,
    ip_day: OnceLock<DatasetIndex>,
    ip_week: OnceLock<DatasetIndex>,
    abuse_week: OnceLock<DatasetIndex>,
}

impl<'a> AnalysisCtx<'a> {
    /// Wraps a study with the production grouping mode.
    pub fn new(study: &'a Study) -> Self {
        Self::with_mode(study, IndexMode::Sorted)
    }

    /// Wraps a study with an explicit grouping mode (the naive path
    /// exists for the equivalence suite). Windows build on first access.
    pub fn with_mode(study: &'a Study, mode: IndexMode) -> Self {
        Self {
            study,
            mode,
            user_week: OnceLock::new(),
            user_day: OnceLock::new(),
            user_lookback: OnceLock::new(),
            ip_day: OnceLock::new(),
            ip_week: OnceLock::new(),
            abuse_week: OnceLock::new(),
        }
    }

    /// The user sample over the Apr 13–19 focus week.
    pub fn user_week(&self) -> &DatasetIndex {
        self.user_week
            .get_or_init(|| self.index(self.study.datasets.user_sample.in_range(focus_week())))
    }

    /// The user sample on the Apr 19 focus day.
    pub fn user_day(&self) -> &DatasetIndex {
        self.user_day
            .get_or_init(|| self.index(self.study.datasets.user_sample.on_day(focus_day_user())))
    }

    /// The user sample over the 28-day lifespan lookback behind Apr 19.
    pub fn user_lookback(&self) -> &DatasetIndex {
        self.user_lookback.get_or_init(|| {
            let lookback = windows::lookback_window(focus_day_user());
            self.index(self.study.datasets.user_sample.in_range(lookback))
        })
    }

    /// The IP sample on the Apr 13 focus day.
    pub fn ip_day(&self) -> &DatasetIndex {
        self.ip_day
            .get_or_init(|| self.index(self.study.datasets.ip_sample.on_day(focus_day_ip())))
    }

    /// The IP sample over the focus week.
    pub fn ip_week(&self) -> &DatasetIndex {
        self.ip_week
            .get_or_init(|| self.index(self.study.datasets.ip_sample.in_range(focus_week())))
    }

    /// The abuse stream over the focus week.
    pub fn abuse_week(&self) -> &DatasetIndex {
        self.abuse_week
            .get_or_init(|| self.index(self.study.abuse_store.in_range(focus_week())))
    }

    /// Forces every shared window, so a full registry run pays the whole
    /// index cost inside its `index` span (not attributed to whichever
    /// pass happens to touch a window first). Returns that span: one
    /// child per window, items = indexed records, bytes = index bytes.
    pub fn build_all(&self) -> Span {
        let t0 = Instant::now();
        let windows: [(&str, Window<'a>); 6] = [
            ("user_week", Self::user_week),
            ("user_day", Self::user_day),
            ("user_lookback", Self::user_lookback),
            ("ip_day", Self::ip_day),
            ("ip_week", Self::ip_week),
            ("abuse_week", Self::abuse_week),
        ];
        let children: Vec<Span> = windows
            .into_iter()
            .map(|(name, window)| {
                let t = Instant::now();
                let index = window(self);
                Span::new(name, t.elapsed())
                    .with_items(index.len() as u64)
                    .with_bytes(index.bytes() as u64)
            })
            .collect();
        Span {
            items: children.iter().map(|c| c.items).sum(),
            bytes: children.iter().map(|c| c.bytes).sum(),
            children,
            ..Span::new("index", t0.elapsed())
        }
    }

    /// Indexes a one-off window with this context's grouping mode.
    pub fn index(&self, records: ColumnSlice<'_>) -> DatasetIndex {
        DatasetIndex::with_mode(records, self.mode)
    }

    fn built(&self) -> impl Iterator<Item = &DatasetIndex> {
        [
            self.user_week.get(),
            self.user_day.get(),
            self.user_lookback.get(),
            self.ip_day.get(),
            self.ip_week.get(),
            self.abuse_week.get(),
        ]
        .into_iter()
        .flatten()
    }

    /// How many of the six shared windows have been built — the
    /// incremental suite asserts a selected re-run builds only what its
    /// passes read.
    pub fn windows_built(&self) -> usize {
        self.built().count()
    }

    /// Total heap bytes across the built shared windows (the
    /// `run/analysis` span's bytes).
    fn index_bytes(&self) -> usize {
        self.built().map(DatasetIndex::bytes).sum()
    }
}

/// One shared-window accessor of [`AnalysisCtx`].
type Window<'a> = for<'c> fn(&'c AnalysisCtx<'a>) -> &'c DatasetIndex;

/// The output of one experiment.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Figures regenerated.
    pub figures: Vec<FigureReport>,
    /// Tables regenerated.
    pub tables: Vec<TableReport>,
    /// Named scalar findings, for paper-vs-measured comparison.
    pub stats: Vec<(String, f64)>,
    /// Input cardinality: how many records this experiment read across
    /// its dataset slices (the items of its span in the run report).
    pub input_records: u64,
    /// Sub-steps the experiment timed itself (Figure 11's `actioning`
    /// build and reads), nested under its pass span in the run report.
    pub spans: Vec<Span>,
}

impl ExperimentOutput {
    fn stat(&mut self, name: &str, value: f64) {
        self.stats.push((name.to_string(), value));
    }

    /// Accumulates input cardinality (call once per dataset slice read).
    fn record_input(&mut self, records: usize) {
        self.input_records += records as u64;
    }

    /// Looks up a scalar statistic by name.
    pub fn get_stat(&self, name: &str) -> Option<f64> {
        self.stats.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Figure 1 — daily IPv6 share of users and of requests.
pub fn fig1_prevalence(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let range = study.config.sim_range();
    let user = study.datasets.user_sample.in_range(range);
    let req = study.datasets.request_sample.in_range(range);
    let pts = prevalence_series(user, req, range);
    let mut out = ExperimentOutput::default();
    out.record_input(user.len() + req.len());
    let fig = FigureReport::new("Figure 1", "daily IPv6 proportion of users and requests")
        .with(CdfSeries::from_u64(
            "users",
            pts.iter().map(|p| (u64::from(p.day.index()), p.user_share)),
        ))
        .with(CdfSeries::from_u64(
            "requests",
            pts.iter()
                .map(|p| (u64::from(p.day.index()), p.request_share)),
        ));
    out.figures.push(fig);

    let mean = |f: &dyn Fn(&ipv6_study_analysis::characterize::PrevalencePoint) -> f64,
                lo: SimDate,
                hi: SimDate| {
        let sel: Vec<f64> = pts
            .iter()
            .filter(|p| p.day >= lo && p.day <= hi)
            .map(f)
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let early_end = range.start + 13;
    let late_start = range.end - 13;
    out.stat(
        "fig1.user_share_mean",
        mean(&|p| p.user_share, range.start, range.end),
    );
    out.stat(
        "fig1.request_share_mean",
        mean(&|p| p.request_share, range.start, range.end),
    );
    out.stat(
        "fig1.user_share_lockdown_delta",
        mean(&|p| p.user_share, late_start, range.end)
            - mean(&|p| p.user_share, range.start, early_end),
    );
    out.stat(
        "fig1.request_share_lockdown_delta",
        mean(&|p| p.request_share, late_start, range.end)
            - mean(&|p| p.request_share, range.start, early_end),
    );
    // Weekend effect: mean over weekends minus weekdays (pre-lockdown part).
    let pre = SimDate::ymd(3, 7);
    let (mut we, mut wd) = (Vec::new(), Vec::new());
    for p in pts.iter().filter(|p| p.day <= pre) {
        if p.day.is_weekend() {
            we.push(p.user_share);
        } else {
            wd.push(p.user_share);
        }
    }
    out.stat(
        "fig1.weekend_user_share_delta",
        we.iter().sum::<f64>() / we.len().max(1) as f64
            - wd.iter().sum::<f64>() / wd.len().max(1) as f64,
    );
    out
}

/// Table 1 — top ASNs by IPv6 user ratio (plus §4.2's low-deployment tail).
pub fn tab1_asns(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let recs = study.datasets.user_sample.in_range(focus_week());
    // The paper requires ≥1k users per ASN, i.e. ~0.04% of its 2.6M
    // sampled users; scale that floor to our sampled-user count. The
    // distinct-user table is memoized on the shared focus-week index.
    let distinct_users = ctx.user_week().distinct_users().len();
    let min_users = ((distinct_users as f64) * 0.004).ceil().max(12.0) as u64;
    let rows = asn_ratio_table(recs, min_users);
    let mut out = ExperimentOutput::default();
    out.record_input(recs.len());
    let mut table = TableReport::new(
        "Table 1",
        format!("top ASNs by IPv6 user ratio (≥{min_users} sampled users)"),
        &["Rank", "ASN", "Name", "Kind", "Country", "Users", "Ratio"],
    );
    for (i, row) in rows.iter().take(10).enumerate() {
        let net = study.world.find_by_asn(row.key);
        table.push_row(vec![
            (i + 1).to_string(),
            row.key.to_string(),
            net.map_or("?".into(), |n| n.name.clone()),
            net.map_or("?".into(), |n| n.kind.to_string()),
            net.map_or("?".into(), |n| n.country.to_string()),
            row.users.to_string(),
            format!("{:.2}", row.ratio),
        ]);
    }
    out.tables.push(table);
    let (zero, low) = asn_low_v6_shares(&rows);
    out.stat("tab1.top_ratio", rows.first().map_or(0.0, |r| r.ratio));
    out.stat("tab1.rank10_ratio", rows.get(9).map_or(0.0, |r| r.ratio));
    out.stat("tab1.zero_v6_share", zero);
    out.stat("tab1.low_v6_share", low);
    out
}

/// Table 2 + Figure 12 — top countries by IPv6 user ratio, Jan vs Apr.
pub fn tab2_countries(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let jan = windows::comparison_week_jan();
    let jan_recs = study.datasets.user_sample.in_range(jan);
    let apr_recs = study.datasets.user_sample.in_range(focus_week());
    let distinct_users = ctx.user_week().distinct_users().len();
    let min_users = ((distinct_users as f64) * 0.004).ceil().max(12.0) as u64;
    let jan_rows = country_ratio_table(jan_recs, min_users);
    let apr_rows = country_ratio_table(apr_recs, min_users);

    let mut out = ExperimentOutput::default();
    out.record_input(jan_recs.len() + apr_recs.len());
    for (label, rows) in [("Jan 23-29", &jan_rows), ("Apr 13-19", &apr_rows)] {
        let mut table = TableReport::new(
            "Table 2",
            format!("top countries by IPv6 user ratio, {label}"),
            &["Rank", "Country", "Users", "Ratio"],
        );
        for (i, row) in rows.iter().take(10).enumerate() {
            table.push_row(vec![
                (i + 1).to_string(),
                row.key.to_string(),
                row.users.to_string(),
                format!("{:.3}", row.ratio),
            ]);
        }
        out.tables.push(table);
    }
    // Figure 12's choropleth data = the full apr table; emit as CSV table.
    let mut choro = TableReport::new(
        "Figure 12",
        "choropleth data: IPv6 user ratio per country (Apr 13-19)",
        &["Country", "Users", "Ratio"],
    );
    for row in &apr_rows {
        choro.push_row(vec![
            row.key.to_string(),
            row.users.to_string(),
            format!("{:.3}", row.ratio),
        ]);
    }
    out.tables.push(choro);

    // Statistics use a low user floor so small countries (Germany, Puerto
    // Rico, Belarus) stay visible at every simulation scale.
    let jan_all = country_ratio_table(jan_recs, 5);
    let apr_all = country_ratio_table(apr_recs, 5);
    let ratio_of = |rows: &[ipv6_study_analysis::characterize::RatioRow<_>], code: &str| {
        rows.iter()
            .find(|r| r.key == ipv6_study_telemetry::Country::new(code))
            .map_or(f64::NAN, |r| r.ratio)
    };
    out.stat("tab2.in_apr", ratio_of(&apr_all, "IN"));
    out.stat("tab2.us_apr", ratio_of(&apr_all, "US"));
    out.stat("tab2.de_jan", ratio_of(&jan_all, "DE"));
    out.stat("tab2.de_apr", ratio_of(&apr_all, "DE"));
    out.stat(
        "tab2.de_delta",
        ratio_of(&apr_all, "DE") - ratio_of(&jan_all, "DE"),
    );
    out.stat(
        "tab2.by_delta",
        ratio_of(&apr_all, "BY") - ratio_of(&jan_all, "BY"),
    );
    out.stat(
        "tab2.pr_delta",
        ratio_of(&apr_all, "PR") - ratio_of(&jan_all, "PR"),
    );
    out
}

/// §4.4 — client IPv6 address patterns.
pub fn c44_client_patterns(ctx: &AnalysisCtx) -> ExperimentOutput {
    let p = client_patterns(ctx.user_week());
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_week().len());
    out.stat("c44.v6_users", p.v6_users as f64);
    out.stat("c44.transition_share", p.transition_share);
    out.stat("c44.mac_embedded_share", p.mac_embedded_share);
    out.stat("c44.iid_reuse_share", p.iid_reuse_share);
    out.stat("c44.iid_entropy_bits", p.iid_entropy_bits);
    out
}

fn cdf_series(label: &str, e: &Ecdf, max_x: u64) -> CdfSeries {
    CdfSeries::from_u64(label, (0..=max_x).map(|x| (x, e.fraction_le(x))))
}

/// Figure 2 — addresses per user (benign), one day and one week.
pub fn fig2_addrs_per_user(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let filter = |u: UserId| !study.labels.is_abusive(u);
    let day = addrs_per_user(ctx.user_day(), filter);
    let week = addrs_per_user(ctx.user_week(), filter);
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_day().len() + ctx.user_week().len());
    out.figures.push(
        FigureReport::new("Figure 2", "CDFs of addresses per user, 1 day and 7 days")
            .with(cdf_series("IPv4: 1 Day", &day.v4, 30))
            .with(cdf_series("IPv6: 1 Day", &day.v6, 30))
            .with(cdf_series("IPv4: 7 Days", &week.v4, 30))
            .with(cdf_series("IPv6: 7 Days", &week.v6, 30)),
    );
    out.stat("fig2.v4_day_single", day.v4.fraction_le(1));
    out.stat("fig2.v6_day_single", day.v6.fraction_le(1));
    out.stat("fig2.v4_day_gt5", day.v4.fraction_gt(5));
    out.stat("fig2.v6_day_gt5", day.v6.fraction_gt(5));
    out.stat("fig2.v4_week_median", week.v4.median().unwrap_or(0) as f64);
    out.stat("fig2.v6_week_median", week.v6.median().unwrap_or(0) as f64);
    out
}

/// Figure 3 — addresses per abusive account, one day.
pub fn fig3_aa_addrs(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let day_recs = study.abuse_store.on_day(focus_day_user());
    let day = ctx.index(day_recs);
    let aa = addrs_per_user(&day, |_| true);
    let mut out = ExperimentOutput::default();
    out.record_input(day_recs.len());
    out.figures.push(
        FigureReport::new("Figure 3", "CDFs of addresses per abusive account, 1 day")
            .with(cdf_series("IPv6: 1 Day", &aa.v6, 10))
            .with(cdf_series("IPv4: 1 Day", &aa.v4, 10)),
    );
    out.stat("fig3.v4_day_single", aa.v4.fraction_le(1));
    out.stat("fig3.v6_day_single", aa.v6.fraction_le(1));
    out.stat("fig3.v4_mean", aa.v4.mean().unwrap_or(0.0));
    out.stat("fig3.v6_mean", aa.v6.mean().unwrap_or(0.0));
    out
}

/// §5.1.3 — outlier users by address count, benign and abusive.
pub fn o51_user_outliers(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let filter = |u: UserId| !study.labels.is_abusive(u);
    let week = addrs_per_user(ctx.user_week(), filter);
    let aa_week = addrs_per_user(ctx.abuse_week(), |_| true);

    let thresholds = [100u64, 300, 1000];
    let v4 = tail_stats(&week.v4_counts, &thresholds);
    let v6 = tail_stats(&week.v6_counts, &thresholds);
    let aa4 = tail_stats(&aa_week.v4_counts, &thresholds);
    let aa6 = tail_stats(&aa_week.v6_counts, &thresholds);

    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_week().len() + ctx.abuse_week().len());
    let mut t = TableReport::new(
        "§5.1.3",
        "outlier users by weekly address count",
        &["Population", "Total", ">100", ">300", ">1000", "Max"],
    );
    for (label, s) in [
        ("users v4", &v4),
        ("users v6", &v6),
        ("AA v4", &aa4),
        ("AA v6", &aa6),
    ] {
        t.push_row(vec![
            label.into(),
            s.total.to_string(),
            s.above(100).to_string(),
            s.above(300).to_string(),
            s.above(1000).to_string(),
            s.max.to_string(),
        ]);
    }
    out.tables.push(t);
    out.stat("o51.v4_users_gt300", v4.above(300) as f64);
    out.stat("o51.v6_users_gt300", v6.above(300) as f64);
    out.stat("o51.v4_max", v4.max as f64);
    out.stat("o51.v6_max", v6.max as f64);
    out.stat("o51.aa_v4_max", aa4.max as f64);
    out.stat("o51.aa_v6_max", aa6.max as f64);
    if let Some(r) = outlier_user_prevalence_ratio(&week.v4_counts, &week.v6_counts, 300) {
        out.stat("o51.v6_to_v4_outlier_prevalence_ratio", r);
    }
    out
}

/// Figure 4 — IPv6 prefixes per user (users and abusive accounts).
pub fn fig4_prefix_span(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let lengths: Vec<u8> = vec![32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 80, 96, 112, 128];
    let filter = |u: UserId| !study.labels.is_abusive(u);
    let users = prefixes_per_user(ctx.user_week(), &lengths, filter);
    let aas = prefixes_per_user(ctx.abuse_week(), &lengths, |_| true);

    let to_fig =
        |id: &str, caption: &str, rows: &[ipv6_study_analysis::user_centric::PrefixSpanRow]| {
            FigureReport::new(id, caption)
                .with(CdfSeries::from_u64(
                    "1",
                    rows.iter().map(|r| (u64::from(r.len), r.le1)),
                ))
                .with(CdfSeries::from_u64(
                    "<=2",
                    rows.iter().map(|r| (u64::from(r.len), r.le2)),
                ))
                .with(CdfSeries::from_u64(
                    "<=3",
                    rows.iter().map(|r| (u64::from(r.len), r.le3)),
                ))
        };
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_week().len() + ctx.abuse_week().len());
    out.figures.push(to_fig(
        "Figure 4a",
        "% of users whose v6 addresses span <=k prefixes",
        &users,
    ));
    out.figures.push(to_fig(
        "Figure 4b",
        "% of abusive accounts whose v6 addresses span <=k prefixes",
        &aas,
    ));
    let at = |rows: &[ipv6_study_analysis::user_centric::PrefixSpanRow], len: u8| {
        rows.iter().find(|r| r.len == len).map_or(0.0, |r| r.le1)
    };
    out.stat("fig4.users_le1_at128", at(&users, 128));
    out.stat("fig4.users_le1_at72", at(&users, 72));
    out.stat("fig4.users_le1_at64", at(&users, 64));
    out.stat("fig4.users_le1_at48", at(&users, 48));
    out.stat("fig4.users_le1_at40", at(&users, 40));
    out.stat("fig4.jump_at_64", at(&users, 64) - at(&users, 68));
    out.stat("fig4.aa_le1_at64", at(&aas, 64));
    out
}

/// Figure 5 — (user, address) life spans.
pub fn fig5_lifespans(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let focus = focus_day_user();
    let filter = |u: UserId| !study.labels.is_abusive(u);
    let l = address_lifespans(ctx.user_lookback(), focus, filter);
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_lookback().len());
    out.figures.push(
        FigureReport::new("Figure 5", "CDFs of address life spans for users (days)")
            .with(cdf_series("Across v6s", &l.v6_pairs, 27))
            .with(cdf_series("v6: User med", &l.v6_user_median, 27))
            .with(cdf_series("Across v4s", &l.v4_pairs, 27))
            .with(cdf_series("v4: User med", &l.v4_user_median, 27)),
    );
    out.stat("fig5.v4_newborn_share", l.v4_pairs.fraction_le(0));
    out.stat("fig5.v6_newborn_share", l.v6_pairs.fraction_le(0));
    out.stat("fig5.v4_gt7d_share", l.v4_pairs.fraction_gt(7));
    out.stat("fig5.v6_gt7d_share", l.v6_pairs.fraction_gt(7));
    out.stat("fig5.v4_ge27d_share", l.v4_pairs.fraction_gt(26));
    out.stat("fig5.v6_ge27d_share", l.v6_pairs.fraction_gt(26));
    out
}

/// Figure 6 — (user, prefix) life spans across prefix lengths.
pub fn fig6_prefix_lifespans(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let focus = focus_day_user();
    let lookback = windows::lookback_window(focus);
    let aa_recs = study.abuse_store.in_range(lookback);
    let aa_history = ctx.index(aa_recs);
    let v6_lengths: Vec<u8> = vec![16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128];
    let v4_lengths: Vec<u8> = vec![8, 16, 24, 32];
    let filter = |u: UserId| !study.labels.is_abusive(u);

    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_lookback().len() + aa_history.len());
    let always = |_: UserId| true;
    type Case<'a> = (&'a str, &'a DatasetIndex, &'a dyn Fn(UserId) -> bool);
    let cases: [Case; 2] = [
        ("Figure 6a", ctx.user_lookback(), &filter),
        ("Figure 6b", &aa_history, &always),
    ];
    for (id, history, f) in cases {
        let v6 = prefix_lifespans(history, focus, &v6_lengths, true, f);
        let v4 = prefix_lifespans(history, focus, &v4_lengths, false, f);
        let fig = FigureReport::new(id, "share of (user, prefix) pairs aged <=1/2/3 days")
            .with(CdfSeries::from_u64(
                "IPv6: 1d",
                v6.iter().map(|r| (u64::from(r.len), r.d1)),
            ))
            .with(CdfSeries::from_u64(
                "IPv6: <=2d",
                v6.iter().map(|r| (u64::from(r.len), r.d2)),
            ))
            .with(CdfSeries::from_u64(
                "IPv6: <=3d",
                v6.iter().map(|r| (u64::from(r.len), r.d3)),
            ))
            .with(CdfSeries::from_u64(
                "IPv4: 1d",
                v4.iter().map(|r| (u64::from(r.len), r.d1)),
            ))
            .with(CdfSeries::from_u64(
                "IPv4: <=2d",
                v4.iter().map(|r| (u64::from(r.len), r.d2)),
            ))
            .with(CdfSeries::from_u64(
                "IPv4: <=3d",
                v4.iter().map(|r| (u64::from(r.len), r.d3)),
            ));
        if id == "Figure 6a" {
            let at = |len: u8| v6.iter().find(|r| r.len == len).map_or(0.0, |r| r.d1);
            out.stat("fig6.v6_new_at128", at(128));
            out.stat("fig6.v6_new_at64", at(64));
            out.stat("fig6.v6_new_at48", at(48));
            out.stat(
                "fig6.v4_new_at32",
                v4.iter().find(|r| r.len == 32).map_or(0.0, |r| r.d1),
            );
        }
        out.figures.push(fig);
    }
    out
}

/// Figure 7 — users per address, day and week.
pub fn fig7_users_per_ip(ctx: &AnalysisCtx) -> ExperimentOutput {
    let day = users_per_ip(ctx.ip_day());
    let week = users_per_ip(ctx.ip_week());
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.ip_day().len() + ctx.ip_week().len());
    out.figures.push(
        FigureReport::new("Figure 7", "CDFs of users per IP address")
            .with(cdf_series("IPv6: 1 day", &day.v6, 10))
            .with(cdf_series("IPv6: 1 week", &week.v6, 10))
            .with(cdf_series("IPv4: 1 day", &day.v4, 10))
            .with(cdf_series("IPv4: 1 week", &week.v4, 10)),
    );
    out.stat("fig7.v4_day_single", day.v4.fraction_le(1));
    out.stat("fig7.v6_day_single", day.v6.fraction_le(1));
    out.stat("fig7.v6_day_le2", day.v6.fraction_le(2));
    out.stat("fig7.v4_week_single", week.v4.fraction_le(1));
    out.stat("fig7.v6_week_single", week.v6.fraction_le(1));
    out.stat("fig7.v4_day_gt3", day.v4.fraction_gt(3));
    out.stat("fig7.v6_day_gt3", day.v6.fraction_gt(3));
    out
}

/// Figure 8 — abusive accounts and benign users per address-with-abuse.
pub fn fig8_aa_per_ip(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let day = abuse_per_ip(ctx.ip_day(), &study.labels);
    let week = abuse_per_ip(ctx.ip_week(), &study.labels);
    let mut out = ExperimentOutput::default();
    out.record_input(ctx.ip_day().len() + ctx.ip_week().len());
    out.figures.push(
        FigureReport::new(
            "Figure 8",
            "populations on addresses with >=1 abusive account",
        )
        .with(cdf_series("AAs per IPv4: 1 day", &day.aa_v4, 10))
        .with(cdf_series("AAs per IPv4: 1 week", &week.aa_v4, 10))
        .with(cdf_series("AAs per IPv6: 1 week", &week.aa_v6, 10))
        .with(cdf_series("Others per IPv4: 1 day", &day.benign_v4, 10))
        .with(cdf_series("Others per IPv4: 1 week", &week.benign_v4, 10))
        .with(cdf_series("Others per IPv6: 1 week", &week.benign_v6, 10)),
    );
    out.stat("fig8.v4_single_aa_day", day.aa_v4.fraction_le(1));
    out.stat("fig8.v6_single_aa", week.aa_v6.fraction_le(1));
    out.stat("fig8.v6_isolated_day", day.v6_isolated_share());
    out.stat("fig8.v4_isolated_day", day.v4_isolated_share());
    out.stat("fig8.v4_gt10_benign_day", day.benign_v4.fraction_gt(10));
    out.stat("fig8.v6_gt1_benign_day", day.benign_v6.fraction_gt(1));
    out
}

/// §6.1.3 — heavy addresses: tails, ASN concentration, predictability.
pub fn o61_ip_outliers(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let week = users_per_ip(ctx.ip_week());
    // Thresholds scaled to the simulation: a "heavy" address hosts >X
    // users; the paper's 1k/200k translate down with population size.
    // Scale-aware: a "heavy" address hosts more users than ~1/1500th of
    // the simulated population (the paper's 10K+ of ~2.5B scales likewise).
    let heavy = (study.approx_users / 1_500).max(8);
    let mega = heavy * 3;
    let mut v4_counts = HashMap::new();
    let mut v6_counts = HashMap::new();
    for (ip, &c) in &week.counts {
        if matches!(ip, std::net::IpAddr::V6(_)) {
            v6_counts.insert(*ip, c);
        } else {
            v4_counts.insert(*ip, c);
        }
    }
    let v4 = tail_stats(&v4_counts, &[heavy, mega]);
    let v6 = tail_stats(&v6_counts, &[heavy, mega]);
    let conc_v6 = heavy_ip_asn_concentration(ctx.ip_week(), &week.counts, heavy, true);
    let conc_v4 = heavy_ip_asn_concentration(ctx.ip_week(), &week.counts, heavy, false);
    let sig = signature_predictability(&week.counts, heavy);

    let mut out = ExperimentOutput::default();
    out.record_input(ctx.ip_week().len());
    let mut t = TableReport::new(
        "§6.1.3",
        "heavy addresses (users/week)",
        &[
            "Protocol",
            "Addresses",
            ">heavy",
            ">3x heavy",
            "Max",
            "ASNs(heavy)",
            "Top1 ASN share",
        ],
    );
    t.push_row(vec![
        "IPv4".into(),
        v4.total.to_string(),
        v4.above(heavy).to_string(),
        v4.above(mega).to_string(),
        v4.max.to_string(),
        conc_v4.asns.to_string(),
        format!("{:.2}", conc_v4.top1_share),
    ]);
    t.push_row(vec![
        "IPv6".into(),
        v6.total.to_string(),
        v6.above(heavy).to_string(),
        v6.above(mega).to_string(),
        v6.max.to_string(),
        conc_v6.asns.to_string(),
        format!("{:.2}", conc_v6.top1_share),
    ]);
    out.tables.push(t);
    out.stat("o61.v4_max_users", v4.max as f64);
    out.stat("o61.v6_max_users", v6.max as f64);
    out.stat("o61.v4_heavy_count", v4.above(heavy) as f64);
    out.stat("o61.v6_heavy_count", v6.above(heavy) as f64);
    out.stat("o61.v6_heavy_top1_asn_share", conc_v6.top1_share);
    out.stat("o61.v4_heavy_asns", conc_v4.asns as f64);
    out.stat("o61.v6_heavy_asns", conc_v6.asns as f64);
    out.stat("o61.sig_heavy_share", sig.heavy_signature_share);
    out.stat("o61.sig_light_share", sig.light_signature_share);

    // Predictor evaluation (the "signatures are feasible" claim). Each
    // address's ASN comes from its run head — the first record of the
    // address in timestamp order, exactly what the slice walk found.
    let mut asn_of = HashMap::new();
    for (ip, group) in ctx.ip_week().ip_groups() {
        asn_of.insert(ip, group.asns()[0]);
    }
    let predictor = HeavyAddressPredictor::learn(&week.counts, &asn_of, heavy);
    let eval = predictor.evaluate(&week.counts, &asn_of, heavy);
    out.stat("o61.predictor_precision", eval.precision);
    out.stat("o61.predictor_recall", eval.recall);
    out
}

/// Figure 9 — users per IPv6 prefix across lengths, with the IPv4 curve.
pub fn fig9_users_per_prefix(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let week = focus_week();
    let lengths = [128u8, 72, 68, 64, 48, 44];
    let mut out = ExperimentOutput::default();
    let mut fig = FigureReport::new("Figure 9", "CDFs of users per IPv6 prefix (1 week)");
    let mut singles: Vec<(u8, f64)> = Vec::new();
    let mut candidates: Vec<(u8, Ecdf)> = Vec::new();
    for len in lengths {
        let recs = study.datasets.prefix_sample(len).in_range(week);
        out.record_input(recs.len());
        let upp = users_per_prefix(&ctx.index(recs), len);
        singles.push((len, upp.ecdf.fraction_le(1)));
        fig = fig.with(cdf_series(&format!("/{len}"), &upp.ecdf, 10));
        candidates.push((len, upp.ecdf));
    }
    out.record_input(ctx.ip_week().len());
    let v4 = users_per_v4_addr(ctx.ip_week());
    fig = fig.with(cdf_series("IPv4", &v4, 10));
    out.figures.push(fig);
    for (len, s) in &singles {
        out.stat(&format!("fig9.single_user_at{len}"), *s);
    }
    // Which prefix length matches IPv4 best (paper: /48)?
    let sim = most_similar(&v4, &candidates);
    out.stat("fig9.v4_best_match_len", f64::from(sim.best_len));
    out.stat("fig9.v4_best_match_ks", sim.best_distance);
    out
}

/// Figure 10 — abusive accounts and benign users per prefix-with-abuse.
pub fn fig10_aa_per_prefix(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let week = focus_week();
    let mut out = ExperimentOutput::default();

    // (a) abusive accounts per prefix.
    let lengths_a = [128u8, 64, 60, 56, 52];
    let mut fig_a = FigureReport::new("Figure 10a", "abusive accounts per prefix (1 week)");
    let mut aa_candidates: Vec<(u8, Ecdf)> = Vec::new();
    for len in lengths_a {
        let recs = study.datasets.prefix_sample(len).in_range(week);
        out.record_input(recs.len());
        let app = abuse_per_prefix(&ctx.index(recs), &study.labels, len);
        fig_a = fig_a.with(cdf_series(&format!("/{len}"), &app.aa, 10));
        aa_candidates.push((len, app.aa));
    }
    out.record_input(ctx.ip_week().len());
    let v4_view = abuse_per_ip(ctx.ip_week(), &study.labels);
    fig_a = fig_a.with(cdf_series("IPv4", &v4_view.aa_v4, 10));
    out.figures.push(fig_a);

    // (b) benign users per prefix containing abuse.
    let lengths_b = [128u8, 96, 72, 68, 64, 56];
    let mut fig_b = FigureReport::new(
        "Figure 10b",
        "benign users per prefix with abusive accounts (1 week)",
    );
    let mut benign_candidates: Vec<(u8, Ecdf)> = Vec::new();
    for len in lengths_b {
        let recs = study.datasets.prefix_sample(len).in_range(week);
        out.record_input(recs.len());
        let app = abuse_per_prefix(&ctx.index(recs), &study.labels, len);
        fig_b = fig_b.with(cdf_series(&format!("/{len}"), &app.benign, 10));
        benign_candidates.push((len, app.benign));
    }
    fig_b = fig_b.with(cdf_series("IPv4", &v4_view.benign_v4, 10));
    out.figures.push(fig_b);

    let single_at = |cands: &[(u8, Ecdf)], len: u8| {
        cands
            .iter()
            .find(|(l, _)| *l == len)
            .map_or(0.0, |(_, e)| e.fraction_le(1))
    };
    out.stat("fig10.aa_single_at64", single_at(&aa_candidates, 64));
    out.stat("fig10.aa_single_at56", single_at(&aa_candidates, 56));
    out.stat(
        "fig10.benign_le1_at64",
        benign_candidates
            .iter()
            .find(|(l, _)| *l == 64)
            .map_or(0.0, |(_, e)| e.fraction_le(1)),
    );
    // The paper's /56 ≈ IPv4 similarity claims.
    let sim_aa = most_similar(&v4_view.aa_v4, &aa_candidates);
    out.stat("fig10.v4_aa_best_match_len", f64::from(sim_aa.best_len));
    let sim_benign = most_similar(&v4_view.benign_v4, &benign_candidates);
    out.stat(
        "fig10.v4_benign_best_match_len",
        f64::from(sim_benign.best_len),
    );
    out
}

/// §6.2.3 — heavy prefixes: /112 domination and ASN concentration.
pub fn o62_prefix_outliers(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    // §6.2.3's own method: the interesting prefixes are far too few for
    // the prefix random sample to hit, so the paper (and we) count *user
    // sample members per prefix* and extrapolate — a prefix with k sampled
    // users has k/rate users in expectation.
    let week = focus_week();
    let rate = study.user_sample_rate();
    let heavy_pop = (study.approx_users / 1_500).max(8);
    // Require a few sampled users on top of the expected-population bar,
    // to keep noise out at small scales.
    let heavy_sampled = ((heavy_pop as f64 * rate).ceil() as u64).max(3);
    let recs = study.datasets.user_sample.in_range(week);
    let mut out = ExperimentOutput::default();
    out.record_input(recs.len());
    let mut per_len = HashMap::new();
    for len in [112u8, 64, 48] {
        let upp = users_per_prefix(ctx.user_week(), len);
        let stats = tail_stats(&upp.counts, &[heavy_sampled]);
        out.stat(
            &format!("o62.heavy_p{len}_count"),
            stats.above(heavy_sampled) as f64,
        );
        out.stat(&format!("o62.max_users_p{len}"), stats.max as f64 / rate);
        per_len.insert(len, upp);
    }
    // ASN concentration of heavy /64s (paper: M247 21%, top-4 61%).
    let upp64 = &per_len[&64];
    let conc = heavy_prefix_asn_concentration(recs, &upp64.counts, heavy_sampled);
    out.stat("o62.heavy_p64_asns", conc.asns as f64);
    out.stat("o62.heavy_p64_top1_share", conc.top1_share);
    out.stat("o62.heavy_p64_top4_share", conc.top4_share);
    // The /112-equals-/64 gateway structure: the top /112's population
    // should rival the top /64's (the paper's "these /112 dominate").
    let max112 = per_len[&112].counts.values().copied().max().unwrap_or(0);
    let max64 = upp64.counts.values().copied().max().unwrap_or(0);
    out.stat(
        "o62.max112_over_max64",
        if max64 == 0 {
            0.0
        } else {
            max112 as f64 / max64 as f64
        },
    );
    out
}

/// Figure 11 — the actioning ROC at /128, /64, /56 and IPv4, pooled over
/// the last three day pairs (the paper repeats per-day analyses over
/// several days; pooling keeps small-scale runs statistically stable).
///
/// The sweep is one-pass: each of the four days is folded into a
/// [`DayCounts`] aggregation-trie pair exactly once (one sort per family
/// per day), and every granularity cut then reads its per-unit distinct
/// user counts straight off the shared tries — O(records + nodes) for the
/// whole sweep instead of a re-sort per (granularity, pair) combination.
/// The per-unit scores and outcomes are identical to the naive per-cut
/// tally (property-tested in `secapp::actioning`), so the curves are
/// byte-for-byte what the record-level path produced.
pub fn fig11_roc(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let mut out = ExperimentOutput::default();
    let mut fig = FigureReport::new("Figure 11", "day-over-day actioning ROC");
    let thresholds: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();

    let grans = [
        Granularity::V6Full,
        Granularity::V6Prefix(64),
        Granularity::V6Prefix(56),
        Granularity::V4Full,
    ];
    // Full-population day pairs: the paper's scenario without sampling
    // noise (abusive units are rare; samples would starve the curves).
    // The window is end-relative — the last four *simulated* days — so
    // an extended run scores the appended days, not the base focus week.
    // Day j holds `pair.start + j`; pair k scores day `last-(k+1)`
    // against outcomes on day `last-k`.
    let pair = windows::pair_window(study.config.sim_end());
    let day_recs: Vec<ColumnSlice<'_>> = pair.days().map(|d| study.pair_store.on_day(d)).collect();
    for w in day_recs.windows(2) {
        out.record_input(w[0].len() + w[1].len());
    }
    let t_build = Instant::now();
    let day_counts: Vec<Arc<DayCounts>> = pair.days().map(|d| study.day_counts(d)).collect();
    let build = Span::new("build", t_build.elapsed()).with_items(day_counts.len() as u64);
    let mut read = Span::new("read", Duration::ZERO);
    for gran in grans {
        let t_read = Instant::now();
        let mut curve = ipv6_study_stats::RocCurve::new();
        for k in 0..3usize {
            curve.extend_from(&actioning_roc_between(
                &day_counts[2 - k],
                &day_counts[3 - k],
                gran,
            ));
        }
        // One curve unit per day-n+1 unit evaluated.
        let cut = Span::new(&gran.label(), t_read.elapsed()).with_items(curve.len() as u64);
        read.wall += cut.wall;
        read.items += cut.items;
        read.children.push(cut);
        let pts = curve.sweep(&thresholds, None);
        fig = fig.with(CdfSeries {
            label: gran.label(),
            points: {
                let mut p: Vec<(f64, f64)> = pts.iter().map(|p| (p.fpr, p.tpr)).collect();
                p.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                p
            },
        });
        let op = operating_points(&curve);
        let tag = gran.label().replace('/', "p");
        out.stat(&format!("fig11.{tag}_max_tpr"), op.max_tpr);
        out.stat(&format!("fig11.{tag}_t0_fpr"), op.t0.1);
        out.stat(&format!("fig11.{tag}_t10_tpr"), op.t10.0);
        out.stat(&format!("fig11.{tag}_t10_fpr"), op.t10.1);
        out.stat(&format!("fig11.{tag}_t100_tpr"), op.t100.0);
        out.stat(
            &format!("fig11.{tag}_tpr_at_fpr_1pct"),
            curve.tpr_at_fpr(0.01, None),
        );
    }
    out.figures.push(fig);
    out.spans.push(
        Span::new("actioning", build.wall + read.wall)
            .with_child(build)
            .with_child(read),
    );
    out
}

/// §7.2 — defense mechanisms: blocklist decay, threat-exchange half-life,
/// rate-limit thresholds, and the ML protocol-transfer gap.
pub fn s72_defenses(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let mut out = ExperimentOutput::default();
    let list_day = windows::blocklist_window().start;

    // Blocklist decay at three granularities.
    for (gran, name) in [
        (Granularity::V6Full, "v6_addr"),
        (Granularity::V6Prefix(64), "v6_p64"),
        (Granularity::V4Full, "v4_addr"),
    ] {
        let (store_day, later): (ColumnSlice<'_>, Vec<(SimDate, ColumnSlice<'_>)>) = match gran {
            Granularity::V6Prefix(len) => (
                study.datasets.prefix_sample(len).on_day(list_day),
                (1..=6u16)
                    .map(|k| {
                        let d = list_day + k;
                        (d, study.datasets.prefix_sample(len).on_day(d))
                    })
                    .collect(),
            ),
            _ => (
                study.datasets.ip_sample.on_day(list_day),
                (1..=6u16)
                    .map(|k| {
                        let d = list_day + k;
                        (d, study.datasets.ip_sample.on_day(d))
                    })
                    .collect(),
            ),
        };
        out.record_input(store_day.len() + later.iter().map(|(_, r)| r.len()).sum::<usize>());
        let bl = Blocklist::from_day(store_day, &study.labels, gran, 0.5, list_day, 14);
        let evals = evaluate_over_days(
            &bl,
            &study.labels,
            list_day,
            later.iter().map(|&(d, r)| (d, r)),
        );
        if let Some(first) = evals.first() {
            out.stat(&format!("s72.blocklist_{name}_day1_recall"), first.recall);
            out.stat(
                &format!("s72.blocklist_{name}_day1_collateral"),
                first.collateral,
            );
        }
        if let Some(last) = evals.last() {
            out.stat(&format!("s72.blocklist_{name}_day6_recall"), last.recall);
        }

        // Threat-exchange decay on the same data.
        let decay = value_decay(
            store_day,
            &study.labels,
            gran,
            later.iter().map(|&(d, r)| (d.days_since(list_day), r)),
        );
        let fig_label = format!("exchange decay: {name}");
        out.figures.push(
            FigureReport::new(format!("§7.2 decay {name}"), fig_label).with(CdfSeries::from_u64(
                "residual recall",
                decay
                    .iter()
                    .map(|p| (u64::from(p.offset), p.residual_recall)),
            )),
        );
        out.stat(
            &format!("s72.exchange_{name}_half_life"),
            half_life(&decay).map_or(7.0, f64::from),
        );
    }

    // Rate-limit recommendations from users-per-key distributions.
    let week = focus_week();
    out.record_input(ctx.ip_week().len());
    let per_ip = users_per_ip(ctx.ip_week());
    let per_p64 = {
        let recs = study.datasets.prefix_sample(64).in_range(week);
        out.record_input(recs.len());
        users_per_prefix(&ctx.index(recs), 64).ecdf
    };
    let q = 0.999;
    let per_user_budget = 200;
    let r_v6 = recommend_threshold(&per_ip.v6, per_user_budget, q);
    let r_v4 = recommend_threshold(&per_ip.v4, per_user_budget, q);
    let r_p64 = recommend_threshold(&per_p64, per_user_budget, q);
    out.stat("s72.ratelimit_v6_addr_budget", r_v6.requests_per_day as f64);
    out.stat("s72.ratelimit_v4_addr_budget", r_v4.requests_per_day as f64);
    out.stat("s72.ratelimit_v6_p64_budget", r_p64.requests_per_day as f64);
    out.stat(
        "s72.ratelimit_v4_over_v6",
        r_v4.requests_per_day as f64 / r_v6.requests_per_day.max(1) as f64,
    );

    // ML transfer: train/test within and across protocols, on the
    // full-population day pair (end-relative: the last two simulated
    // days, so an extension re-scores the fresh pair).
    let (d0, d1) = windows::ml_pair_days(study.config.sim_end());
    let day = study.pair_store.on_day(d0);
    let next = study.pair_store.on_day(d1);
    out.record_input(day.len() + next.len());
    let v4_set = training_set(day, next, &study.labels, Some(false));
    let v6_set = training_set(day, next, &study.labels, Some(true));
    if !v4_set.is_empty() && !v6_set.is_empty() {
        let m_v4 = LogisticModel::train(&v4_set, 200, 0.3);
        let m_v6 = LogisticModel::train(&v6_set, 200, 0.3);
        out.stat("s72.ml_v4_on_v4_auc", m_v4.auc(&v4_set));
        out.stat("s72.ml_v6_on_v6_auc", m_v6.auc(&v6_set));
        out.stat("s72.ml_v4_on_v6_auc", m_v4.auc(&v6_set));
    }
    out
}

/// §8 (future work) — per-network-type breakdown: the paper's own first
/// "future work" item, "characterizing IPv6 behavior across different
/// network types, such as mobile, residential, and enterprise networks".
/// We have the full world, so we can answer it: per network kind, how many
/// addresses a user burns in a day, how many users share an address, and
/// how ephemeral (user, address) pairs are.
pub fn x81_network_breakdown(ctx: &AnalysisCtx) -> ExperimentOutput {
    use ipv6_study_netmodel::NetworkKind;
    let study = ctx.study;
    let mut out = ExperimentOutput::default();
    let day_recs = study.datasets.ip_sample.on_day(focus_day_ip());
    let user_day = study.datasets.user_sample.on_day(focus_day_user());
    let focus = focus_day_user();
    let lookback = windows::lookback_window(focus);
    let history = study.datasets.user_sample.in_range(lookback);
    out.record_input(day_recs.len() + user_day.len() + history.len());

    // ASN → kind map from the world.
    let kind_of: HashMap<u32, NetworkKind> = study
        .world
        .networks()
        .iter()
        .map(|n| (n.asn.0, n.kind))
        .collect();
    let mut table = TableReport::new(
        "§8 breakdown",
        "per-network-type behavior (IPv6 focus; day = Apr 13/19)",
        &[
            "Kind",
            "v6 users/addr (mean)",
            "v6 addrs/user (mean)",
            "v6 newborn pairs",
            "v4 users/addr (mean)",
        ],
    );
    let labels = &study.labels;
    for kind in NetworkKind::ALL {
        // Columnar selection: a branchless mask over the ASN column, then
        // a five-column gather. The gathered windows share the global
        // intern tables (no row rematerialization, no re-interning) —
        // this replaced `OwnedColumns::encode_with(tables,
        // win.records().filter(..))`, the last row-at-a-time filter on
        // the pass hot path.
        let select = |win: ColumnSlice<'_>| {
            let mask = mask_from(win.asns(), |asn| kind_of.get(&asn.0) == Some(&kind));
            win.gather(&mask)
        };
        let (ip_recs, us_recs, hist) = (select(day_recs), select(user_day), select(history));
        let upi = users_per_ip(&ctx.index(ip_recs.as_slice()));
        let apu = addrs_per_user(&ctx.index(us_recs.as_slice()), |u| !labels.is_abusive(u));
        let life = address_lifespans(&ctx.index(hist.as_slice()), focus, |u| {
            !labels.is_abusive(u)
        });
        let tag = kind.to_string();
        let users_per_addr = upi.v6.mean().unwrap_or(0.0);
        let addrs_per = apu.v6.mean().unwrap_or(0.0);
        let newborn = life.v6_pairs.fraction_le(0);
        let v4_users = upi.v4.mean().unwrap_or(0.0);
        out.stat(&format!("x81.{tag}_v6_users_per_addr"), users_per_addr);
        out.stat(&format!("x81.{tag}_v6_addrs_per_user"), addrs_per);
        out.stat(&format!("x81.{tag}_v6_newborn"), newborn);
        out.stat(&format!("x81.{tag}_v4_users_per_addr"), v4_users);
        table.push_row(vec![
            tag,
            format!("{users_per_addr:.2}"),
            format!("{addrs_per:.2}"),
            format!("{newborn:.2}"),
            format!("{v4_users:.2}"),
        ]);
    }
    out.tables.push(table);
    out
}

/// Appendix A — pandemic before/after comparison: the paper re-runs its
/// user-centric analyses on pre-pandemic data (e.g. Feb 12–18) and finds
/// only small shifts — slightly lower IP diversity and slightly longer
/// life spans during lockdowns, "no data point differs by more than 4%"
/// (A.5). We regenerate that comparison from the panel data.
pub fn apx_pandemic_compare(ctx: &AnalysisCtx) -> ExperimentOutput {
    let study = ctx.study;
    let mut out = ExperimentOutput::default();
    let filter = |u: UserId| !study.labels.is_abusive(u);

    // Addresses per user, pre-pandemic week vs focus week (A.3).
    let pre_week = ipv6_study_telemetry::time::prepandemic_week();
    let pre_recs = study.datasets.user_sample.in_range(pre_week);
    out.record_input(pre_recs.len() + ctx.user_week().len());
    let pre = addrs_per_user(&ctx.index(pre_recs), filter);
    let apr = addrs_per_user(ctx.user_week(), filter);
    out.stat("apx.v6_week_mean_feb", pre.v6.mean().unwrap_or(0.0));
    out.stat("apx.v6_week_mean_apr", apr.v6.mean().unwrap_or(0.0));
    out.stat("apx.v4_week_mean_feb", pre.v4.mean().unwrap_or(0.0));
    out.stat("apx.v4_week_mean_apr", apr.v4.mean().unwrap_or(0.0));
    out.stat(
        "apx.v6_diversity_delta",
        apr.v6.mean().unwrap_or(0.0) - pre.v6.mean().unwrap_or(0.0),
    );

    // Life spans, Feb 18 vs Apr 19 focus days (A.5).
    let feb_focus = SimDate::ymd(2, 18);
    let feb_hist = study
        .datasets
        .user_sample
        .in_range(windows::apx_lookback(feb_focus));
    let feb_life = address_lifespans(&ctx.index(feb_hist), feb_focus, filter);
    let apr_focus = focus_day_user();
    let apr_hist = study
        .datasets
        .user_sample
        .in_range(windows::apx_lookback(apr_focus));
    out.record_input(feb_hist.len() + apr_hist.len());
    let apr_life = address_lifespans(&ctx.index(apr_hist), apr_focus, filter);
    out.stat("apx.v6_newborn_feb", feb_life.v6_pairs.fraction_le(0));
    out.stat("apx.v6_newborn_apr", apr_life.v6_pairs.fraction_le(0));
    out.stat("apx.v4_newborn_feb", feb_life.v4_pairs.fraction_le(0));
    out.stat("apx.v4_newborn_apr", apr_life.v4_pairs.fraction_le(0));
    out.stat(
        "apx.max_lifespan_curve_delta",
        (feb_life.v6_pairs.fraction_le(0) - apr_life.v6_pairs.fraction_le(0))
            .abs()
            .max((feb_life.v4_pairs.fraction_le(0) - apr_life.v4_pairs.fraction_le(0)).abs()),
    );
    let mut t = TableReport::new(
        "Appendix A",
        "pre-pandemic (Feb 12-18) vs pandemic (Apr 13-19) user behavior",
        &["Metric", "Feb", "Apr"],
    );
    t.push_row(vec![
        "v6 addrs/user/week (mean)".into(),
        format!("{:.2}", pre.v6.mean().unwrap_or(0.0)),
        format!("{:.2}", apr.v6.mean().unwrap_or(0.0)),
    ]);
    t.push_row(vec![
        "v4 addrs/user/week (mean)".into(),
        format!("{:.2}", pre.v4.mean().unwrap_or(0.0)),
        format!("{:.2}", apr.v4.mean().unwrap_or(0.0)),
    ]);
    t.push_row(vec![
        "v6 newborn pair share".into(),
        format!("{:.3}", feb_life.v6_pairs.fraction_le(0)),
        format!("{:.3}", apr_life.v6_pairs.fraction_le(0)),
    ]);
    out.tables.push(t);
    out
}

/// EC1 (extended) — entropy-clustered blocklisting. Fixed-length IPv6
/// blocklisting forces one granularity onto a space where allocation
/// practice varies wildly; here the day-*n* aggregation trie is cut at
/// entropy-guided variable lengths instead ([`entropy_cuts`]: structured
/// subtrees aggregate deeper, randomized space stays at the /32 base),
/// each cut is scored by its distinct-user abusive share, and cuts at or
/// above the blocking threshold are evaluated against day *n+1* outcomes
/// read off the next day's trie. The fixed-/64 policy at the same
/// threshold runs alongside as the baseline. Counts are per-unit
/// impacted users (a user under two blocked cuts counts in both),
/// matching the actioning ROC's unit-level semantics.
///
/// [`entropy_cuts`]: ipv6_study_netaddr::AggregationTrie::entropy_cuts
pub fn ec_entropy_blocklist(ctx: &AnalysisCtx) -> ExperimentOutput {
    const BASE_LEN: u8 = 32;
    const ENTROPY_THRESHOLD: f64 = 2.0;
    const SCORE_THRESHOLD: f64 = 0.5;

    let study = ctx.study;
    let mut out = ExperimentOutput::default();
    let (d0, d1) = windows::ml_pair_days(study.config.sim_end());
    let day_n = study.pair_store.on_day(d0);
    let day_n1 = study.pair_store.on_day(d1);
    out.record_input(day_n.len() + day_n1.len());
    // Shared with Figure 11 through the study's per-day trie cache: the
    // two ML-pair days are the tail of the four-day pair window, so an
    // incremental re-run builds each day's tries exactly once.
    let scores = study.day_counts(d0);
    let outcomes = study.day_counts(d1);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Day n+1 ground truth: whole-space distinct-user totals.
    let (tot_abusive, tot_benign) = outcomes
        .v6_trie()
        .units_at(0)
        .next()
        .map_or((0, 0), |(_, a, b)| (a, b));

    // Variable-length policy: block every entropy cut whose abusive
    // share clears the threshold.
    let cuts = scores.v6_trie().entropy_cuts(BASE_LEN, ENTROPY_THRESHOLD);
    let mut len_counts: BTreeMap<u8, u64> = BTreeMap::new();
    let mut len_sum = 0u64;
    let (mut blocked, mut caught_abusive, mut caught_benign) = (0u64, 0u64, 0u64);
    for cut in &cuts {
        *len_counts.entry(cut.len).or_default() += 1;
        len_sum += u64::from(cut.len);
        if ratio(cut.abusive, cut.abusive + cut.benign) >= SCORE_THRESHOLD {
            blocked += 1;
            if let Some((a, b)) = outcomes.v6_trie().counts_under(cut.bits, cut.len) {
                caught_abusive += a;
                caught_benign += b;
            }
        }
    }

    // Baseline: the fixed /64 policy at the same threshold.
    let (mut p64_blocked, mut p64_abusive, mut p64_benign) = (0u64, 0u64, 0u64);
    for (bits, abusive, benign) in scores.v6_trie().units_at(64) {
        if ratio(abusive, abusive + benign) >= SCORE_THRESHOLD {
            p64_blocked += 1;
            if let Some((a, b)) = outcomes.v6_trie().counts_under(bits, 64) {
                p64_abusive += a;
                p64_benign += b;
            }
        }
    }

    out.stat("ec.cut_count", cuts.len() as f64);
    out.stat("ec.mean_cut_len", ratio(len_sum, cuts.len() as u64));
    out.stat("ec.blocked_cuts", blocked as f64);
    out.stat("ec.recall", ratio(caught_abusive, tot_abusive));
    out.stat("ec.collateral", ratio(caught_benign, tot_benign));
    out.stat("ec.p64_blocked", p64_blocked as f64);
    out.stat("ec.p64_recall", ratio(p64_abusive, tot_abusive));
    out.stat("ec.p64_collateral", ratio(p64_benign, tot_benign));
    out.stat("ec.blocked_vs_p64", ratio(blocked, p64_blocked));
    out.figures.push(
        FigureReport::new("EC1", "entropy-clustered blocklisting cut lengths").with(
            CdfSeries::from_u64(
                "cuts per length",
                len_counts.iter().map(|(&l, &n)| (u64::from(l), n as f64)),
            ),
        ),
    );
    out
}

/// One experiment: paper-artifact id plus its registry function.
type Experiment = (&'static str, fn(&AnalysisCtx) -> ExperimentOutput);

/// Every experiment in paper order.
const EXPERIMENTS: [Experiment; 20] = [
    ("F1", fig1_prevalence),
    ("T1", tab1_asns),
    ("T2/F12", tab2_countries),
    ("C4.4", c44_client_patterns),
    ("F2", fig2_addrs_per_user),
    ("F3", fig3_aa_addrs),
    ("O5.1", o51_user_outliers),
    ("F4", fig4_prefix_span),
    ("F5", fig5_lifespans),
    ("F6", fig6_prefix_lifespans),
    ("F7", fig7_users_per_ip),
    ("F8", fig8_aa_per_ip),
    ("O6.1", o61_ip_outliers),
    ("F9", fig9_users_per_prefix),
    ("F10", fig10_aa_per_prefix),
    ("O6.2", o62_prefix_outliers),
    ("F11", fig11_roc),
    ("S7.2", s72_defenses),
    ("X8.1", x81_network_breakdown),
    ("ApxA", apx_pandemic_compare),
];

/// Experiments beyond the paper's own artifact list, opt-in via
/// `repro --extended`. Kept out of [`EXPERIMENTS`] so the default
/// EXPERIMENTS.md and run report stay byte-identical whether or not the
/// extended pass runs.
const EXTENDED_EXPERIMENTS: [Experiment; 1] = [("EC1", ec_entropy_blocklist)];

/// Runs `registry` on a claim-order worker pool. Workers claim passes
/// from a shared cursor in racy order, but each result lands in its
/// registry-indexed slot and comes back in registry order, with its wall
/// — so the outputs are byte-identical at any `workers` value.
fn run_pool(
    registry: &[Experiment],
    ctx: &AnalysisCtx<'_>,
    workers: usize,
) -> Vec<(ExperimentOutput, Duration)> {
    let workers = workers.clamp(1, registry.len());
    let slots: Vec<Mutex<Option<(ExperimentOutput, Duration)>>> =
        (0..registry.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, func)) = registry.get(i) else {
                    break;
                };
                let t0 = Instant::now();
                let out = func(ctx);
                *slots[i].lock().expect("no poisoned pass slot") = Some((out, t0.elapsed()));
                // Pass boundary: assert the worker's scratch leases are
                // balanced; pooled kernel buffers stay warm for the next
                // claimed pass.
                scratch_reset();
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned pass slot")
                .expect("every pass slot filled")
        })
        .collect()
}

/// Runs `registry` over `study` on `workers` workers, forcing every
/// shared window first when `index_all` is set. When the study is
/// instrumented, records the `run/analysis` span — `index` (if forced)
/// and `passes`, one child per pass with its input records as items —
/// replacing any earlier one, and extends the `run` wall by it. Returns
/// the outputs in registry order and how many shared windows were built.
fn analyse(
    study: &mut Study,
    registry: &[Experiment],
    workers: usize,
    mode: IndexMode,
    index_all: bool,
) -> (Vec<(&'static str, ExperimentOutput)>, usize) {
    let t0 = Instant::now();
    let ctx = AnalysisCtx::with_mode(study, mode);
    let index = index_all.then(|| ctx.build_all());
    // Claim order cannot affect output: passes only read the frozen
    // study and the shared context.
    let t_passes = Instant::now();
    let outs = run_pool(registry, &ctx, workers);
    let passes_wall = t_passes.elapsed();
    let (built, index_bytes) = (ctx.windows_built(), ctx.index_bytes());
    drop(ctx);

    let (results, walls): (Vec<_>, Vec<_>) = registry
        .iter()
        .zip(outs)
        .map(|(&(id, _), (out, wall))| ((id, out), wall))
        .unzip();
    if study.config.instrument {
        let children: Vec<Span> = results
            .iter()
            .zip(walls)
            .map(|((id, out), wall)| Span {
                items: out.input_records,
                children: out.spans.clone(),
                ..Span::new(id, wall)
            })
            .collect();
        let items = children.iter().map(|c| c.items).sum();
        let passes = Span {
            items,
            children,
            ..Span::new("passes", passes_wall)
        };
        let analysis = Span {
            items,
            bytes: index_bytes as u64,
            children: index.into_iter().chain([passes]).collect(),
            ..Span::new("analysis", t0.elapsed())
        };
        let total_wall = study.metrics.total_wall;
        if let Some(run) = study.report.spans.iter_mut().find(|s| s.name == "run") {
            run.wall = total_wall + analysis.wall;
            run.set_child(analysis);
        }
    }
    (results, built)
}

/// Runs every experiment in paper order, on
/// `config.effective_analysis_threads()` workers.
///
/// When the study was run with `config.instrument`, the engine's walls
/// land in the run report as the `run/analysis` span: `index` (one child
/// per shared window) and `passes` (one child per experiment, items =
/// its input records). A second call replaces the span.
pub fn run_all(study: &mut Study) -> Vec<(&'static str, ExperimentOutput)> {
    run_all_with(
        study,
        study.config.effective_analysis_threads(),
        IndexMode::Sorted,
    )
}

/// [`run_all`] with explicit worker count and index mode (the equivalence
/// suite exercises both knobs; production goes through [`run_all`]).
///
/// Output is byte-identical at any `workers` value: like the simulation
/// driver, workers claim passes from a shared cursor in racy order, but
/// each result lands in its registry-indexed slot and the merge walks
/// slots in registry order.
pub fn run_all_with(
    study: &mut Study,
    workers: usize,
    mode: IndexMode,
) -> Vec<(&'static str, ExperimentOutput)> {
    analyse(study, &EXPERIMENTS, workers, mode, true).0
}

/// Runs the extended (beyond-paper) registry, on
/// `config.effective_analysis_threads()` workers.
///
/// Unlike [`run_all`] this never writes to `study.report`: the extended
/// pass must leave the default BENCH_run.json exactly as untouched as it
/// leaves EXPERIMENTS.md.
pub fn run_extended(study: &Study) -> Vec<(&'static str, ExperimentOutput)> {
    run_extended_with(
        study,
        study.config.effective_analysis_threads(),
        IndexMode::Sorted,
    )
}

/// [`run_extended`] with explicit worker count and index mode (exercised
/// by the extended-equivalence suite; production goes through
/// [`run_extended`]). Byte-identical at any `workers` value.
pub fn run_extended_with(
    study: &Study,
    workers: usize,
    mode: IndexMode,
) -> Vec<(&'static str, ExperimentOutput)> {
    let ctx = AnalysisCtx::with_mode(study, mode);
    let outs = run_pool(&EXTENDED_EXPERIMENTS, &ctx, workers);
    EXTENDED_EXPERIMENTS
        .iter()
        .zip(outs)
        .map(|(&(id, _), (out, _))| (id, out))
        .collect()
}

/// The default registry's ids in paper order — the section order of
/// EXPERIMENTS.md and the id universe of the incremental engine's
/// pass-invalidation manifest.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Extended-registry ids (the `repro --extended` passes).
pub fn extended_experiment_ids() -> impl Iterator<Item = &'static str> {
    EXTENDED_EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Runs only the default-registry passes whose ids are in `ids`, in
/// registry order, plus how many of the six shared windows the re-run
/// had to build — the incremental engine's re-run of the passes
/// invalidated by a timeline extension. Windows build lazily, inside
/// the passes that read them. When instrumented, the re-run passes are
/// recorded like [`run_all`]'s, under `run/analysis/passes` (without an
/// `index` child). Unknown ids are ignored; the invalidation registry is
/// pinned to the experiment registry by test, so an unknown id here is a
/// caller bug, not silent drift.
pub fn run_selected(
    study: &mut Study,
    ids: &[&str],
    workers: usize,
) -> (Vec<(&'static str, ExperimentOutput)>, usize) {
    let registry: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| ids.contains(id))
        .copied()
        .collect();
    if registry.is_empty() {
        return (Vec::new(), 0);
    }
    analyse(study, &registry, workers, IndexMode::Sorted, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn all_experiments_run_on_a_tiny_study() {
        let mut study = Study::run(StudyConfig::tiny()).unwrap();
        let all = run_all(&mut study);
        assert_eq!(all.len(), 20);
        for (id, out) in &all {
            assert!(
                !out.figures.is_empty() || !out.tables.is_empty() || !out.stats.is_empty(),
                "experiment {id} produced nothing"
            );
            for (name, value) in &out.stats {
                assert!(
                    value.is_finite() || value.is_nan(),
                    "stat {name} is infinite"
                );
            }
        }
        // Instrumentation: one pass span per experiment, at least one
        // with nonzero input cardinality, the shared windows, and an
        // analysis wall covering both engine phases.
        let analysis = study.report.span("run/analysis").expect("analysis span");
        let passes = analysis.get("passes").expect("passes span");
        assert_eq!(passes.children.len(), 20);
        assert!(passes.children.iter().any(|p| p.items > 0));
        assert_eq!(analysis.get("index").map(|i| i.children.len()), Some(6));
        assert!(analysis.children.iter().all(|p| p.wall <= analysis.wall));
        assert_eq!(
            analysis
                .get("passes/F11/actioning/read")
                .map(|r| r.children.len()),
            Some(4),
            "one read span per granularity"
        );
    }

    /// Every registered pass must be known to the windows registry —
    /// otherwise the incremental engine would silently treat it as
    /// always-invalidated (or worse, the registries would drift apart).
    #[test]
    fn every_pass_is_known_to_the_windows_registry() {
        let range = StudyConfig::tiny().full_range;
        for (id, _) in EXPERIMENTS.iter().chain(EXTENDED_EXPERIMENTS.iter()) {
            assert!(
                windows::pass_reads(id, range).is_some(),
                "pass {id} is missing from analysis::windows::pass_reads"
            );
        }
    }

    /// The windows registry and a selected re-run agree: after a one-day
    /// extension exactly the four end-relative passes rerun, and the
    /// re-run builds only the one shared window (§7.2's ip_week) those
    /// passes touch.
    #[test]
    fn selected_rerun_builds_only_the_windows_it_reads() {
        let mut cfg = StudyConfig::tiny();
        cfg.instrument = false;
        let old = cfg.full_range;
        cfg.extend_days = 1;
        let new = cfg.sim_range();
        let invalidated: Vec<&str> = experiment_ids()
            .filter(|id| windows::invalidated_by_extension(id, old, new))
            .collect();
        assert_eq!(invalidated, ["F1", "F11", "S7.2"]);
        let mut study = Study::run(cfg).unwrap();
        let (outs, built) = run_selected(&mut study, &invalidated, 2);
        assert_eq!(
            outs.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            invalidated
        );
        assert_eq!(built, 1, "only S7.2's ip_week window is shared");
    }

    #[test]
    fn extended_experiments_leave_the_run_report_untouched() {
        let mut study = Study::run(StudyConfig::tiny()).unwrap();
        let _ = run_all(&mut study);
        let before = study.report.to_json_string();
        let ext = run_extended(&study);
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].0, "EC1");
        assert!(!ext[0].1.stats.is_empty());
        assert!(!ext[0].1.figures.is_empty());
        for (name, value) in &ext[0].1.stats {
            assert!(value.is_finite(), "extended stat {name} is not finite");
        }
        assert_eq!(
            study.report.to_json_string(),
            before,
            "extended pass wrote into the run report"
        );
    }

    #[test]
    fn actioning_spans_land_in_the_run_report_when_instrumented() {
        let mut study = Study::run(StudyConfig::tiny()).unwrap();
        let _ = run_all(&mut study);
        let actioning = study
            .report
            .span("run/analysis/passes/F11/actioning")
            .expect("F11 nests its actioning span");
        let build = actioning.get("build").expect("build span");
        let read = actioning.get("read").expect("read span");
        assert_eq!(build.items, 4, "one trie pair per pooled day");
        assert_eq!(actioning.wall, build.wall + read.wall);
        let cuts: Vec<&str> = read.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(cuts, ["-128", "-64", "-56", "IPv4"]);
        assert!(read.children.iter().all(|c| c.items > 0));
        assert_eq!(read.items, read.children.iter().map(|c| c.items).sum());
    }

    #[test]
    fn uninstrumented_run_records_no_spans() {
        let mut cfg = StudyConfig::tiny();
        cfg.instrument = false;
        let mut study = Study::run(cfg).unwrap();
        let all = run_all(&mut study);
        assert_eq!(all.len(), 20);
        assert!(study.report.spans.is_empty());
    }
}
