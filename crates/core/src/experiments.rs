//! The experiment registry: one function per table/figure in the paper.
//!
//! Every function takes an [`AnalysisCtx`] — the rows, indexes and day
//! tries of the (family, window) inputs its registry entry declares —
//! and returns an [`ExperimentOutput`] — figures (plottable series),
//! tables, and named scalar statistics. The scalar statistics are the
//! quantities the paper quotes in prose (e.g. "95% of IPv6 addresses had
//! a single user"); the `repro` binary compares them against
//! [`crate::paper`]'s reference values to build EXPERIMENTS.md.
//!
//! The declarations are the one input plan: [`crate::ctx`] serves a pass
//! nothing else and memoizes each index across the passes that declare
//! it, and [`invalidated_by_extension`] derives which passes an
//! extension invalidates from them.
//!
//! [`run_all`] executes the registry on the same claim-order worker pool
//! as [`crate::driver`]'s shards, the calling thread as worker 0: workers
//! claim passes from one atomic cursor, and each pass's output comes back
//! by value in registry order — so the rendered figures and stats are
//! byte-identical at any `analysis_threads` count, and the run report's
//! `run/analysis` span lists its passes in registry order.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use ipv6_study_analysis::characterize::{
    asn_low_v6_shares, asn_ratio_table, client_patterns, country_ratio_table, prevalence_series,
    RatioRow,
};
use ipv6_study_analysis::ip_centric::{
    abuse_per_ip, abuse_per_prefix, users_per_ip, users_per_prefix, users_per_prefix_by_user,
    users_per_v4_addr,
};
use ipv6_study_analysis::outliers::{
    heavy_ip_asn_concentration, heavy_prefix_asn_concentration, outlier_user_prevalence_ratio,
    signature_predictability, tail_stats,
};
use ipv6_study_analysis::similarity::most_similar;
use ipv6_study_analysis::user_centric::{
    address_lifespans, addrs_per_user, prefix_lifespans, prefixes_per_user, LifespanCdfs,
    PrefixSpanRow,
};
use ipv6_study_analysis::windows::Recipe::*;
use ipv6_study_analysis::{CdfSeries, DatasetIndex, FigureReport, TableReport};
use ipv6_study_obs::Span;
use ipv6_study_secapp::actioning::{actioning_roc_between, operating_points, Granularity};
use ipv6_study_secapp::blocklist::{evaluate_over_days, Blocklist};
use ipv6_study_secapp::mlfeatures::{training_sets_by_protocol, LogisticModel};
use ipv6_study_secapp::ratelimit::recommend_threshold;
use ipv6_study_secapp::signatures::HeavyAddressPredictor;
use ipv6_study_secapp::threat_exchange::{half_life, value_decay};
use ipv6_study_stats::Ecdf;
use ipv6_study_telemetry::time::{focus_day_ip, focus_day_user};
use ipv6_study_telemetry::{Asn, ColumnSlice, DateRange, Family::*, IpId, SimDate, UserId};

pub use crate::ctx::AnalysisCtx;
use crate::ctx::{Input, Plan};
use crate::pool;
use crate::study::Study;

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
    let range = ctx.days(Sim);
    let user = ctx.rows(User, Sim);
    let req = ctx.rows(Request, Sim);
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

    // The mean of share `i` (0: users, 1: requests) over the days lo..=hi.
    let mean = |i: usize, lo: SimDate, hi: SimDate| {
        let sel: Vec<f64> = pts
            .iter()
            .filter(|p| p.day >= lo && p.day <= hi)
            .map(|p| [p.user_share, p.request_share][i])
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let early_end = range.start + 13;
    let late_start = range.end - 13;
    for (i, name) in ["user_share", "request_share"].into_iter().enumerate() {
        out.stat(
            &format!("fig1.{name}_mean"),
            mean(i, range.start, range.end),
        );
    }
    for (i, name) in ["user_share", "request_share"].into_iter().enumerate() {
        let delta = mean(i, late_start, range.end) - mean(i, range.start, early_end);
        out.stat(&format!("fig1.{name}_lockdown_delta"), delta);
    }
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
    let recs = ctx.rows(User, Week);
    // The paper requires ≥1k users per ASN, i.e. ~0.04% of its 2.6M
    // sampled users; scale that floor to our sampled-user count: the
    // groups of the shared focus-week index.
    let distinct_users = ctx.user_week().user_groups().len();
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
        let net = ctx.world().find_by_asn(row.key);
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
    let jan_recs = ctx.rows(User, JanWeek);
    let apr_recs = ctx.rows(User, Week);
    let distinct_users = ctx.user_week().user_groups().len();
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
    let ratio_of = |rows: &[RatioRow<_>], code: &str| {
        rows.iter()
            .find(|r| r.key == ipv6_study_telemetry::Country::new(code))
            .map_or(f64::NAN, |r| r.ratio)
    };
    out.stat("tab2.in_apr", ratio_of(&apr_all, "IN"));
    out.stat("tab2.us_apr", ratio_of(&apr_all, "US"));
    out.stat("tab2.de_jan", ratio_of(&jan_all, "DE"));
    out.stat("tab2.de_apr", ratio_of(&apr_all, "DE"));
    for code in ["DE", "BY", "PR"] {
        let delta = ratio_of(&apr_all, code) - ratio_of(&jan_all, code);
        out.stat(&format!("tab2.{}_delta", code.to_lowercase()), delta);
    }
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
    let filter = |u: UserId| !ctx.labels().is_abusive(u);
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
    let day = ctx.index_of(Abuse, Apr19);
    let aa = addrs_per_user(day, |_| true);
    let mut out = ExperimentOutput::default();
    out.record_input(day.len());
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
    let filter = |u: UserId| !ctx.labels().is_abusive(u);
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
    let lengths: Vec<u8> = vec![32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 80, 96, 112, 128];
    let filter = |u: UserId| !ctx.labels().is_abusive(u);
    let users = prefixes_per_user(ctx.user_week(), &lengths, filter);
    let aas = prefixes_per_user(ctx.abuse_week(), &lengths, |_| true);

    let to_fig = |id: &str, caption: &str, rows: &[PrefixSpanRow]| {
        let mut fig = FigureReport::new(id, caption);
        for (k, label) in ["1", "<=2", "<=3"].into_iter().enumerate() {
            let pts = rows
                .iter()
                .map(|r| (u64::from(r.len), [r.le1, r.le2, r.le3][k]));
            fig = fig.with(CdfSeries::from_u64(label, pts));
        }
        fig
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
    let at =
        |rows: &[PrefixSpanRow], len: u8| rows.iter().find(|r| r.len == len).map_or(0.0, |r| r.le1);
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
    let focus = focus_day_user();
    let filter = |u: UserId| !ctx.labels().is_abusive(u);
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
    let focus = focus_day_user();
    let aa_history = ctx.index_of(Abuse, Lookback);
    let v6_lengths: Vec<u8> = vec![16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128];
    let v4_lengths: Vec<u8> = vec![8, 16, 24, 32];
    let filter = |u: UserId| !ctx.labels().is_abusive(u);

    let mut out = ExperimentOutput::default();
    out.record_input(ctx.user_lookback().len() + aa_history.len());
    let always = |_: UserId| true;
    type Case<'a> = (&'a str, &'a DatasetIndex, &'a dyn Fn(UserId) -> bool);
    let cases: [Case; 2] = [
        ("Figure 6a", ctx.user_lookback(), &filter),
        ("Figure 6b", aa_history, &always),
    ];
    for (id, history, f) in cases {
        let v6 = prefix_lifespans(history, focus, &v6_lengths, true, f);
        let v4 = prefix_lifespans(history, focus, &v4_lengths, false, f);
        let mut fig = FigureReport::new(id, "share of (user, prefix) pairs aged <=1/2/3 days");
        for (proto, rows) in [("IPv6", &v6), ("IPv4", &v4)] {
            for (k, age) in ["1d", "<=2d", "<=3d"].into_iter().enumerate() {
                let pts = rows
                    .iter()
                    .map(|r| (u64::from(r.len), [r.d1, r.d2, r.d3][k]));
                fig = fig.with(CdfSeries::from_u64(format!("{proto}: {age}"), pts));
            }
        }
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
    let day = abuse_per_ip(ctx.ip_day(), ctx.labels());
    let week = abuse_per_ip(ctx.ip_week(), ctx.labels());
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
    let week = users_per_ip(ctx.ip_week());
    // Thresholds scaled to the simulation: a "heavy" address hosts >X
    // users; the paper's 1k/200k translate down with population size.
    // Scale-aware: a "heavy" address hosts more users than ~1/1500th of
    // the simulated population (the paper's 10K+ of ~2.5B scales likewise).
    let heavy = (ctx.approx_users() / 1_500).max(8);
    let mega = heavy * 3;
    let (v6_counts, v4_counts): (HashMap<_, _>, HashMap<_, _>) = week
        .counts
        .iter()
        .map(|(&ip, &c)| (ip, c))
        .partition(|(ip, _)| ip.is_ipv6());
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
    for (proto, s, conc) in [("IPv4", &v4, &conc_v4), ("IPv6", &v6, &conc_v6)] {
        t.push_row(vec![
            proto.into(),
            s.total.to_string(),
            s.above(heavy).to_string(),
            s.above(mega).to_string(),
            s.max.to_string(),
            conc.asns.to_string(),
            format!("{:.2}", conc.top1_share),
        ]);
    }
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

    // Predictor evaluation (the "signatures are feasible" claim), each
    // address's ASN from the address table.
    let index = ctx.ip_week();
    let ips = &index.tables().ips;
    let asn_of: HashMap<_, _> = index
        .ip_id_groups()
        .map(|(id, _)| (ips.addr(id), ips.asn(id)))
        .collect();
    let predictor = HeavyAddressPredictor::learn(&week.counts, &asn_of, heavy);
    let eval = predictor.evaluate(&week.counts, &asn_of, heavy);
    out.stat("o61.predictor_precision", eval.precision);
    out.stat("o61.predictor_recall", eval.recall);
    out
}

/// Figure 9 — users per IPv6 prefix across lengths, with the IPv4 curve.
pub fn fig9_users_per_prefix(ctx: &AnalysisCtx) -> ExperimentOutput {
    let lengths = [128u8, 72, 68, 64, 48, 44];
    let mut out = ExperimentOutput::default();
    let mut fig = FigureReport::new("Figure 9", "CDFs of users per IPv6 prefix (1 week)");
    let mut candidates: Vec<(u8, Ecdf)> = Vec::new();
    for len in lengths {
        let index = ctx.index_of(Prefix(len), Week);
        out.record_input(index.len());
        let upp = users_per_prefix(index, len);
        fig = fig.with(cdf_series(&format!("/{len}"), &upp.ecdf, 10));
        candidates.push((len, upp.ecdf));
    }
    out.record_input(ctx.ip_week().len());
    let v4 = users_per_v4_addr(ctx.ip_week());
    fig = fig.with(cdf_series("IPv4", &v4, 10));
    out.figures.push(fig);
    for (len, e) in &candidates {
        out.stat(&format!("fig9.single_user_at{len}"), e.fraction_le(1));
    }
    // Which prefix length matches IPv4 best (paper: /48)?
    let sim = most_similar(&v4, &candidates);
    out.stat("fig9.v4_best_match_len", f64::from(sim.best_len));
    out.stat("fig9.v4_best_match_ks", sim.best_distance);
    out
}

/// Figure 10 — abusive accounts and benign users per prefix-with-abuse.
pub fn fig10_aa_per_prefix(ctx: &AnalysisCtx) -> ExperimentOutput {
    let mut out = ExperimentOutput::default();

    // (a) abusive accounts per prefix.
    let lengths_a = [128u8, 64, 60, 56, 52];
    let mut fig_a = FigureReport::new("Figure 10a", "abusive accounts per prefix (1 week)");
    let mut panel_a = Vec::new();
    for len in lengths_a {
        let index = ctx.index_of(Prefix(len), Week);
        out.record_input(index.len());
        let app = abuse_per_prefix(index, ctx.labels(), len);
        fig_a = fig_a.with(cdf_series(&format!("/{len}"), &app.aa, 10));
        panel_a.push(app);
    }
    out.record_input(ctx.ip_week().len());
    let v4_view = abuse_per_ip(ctx.ip_week(), ctx.labels());
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
        // Panel (a)'s walk at a length the panels share.
        let benign = match panel_a.iter().find(|app| app.len == len) {
            Some(app) => app.benign.clone(),
            None => {
                let index = ctx.index_of(Prefix(len), Week);
                out.record_input(index.len());
                abuse_per_prefix(index, ctx.labels(), len).benign
            }
        };
        fig_b = fig_b.with(cdf_series(&format!("/{len}"), &benign, 10));
        benign_candidates.push((len, benign));
    }
    fig_b = fig_b.with(cdf_series("IPv4", &v4_view.benign_v4, 10));
    out.figures.push(fig_b);
    let aa_candidates: Vec<(u8, Ecdf)> = panel_a.into_iter().map(|app| (app.len, app.aa)).collect();

    let single_at = |cands: &[(u8, Ecdf)], len: u8| {
        cands
            .iter()
            .find(|(l, _)| *l == len)
            .map_or(0.0, |(_, e)| e.fraction_le(1))
    };
    out.stat("fig10.aa_single_at64", single_at(&aa_candidates, 64));
    out.stat("fig10.aa_single_at56", single_at(&aa_candidates, 56));
    out.stat("fig10.benign_le1_at64", single_at(&benign_candidates, 64));
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
    // §6.2.3's own method: the interesting prefixes are far too few for
    // the prefix random sample to hit, so the paper (and we) count *user
    // sample members per prefix* and extrapolate — a prefix with k sampled
    // users has k/rate users in expectation.
    let rate = ctx.user_sample_rate();
    let heavy_pop = (ctx.approx_users() / 1_500).max(8);
    // Require a few sampled users on top of the expected-population bar,
    // to keep noise out at small scales.
    let heavy_sampled = ((heavy_pop as f64 * rate).ceil() as u64).max(3);
    let recs = ctx.rows(User, Week);
    let mut out = ExperimentOutput::default();
    out.record_input(recs.len());
    // Counted from the focus week's user grouping, one count per length.
    let per_len = users_per_prefix_by_user(ctx.user_week(), &[112, 64, 48]);
    let (upp112, upp64) = (&per_len[0], &per_len[1]);
    for upp in &per_len {
        let len = upp.len;
        let stats = tail_stats(&upp.counts, &[heavy_sampled]);
        let heavy = stats.above(heavy_sampled) as f64;
        out.stat(&format!("o62.heavy_p{len}_count"), heavy);
        out.stat(&format!("o62.max_users_p{len}"), stats.max as f64 / rate);
    }
    // ASN concentration of heavy /64s (paper: M247 21%, top-4 61%).
    let conc = heavy_prefix_asn_concentration(recs, &upp64.counts, heavy_sampled);
    out.stat("o62.heavy_p64_asns", conc.asns as f64);
    out.stat("o62.heavy_p64_top1_share", conc.top1_share);
    out.stat("o62.heavy_p64_top4_share", conc.top4_share);
    // The /112-equals-/64 gateway structure: the top /112's population
    // should rival the top /64's (the paper's "these /112 dominate").
    let max112 = upp112.counts.values().copied().max().unwrap_or(0);
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
/// [`DayCounts`](ipv6_study_secapp::actioning::DayCounts) aggregation-trie
/// pair exactly once (one sort per family per day), and every granularity
/// cut then reads its per-unit distinct user counts straight off the
/// shared tries — O(records + nodes) for the whole sweep instead of a
/// re-sort per (granularity, pair) combination.
/// The per-unit scores and outcomes are identical to the naive per-cut
/// tally (property-tested in `secapp::actioning`), so the curves are
/// byte-for-byte what the record-level path produced.
pub fn fig11_roc(ctx: &AnalysisCtx) -> ExperimentOutput {
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
    let pair = ctx.days(PairWindow);
    out.record_input(ctx.rows(Pair, PairWindow).len());
    let t_build = Instant::now();
    let day_counts: Vec<_> = pair.days().map(|d| ctx.day_counts(PairWindow, d)).collect();
    let build = Span::new("build", t_build.elapsed()).with_items(day_counts.len() as u64);
    let mut read = Span::new("read", Duration::ZERO);
    let mut eval = Span::new("eval", Duration::ZERO);
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
        let t_eval = Instant::now();
        let pts = curve.sweep(&thresholds, None);
        let mut points: Vec<(f64, f64)> = pts.iter().map(|p| (p.fpr, p.tpr)).collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let label = gran.label();
        fig = fig.with(CdfSeries { label, points });
        let op = operating_points(&curve);
        let tag = gran.label().replace('/', "p");
        out.stat(&format!("fig11.{tag}_max_tpr"), op.max_tpr);
        out.stat(&format!("fig11.{tag}_t0_fpr"), op.t0.1);
        out.stat(&format!("fig11.{tag}_t10_tpr"), op.t10.0);
        out.stat(&format!("fig11.{tag}_t10_fpr"), op.t10.1);
        out.stat(&format!("fig11.{tag}_t100_tpr"), op.t100.0);
        let tpr_at_1pct = curve.tpr_at_fpr(0.01, None);
        out.stat(&format!("fig11.{tag}_tpr_at_fpr_1pct"), tpr_at_1pct);
        eval.wall += t_eval.elapsed();
        eval.items += curve.len() as u64;
    }
    out.figures.push(fig);
    out.spans.push(
        Span::new("actioning", build.wall + read.wall + eval.wall)
            .with_child(build)
            .with_child(read)
            .with_child(eval),
    );
    out
}

/// §7.2 — defense mechanisms: blocklist decay, threat-exchange half-life,
/// rate-limit thresholds, and the ML protocol-transfer gap.
pub fn s72_defenses(ctx: &AnalysisCtx) -> ExperimentOutput {
    let labels = ctx.labels();
    let mut out = ExperimentOutput::default();
    let list_day = focus_day_ip();
    let inputs = [(Ip, Week), (Prefix(64), Week), (Pair, MlPair)];
    out.record_input(inputs.iter().map(|&(f, r)| ctx.rows(f, r).len()).sum());

    // Blocklist decay at three granularities.
    for (gran, name) in [
        (Granularity::V6Full, "v6_addr"),
        (Granularity::V6Prefix(64), "v6_p64"),
        (Granularity::V4Full, "v4_addr"),
    ] {
        let family = match gran {
            Granularity::V6Prefix(len) => Prefix(len),
            _ => Ip,
        };
        let store_day = ctx.rows_on(family, Week, list_day);
        // The listing day and its six evaluation days: the focus week.
        let later: Vec<(SimDate, ColumnSlice<'_>)> = (1..=6u16)
            .map(|k| (list_day + k, ctx.rows_on(family, Week, list_day + k)))
            .collect();
        let bl = Blocklist::from_day(store_day, labels, gran, 0.5, list_day, 14);
        let evals = evaluate_over_days(&bl, labels, list_day, later.iter().map(|&(d, r)| (d, r)));
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
            labels,
            gran,
            later.iter().map(|&(d, r)| (d.days_since(list_day), r)),
        );
        let recall = decay
            .iter()
            .map(|p| (u64::from(p.offset), p.residual_recall));
        let series = CdfSeries::from_u64("residual recall", recall);
        let caption = format!("exchange decay: {name}");
        out.figures
            .push(FigureReport::new(format!("§7.2 decay {name}"), caption).with(series));
        let half = half_life(&decay).map_or(7.0, f64::from);
        out.stat(&format!("s72.exchange_{name}_half_life"), half);
    }

    // Rate-limit recommendations from users-per-key distributions.
    let per_ip = users_per_ip(ctx.ip_week());
    let per_p64 = users_per_prefix(ctx.index_of(Prefix(64), Week), 64).ecdf;
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
    let ml = ctx.days(MlPair);
    let day = ctx.rows_on(Pair, MlPair, ml.start);
    let next = ctx.rows_on(Pair, MlPair, ml.end);
    let [v4_set, v6_set] = training_sets_by_protocol(day, next, labels);
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
    let mut out = ExperimentOutput::default();
    let inputs = [(Ip, Apr13), (User, Apr19), (User, Lookback)];
    out.record_input(inputs.iter().map(|&(f, r)| ctx.rows(f, r).len()).sum());

    // ASN → kind from the world; `ALL` lists the kinds in declaration
    // order, so a kind's discriminant is its position there.
    let kind_of: HashMap<u32, usize> = ctx
        .world()
        .networks()
        .iter()
        .map(|n| (n.asn.0, n.kind as usize))
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
    let kinds = kind_breakdown(
        [ctx.ip_day(), ctx.user_day(), ctx.user_lookback()],
        focus_day_user(),
        |asn| kind_of.get(&asn.0).copied(),
        |u| !ctx.labels().is_abusive(u),
    );
    for (kind, k) in NetworkKind::ALL.into_iter().zip(kinds) {
        let tag = kind.to_string();
        let users_per_addr = k.v6_users_per_addr.mean().unwrap_or(0.0);
        let addrs_per = k.v6_addrs_per_user.mean().unwrap_or(0.0);
        let newborn = k.v6_pairs.fraction_le(0);
        let v4_users = k.v4_users_per_addr.mean().unwrap_or(0.0);
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

/// One network kind's distributions behind X8.1's means.
#[derive(Debug, PartialEq)]
struct KindStats {
    /// Distinct users per v6 address, over the kind's rows of the day.
    v6_users_per_addr: Ecdf,
    /// The same per v4 address.
    v4_users_per_addr: Ecdf,
    /// Distinct v6 addresses per benign user with one, on the day.
    v6_addrs_per_user: Ecdf,
    /// Days since first seen of the (benign user, v6 address) pairs on
    /// the focus day, over the history.
    v6_pairs: Ecdf,
}

/// X8.1's per-kind distributions from the three shared indexes — an IP
/// day, a user day and a user history ending on `focus` — each walked
/// once. An address has one ASN, so it counts under that ASN's kind
/// (`kind_of`, `None` for no kind), looked up once per interned address
/// into a dense per-address array.
fn kind_breakdown(
    [ip_day, user_day, history]: [&DatasetIndex; 3],
    focus: SimDate,
    kind_of: impl Fn(Asn) -> Option<usize>,
    benign: impl Fn(UserId) -> bool,
) -> [KindStats; 4] {
    let ips = &ip_day.tables().ips;
    let [v4_kinds, v6_kinds] = [(false, ips.num_v4()), (true, ips.num_v6())].map(|(v6, n)| {
        (0..n)
            .map(|i| kind_of(ips.asn(IpId::new(v6, i))).map(|k| k as u8))
            .collect::<Vec<_>>()
    });
    // Per kind: users per v4 and per v6 address, v6 addresses per user,
    // and the focus-day pairs' ages.
    let mut values: [[Vec<u64>; 4]; 4] = Default::default();
    let mut keys: Vec<u64> = Vec::new();
    for (id, group) in ip_day.ip_id_groups() {
        let kinds = if id.is_v6() { &v6_kinds } else { &v4_kinds };
        if let Some(kind) = kinds[id.index()] {
            distinct(&mut keys, group.users_dense().iter().map(|&u| u64::from(u)));
            values[usize::from(kind)][usize::from(id.is_v6())].push(keys.len() as u64);
        }
    }
    for (user, group) in user_day.user_groups() {
        if !benign(user) {
            continue;
        }
        let v6 = group.ip_ids().iter().filter(|id| id.is_v6());
        distinct(&mut keys, v6.map(|id| id.index() as u64));
        let mut per_kind = [0u64; 4];
        for kind in keys.iter().filter_map(|&i| v6_kinds[i as usize]) {
            per_kind[usize::from(kind)] += 1;
        }
        for (kind, n) in per_kind.into_iter().enumerate().filter(|&(_, n)| n > 0) {
            values[kind][2].push(n);
        }
    }
    for (user, group) in history.user_groups() {
        if !benign(user) {
            continue;
        }
        keys.clear();
        keys.extend(
            group
                .ip_ids()
                .iter()
                .zip(group.ts())
                .filter_map(|(id, ts)| {
                    let day = ts.date();
                    (id.is_v6() && day <= focus)
                        .then(|| (id.index() as u64) << 16 | u64::from(day.index()))
                }),
        );
        keys.sort_unstable();
        // Days ascend within an address's run: the first is when the pair
        // was first seen, the last whether it was seen on the focus day.
        for run in keys.chunk_by(|a, b| a >> 16 == b >> 16) {
            let (first, last) = (run[0] as u16, run[run.len() - 1] as u16);
            if let Some(kind) = v6_kinds[(run[0] >> 16) as usize] {
                if last == focus.index() {
                    values[usize::from(kind)][3].push(u64::from(last - first));
                }
            }
        }
    }
    values.map(|[v4_users, v6_users, v6_addrs, pairs]| KindStats {
        v6_users_per_addr: Ecdf::from_values(v6_users),
        v4_users_per_addr: Ecdf::from_values(v4_users),
        v6_addrs_per_user: Ecdf::from_values(v6_addrs),
        v6_pairs: Ecdf::from_values(pairs),
    })
}

/// Fills `keys` with the distinct `items`, ascending.
fn distinct(keys: &mut Vec<u64>, items: impl Iterator<Item = u64>) {
    keys.clear();
    keys.extend(items);
    keys.sort_unstable();
    keys.dedup();
}

/// Appendix A — pandemic before/after comparison: the paper re-runs its
/// user-centric analyses on pre-pandemic data (e.g. Feb 12–18) and finds
/// only small shifts — slightly lower IP diversity and slightly longer
/// life spans during lockdowns, "no data point differs by more than 4%"
/// (A.5). We regenerate that comparison from the panel data.
pub fn apx_pandemic_compare(ctx: &AnalysisCtx) -> ExperimentOutput {
    let mut out = ExperimentOutput::default();
    let filter = |u: UserId| !ctx.labels().is_abusive(u);

    // Addresses per user, pre-pandemic week vs focus week (A.3).
    let pre_week = ctx.index_of(User, FebWeek);
    out.record_input(pre_week.len() + ctx.user_week().len());
    let pre = addrs_per_user(pre_week, filter);
    let apr = addrs_per_user(ctx.user_week(), filter);
    let mean = |e: &Ecdf| e.mean().unwrap_or(0.0);
    out.stat("apx.v6_week_mean_feb", mean(&pre.v6));
    out.stat("apx.v6_week_mean_apr", mean(&apr.v6));
    out.stat("apx.v4_week_mean_feb", mean(&pre.v4));
    out.stat("apx.v4_week_mean_apr", mean(&apr.v4));
    out.stat("apx.v6_diversity_delta", mean(&apr.v6) - mean(&pre.v6));

    // Life spans, Feb 18 vs Apr 19 focus days (A.5).
    let feb_hist = ctx.index_of(User, FebLookback);
    let feb_life = address_lifespans(feb_hist, SimDate::ymd(2, 18), filter);
    let apr_hist = ctx.index_of(User, AprLookback);
    out.record_input(feb_hist.len() + apr_hist.len());
    let apr_life = address_lifespans(apr_hist, focus_day_user(), filter);
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
    let newborn = |l: &LifespanCdfs| l.v6_pairs.fraction_le(0);
    for (metric, feb, apr, digits) in [
        ("v6 addrs/user/week (mean)", mean(&pre.v6), mean(&apr.v6), 2),
        ("v4 addrs/user/week (mean)", mean(&pre.v4), mean(&apr.v4), 2),
        (
            "v6 newborn pair share",
            newborn(&feb_life),
            newborn(&apr_life),
            3,
        ),
    ] {
        t.push_row(vec![
            metric.into(),
            format!("{feb:.digits$}"),
            format!("{apr:.digits$}"),
        ]);
    }
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

    let mut out = ExperimentOutput::default();
    let ml = ctx.days(MlPair);
    out.record_input(ctx.rows(Pair, MlPair).len());
    // Shared with Figure 11 through the study's per-day trie cache: the
    // two ML-pair days are the tail of the four-day pair window, so an
    // incremental re-run builds each day's tries exactly once.
    let scores = ctx.day_counts(MlPair, ml.start);
    let outcomes = ctx.day_counts(MlPair, ml.end);
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

/// One registry entry: the paper-artifact id, the inputs its pass reads
/// (its [`AnalysisCtx`] serves nothing else), and the pass.
pub(crate) type Experiment = (
    &'static str,
    &'static [Input],
    fn(&AnalysisCtx) -> ExperimentOutput,
);

/// Every experiment in paper order, with the inputs it declares.
#[rustfmt::skip]
pub(crate) const EXPERIMENTS: [Experiment; 20] = [
    ("F1", &[(User, Sim), (Request, Sim)], fig1_prevalence),
    ("T1", &[(User, Week)], tab1_asns),
    ("T2/F12", &[(User, JanWeek), (User, Week)], tab2_countries),
    ("C4.4", &[(User, Week)], c44_client_patterns),
    ("F2", &[(User, Apr19), (User, Week)], fig2_addrs_per_user),
    ("F3", &[(Abuse, Apr19)], fig3_aa_addrs),
    ("O5.1", &[(User, Week), (Abuse, Week)], o51_user_outliers),
    ("F4", &[(User, Week), (Abuse, Week)], fig4_prefix_span),
    ("F5", &[(User, Lookback)], fig5_lifespans),
    ("F6", &[(User, Lookback), (Abuse, Lookback)], fig6_prefix_lifespans),
    ("F7", &[(Ip, Apr13), (Ip, Week)], fig7_users_per_ip),
    ("F8", &[(Ip, Apr13), (Ip, Week)], fig8_aa_per_ip),
    ("O6.1", &[(Ip, Week)], o61_ip_outliers),
    ("F9", &[(Prefix(128), Week), (Prefix(72), Week), (Prefix(68), Week), (Prefix(64), Week),
        (Prefix(48), Week), (Prefix(44), Week), (Ip, Week)], fig9_users_per_prefix),
    ("F10", &[(Prefix(128), Week), (Prefix(64), Week), (Prefix(60), Week), (Prefix(56), Week),
        (Prefix(52), Week), (Prefix(96), Week), (Prefix(72), Week), (Prefix(68), Week),
        (Ip, Week)], fig10_aa_per_prefix),
    ("O6.2", &[(User, Week)], o62_prefix_outliers),
    ("F11", &[(Pair, PairWindow)], fig11_roc),
    ("S7.2", &[(Ip, Week), (Prefix(64), Week), (Pair, MlPair)], s72_defenses),
    ("X8.1", &[(Ip, Apr13), (User, Apr19), (User, Lookback)], x81_network_breakdown),
    ("ApxA", &[(User, FebWeek), (User, Week), (User, FebLookback), (User, AprLookback)],
        apx_pandemic_compare),
];

/// Experiments beyond the paper's own artifact list, opt-in via
/// `repro --extended`. Kept out of [`EXPERIMENTS`] so the default
/// EXPERIMENTS.md and run report stay byte-identical whether or not the
/// extended pass runs.
pub(crate) const EXTENDED_EXPERIMENTS: [Experiment; 1] =
    [("EC1", &[(Pair, MlPair)], ec_entropy_blocklist)];

/// Every pass's id and output, in registry order.
type Results = Vec<(&'static str, ExperimentOutput)>;

/// Runs `registry` over `study` on `workers` workers, each pass through a
/// view of its own declarations. Returns the outputs in registry order
/// and the `analysis` span: `passes`, one child per pass with its input
/// records as items, the index builds it is first to declare under
/// `index` and the sub-steps it timed itself; the span's bytes are the
/// builds' bytes.
fn analyse(study: &Study, registry: &[Experiment], workers: usize) -> (Results, Span) {
    let t0 = Instant::now();
    let plan = Plan::new(study, registry.iter().map(|&(id, inputs, _)| (id, inputs)));
    // Claim order cannot affect output: passes only read the frozen
    // study, and an index is dropped only after its last declaring pass.
    let outs = pool::run_indexed(registry.len(), workers, |i| {
        let ctx = plan.view(i);
        let t = Instant::now();
        let out = (registry[i].2)(&ctx);
        let wall = t.elapsed();
        ctx.finish();
        (out, wall)
    });
    let passes_wall = t0.elapsed();

    let (mut results, mut children, mut bytes) = (Vec::new(), Vec::new(), 0);
    for ((&(id, ..), (out, wall)), builds) in registry.iter().zip(outs).zip(plan.builds()) {
        bytes += builds.iter().map(|b| b.bytes).sum::<u64>();
        let index = (!builds.is_empty()).then(|| Span {
            items: builds.iter().map(|b| b.items).sum(),
            bytes: builds.iter().map(|b| b.bytes).sum(),
            children: builds.clone(),
            ..Span::new("index", builds.iter().map(|b| b.wall).sum())
        });
        children.push(Span {
            items: out.input_records,
            children: index.into_iter().chain(out.spans.iter().cloned()).collect(),
            ..Span::new(id, wall)
        });
        results.push((id, out));
    }
    let items = children.iter().map(|c| c.items).sum();
    let passes = Span {
        items,
        children,
        ..Span::new("passes", passes_wall)
    };
    let analysis = Span {
        items,
        bytes,
        children: vec![passes],
        ..Span::new("analysis", t0.elapsed())
    };
    (results, analysis)
}

/// Records `analysis` as the `run/analysis` span of an instrumented
/// study, replacing any earlier one, extends the `run` wall by it, and
/// returns the outputs.
fn record(study: &mut Study, (results, analysis): (Results, Span)) -> Results {
    let total_wall = study.metrics.total_wall;
    let run = study.report.spans.iter_mut().find(|s| s.name == "run");
    if let Some(run) = run.filter(|_| study.config.instrument) {
        run.wall = total_wall + analysis.wall;
        run.set_child(analysis);
    }
    results
}

/// Runs every experiment in paper order, on
/// `config.effective_analysis_threads()` workers.
///
/// When the study was run with `config.instrument`, the engine's walls
/// land in the run report as the `run/analysis` span: `passes`, one
/// child per experiment (items = its input records) holding the index
/// builds it is first to declare. A second call replaces the span.
pub fn run_all(study: &mut Study) -> Results {
    run_all_with(study, study.config.effective_analysis_threads())
}

/// [`run_all`] with an explicit worker count (the equivalence suite
/// varies it; production goes through [`run_all`]).
///
/// Output is byte-identical at any `workers` value: like the simulation
/// driver, workers claim passes from a shared cursor in racy order, but
/// the outputs come back in registry order.
pub fn run_all_with(study: &mut Study, workers: usize) -> Results {
    let analysed = analyse(study, &EXPERIMENTS, workers);
    record(study, analysed)
}

/// Runs the extended (beyond-paper) registry, on
/// `config.effective_analysis_threads()` workers.
///
/// Unlike [`run_all`] this never writes to `study.report`: the extended
/// pass must leave the default BENCH_run.json exactly as untouched as it
/// leaves EXPERIMENTS.md.
pub fn run_extended(study: &Study) -> Results {
    run_extended_with(study, study.config.effective_analysis_threads())
}

/// [`run_extended`] with an explicit worker count (exercised by the
/// extended-equivalence suite; production goes through
/// [`run_extended`]). Byte-identical at any `workers` value.
pub fn run_extended_with(study: &Study, workers: usize) -> Results {
    analyse(study, &EXTENDED_EXPERIMENTS, workers).0
}

/// The default registry's ids in paper order — the section order of
/// EXPERIMENTS.md and the id universe of the incremental engine's
/// pass-invalidation manifest.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, ..)| id)
}

/// Runs only the default-registry passes whose ids are in `ids`, in
/// registry order — the incremental engine's re-run of the passes
/// invalidated by a timeline extension. Each index is built by the first
/// re-run pass that reads it. When instrumented, the re-run passes are
/// recorded like [`run_all`]'s. Unknown ids are ignored.
pub fn run_selected(study: &mut Study, ids: &[&str], workers: usize) -> Results {
    let registry: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(id, ..)| ids.contains(id))
        .copied()
        .collect();
    if registry.is_empty() {
        return Vec::new();
    }
    let analysed = analyse(study, &registry, workers);
    record(study, analysed)
}

/// The day ranges pass `id` reads when the simulation covers `sim`, from
/// its declared inputs; `None` for an id in neither registry.
pub fn pass_reads(id: &str, sim: DateRange) -> Option<Vec<DateRange>> {
    let mut registry = EXPERIMENTS.iter().chain(&EXTENDED_EXPERIMENTS);
    let (_, inputs, _) = registry.find(|(pass, ..)| *pass == id)?;
    Some(inputs.iter().map(|&(_, recipe)| recipe.days(sim)).collect())
}

/// Whether pass `id` must rerun after the simulated range grows from
/// `old` to `new` (same start, later end): when one of its declared
/// windows moved, or covers an appended day. An unknown id is always
/// invalidated.
pub fn invalidated_by_extension(id: &str, old: DateRange, new: DateRange) -> bool {
    debug_assert_eq!(old.start, new.start, "extension keeps the range start");
    debug_assert!(old.end <= new.end, "extension only appends days");
    let (Some(before), Some(after)) = (pass_reads(id, old), pass_reads(id, new)) else {
        return true;
    };
    before != after
        || (old.end < new.end && after.iter().any(|r| r.start <= new.end && old.end < r.end))
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
        // with nonzero input cardinality, the index builds under their
        // passes, and an analysis wall covering the passes.
        let analysis = study.report.span("run/analysis").expect("analysis span");
        let passes = analysis.get("passes").expect("passes span");
        assert_eq!(passes.children.len(), 20);
        assert!(passes.children.iter().any(|p| p.items > 0));
        assert!(
            analysis.get("passes/X8.1/index").is_none(),
            "X8.1 reads the shared indexes and builds none"
        );
        assert!(analysis.children.iter().all(|p| p.wall <= analysis.wall));
        assert_eq!(
            analysis
                .get("passes/F11/actioning/read")
                .map(|r| r.children.len()),
            Some(4),
            "one read span per granularity"
        );
    }

    /// The calendars the invalidation rules are checked at: the tiny
    /// preset's two weeks, and the default study range, where the
    /// anchored January and February windows hold days.
    fn calendars() -> [DateRange; 2] {
        [
            StudyConfig::tiny().full_range,
            StudyConfig::default_scale().full_range,
        ]
    }

    const ANCHORED: [&str; 17] = [
        "T1", "T2/F12", "C4.4", "F2", "F3", "O5.1", "F4", "F5", "F6", "F7", "F8", "O6.1", "F9",
        "F10", "O6.2", "X8.1", "ApxA",
    ];
    const END_RELATIVE: [&str; 4] = ["F1", "F11", "S7.2", "EC1"];

    #[test]
    fn anchored_passes_survive_extension() {
        for old in calendars() {
            let new = DateRange::new(old.start, old.end + 3);
            for pass in ANCHORED {
                assert!(
                    !invalidated_by_extension(pass, old, new),
                    "anchored pass {pass} must not rerun on extension of {old:?}"
                );
            }
        }
    }

    #[test]
    fn end_relative_passes_rerun_on_extension() {
        for old in calendars() {
            let new = DateRange::new(old.start, old.end + 1);
            for pass in END_RELATIVE {
                assert_ne!(
                    pass_reads(pass, old),
                    pass_reads(pass, new),
                    "{pass} reads a window that slides with the end"
                );
                assert!(
                    invalidated_by_extension(pass, old, new),
                    "end-relative pass {pass} must rerun on extension of {old:?}"
                );
            }
        }
    }

    #[test]
    fn zero_extension_invalidates_nothing() {
        for r in calendars() {
            for pass in ["F1", "T1", "F11", "S7.2", "EC1", "ApxA"] {
                assert!(!invalidated_by_extension(pass, r, r), "{pass}");
            }
        }
    }

    #[test]
    fn unknown_pass_is_conservatively_invalidated() {
        for r in calendars() {
            assert!(pass_reads("NOPE", r).is_none());
            let longer = DateRange::new(r.start, r.end + 1);
            assert!(invalidated_by_extension("NOPE", r, longer));
        }
    }

    #[test]
    fn pair_window_covers_only_its_days() {
        for r in calendars() {
            let reads = pass_reads("F11", r).unwrap();
            let covers = |d: SimDate| reads.iter().any(|w| w.contains(d));
            assert!(covers(SimDate::ymd(4, 16)));
            assert!(!covers(SimDate::ymd(4, 15)));
        }
    }

    /// A one-day extension re-runs exactly the four end-relative passes,
    /// and the selected re-run builds only the indexes those passes read:
    /// S7.2's focus-week IP and /64 samples.
    #[test]
    fn selected_rerun_builds_only_the_indexes_it_reads() {
        let mut cfg = StudyConfig::tiny();
        let old = cfg.full_range;
        cfg.extend_days = 1;
        let new = cfg.sim_range();
        let invalidated: Vec<&str> = EXPERIMENTS
            .iter()
            .chain(&EXTENDED_EXPERIMENTS)
            .map(|e| e.0)
            .filter(|id| invalidated_by_extension(id, old, new))
            .collect();
        assert_eq!(invalidated, END_RELATIVE);
        let mut study = Study::run(cfg).unwrap();
        let outs = run_selected(&mut study, &invalidated, 2);
        assert_eq!(
            outs.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ["F1", "F11", "S7.2"]
        );
        let passes = study.report.span("run/analysis/passes").unwrap();
        let builds: Vec<String> = passes
            .children
            .iter()
            .flat_map(|p| p.get("index").into_iter().flat_map(|i| &i.children))
            .map(|b| b.name.clone())
            .collect();
        assert_eq!(builds, ["ip_week", "prefix64_week"]);
        assert!(passes.get("S7.2/index").is_some());
    }

    /// Inputs with equal rows share one index: at the tiny calendar
    /// Appendix A's 27-day lookback clips to the 28-day one.
    #[test]
    fn equal_rows_share_one_index() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        let ctx = AnalysisCtx::new(&study);
        assert_eq!(ctx.rows(User, Lookback), ctx.rows(User, AprLookback));
        assert!(std::ptr::eq(
            ctx.user_lookback(),
            ctx.index_of(User, AprLookback)
        ));
        assert!(!std::ptr::eq(ctx.user_week(), ctx.user_lookback()));
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
        let eval = actioning.get("eval").expect("eval span");
        assert_eq!(build.items, 4, "one trie pair per pooled day");
        assert_eq!(actioning.wall, build.wall + read.wall + eval.wall);
        assert_eq!(eval.items, read.items, "every unit read is evaluated");
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

    /// The oracle: X8.1's distributions from one index per kind and
    /// input, over the rows whose ASN has that kind.
    fn kind_breakdown_oracle(
        [ip_day, user_day, history]: [ColumnSlice<'_>; 3],
        focus: SimDate,
        kind_of: impl Fn(Asn) -> Option<usize>,
        benign: impl Fn(UserId) -> bool,
    ) -> [KindStats; 4] {
        use ipv6_study_analysis::ip_centric::users_per_ip;
        use ipv6_study_telemetry::OwnedColumns;
        std::array::from_fn(|kind| {
            let kept = |rows: ColumnSlice<'_>| {
                let kept = rows.records().filter(|r| kind_of(r.asn) == Some(kind));
                OwnedColumns::encode_with(rows.tables_arc(), kept)
            };
            let upi = users_per_ip(&DatasetIndex::by_address(kept(ip_day).as_slice()));
            let user_day = DatasetIndex::by_user(kept(user_day).as_slice());
            let history = DatasetIndex::by_user(kept(history).as_slice());
            KindStats {
                v6_users_per_addr: upi.v6,
                v4_users_per_addr: upi.v4,
                v6_addrs_per_user: addrs_per_user(&user_day, &benign).v6,
                v6_pairs: address_lifespans(&history, focus, &benign).v6_pairs,
            }
        })
    }

    /// The one walk over the shared indexes equals the per-kind indexes
    /// on random histories where users' addresses lie under ASNs of
    /// several kinds (each address under its one ASN), an ASN has no
    /// kind, some users are abusive, and rows lie after the focus day.
    #[test]
    fn kind_breakdown_matches_per_kind_indexes() {
        use ipv6_study_stats::testgen::TestGen;
        use ipv6_study_telemetry::{Country, OwnedColumns, RequestRecord};
        let mut g = TestGen::new(0x5838_3101); // "X81"
        let focus = SimDate::ymd(4, 19);
        // Kinds 0, 1 and 3; ASN 64499 has none.
        let kind_of = |asn: Asn| match asn.0 {
            64496 => Some(0),
            64497 => Some(1),
            64498 => Some(3),
            _ => None,
        };
        let benign = |u: UserId| u.raw() & 3 != 0;
        for _ in 0..32 {
            let n = g.range_u64(0, 300) as usize;
            let mut recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let ts = (focus + 1 - g.range_u64(0, 6) as u16).at(g.below(24) as u8, 0, 0);
                let user = UserId(g.below(16));
                let (ip, host) = if g.below(3) == 0 {
                    let host = g.below(8);
                    (
                        std::net::IpAddr::V4((0xc000_0200 | host as u32).into()),
                        host,
                    )
                } else {
                    let host = g.below(12);
                    let bits = (0x2001_0db8u128 << 96) | u128::from(host);
                    (std::net::IpAddr::V6(bits.into()), host + 1)
                };
                RequestRecord {
                    ts,
                    user,
                    ip,
                    // An address's ASN is a function of the address.
                    asn: Asn(64496 + (host % 4) as u32),
                    country: Country::new("US"),
                }
            });
            recs.sort_by_key(|r| r.ts);
            let all = OwnedColumns::from_records(&recs);
            let rows = all.as_slice();
            let day = |d: SimDate| {
                let at = |d: SimDate| recs.partition_point(|r| r.ts.date() < d);
                rows.slice(at(d)..at(d + 1))
            };
            let inputs = [day(focus - 2), day(focus), rows];
            let a = DatasetIndex::by_address(inputs[0]);
            let [b, c] = [inputs[1], inputs[2]].map(DatasetIndex::by_user);
            assert_eq!(
                kind_breakdown([&a, &b, &c], focus, kind_of, benign),
                kind_breakdown_oracle(inputs, focus, kind_of, benign),
                "{n} rows"
            );
        }
    }
}
