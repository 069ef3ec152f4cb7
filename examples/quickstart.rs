//! Quickstart: run a small study end-to-end and print the headline
//! user-level IPv6 findings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ipv6_user_study::experiments::{self, AnalysisCtx};
use ipv6_user_study::{Study, StudyConfig};

fn main() {
    // A scaled-down platform: ~5k households (~12k users), attacker
    // campaigns included, simulated over the paper's Jan 23 – Apr 19 2020
    // window with deterministic sampling.
    let config = StudyConfig::test_scale();
    println!(
        "simulating {} households, {} campaigns, {} .. {}",
        config.households, config.campaigns, config.full_range.start, config.full_range.end
    );
    let study = Study::run(config).expect("valid preset");
    println!(
        "platform saw {} requests; samples retained {}; {} labeled abusive accounts\n",
        study.datasets().offered,
        study.datasets().retained(),
        study.labels().len()
    );
    let ctx = AnalysisCtx::new(&study);

    // RQ1 — user behavior across protocols (Figure 2 / Figure 7).
    let fig2 = experiments::fig2_addrs_per_user(&ctx);
    let fig7 = experiments::fig7_users_per_ip(&ctx);
    println!("== RQ1: users across protocols ==");
    println!(
        "addresses per user per week (median): IPv4 {} vs IPv6 {}",
        fig2.get_stat("fig2.v4_week_median").unwrap(),
        fig2.get_stat("fig2.v6_week_median").unwrap()
    );
    println!(
        "single-user addresses in a day:       IPv4 {:.0}% vs IPv6 {:.0}%",
        100.0 * fig7.get_stat("fig7.v4_day_single").unwrap(),
        100.0 * fig7.get_stat("fig7.v6_day_single").unwrap()
    );

    // RQ2 — attacker behavior (Figure 3's inversion).
    let fig3 = experiments::fig3_aa_addrs(&ctx);
    println!("\n== RQ2: attackers ==");
    println!(
        "addresses per abusive account per day (mean): IPv4 {:.2} vs IPv6 {:.2} (the inversion)",
        fig3.get_stat("fig3.v4_mean").unwrap(),
        fig3.get_stat("fig3.v6_mean").unwrap()
    );

    // RQ3 — outliers (§6.1.3).
    let o61 = experiments::o61_ip_outliers(&ctx);
    println!("\n== RQ3: outliers ==");
    println!(
        "most-populated address this week: IPv4 {} users vs IPv6 {} users",
        o61.get_stat("o61.v4_max_users").unwrap(),
        o61.get_stat("o61.v6_max_users").unwrap()
    );
    println!(
        "heavy-IPv6-address gateway signature share: {:.0}% (vs {:.1}% among light addresses)",
        100.0 * o61.get_stat("o61.sig_heavy_share").unwrap(),
        100.0 * o61.get_stat("o61.sig_light_share").unwrap()
    );

    // RQ4 — actioning tradeoffs (Figure 11).
    let fig11 = experiments::fig11_roc(&ctx);
    println!("\n== RQ4: day-over-day actioning (threshold 0) ==");
    for tag in ["p128", "p64", "p56", "IPv4"] {
        println!(
            "{:>5}: TPR {:.1}%  FPR {:.3}%",
            tag.replace('p', "/"),
            100.0 * fig11.get_stat(&format!("fig11.{tag}_max_tpr")).unwrap(),
            100.0 * fig11.get_stat(&format!("fig11.{tag}_t0_fpr")).unwrap()
        );
    }
    println!("\nSee EXPERIMENTS.md for the full paper-vs-measured comparison.");
}
