//! The Figure 1 timeline: daily IPv6 share of users and requests over
//! Jan 23 – Apr 19 2020, rendered as an ASCII chart with weekend and
//! lockdown annotations.
//!
//! ```text
//! cargo run --release --example covid_timeline
//! ```

use ipv6_user_study::analysis::characterize::prevalence_series;
use ipv6_user_study::telemetry::SimDate;
use ipv6_user_study::{Study, StudyConfig};

fn bar(share: f64, lo: f64, hi: f64, width: usize) -> String {
    let frac = ((share - lo) / (hi - lo)).clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

fn main() {
    let study = Study::run(StudyConfig::test_scale()).expect("valid preset");
    let range = study.config().full_range;
    let user = study.datasets().user_sample.in_range(range);
    let req = study.datasets().request_sample.in_range(range);
    let pts = prevalence_series(user, req, range);

    let (ulo, uhi) = (0.30, 0.46);
    println!(
        "daily IPv6 share of users (bars span {:.0}%..{:.0}%)",
        ulo * 100.0,
        uhi * 100.0
    );
    for p in &pts {
        let marks = format!(
            "{}{}",
            if p.day.is_weekend() { " W" } else { "" },
            annotate(p.day)
        );
        println!(
            "{} {} {:5.1}% | req {:5.1}%{}",
            p.day,
            bar(p.user_share, ulo, uhi, 30),
            p.user_share * 100.0,
            p.request_share * 100.0,
            marks
        );
    }

    let first_two_weeks: Vec<&_> = pts.iter().take(14).collect();
    let last_two_weeks: Vec<&_> = pts.iter().rev().take(14).collect();
    let mean =
        |v: &[&ipv6_user_study::analysis::characterize::PrevalencePoint],
         f: fn(&ipv6_user_study::analysis::characterize::PrevalencePoint) -> f64| {
            v.iter().map(|p| f(p)).sum::<f64>() / v.len() as f64
        };
    println!(
        "\nJan vs Apr means — users: {:.1}% → {:.1}%   requests: {:.1}% → {:.1}%",
        100.0 * mean(&first_two_weeks, |p| p.user_share),
        100.0 * mean(&last_two_weeks, |p| p.user_share),
        100.0 * mean(&first_two_weeks, |p| p.request_share),
        100.0 * mean(&last_two_weeks, |p| p.request_share),
    );
    println!(
        "The scissors of Figure 1: lockdowns pull the user share down and push the\n\
         request share up, as traffic shifts from offices and cellular to home networks."
    );
}

fn annotate(day: SimDate) -> &'static str {
    match (day.month(), day.day()) {
        (3, 9) => "  <- Italy locks down",
        (3, 19) => "  <- first US state locks down",
        (3, 22) => "  <- Germany locks down",
        _ => "",
    }
}
