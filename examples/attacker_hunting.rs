//! Attacker hunting: combine the §6.1.3 heavy-address signature predictor
//! with the §7.2 ML features to triage tomorrow's abusive addresses today.
//!
//! ```text
//! cargo run --release --example attacker_hunting
//! ```

use std::collections::HashMap;

use ipv6_user_study::analysis::ip_centric::users_per_ip;
use ipv6_user_study::analysis::DatasetIndex;
use ipv6_user_study::secapp::mlfeatures::{training_set, LogisticModel};
use ipv6_user_study::secapp::signatures::HeavyAddressPredictor;
use ipv6_user_study::telemetry::time::{focus_day_user, focus_week};
use ipv6_user_study::{Study, StudyConfig};

fn main() {
    let study = Study::run(StudyConfig::test_scale()).expect("valid preset");

    // 1. Exempt-list the predictable mega-addresses (gateway signature),
    //    so blocklists and limiters can skip them (the paper's advice:
    //    "feasibly predicted to avoid blocklisting and to handle through
    //    other means").
    let week = study.datasets().ip_sample.in_range(focus_week());
    let upi = users_per_ip(&DatasetIndex::by_address(week));
    let mut asn_of = HashMap::new();
    for r in week.records() {
        asn_of.entry(r.ip).or_insert(r.asn);
    }
    let heavy = (study.approx_users() / 1_500).max(8);
    let predictor = HeavyAddressPredictor::learn(&upi.counts, &asn_of, heavy);
    let eval = predictor.evaluate(&upi.counts, &asn_of, heavy);
    println!("== heavy-address predictor (structural signature + learned ASNs) ==");
    println!(
        "gateway ASNs learned: {:?}",
        predictor
            .gateway_asns()
            .iter()
            .map(|a| a.0)
            .collect::<Vec<_>>()
    );
    println!(
        "precision {:.2}, recall {:.2} over {} heavy / {} predicted addresses",
        eval.precision, eval.recall, eval.heavy, eval.predicted
    );

    // 2. Train per-protocol next-day abuse models on the full-population
    //    day pair and rank today's riskiest units.
    let last = focus_day_user();
    println!("\n== next-day abuse scoring (pooled over three day pairs) ==");
    for (label, v6) in [("IPv4", false), ("IPv6", true)] {
        let mut set = Vec::new();
        for k in 0..3u16 {
            let day = study.pair_store().on_day(last - (k + 1));
            let next = study.pair_store().on_day(last - k);
            set.extend(training_set(day, next, study.labels(), Some(v6)));
        }
        if set.is_empty() {
            continue;
        }
        let model = LogisticModel::train(&set, 250, 0.3);
        let auc = model.auc(&set);
        let positives = set.iter().filter(|(_, y)| *y).count();
        println!(
            "{label}: {} units, {} next-day abusive, ranking AUC {:.3}",
            set.len(),
            positives,
            auc
        );
    }
    println!(
        "\nAt larger scales (`StudyConfig::default_scale()`), per-protocol models\n\
         separate cleanly on IPv6 (isolated attacker infrastructure) and less so\n\
         on IPv4 (attackers hide behind CGN crowds) — §7.2's case for treating\n\
         the protocols distinctly."
    );
}
