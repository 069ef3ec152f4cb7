//! Regenerates every table and figure of the study and writes
//! EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ipv6-study-bench --bin repro -- \
//!     [scale] [output.md] [--threads N|auto] [--analysis-threads N|auto] \
//!     [--households N] [--storage memory|spill[:DIR]] [--segment-rows N] \
//!     [--disk-budget BYTES] [--extend-days N] [--state-dir DIR] [--extended]
//! ```
//!
//! `scale` is one of `tiny`, `test`, `default` (the default) or `full`.
//! When an output path is given, the markdown report is written there;
//! otherwise it goes to `EXPERIMENTS.md` in the current directory.
//! `--threads N` runs the sharded simulation driver on N workers
//! (`auto` = all available cores), and `--analysis-threads N` does the
//! same for the analysis engine (it defaults to `--threads`). `--storage
//! spill` bounds peak memory by spilling full-fidelity streams to sorted
//! segment files during the sim. Output is byte-identical at any thread
//! count and in either storage mode. `--extended` additionally runs the
//! beyond-paper registry (the entropy-clustered blocklisting experiment)
//! and writes it to a sibling `*_extended.md` — the default outputs are
//! unchanged by the flag.
//!
//! `--extend-days N` simulates N days past the preset's base window;
//! with `--state-dir DIR` the run becomes a standing service: frozen day
//! deltas persist in DIR, a warm directory simulates only the
//! not-yet-covered days and re-runs only the passes whose read windows
//! reach them, and the written EXPERIMENTS.md is byte-identical to a
//! from-scratch run of the same range (DESIGN.md §14).
//!
//! The run report (`BENCH_run.json`) is `bench_run`'s output, not
//! `repro`'s.

use std::time::Instant;

use ipv6_study_bench::cli::{run_failed, usage_exit, CommonArgs};
use ipv6_study_core::experiments::{run_all, run_extended};
use ipv6_study_core::report::{render_markdown, render_summary};
use ipv6_study_core::{incremental, Study};

const USAGE: &str = "usage: repro [tiny|test|default|full] [output.md] [--threads N|auto] \
     [--analysis-threads N|auto] [--households N] [--storage memory|spill[:DIR]] \
     [--segment-rows N] [--disk-budget BYTES] [--extend-days N] [--state-dir DIR] \
     [--extended]";

fn main() {
    let args = CommonArgs::parse(std::env::args().skip(1), USAGE);
    let mut output = None;
    let mut extended = false;
    for arg in &args.rest {
        if arg == "--extended" {
            extended = true;
        } else if arg.starts_with('-') || output.is_some() {
            usage_exit(USAGE, &format!("unexpected argument `{arg}`"));
        } else {
            output = Some(arg.clone());
        }
    }
    let output = output.unwrap_or_else(|| "EXPERIMENTS.md".into());
    let config = args.config(USAGE);

    eprintln!(
        "running study: {} households, {} campaigns, {}..{} (+{} days), {} thread(s), {} storage",
        config.households,
        config.campaigns,
        config.full_range.start,
        config.full_range.end,
        config.extend_days,
        config.threads,
        config.storage.label(),
    );

    // With a state dir, the incremental engine owns the whole run: it
    // decides what to simulate and which passes to recompute, and hands
    // back the spliced documents.
    let (study, summary, md) = match args.state_dir {
        Some(ref dir) => {
            let run = match incremental::run(config, dir) {
                Ok(r) => r,
                Err(e) => run_failed(e),
            };
            eprintln!(
                "incremental: {} day(s) reused, {} computed in {:.3}s (state: {})",
                run.stats.days_reused,
                run.stats.days_computed,
                run.stats.extend_wall.as_secs_f64(),
                dir.display(),
            );
            (run.study, run.summary, run.markdown)
        }
        None => {
            let mut study = match Study::run(config) {
                Ok(s) => s,
                Err(e) => run_failed(e),
            };
            eprint!("{}", study.metrics().render());
            let t1 = Instant::now();
            let results = run_all(&mut study);
            eprintln!("analyses done in {:.1?}", t1.elapsed());
            let summary = render_summary(&results);
            let md = render_markdown(&results);
            (study, summary, md)
        }
    };
    if !study.faults().is_clean() {
        eprint!("{}", study.faults().render());
    }
    eprintln!(
        "simulation done: {} requests offered, {} retained, {} abusive accounts",
        study.datasets().offered,
        study.datasets().retained(),
        study.labels().len()
    );

    print!("{summary}");

    match std::fs::write(&output, &md) {
        Ok(()) => eprintln!("wrote {output}"),
        Err(e) => {
            eprintln!("failed to write {output}: {e}");
            std::process::exit(1);
        }
    }

    // The extended (beyond-paper) registry writes its own markdown next
    // to the main report; the default outputs above are byte-identical
    // with or without it.
    if extended {
        let t2 = Instant::now();
        let ext = run_extended(&study);
        eprintln!("extended analyses done in {:.1?}", t2.elapsed());
        print!("{}", render_summary(&ext));
        let ext_output = output
            .strip_suffix(".md")
            .map(|s| format!("{s}_extended.md"))
            .unwrap_or_else(|| format!("{output}.extended"));
        match std::fs::write(&ext_output, render_markdown(&ext)) {
            Ok(()) => eprintln!("wrote {ext_output}"),
            Err(e) => {
                eprintln!("failed to write {ext_output}: {e}");
                std::process::exit(1);
            }
        }
    }
}
