//! Instrumented benchmark entry point: runs a full study plus every
//! analysis pass and writes the run's observability report as
//! `BENCH_run.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ipv6-study-bench --bin bench_run -- \
//!     [scale] [--threads N|auto] [--analysis-threads N|auto] [--out PATH] \
//!     [--households N] [--storage memory|spill[:DIR]] [--segment-rows N] \
//!     [--disk-budget BYTES] [--extend-days N] [--state-dir DIR]
//! ```
//!
//! `scale` is one of `tiny`, `test`, `default` (the default) or `full`.
//! The report's layout is documented in DESIGN.md §7 and pinned by
//! `tests/run_report.rs`: the `run` span tree (plan, sim with one child
//! per shard, merge, freeze, analysis with one child per window and per
//! pass), the config echo (storage mode, segment size, sampling plan),
//! the faults section and the `incremental` accounting. With
//! `--state-dir DIR` the run goes through the incremental engine
//! (DESIGN.md §14), and a warm resume adds the `resume` span root
//! (`load`, `extend`, `render`, `checkpoint`). `bench_diff --gate` gates
//! any number in the document by its `/`-separated path.

use ipv6_study_bench::cli::{run_failed, usage_exit, CommonArgs};
use ipv6_study_core::experiments::run_all;
use ipv6_study_core::{incremental, Study};

const USAGE: &str = "usage: bench_run [tiny|test|default|full] [--threads N|auto] \
     [--analysis-threads N|auto] [--out PATH] [--households N] \
     [--storage memory|spill[:DIR]] [--segment-rows N] [--disk-budget BYTES] \
     [--extend-days N] [--state-dir DIR]";

fn main() {
    let args = CommonArgs::parse(std::env::args().skip(1), USAGE);
    let mut out_path = None;
    let mut rest = args.rest.iter();
    while let Some(arg) = rest.next() {
        if arg == "--out" {
            let Some(v) = rest.next() else {
                usage_exit(USAGE, "--out needs a value")
            };
            out_path = Some(v.clone());
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = Some(v.to_string());
        } else {
            usage_exit(USAGE, &format!("unexpected argument `{arg}`"));
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_run.json".into());
    let mut config = args.config(USAGE);
    config.instrument = true;

    let study = match args.state_dir {
        // Incremental route: the engine runs sim + analyses itself and
        // fills the report's `incremental` section.
        Some(ref dir) => {
            let run = match incremental::run(config, dir) {
                Ok(run) => run,
                Err(e) => run_failed(e),
            };
            eprintln!(
                "incremental: {} day(s) reused, {} computed in {:.3}s",
                run.stats.days_reused,
                run.stats.days_computed,
                run.stats.extend_wall.as_secs_f64(),
            );
            run.study
        }
        None => {
            let mut study = match Study::run(config) {
                Ok(s) => s,
                Err(e) => run_failed(e),
            };
            let _results = run_all(&mut study);
            study
        }
    };
    // The report lists any failed shards after the span tree.
    eprint!("{}", study.report().render());

    match std::fs::write(&out_path, study.report().to_json_string()) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
