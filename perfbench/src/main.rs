//! Benchmark of the IPv6 user-study pipeline.
//!
//! ```text
//! perfbench --workload <batch_mem|batch_spill|resume_60d> [--seed N]
//!           [--seconds N] [--trace 0|1]
//! ```
//!
//! Runs one workload in this process, checks every iteration's output
//! against an independent reference, prints a readable summary and, as
//! the last line of standard output, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! README.md beside this crate for the workloads and the metrics.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::{median, Tracer};
use workloads::{Batch, IterOut, Resume, Workload, WINDOWS};

/// The workloads, one per process.
const WORKLOADS: [&str; 3] = ["batch_mem", "batch_spill", "resume_60d"];

/// Where working files and traces go, relative to the current directory.
const WORK_ROOT: &str = ".bench_work";

/// The end-to-end metrics of the result line, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == value)
                        .ok_or_else(|| bad(&WORKLOADS.join(" | ")))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where a per-layer metric's value comes from in the trace.
enum Source {
    /// Summed durations of the spans with this name.
    Secs(String),
    /// Summed values of this span attribute.
    Attr(String),
    /// Traced over untraced median iteration wall.
    Overhead,
    /// Share of an iteration root's wall its children do not cover.
    RootSelf,
}

/// Every per-layer metric: name, unit and source.
fn per_layer() -> Vec<(String, &'static str, Source)> {
    let secs = |m: &str, span: &str| (m.to_string(), "s", Source::Secs(span.to_string()));
    let attr = |m: &str, unit| (m.to_string(), unit, Source::Attr(m.to_string()));
    let mut out = vec![
        secs("netmodel.world_s", "netmodel.world"),
        secs("behavior.population_s", "behavior.population"),
        secs("behavior.abuse_s", "behavior.abuse"),
        attr("driver.sim_s", "s"),
        attr("driver.merge_s", "s"),
        attr("driver.sort_s", "s"),
        attr("driver.records", "count"),
        attr("driver.peak_store_bytes", "bytes"),
        secs("behavior.emit_s", "behavior.emit"),
        attr("behavior.emit_records", "count"),
        secs("telemetry.route_s", "telemetry.route"),
        secs("telemetry.intern_s", "telemetry.intern"),
        attr("telemetry.intern_keys", "count"),
        secs("telemetry.encode_s", "telemetry.encode"),
        attr("telemetry.store_bytes", "bytes"),
        attr("spill.bytes_verified", "bytes"),
        secs("checkpoint.read_s", "checkpoint.read"),
        secs("checkpoint.write_s", "checkpoint.write"),
        attr("checkpoint.bytes", "bytes"),
    ];
    for name in WINDOWS {
        out.push(secs(&format!("index.{name}_s"), &format!("index.{name}")));
    }
    out.push(attr("index.records", "count"));
    out.push(attr("index.bytes", "bytes"));
    for id in workloads::pass_ids() {
        let stem = workloads::pass_stem(id);
        out.push(secs(&format!("pass.{stem}_s"), &format!("pass.{stem}")));
        out.push(attr(&format!("pass.{stem}_records"), "count"));
    }
    out.extend([
        secs("actioning.build_s", "actioning.build"),
        secs("actioning.read_s", "actioning.read"),
        attr("actioning.trie_nodes", "count"),
        secs("report.render_s", "report.render"),
        secs("incremental.run_s", "incremental.run"),
        secs("incremental.extend_s", "incremental.extend"),
        attr("incremental.days_reused", "count"),
        attr("incremental.days_computed", "count"),
        (
            "trace.overhead_ratio".to_string(),
            "ratio",
            Source::Overhead,
        ),
        (
            "trace.root_self_ratio".to_string(),
            "ratio",
            Source::RootSelf,
        ),
    ]);
    out
}

/// Iterations that errored or whose digest differs from `reference`.
fn count_failures(results: &[Result<IterOut, String>], reference: &Result<u64, String>) -> u64 {
    results
        .iter()
        .filter(|r| match (r, reference) {
            (Ok(out), Ok(want)) => out.digest != *want,
            _ => true,
        })
        .count() as u64
}

/// A finished run: what the result line and the summary print.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    summary: String,
}

fn measure(args: &Args, work: &Path) -> Result<Outcome, String> {
    workloads::check_registry()?;
    let golden = workloads::golden_self_check();
    // Set-up is repeated and its median reported. The batch set-up takes
    // under a millisecond, so a burst of repetitions would sample one
    // moment of the host; most of them run between the iterations. The
    // resume set-up builds a 60-day state dir, so it runs a few times
    // before the first iteration only.
    let (mut bench, setups_before, setups_between): (Box<dyn Workload>, usize, usize) =
        match args.workload {
            "batch_mem" => (Box::new(Batch::new(args.seed, work, false)?), 21, 20),
            "batch_spill" => (Box::new(Batch::new(args.seed, work, true)?), 21, 20),
            _ => (Box::new(Resume::new(args.seed, work)), 3, 0),
        };
    let mut tr = Tracer::new(args.trace);
    let mut setups = (0..setups_before)
        .map(|_| bench.setup(&mut tr))
        .collect::<Result<Vec<f64>, String>>()?;

    // The traced run alternates untraced and traced iterations, so the
    // tracing overhead is measured in the same process.
    let min_iterations = if args.trace { 4 } else { 3 };
    let mut results = Vec::new();
    let (mut untraced, mut traced, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while results.len() < min_iterations || t0.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..setups_between {
            setups.push(bench.setup(&mut tr)?);
        }
        let trace_this = args.trace && results.len() % 2 == 1;
        let result = if trace_this {
            bench.iterate(&mut tr)
        } else {
            bench.iterate(&mut Tracer::new(false))
        };
        match &result {
            Ok(out) if trace_this => traced.push(out.secs),
            Ok(out) => {
                untraced.push(out.secs);
                peaks.push(out.peak_mib);
            }
            Err(e) => eprintln!("perfbench: iteration {} failed: {e}", results.len()),
        }
        results.push(result);
    }
    let state_bytes = bench.state_dir_bytes();
    let (spill_dir, state_dir) = bench.locations();

    let reference = bench.reference();
    if let Err(e) = &reference {
        eprintln!("perfbench: reference run failed: {e}");
    }
    let failed = count_failures(&results, &reference);
    let attempted = results.len() as u64;
    let mut correct = failed == 0;
    if let Err(e) = &golden {
        eprintln!("perfbench: golden self-check failed: {e}");
        correct = false;
    }
    let last = results
        .iter()
        .rev()
        .find_map(|r| r.as_ref().ok())
        .copied()
        .ok_or("no iteration succeeded")?;
    let run_s = median(&untraced).ok_or("no untraced iteration succeeded")?;
    let setup_s = median(&setups).expect("at least one set-up");
    let peak = median(&peaks).expect("as many peaks as untraced iterations");

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "workload {} seed {}: {} iterations ({} untraced), {} failed, trace {}",
        args.workload,
        args.seed,
        attempted,
        untraced.len(),
        failed,
        if args.trace { "on" } else { "off" }
    );
    let _ = writeln!(
        summary,
        "  input: {} offered records, {} stored rows, state dir {} bytes",
        last.offered, last.rows, state_bytes
    );
    let _ = writeln!(
        summary,
        "  spill dir: {spill_dir}\n  state dir: {state_dir}"
    );
    let walls: Vec<String> = results
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or("failed".to_string(), |o| format!("{:.4}", o.secs))
        })
        .collect();
    let _ = writeln!(summary, "  iteration walls (s): {}", walls.join(" "));
    let mut rows = vec![
        (
            "setup_s",
            setup_s,
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        (
            "run_s",
            run_s,
            "s",
            format!("median of {} iterations", untraced.len()),
        ),
        (
            "rows_per_s",
            last.rows as f64 / run_s,
            "rows/s",
            String::new(),
        ),
        (
            "peak_rss_mib",
            peak,
            "MiB",
            "median of per-iteration VmHWM".to_string(),
        ),
        (
            "state_dir_mib",
            state_bytes as f64 / (1 << 20) as f64,
            "MiB",
            String::new(),
        ),
        (
            "fail_ratio",
            failed as f64 / attempted as f64,
            "ratio",
            String::new(),
        ),
    ];
    for (name, value, unit, note) in &rows {
        let _ = writeln!(summary, "  {name:<14} {value:>14.4} {unit:<7} {note}");
    }

    let metrics = if args.trace {
        let replay_digest = bench.replay(&mut tr)?;
        if let (Some(got), Ok(want)) = (replay_digest, &reference) {
            if got != *want {
                eprintln!("perfbench: replayed analysis digest {got:#x} != reference {want:#x}");
                correct = false;
            }
        }
        let path = write_trace(args, &tr)?;
        let _ = writeln!(summary, "  trace: {path}");
        let overhead = median(&traced).ok_or("no traced iteration succeeded")? / run_s;
        per_layer()
            .into_iter()
            .map(|(name, unit, source)| {
                let value = match &source {
                    Source::Secs(span) => tr.secs(span),
                    Source::Attr(key) => tr.attr_value(key),
                    Source::Overhead => Some(overhead),
                    Source::RootSelf => tr.self_ratio("iter"),
                };
                value
                    .map(|v| (name.clone(), v, unit))
                    .ok_or_else(|| format!("the trace has no value for {name}"))
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        rows.truncate(END_TO_END.len());
        rows.into_iter()
            .map(|(name, value, unit, _)| (name.to_string(), value, unit))
            .collect()
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        summary,
    })
}

/// Writes the spans as JSON lines under the work root; returns the path.
fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = Path::new(WORK_ROOT).join("traces");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    fs::write(&path, tr.to_jsonl()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The result line: one JSON object.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work: PathBuf = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = workloads::remove_dir(&work)
        .and_then(|()| measure(&args, &work))
        .and_then(|o| workloads::remove_dir(&work).map(|()| o));
    match outcome {
        Ok(o) => {
            print!("{}", o.summary);
            println!("{}", result_line(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            let _ = workloads::remove_dir(&work);
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{base_config, check_one_day};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        workloads::remove_dir(&dir).unwrap();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// the benchmark prints, in the same order.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(path).unwrap();
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layers);
        assert_eq!(section("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload resume_60d --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("resume_60d", 7, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload batch_mem --trace 2").is_err());
        assert!(parse("--workload batch_mem --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }

    /// A deliberately wrong reference digest fails every iteration.
    #[test]
    fn a_wrong_reference_fails_every_iteration() {
        let work = scratch("reference");
        let mut config = base_config(42, 200);
        config.full_range.start = config.dense_range.start;
        let mut bench = Batch::with_config(config, &work, false).unwrap();
        let results: Vec<_> = (0..2)
            .map(|_| bench.iterate(&mut Tracer::new(false)))
            .collect();
        let reference = bench.reference();
        assert_eq!(count_failures(&results, &reference), 0);
        let wrong = Ok(reference.unwrap() ^ 1);
        assert_eq!(count_failures(&results, &wrong), results.len() as u64);
        workloads::remove_dir(&work).unwrap();
    }

    /// Without the restore, the second operation finds the state dir
    /// already covering the target and absorbs no day: the check fires.
    #[test]
    fn resume_check_fires_on_an_unrestored_dir() {
        let work = scratch("resume");
        let mut base = base_config(42, 200);
        base.full_range.start = base.dense_range.start;
        base.extend_days = 1;
        let history = base.sim_range().num_days();
        let mut bench = Resume::with_config(base, &work);
        bench.setup(&mut Tracer::new(false)).unwrap();
        bench.iterate(&mut Tracer::new(false)).unwrap();
        let err = bench.run_op(&mut Tracer::new(false)).unwrap_err();
        assert!(err.contains("days_computed 0"), "{err}");
        assert!(check_one_day(
            &ipv6_user_study::IncrementalStat {
                days_reused: u64::from(history),
                days_computed: 1,
                extend_wall: Default::default(),
            },
            history
        )
        .is_ok());
        workloads::remove_dir(&work).unwrap();
    }
}
