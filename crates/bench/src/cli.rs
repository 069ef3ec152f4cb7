//! Shared command-line parsing, and the shared exit on a failed run
//! ([`run_failed`]), for the `repro` and `bench_run` binaries.
//!
//! Both binaries accept the same run-shaping flags; this module owns them
//! so the two surfaces cannot drift:
//!
//! ```text
//! [tiny|test|default|full]        scale preset (positional)
//! --threads N|auto                sim worker threads
//! --analysis-threads N|auto       analysis worker threads (default: --threads)
//! --households N                  override the preset's household count
//! --storage memory|spill[:DIR]    where full-fidelity streams live mid-run
//! --segment-rows N                rows staged per family before a sorted
//!                                 run is spilled (spill mode only)
//! --disk-budget BYTES             hard cap on the spill session's on-disk
//!                                 bytes (spill mode only); exceeding it
//!                                 fails the offending shard with a typed
//!                                 budget error, handled per the failure
//!                                 policy
//! --extend-days N                 simulate N days past the preset's base
//!                                 window (the incremental engine's
//!                                 extension knob; output is byte-identical
//!                                 to a preset whose range is N days longer)
//! --state-dir DIR                 persist/resume frozen day deltas in DIR:
//!                                 a warm dir simulates only not-yet-covered
//!                                 days and re-runs only the passes whose
//!                                 windows reach them (see DESIGN.md §14)
//! ```
//!
//! Binary-specific arguments (`repro`'s output path, `bench_run`'s
//! `--out`) pass through in [`CommonArgs::rest`], in order. Invalid values
//! exit with status 2 and a usage line, mirroring the
//! [`ConfigError`]-style contract: bad input is rejected before any
//! simulation work starts.
//!
//! [`ConfigError`]: ipv6_study_core::ConfigError

use std::path::PathBuf;

use ipv6_study_core::{StorageMode, StudyConfig, StudyError, DEFAULT_SEGMENT_ROWS};

/// The flags shared by `repro` and `bench_run`, plus the passed-through
/// remainder.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Scale preset (first bare positional); `None` means the binary's
    /// default (`default`).
    pub scale: Option<String>,
    /// Sim worker threads (defaults to 1 — determinism makes this purely
    /// a speed knob).
    pub threads: usize,
    /// Analysis worker threads; `None` follows `threads`.
    pub analysis_threads: Option<usize>,
    /// Household-count override.
    pub households: Option<u64>,
    /// Resolved storage mode (`--storage` + `--segment-rows`).
    pub storage: StorageMode,
    /// Spill disk budget in bytes (`--disk-budget`); `None` is unlimited.
    pub disk_budget_bytes: Option<u64>,
    /// Days simulated past the preset's base window (`--extend-days`).
    pub extend_days: u16,
    /// Incremental-engine state directory (`--state-dir`); `None` runs
    /// the plain batch pipeline.
    pub state_dir: Option<PathBuf>,
    /// Arguments this module did not consume, in original order.
    pub rest: Vec<String>,
}

/// Prints `msg` and the usage line, then exits with status 2.
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Prints a study error and exits: status 2 for a bad config, 1 for a
/// run that failed (failed shards are listed first).
pub fn run_failed(e: StudyError) -> ! {
    match e {
        e @ StudyError::Config(_) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        StudyError::ShardsFailed(report) => {
            eprint!("{}", report.render());
            eprintln!("run failed: shard failures exceeded the failure policy");
            std::process::exit(1);
        }
        e @ StudyError::Spill(_) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_threads(usage: &str, arg: &str) -> usize {
    if arg == "auto" {
        return std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
    }
    match arg.parse() {
        Ok(n) => n,
        Err(_) => usage_exit(usage, &format!("bad thread count `{arg}`")),
    }
}

fn parse_storage(usage: &str, arg: &str) -> StorageMode {
    match arg {
        "memory" => StorageMode::InMemory,
        "spill" => StorageMode::spill(),
        _ => match arg.strip_prefix("spill:") {
            Some(dir) if !dir.is_empty() => StorageMode::Spill {
                dir: Some(PathBuf::from(dir)),
                segment_rows: DEFAULT_SEGMENT_ROWS,
            },
            _ => usage_exit(
                usage,
                &format!("bad storage mode `{arg}` (use memory|spill|spill:DIR)"),
            ),
        },
    }
}

impl CommonArgs {
    /// Parses `args` (without the program name). Shared flags are
    /// consumed; the first bare positional becomes the scale; everything
    /// else lands in [`CommonArgs::rest`] for the binary to interpret.
    pub fn parse(args: impl Iterator<Item = String>, usage: &str) -> Self {
        let mut out = Self {
            scale: None,
            threads: 1,
            analysis_threads: None,
            households: None,
            storage: StorageMode::InMemory,
            disk_budget_bytes: None,
            extend_days: 0,
            state_dir: None,
            rest: Vec::new(),
        };
        let mut segment_rows: Option<usize> = None;
        let args_vec: Vec<String> = args.collect();
        // Flags accept both `--flag value` and `--flag=value`.
        let take_value = |i: &mut usize, flag: &str| -> String {
            if let Some(v) = args_vec[*i].strip_prefix(&format!("{flag}=")) {
                return v.to_string();
            }
            *i += 1;
            match args_vec.get(*i) {
                Some(v) => v.clone(),
                None => usage_exit(usage, &format!("{flag} needs a value")),
            }
        };
        let mut i = 0usize;
        while i < args_vec.len() {
            let arg = args_vec[i].clone();
            if arg == "--threads" || arg.starts_with("--threads=") {
                let v = take_value(&mut i, "--threads");
                out.threads = parse_threads(usage, &v);
            } else if arg == "--analysis-threads" || arg.starts_with("--analysis-threads=") {
                let v = take_value(&mut i, "--analysis-threads");
                out.analysis_threads = Some(parse_threads(usage, &v));
            } else if arg == "--households" || arg.starts_with("--households=") {
                let v = take_value(&mut i, "--households");
                match v.parse() {
                    Ok(n) => out.households = Some(n),
                    Err(_) => usage_exit(usage, &format!("bad household count `{v}`")),
                }
            } else if arg == "--storage" || arg.starts_with("--storage=") {
                let v = take_value(&mut i, "--storage");
                out.storage = parse_storage(usage, &v);
            } else if arg == "--segment-rows" || arg.starts_with("--segment-rows=") {
                let v = take_value(&mut i, "--segment-rows");
                match v.parse() {
                    Ok(n) => segment_rows = Some(n),
                    Err(_) => usage_exit(usage, &format!("bad segment-rows `{v}`")),
                }
            } else if arg == "--disk-budget" || arg.starts_with("--disk-budget=") {
                let v = take_value(&mut i, "--disk-budget");
                match v.parse() {
                    Ok(n) if n > 0 => out.disk_budget_bytes = Some(n),
                    _ => usage_exit(usage, &format!("bad disk budget `{v}` (bytes, at least 1)")),
                }
            } else if arg == "--extend-days" || arg.starts_with("--extend-days=") {
                let v = take_value(&mut i, "--extend-days");
                match v.parse() {
                    Ok(n) => out.extend_days = n,
                    Err(_) => usage_exit(usage, &format!("bad extend-days `{v}` (days, 0-365)")),
                }
            } else if arg == "--state-dir" || arg.starts_with("--state-dir=") {
                let v = take_value(&mut i, "--state-dir");
                if v.is_empty() {
                    usage_exit(usage, "--state-dir needs a directory path");
                }
                out.state_dir = Some(PathBuf::from(v));
            } else if !arg.starts_with('-') && out.scale.is_none() && out.rest.is_empty() {
                out.scale = Some(arg);
            } else {
                out.rest.push(arg);
            }
            i += 1;
        }
        // --segment-rows modifies the spill mode; order with --storage
        // must not matter, so it merges after the loop.
        if let Some(rows) = segment_rows {
            match &mut out.storage {
                StorageMode::Spill { segment_rows, .. } => *segment_rows = rows,
                StorageMode::InMemory => {
                    usage_exit(usage, "--segment-rows requires --storage spill")
                }
            }
        }
        // Same order-independence for --disk-budget: it only modifies the
        // spill policy, so reject it against memory storage here rather
        // than deep in config validation.
        if out.disk_budget_bytes.is_some() && !out.storage.is_spill() {
            usage_exit(usage, "--disk-budget requires --storage spill");
        }
        out
    }

    /// Resolves the scale preset (`None` → `default`) into a
    /// [`StudyConfig`] and applies every shared flag to it. The config is
    /// *not* validated here — [`ipv6_study_core::Study::run`] does that
    /// and reports [`ConfigError`]s with full context.
    ///
    /// [`ConfigError`]: ipv6_study_core::ConfigError
    pub fn config(&self, usage: &str) -> StudyConfig {
        let scale = self.scale.as_deref().unwrap_or("default");
        let mut config = match scale {
            "tiny" => StudyConfig::tiny(),
            "test" => StudyConfig::test_scale(),
            "default" => StudyConfig::default_scale(),
            "full" => StudyConfig::full_scale(),
            other => usage_exit(
                usage,
                &format!("unknown scale `{other}` (use tiny|test|default|full)"),
            ),
        };
        config.threads = self.threads;
        config.analysis_threads = self.analysis_threads;
        config.storage = self.storage.clone();
        config.disk_budget_bytes = self.disk_budget_bytes;
        config.extend_days = self.extend_days;
        if let Some(hh) = self.households {
            config.households = hh;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::parse(args.iter().map(|s| s.to_string()), "usage")
    }

    #[test]
    fn defaults_are_memory_single_threaded() {
        let a = parse(&[]);
        assert_eq!(a.scale, None);
        assert_eq!(a.threads, 1);
        assert_eq!(a.analysis_threads, None);
        assert_eq!(a.households, None);
        assert_eq!(a.storage, StorageMode::InMemory);
        assert!(a.rest.is_empty());
    }

    #[test]
    fn shared_flags_parse_in_both_spellings() {
        let a = parse(&[
            "tiny",
            "--threads",
            "4",
            "--analysis-threads=2",
            "--households=500",
            "--storage=spill",
            "--segment-rows",
            "64",
        ]);
        assert_eq!(a.scale.as_deref(), Some("tiny"));
        assert_eq!(a.threads, 4);
        assert_eq!(a.analysis_threads, Some(2));
        assert_eq!(a.households, Some(500));
        assert_eq!(
            a.storage,
            StorageMode::Spill {
                dir: None,
                segment_rows: 64
            }
        );
    }

    #[test]
    fn segment_rows_merges_regardless_of_flag_order() {
        let a = parse(&["--segment-rows", "128", "--storage", "spill:/tmp/x"]);
        assert_eq!(
            a.storage,
            StorageMode::Spill {
                dir: Some(PathBuf::from("/tmp/x")),
                segment_rows: 128
            }
        );
    }

    #[test]
    fn unconsumed_args_pass_through_in_order() {
        let a = parse(&["test", "out.md", "--out", "x.json"]);
        assert_eq!(a.scale.as_deref(), Some("test"));
        assert_eq!(a.rest, ["out.md", "--out", "x.json"]);
    }

    #[test]
    fn config_applies_every_flag() {
        let a = parse(&[
            "tiny",
            "--threads=3",
            "--households=999",
            "--storage=spill",
            "--disk-budget=1048576",
        ]);
        let cfg = a.config("usage");
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.households, 999);
        assert!(cfg.storage.is_spill());
        assert_eq!(cfg.disk_budget_bytes, Some(1 << 20));
    }

    #[test]
    fn extend_days_and_state_dir_parse_and_apply() {
        let a = parse(&["tiny", "--extend-days", "3", "--state-dir=/tmp/state"]);
        assert_eq!(a.extend_days, 3);
        assert_eq!(a.state_dir, Some(PathBuf::from("/tmp/state")));
        let cfg = a.config("usage");
        assert_eq!(cfg.extend_days, 3);
        let b = parse(&["--extend-days=0"]);
        assert_eq!(b.extend_days, 0);
        assert_eq!(b.state_dir, None);
    }

    #[test]
    fn disk_budget_parses_in_both_spellings_and_any_order() {
        let a = parse(&["--disk-budget", "4096", "--storage", "spill"]);
        assert_eq!(a.disk_budget_bytes, Some(4096));
        let a = parse(&["--storage=spill", "--disk-budget=4096"]);
        assert_eq!(a.disk_budget_bytes, Some(4096));
    }
}
