//! [`RunReport`] — everything a completed run measured, in one value.
//!
//! The report is the unit of the repo's perf trajectory: the `bench_run`
//! binary serializes it to `BENCH_run.json`, and `bench_diff` gates any
//! number in it by path. Its measurements are span trees ([`Span`]): the
//! `run` root (plan, sim, merge, freeze and analysis) and, on a warm
//! state-dir resume, the `resume` root. Next to them sit the config echo,
//! the faults section and the incremental-engine accounting.

use std::fmt::Write as _;
use std::time::Duration;

use crate::json::Json;
use crate::span::Span;

/// Schema version of the serialized report; bump on breaking changes.
/// v8 replaced the per-section layout of v1–v7 with span trees.
pub const SCHEMA_VERSION: u64 = 8;

/// One shard that failed at least once during the run, as exported in the
/// report's `faults` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultStat {
    /// Plan index of the shard.
    pub shard: u64,
    /// Human-readable shard description, e.g. `benign hh 0..312`.
    pub label: String,
    /// Attempts made (first try plus retries).
    pub attempts: u64,
    /// Retries consumed (`attempts - 1`).
    pub retries: u64,
    /// Whether the shard was ultimately dropped (degraded run) rather
    /// than recovered.
    pub dropped: bool,
    /// Records the last failed attempt had produced before it failed —
    /// work the unwind discarded.
    pub records_lost: u64,
    /// How the last failed attempt failed: `"panic"`, `"io"`,
    /// `"corrupt"`, or `"budget"`.
    pub kind: String,
    /// The captured panic message (or typed-error message) of the last
    /// failed attempt.
    pub panic_msg: String,
}

/// What the incremental engine reused versus recomputed on one run —
/// the report's `incremental` section. A from-scratch run reports every
/// simulated day as computed (`days_reused == 0`), and `extend_wall` is
/// the wall clock of the extension path alone (zero on batch runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStat {
    /// Simulated days reconstructed from frozen deltas (not re-run).
    pub days_reused: u64,
    /// Simulated days actually executed by the driver this run.
    pub days_computed: u64,
    /// Wall clock of the timeline-extension path: on a state-dir resume,
    /// history load, suffix simulation, the one freeze, the selective
    /// pass re-run, the splice and the checkpoint save.
    pub extend_wall: Duration,
}

/// The aggregated observability output of one study run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Whether instrumentation was enabled; a disabled report records no
    /// config echo, faults or spans.
    pub enabled: bool,
    /// Run configuration echo (seed, scale, threads, …), set by the
    /// driver's caller.
    pub config: Vec<(String, Json)>,
    /// The failure policy the run executed under (`"abort"`, `"retry"`,
    /// or `"degrade"`; empty when the caller never set it).
    pub failure_policy: String,
    /// Shards that failed at least once (recovered or dropped); empty on
    /// a clean run.
    pub faults: Vec<FaultStat>,
    /// Op-level I/O retries the spill layer absorbed without failing a
    /// shard attempt (`faults.io_retries` in the JSON).
    pub io_retries: u64,
    /// Spill runs that failed checksum or framing verification
    /// (`faults.checksum_failures` in the JSON).
    pub checksum_failures: u64,
    /// Spill payload bytes that passed checksum verification; zero in
    /// memory mode.
    pub spill_bytes_verified: u64,
    /// Incremental-engine accounting; a from-scratch run reports all
    /// days computed, none reused.
    pub incremental: IncrementalStat,
    /// The span roots, each serialized under its name: `run`, plus
    /// `resume` on a warm state-dir resume.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// An empty report; `enabled` gates whether later stages record into
    /// it.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Adds a config echo entry.
    pub fn set_config(&mut self, key: &str, value: Json) {
        self.config.push((key.to_string(), value));
    }

    /// The span at a `/`-separated path whose first segment names a root
    /// (`"run/freeze/intern"`).
    pub fn span(&self, path: &str) -> Option<&Span> {
        let (root, rest) = path.split_once('/').unwrap_or((path, ""));
        self.spans.iter().find(|s| s.name == root)?.get(rest)
    }

    /// Serializes the report. Every number is finite by construction —
    /// non-finite values would render as `null`, never as `Infinity` or
    /// `NaN`.
    pub fn to_json(&self) -> Json {
        let mut config = Json::obj();
        for (k, v) in &self.config {
            config.set(k, v.clone());
        }
        let failed_shards = Json::Arr(
            self.faults
                .iter()
                .map(|f| {
                    Json::obj()
                        .with("shard", Json::UInt(f.shard))
                        .with("label", Json::str(&*f.label))
                        .with("attempts", Json::UInt(f.attempts))
                        .with("retries", Json::UInt(f.retries))
                        .with("dropped", Json::Bool(f.dropped))
                        .with("records_lost", Json::UInt(f.records_lost))
                        .with("kind", Json::str(&*f.kind))
                        .with("panic_msg", Json::str(&*f.panic_msg))
                })
                .collect(),
        );
        let faults = Json::obj()
            .with("policy", Json::str(&*self.failure_policy))
            .with("failed_shards", failed_shards)
            .with(
                "retries_total",
                Json::UInt(self.faults.iter().map(|f| f.retries).sum()),
            )
            .with(
                "dropped_shards",
                Json::UInt(self.faults.iter().filter(|f| f.dropped).count() as u64),
            )
            .with(
                "records_lost",
                Json::UInt(self.faults.iter().map(|f| f.records_lost).sum()),
            )
            .with("io_retries", Json::UInt(self.io_retries))
            .with("checksum_failures", Json::UInt(self.checksum_failures));
        let incremental = Json::obj()
            .with("days_reused", Json::UInt(self.incremental.days_reused))
            .with("days_computed", Json::UInt(self.incremental.days_computed))
            .with(
                "extend_wall_secs",
                Json::num(self.incremental.extend_wall.as_secs_f64()),
            );
        let mut json = Json::obj()
            .with("schema_version", Json::UInt(SCHEMA_VERSION))
            .with("enabled", Json::Bool(self.enabled))
            .with("config", config)
            .with("faults", faults)
            .with(
                "spill_bytes_verified",
                Json::UInt(self.spill_bytes_verified),
            )
            .with("incremental", incremental);
        for root in &self.spans {
            json.set(&root.name, root.to_json());
        }
        json
    }

    /// The pretty-printed JSON document written to `BENCH_run.json`.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// A human-readable summary: every span tree, then any faults.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.spans {
            out.push_str(&root.render());
        }
        if !self.faults.is_empty() {
            let retries: u64 = self.faults.iter().map(|f| f.retries).sum();
            let dropped = self.faults.iter().filter(|f| f.dropped).count();
            let _ = writeln!(
                out,
                "faults ({}): {} failed shard(s), {} retries, {} dropped",
                self.failure_policy,
                self.faults.len(),
                retries,
                dropped
            );
            for f in &self.faults {
                let _ = writeln!(
                    out,
                    "  shard {:3} {:<24} {} attempt(s){}  {}: {}",
                    f.shard,
                    f.label,
                    f.attempts,
                    if f.dropped { ", dropped" } else { "" },
                    f.kind,
                    f.panic_msg
                );
            }
        }
        if self.io_retries > 0 || self.checksum_failures > 0 {
            let _ = writeln!(
                out,
                "storage: {} io retry(ies) absorbed, {} checksum failure(s), {} bytes verified",
                self.io_retries, self.checksum_failures, self.spill_bytes_verified
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new(true);
        r.set_config("seed", Json::UInt(42));
        r.spans.push(
            Span::new("run", Duration::from_millis(90))
                .with_items(5000)
                .with_child(Span::new("sim", Duration::from_millis(80)).with_items(5000)),
        );
        r.spans.push(
            Span::new("resume", Duration::from_millis(20))
                .with_child(Span::new("checkpoint", Duration::from_millis(5))),
        );
        r.failure_policy = "retry".into();
        r.faults.push(FaultStat {
            shard: 1,
            label: "abuse camp 0..4".into(),
            attempts: 2,
            retries: 1,
            dropped: false,
            records_lost: 37,
            kind: "panic".into(),
            panic_msg: "injected fault: shard 1 attempt 0 after 1 day(s)".into(),
        });
        r.io_retries = 3;
        r.checksum_failures = 1;
        r.spill_bytes_verified = 70_000;
        r
    }

    #[test]
    fn span_paths_start_at_a_root() {
        let r = sample();
        assert_eq!(r.span("run").map(|s| s.items), Some(5000));
        assert_eq!(
            r.span("run/sim").map(|s| s.wall),
            Some(Duration::from_millis(80))
        );
        assert!(r.span("resume/checkpoint").is_some());
        assert!(r.span("run/freeze").is_none());
        assert!(r.span("nope").is_none());
    }

    #[test]
    fn json_has_every_section_and_each_root_by_name() {
        let json = sample().to_json();
        let tops: Vec<&str> = match &json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("report is an object"),
        };
        assert_eq!(
            tops,
            [
                "schema_version",
                "enabled",
                "config",
                "faults",
                "spill_bytes_verified",
                "incremental",
                "run",
                "resume"
            ]
        );
        let text = json.render();
        for key in [
            "\"failed_shards\"",
            "\"retries_total\"",
            "\"dropped_shards\"",
            "\"records_lost\"",
            "\"kind\"",
            "\"panic_msg\"",
            "\"io_retries\"",
            "\"checksum_failures\"",
            "\"days_reused\"",
            "\"days_computed\"",
            "\"extend_wall_secs\"",
            "\"sim\":{\"wall_secs\":0.08,\"items\":5000,",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(!text.contains("null"));
    }

    #[test]
    fn disabled_report_has_no_spans() {
        let off = RunReport::new(false).to_json();
        assert_eq!(off.get("enabled"), Some(&Json::Bool(false)));
        assert!(off.get("run").is_none());
        assert!(off.get("faults").is_some());
    }

    #[test]
    fn render_lists_spans_and_faults() {
        let text = sample().render();
        assert!(text.starts_with("run "), "{text}");
        assert!(text.contains("\n  sim "));
        assert!(text.contains("\nresume "));
        assert!(text.contains("faults (retry)"));
        assert!(text.contains("abuse camp 0..4"));
        assert!(text.contains("panic: injected fault"));
        assert!(text.contains("storage: 3 io retry(ies)"));
    }
}
