//! [`RunReport`] — everything a completed run measured, in one value.
//!
//! The report is the unit of the repo's perf trajectory: the `repro` and
//! `bench_run` binaries serialize it to `BENCH_run.json`, and each PR's
//! numbers are compared against the previous ones. The JSON schema is
//! pinned by a golden test (field *presence* is asserted; timing values
//! are free to vary), so a PR that drops a section breaks visibly.

use std::fmt::Write as _;
use std::time::Duration;

use crate::json::Json;
use crate::metrics::Registry;
use crate::timer::PhaseStat;

/// Schema version of the serialized report; bump on breaking changes.
/// v2 added the memory-footprint fields: `sim.store_bytes`,
/// `sim.bytes_per_record`, and `analysis.index_bytes`. v3 added
/// `sim.peak_store_bytes` — the sim-phase high-water of mutable row bytes,
/// the number the spill storage mode bounds. v4 added `actioning_sweep` —
/// the one-pass Figure-11 sweep's trie-build and per-cut read walls
/// (`build_wall_secs`, `read_wall_secs`, `total_wall_secs`, `days`,
/// `trie_nodes`), the wall `bench_diff` gates. v5 added the storage
/// fault fields: `faults.io_retries`, `faults.checksum_failures`,
/// `faults.failed_shards[].kind`, and `sim.spill_bytes_verified`. v6
/// added the analysis-throughput fields the CI throughput floors gate:
/// `analysis.scanned_records`, `analysis.records_per_sec`,
/// `analysis.index_records`, and `analysis.index_records_per_sec`. v7
/// added the incremental-engine section `analysis.incremental.{
/// days_reused, days_computed, extend_wall_secs}` — always present: a
/// from-scratch run reports every simulated day as computed and none
/// reused.
pub const SCHEMA_VERSION: u64 = 7;

/// Throughput over a wall-clock window, `0.0` for an empty window.
///
/// A shard (or phase) whose wall clock rounds to zero has no measurable
/// rate; returning `0.0` instead of `f64::INFINITY` keeps every derived
/// value JSON-representable.
pub fn rate_per_sec(items: u64, wall: Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s > 0.0 {
        items as f64 / s
    } else {
        0.0
    }
}

/// Timing and throughput of one simulation shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Human-readable shard description, e.g. `benign hh 0..312`.
    pub label: String,
    /// Records emitted by the shard (before sampling).
    pub records: u64,
    /// Wall clock the shard took on its worker.
    pub wall: Duration,
}

impl ShardStat {
    /// Emission throughput in records per second (`0.0` when the wall
    /// clock rounds to zero).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(self.records, self.wall)
    }
}

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

/// Timing of one analysis pass (one figure/table of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureStat {
    /// Experiment id, e.g. `"F2"`.
    pub id: String,
    /// Wall clock of the whole pass.
    pub wall: Duration,
    /// Input cardinality: records the pass read across its dataset
    /// slices.
    pub input_records: u64,
}

/// Timing of one actioning-ROC evaluation (one Figure 11 granularity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActioningStat {
    /// Granularity label, e.g. `"/64"`.
    pub granularity: String,
    /// Wall clock of tallying and curve construction.
    pub wall: Duration,
    /// Decision units scored on day *n*.
    pub units_scored: u64,
    /// Decision units evaluated on day *n+1*.
    pub units_evaluated: u64,
}

/// Timing of the one-pass Figure-11 granularity sweep: the per-day
/// aggregation-trie builds plus every granularity's count reads. Zero
/// (`days == 0`) until the sweep runs; serialized with a fixed key set
/// either way so the schema is run-independent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStat {
    /// Wall clock of building the shared per-day counting tries.
    pub build_wall: Duration,
    /// Summed wall clock of the per-granularity read-offs.
    pub read_wall: Duration,
    /// Day slices tries were built for.
    pub days: u64,
    /// Total trie nodes across the per-day tries (both families).
    pub trie_nodes: u64,
}

impl SweepStat {
    /// Build plus read wall — the sweep's total, the number `bench_diff`
    /// gates as `actioning_sweep.total_wall_secs`.
    pub fn total_wall(&self) -> Duration {
        self.build_wall + self.read_wall
    }
}

/// What the incremental engine reused versus recomputed on one run —
/// the `analysis.incremental` section of the v7 schema. Always
/// serialized: a from-scratch run reports every simulated day as
/// computed (`days_reused == 0`), and `extend_wall` is the wall clock of
/// the extension path alone (zero on batch runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStat {
    /// Simulated days reconstructed from frozen deltas (not re-run).
    pub days_reused: u64,
    /// Simulated days actually executed by the driver this run.
    pub days_computed: u64,
    /// Wall clock of the timeline-extension path (history load, suffix
    /// simulation, the one freeze and the selective pass re-run).
    pub extend_wall: Duration,
}

/// The aggregated observability output of one study run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Whether instrumentation was enabled; a disabled report stays
    /// empty (and serializes with the same schema, all sections bare).
    pub enabled: bool,
    /// Run configuration echo (seed, scale, threads, …), set by the
    /// driver's caller.
    pub config: Vec<(String, Json)>,
    /// Worker threads the simulation used.
    pub threads: u64,
    /// Pipeline phases in execution order (`plan`, `sim`, `merge`,
    /// `sort`, then analysis/total entries appended by later stages).
    pub phases: Vec<PhaseStat>,
    /// Per-shard simulation stats, in plan (= merge) order.
    pub shards: Vec<ShardStat>,
    /// Per-figure analysis stats, in experiment order.
    pub figures: Vec<FigureStat>,
    /// Per-granularity actioning stats (Figure 11).
    pub actioning: Vec<ActioningStat>,
    /// One-pass granularity-sweep timing (Figure 11); default-zero until
    /// the sweep runs.
    pub actioning_sweep: SweepStat,
    /// Analysis-engine phases in execution order (`index` — building the
    /// shared dataset indexes, `passes` — running the experiment registry,
    /// `total`), recorded by the experiment registry. Empty until the
    /// analyses run (the serialized `analysis.phases` object still carries
    /// all three keys, zero-valued, so the schema is run-independent).
    pub analysis_phases: Vec<PhaseStat>,
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
    /// Spill payload bytes that passed checksum verification across both
    /// read passes (`sim.spill_bytes_verified`); zero in memory mode.
    pub spill_bytes_verified: u64,
    /// Peak heap bytes of the frozen telemetry stores (all column stores
    /// plus the shared intern tables, counted once). Zero when
    /// uninstrumented. Serialized as `sim.store_bytes` — a plain field
    /// (not only a gauge) so `bench_diff`'s dotted-path lookup can
    /// address it.
    pub store_bytes: u64,
    /// `store_bytes` per stored record (`0.0` on an empty run).
    pub bytes_per_record: f64,
    /// High-water mark of mutable row bytes held in memory during the sim
    /// phase (shard-local stores plus spill staging buffers). This is the
    /// number the spill storage mode keeps flat as the run scales;
    /// serialized as `sim.peak_store_bytes` so `bench_diff` can gate it.
    /// Zero when uninstrumented.
    pub peak_store_bytes: u64,
    /// Heap bytes of the shared analysis indexes (`analysis.index_bytes`
    /// in the JSON). Zero until the analyses run.
    pub index_bytes: u64,
    /// Records indexed during the analysis-engine index phase (the sum of
    /// the shared per-window index cardinalities;
    /// `analysis.index_records` in the JSON). Zero until the analyses
    /// run.
    pub index_records: u64,
    /// Incremental-engine accounting (`analysis.incremental` in the
    /// JSON); a from-scratch run reports all days computed, none reused.
    pub incremental: IncrementalStat,
    /// Free-form counters/gauges/histograms recorded along the way.
    pub registry: Registry,
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

    /// Wall clock of a phase by name (first match).
    pub fn phase_wall(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.wall)
    }

    /// Total records emitted across all shards.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Aggregate simulation throughput (records per second over the
    /// `sim` phase; `0.0` when unmeasured).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(
            self.total_records(),
            self.phase_wall("sim").unwrap_or(Duration::ZERO),
        )
    }

    /// Total analysis wall clock across figures.
    pub fn analysis_wall(&self) -> Duration {
        self.figures.iter().map(|f| f.wall).sum()
    }

    /// Records scanned across every analysis pass (sum of per-figure
    /// input cardinalities; passes sharing a window each count their own
    /// scan — this measures scan *work*, not distinct rows).
    pub fn analysis_scanned_records(&self) -> u64 {
        self.figures.iter().map(|f| f.input_records).sum()
    }

    /// Wall clock of one analysis-engine phase by name.
    fn analysis_phase_wall(&self, name: &str) -> Duration {
        self.analysis_phases
            .iter()
            .find(|p| p.name == name)
            .map_or(Duration::ZERO, |p| p.wall)
    }

    /// Aggregate analysis scan throughput: scanned records over the
    /// engine's `total` phase wall — the number the 10× CI lane floors
    /// with `bench_diff --min-records-per-sec` (`0.0` when unmeasured).
    pub fn analysis_records_per_sec(&self) -> f64 {
        rate_per_sec(
            self.analysis_scanned_records(),
            self.analysis_phase_wall("total"),
        )
    }

    /// Index-build throughput: records indexed over the engine's `index`
    /// phase wall (`0.0` when unmeasured).
    pub fn index_records_per_sec(&self) -> f64 {
        rate_per_sec(self.index_records, self.analysis_phase_wall("index"))
    }

    /// Serializes the report. Every number is finite by construction —
    /// non-finite values would render as `null`, never as `Infinity` or
    /// `NaN`.
    pub fn to_json(&self) -> Json {
        let mut config = Json::obj();
        for (k, v) in &self.config {
            config.set(k, v.clone());
        }
        let mut phases = Json::obj();
        for p in &self.phases {
            phases.set(&p.name, Json::num(p.wall.as_secs_f64()));
        }
        let shards = Json::Arr(
            self.shards
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("label", Json::str(&*s.label))
                        .with("records", Json::UInt(s.records))
                        .with("wall_secs", Json::num(s.wall.as_secs_f64()))
                        .with("records_per_sec", Json::num(s.records_per_sec()))
                })
                .collect(),
        );
        let figures = Json::Arr(
            self.figures
                .iter()
                .map(|f| {
                    Json::obj()
                        .with("id", Json::str(&*f.id))
                        .with("wall_secs", Json::num(f.wall.as_secs_f64()))
                        .with("input_records", Json::UInt(f.input_records))
                })
                .collect(),
        );
        let actioning = Json::Arr(
            self.actioning
                .iter()
                .map(|a| {
                    Json::obj()
                        .with("granularity", Json::str(&*a.granularity))
                        .with("wall_secs", Json::num(a.wall.as_secs_f64()))
                        .with("units_scored", Json::UInt(a.units_scored))
                        .with("units_evaluated", Json::UInt(a.units_evaluated))
                })
                .collect(),
        );
        // Fixed key set regardless of what was recorded, so the schema is
        // identical on instrumented, uninstrumented, and analysis-free runs.
        let mut analysis_phases = Json::obj();
        for name in ["index", "passes", "total"] {
            let wall = self
                .analysis_phases
                .iter()
                .find(|p| p.name == name)
                .map_or(0.0, |p| p.wall.as_secs_f64());
            analysis_phases.set(name, Json::num(wall));
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
        Json::obj()
            .with("schema_version", Json::UInt(SCHEMA_VERSION))
            .with("enabled", Json::Bool(self.enabled))
            .with("config", config)
            .with(
                "sim",
                Json::obj()
                    .with("threads", Json::UInt(self.threads))
                    .with("phases", phases)
                    .with("shards", shards)
                    .with("total_records", Json::UInt(self.total_records()))
                    .with("records_per_sec", Json::num(self.records_per_sec()))
                    .with("store_bytes", Json::UInt(self.store_bytes))
                    .with("bytes_per_record", Json::num(self.bytes_per_record))
                    .with("peak_store_bytes", Json::UInt(self.peak_store_bytes))
                    .with(
                        "spill_bytes_verified",
                        Json::UInt(self.spill_bytes_verified),
                    ),
            )
            .with(
                "analysis",
                Json::obj()
                    .with("figures", figures)
                    .with("phases", analysis_phases)
                    .with(
                        "total_wall_secs",
                        Json::num(self.analysis_wall().as_secs_f64()),
                    )
                    .with("index_bytes", Json::UInt(self.index_bytes))
                    .with(
                        "scanned_records",
                        Json::UInt(self.analysis_scanned_records()),
                    )
                    .with(
                        "records_per_sec",
                        Json::num(self.analysis_records_per_sec()),
                    )
                    .with("index_records", Json::UInt(self.index_records))
                    .with(
                        "index_records_per_sec",
                        Json::num(self.index_records_per_sec()),
                    )
                    .with(
                        "incremental",
                        Json::obj()
                            .with("days_reused", Json::UInt(self.incremental.days_reused))
                            .with("days_computed", Json::UInt(self.incremental.days_computed))
                            .with(
                                "extend_wall_secs",
                                Json::num(self.incremental.extend_wall.as_secs_f64()),
                            ),
                    ),
            )
            .with("actioning", actioning)
            .with(
                "actioning_sweep",
                Json::obj()
                    .with(
                        "build_wall_secs",
                        Json::num(self.actioning_sweep.build_wall.as_secs_f64()),
                    )
                    .with(
                        "read_wall_secs",
                        Json::num(self.actioning_sweep.read_wall.as_secs_f64()),
                    )
                    .with(
                        "total_wall_secs",
                        Json::num(self.actioning_sweep.total_wall().as_secs_f64()),
                    )
                    .with("days", Json::UInt(self.actioning_sweep.days))
                    .with("trie_nodes", Json::UInt(self.actioning_sweep.trie_nodes)),
            )
            .with("faults", faults)
            .with("metrics", self.registry.to_json())
    }

    /// The pretty-printed JSON document written to `BENCH_run.json`.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// A compact human-readable summary (phases, throughput, slowest
    /// figures).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "run report: {} thread(s);", self.threads);
        for p in &self.phases {
            let _ = write!(out, " {} {:.2?}", p.name, p.wall);
        }
        let _ = writeln!(
            out,
            "; {} records ({:.0} rec/s), {} shards",
            self.total_records(),
            self.records_per_sec(),
            self.shards.len()
        );
        if !self.figures.is_empty() {
            let mut by_wall: Vec<&FigureStat> = self.figures.iter().collect();
            by_wall.sort_by_key(|f| std::cmp::Reverse(f.wall));
            let _ = writeln!(
                out,
                "analysis: {} passes in {:.2?}; slowest:",
                self.figures.len(),
                self.analysis_wall()
            );
            for f in by_wall.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  {:10} {:>10.2?}  {:>10} input records",
                    f.id, f.wall, f.input_records
                );
            }
        }
        if !self.analysis_phases.is_empty() {
            let _ = write!(out, "analysis phases:");
            for p in &self.analysis_phases {
                let _ = write!(out, " {} {:.2?}", p.name, p.wall);
            }
            let _ = writeln!(out);
        }
        for a in &self.actioning {
            let _ = writeln!(
                out,
                "actioning {:6} {:>10.2?}  {} -> {} units",
                a.granularity, a.wall, a.units_scored, a.units_evaluated
            );
        }
        if self.actioning_sweep.days > 0 {
            let s = &self.actioning_sweep;
            let _ = writeln!(
                out,
                "actioning sweep: build {:.2?} + reads {:.2?} over {} day trie(s), {} nodes",
                s.build_wall, s.read_wall, s.days, s.trie_nodes
            );
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
        r.threads = 2;
        r.set_config("seed", Json::UInt(42));
        r.phases = vec![
            PhaseStat {
                name: "plan".into(),
                wall: Duration::from_micros(3),
            },
            PhaseStat {
                name: "sim".into(),
                wall: Duration::from_millis(80),
            },
            PhaseStat {
                name: "merge".into(),
                wall: Duration::from_millis(4),
            },
            PhaseStat {
                name: "sort".into(),
                wall: Duration::from_millis(2),
            },
        ];
        r.shards.push(ShardStat {
            label: "benign hh 0..64".into(),
            records: 4000,
            wall: Duration::from_millis(40),
        });
        r.shards.push(ShardStat {
            label: "abuse camp 0..4".into(),
            records: 1000,
            wall: Duration::from_millis(10),
        });
        r.figures.push(FigureStat {
            id: "F2".into(),
            wall: Duration::from_millis(7),
            input_records: 1234,
        });
        r.actioning.push(ActioningStat {
            granularity: "/64".into(),
            wall: Duration::from_millis(1),
            units_scored: 10,
            units_evaluated: 12,
        });
        r.actioning_sweep = SweepStat {
            build_wall: Duration::from_millis(2),
            read_wall: Duration::from_millis(1),
            days: 4,
            trie_nodes: 77,
        };
        r.analysis_phases = vec![
            PhaseStat {
                name: "index".into(),
                wall: Duration::from_millis(3),
            },
            PhaseStat {
                name: "passes".into(),
                wall: Duration::from_millis(9),
            },
            PhaseStat {
                name: "total".into(),
                wall: Duration::from_millis(12),
            },
        ];
        r.registry.inc("sim.records_total", 5000);
        r.store_bytes = 90_000;
        r.bytes_per_record = 18.0;
        r.peak_store_bytes = 120_000;
        r.index_bytes = 40_000;
        r.index_records = 2500;
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
    fn zero_duration_rates_are_zero_not_infinite() {
        assert_eq!(rate_per_sec(1000, Duration::ZERO), 0.0);
        let s = ShardStat {
            label: "benign hh 0..1".into(),
            records: 1000,
            wall: Duration::ZERO,
        };
        assert_eq!(s.records_per_sec(), 0.0);
        let mut r = RunReport::new(true);
        r.shards.push(s);
        assert_eq!(r.records_per_sec(), 0.0, "no sim phase recorded");
        assert!(!r.to_json().render().contains("null"));
    }

    #[test]
    fn totals_and_lookups() {
        let r = sample();
        assert_eq!(r.total_records(), 5000);
        assert_eq!(r.phase_wall("sim"), Some(Duration::from_millis(80)));
        assert_eq!(r.phase_wall("nope"), None);
        assert!((r.records_per_sec() - 5000.0 / 0.080).abs() < 1e-6);
        assert_eq!(r.analysis_wall(), Duration::from_millis(7));
        // v6 throughput fields: scanned records over the engine's total
        // phase, indexed records over the index phase.
        assert_eq!(r.analysis_scanned_records(), 1234);
        assert!((r.analysis_records_per_sec() - 1234.0 / 0.012).abs() < 1e-6);
        assert!((r.index_records_per_sec() - 2500.0 / 0.003).abs() < 1e-6);
        let bare = RunReport::new(true);
        assert_eq!(bare.analysis_records_per_sec(), 0.0, "unmeasured is 0.0");
        assert_eq!(bare.index_records_per_sec(), 0.0);
    }

    #[test]
    fn json_has_every_section_and_no_specials() {
        let text = sample().to_json_string();
        for key in [
            "\"schema_version\"",
            "\"config\"",
            "\"sim\"",
            "\"plan\"",
            "\"merge\"",
            "\"sort\"",
            "\"shards\"",
            "\"records_per_sec\"",
            "\"store_bytes\"",
            "\"bytes_per_record\"",
            "\"peak_store_bytes\"",
            "\"index_bytes\"",
            "\"analysis\"",
            "\"phases\"",
            "\"index\"",
            "\"passes\"",
            "\"input_records\"",
            "\"scanned_records\"",
            "\"index_records\"",
            "\"index_records_per_sec\"",
            "\"incremental\"",
            "\"days_reused\"",
            "\"days_computed\"",
            "\"extend_wall_secs\"",
            "\"actioning\"",
            "\"units_scored\"",
            "\"actioning_sweep\"",
            "\"build_wall_secs\"",
            "\"read_wall_secs\"",
            "\"total_wall_secs\"",
            "\"trie_nodes\"",
            "\"faults\"",
            "\"failed_shards\"",
            "\"retries_total\"",
            "\"dropped_shards\"",
            "\"records_lost\"",
            "\"kind\"",
            "\"panic_msg\"",
            "\"io_retries\"",
            "\"checksum_failures\"",
            "\"spill_bytes_verified\"",
            "\"metrics\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(!text.contains("Infinity"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn disabled_report_serializes_with_the_same_top_level_schema() {
        let on = sample().to_json();
        let off = RunReport::new(false).to_json();
        let tops = |j: &Json| match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("report is an object"),
        };
        assert_eq!(tops(&on), tops(&off));
    }

    #[test]
    fn render_mentions_phases_and_slowest_figures() {
        let text = sample().render();
        assert!(text.contains("plan"));
        assert!(text.contains("sort"));
        assert!(text.contains("analysis phases: index"));
        assert!(text.contains("passes"));
        assert!(text.contains("F2"));
        assert!(text.contains("/64"));
        assert!(text.contains("actioning sweep: build"));
        assert!(text.contains("faults (retry)"));
        assert!(text.contains("abuse camp 0..4"));
        assert!(text.contains("panic: injected fault"));
        assert!(text.contains("storage: 3 io retry(ies)"));
    }
}
