//! The benchmark's workloads, driven through the library's public API.
//!
//! Every workload runs at `threads = 1`, `analysis_threads = 1`, from one
//! process. Untimed iterations run with `config.instrument = false`;
//! traced iterations turn it on so program-reported counters (spill bytes
//! verified) exist, and wrap spans around each layer's public calls.
//! Layers a workload's operation only reaches from inside the library
//! are timed by replays, each under a `replay/<layer>` root of its own.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipv6_user_study::analysis::windows::pair_window;
use ipv6_user_study::analysis::DatasetIndex;
use ipv6_user_study::behavior::abuse::AbuseSim;
use ipv6_user_study::behavior::emit::emit_user_day;
use ipv6_user_study::behavior::population::Population;
use ipv6_user_study::behavior::schedule::day_plan;
use ipv6_user_study::experiments::{self, AnalysisCtx, ExperimentOutput};
use ipv6_user_study::netmodel::World;
use ipv6_user_study::report::render_markdown;
use ipv6_user_study::secapp::actioning::{actioning_roc_between, DayCounts, Granularity};
use ipv6_user_study::stats::hash::stable_hash64;
use ipv6_user_study::telemetry::kernels::scratch_reset;
use ipv6_user_study::telemetry::{
    read_checkpoint_segment, write_checkpoint_segment, ColumnSlice, DateRange, EntityTables,
    FnSink, FrozenStore, RequestRecord, RequestStore, StudyDatasets,
};
use ipv6_user_study::{
    incremental, IncrementalStat, StorageMode, Study, StudyConfig, DEFAULT_SEGMENT_ROWS,
};

use crate::trace::Tracer;

/// Seed of the markdown digest (`"ANEQ"`, as in the analysis
/// equivalence suite).
const DIGEST_SEED: u64 = 0x414E_4551;

/// The pinned digest of the tiny preset (seed 42, 400 households),
/// shared with `tests/analysis_equivalence.rs`.
pub const GOLDEN_TINY_DIGEST: u64 = 0x8bca_6eb1_5de8_2ac9;

/// Households of the batch workloads: ten times the tiny preset.
const BATCH_HOUSEHOLDS: u64 = 4_000;

/// Extension days of the resume workload's history: the tiny calendar's
/// 14 days plus 46 make 60.
const RESUME_BASE_EXTEND: u16 = 46;

/// The digest every correctness check compares.
pub fn digest(markdown: &str) -> u64 {
    stable_hash64(DIGEST_SEED, markdown.as_bytes())
}

/// Renders the full registry of `config` from scratch, in memory or as
/// configured, for reference digests and the golden self-check.
pub fn reference_digest(config: StudyConfig) -> Result<u64, String> {
    let mut study = Study::run(config).map_err(|e| e.to_string())?;
    Ok(digest(&render_markdown(&experiments::run_all(&mut study))))
}

/// Confirms that the tiny preset still reproduces the pinned digest.
pub fn golden_self_check() -> Result<(), String> {
    let mut config = StudyConfig::tiny();
    config.analysis_threads = Some(1);
    config.instrument = false;
    let got = reference_digest(config)?;
    if got == GOLDEN_TINY_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "tiny preset digest {got:#018x} differs from the pinned {GOLDEN_TINY_DIGEST:#018x}"
        ))
    }
}

/// The tiny calendar (Apr 6–19, dense Apr 13–19) at one thread,
/// uninstrumented, for `seed` and `households`.
pub fn base_config(seed: u64, households: u64) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.seed = seed;
    config.households = households;
    config.threads = 1;
    config.analysis_threads = Some(1);
    config.instrument = false;
    config
}

/// One measured iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterOut {
    /// Digest of the rendered markdown.
    pub digest: u64,
    /// Records offered to the samplers over the output's whole range.
    pub offered: u64,
    /// Rows held by the output study's frozen stores.
    pub rows: u64,
    /// Wall of the workload's operation.
    pub secs: f64,
    /// The process's peak resident set over the operation, in MiB.
    pub peak_mib: f64,
}

/// What a workload knows how to do.
pub trait Workload {
    /// Prepares for the first iteration; returns the timed seconds.
    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String>;
    /// Runs one iteration of the workload's operation.
    fn iterate(&mut self, tr: &mut Tracer) -> Result<IterOut, String>;
    /// The digest every iteration must reproduce, from an independent
    /// run. Called after the measurement, so it never raises the peak.
    fn reference(&self) -> Result<u64, String>;
    /// Replays the layers the operation reaches only from inside the
    /// library, over the last iteration's output. Returns the digest of
    /// any markdown a replay rendered.
    fn replay(&mut self, tr: &mut Tracer) -> Result<Option<u64>, String>;
    /// Bytes on disk in the state dir after the last operation.
    fn state_dir_bytes(&self) -> u64;
    /// Where the spill dir and the state dir live (`-` when unused).
    fn locations(&self) -> (String, String);
}

/// A cold batch run: `Study::run` + `experiments::run_all` +
/// `report::render_markdown`, in memory or through spill.
pub struct Batch {
    config: StudyConfig,
    work: PathBuf,
    last: Option<Study>,
}

impl Batch {
    /// The `batch_mem` workload, or `batch_spill` with `spill`.
    pub fn new(seed: u64, work: &Path, spill: bool) -> Result<Self, String> {
        Self::with_config(base_config(seed, BATCH_HOUSEHOLDS), work, spill)
    }

    /// A batch workload over any configuration (tests use small ones).
    pub fn with_config(mut config: StudyConfig, work: &Path, spill: bool) -> Result<Self, String> {
        if spill {
            config.storage = spill_storage(work)?;
        }
        Ok(Self {
            config,
            work: work.to_path_buf(),
            last: None,
        })
    }
}

/// Spill storage at the default segment size, in `work/spill`.
fn spill_storage(work: &Path) -> Result<StorageMode, String> {
    let dir = work.join("spill");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(StorageMode::Spill {
        dir: Some(dir),
        segment_rows: DEFAULT_SEGMENT_ROWS,
    })
}

impl Workload for Batch {
    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let t0 = Instant::now();
        tr.span("setup", |tr| with_inputs(&self.config, tr, |_, _, _, _| ()));
        Ok(t0.elapsed().as_secs_f64())
    }

    fn iterate(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        // Drop the previous output first, so the peak holds one study.
        self.last = None;
        let mut config = self.config.clone();
        config.instrument = tr.enabled();
        reset_peak_rss()?;
        let t0 = Instant::now();
        let (study, markdown) = tr
            .span("iter", |tr| {
                let mut study = tr.span("core.study_run", |tr| {
                    let study = Study::run(config)?;
                    record_driver(tr, &study);
                    Ok::<_, ipv6_user_study::StudyError>(study)
                })?;
                let markdown = if tr.enabled() {
                    analyse_traced(&study, tr)
                } else {
                    render_markdown(&experiments::run_all(&mut study))
                };
                Ok((study, markdown))
            })
            .map_err(|e: ipv6_user_study::StudyError| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        let out = IterOut {
            digest: digest(&markdown),
            offered: study.datasets().offered,
            rows: stored_rows(&study),
            secs,
            peak_mib: peak_rss_mib()?,
        };
        self.last = Some(study);
        Ok(out)
    }

    fn reference(&self) -> Result<u64, String> {
        // The other storage mode, so the two paths check each other.
        let mut config = self.config.clone();
        config.storage = if config.storage.is_spill() {
            StorageMode::InMemory
        } else {
            spill_storage(&self.work)?
        };
        reference_digest(config)
    }

    fn replay(&mut self, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let study = self.last.take().ok_or("no iteration to replay")?;
        let days = study.config().sim_range();
        replay_layers(&study, days, &self.work, tr)?;

        // A warm +1-day resume over this workload's 14-day history.
        let dir = self.work.join("replay_state");
        let mut cold = self.config.clone();
        cold.storage = StorageMode::InMemory;
        let mut warm = cold.clone();
        warm.extend_days += 1;
        tr.span("replay/incremental", |tr| -> Result<(), String> {
            tr.span("incremental.cold", |_| incremental::run(cold, &dir))
                .map_err(|e| e.to_string())?;
            timed_resume(tr, warm, &dir).map(drop)
        })?;
        remove_dir(&dir)?;
        replay_extend(study, tr)?;
        Ok(None)
    }

    fn state_dir_bytes(&self) -> u64 {
        0
    }

    fn locations(&self) -> (String, String) {
        let spill = match &self.config.storage {
            StorageMode::Spill { dir: Some(dir), .. } => absolute(dir),
            _ => "-".to_string(),
        };
        (spill, "-".to_string())
    }
}

/// A warm +1-day `incremental::run` over a 60-day state dir, restored
/// from a pristine copy before every iteration.
pub struct Resume {
    base: StudyConfig,
    target: StudyConfig,
    work: PathBuf,
    pristine: PathBuf,
    state: PathBuf,
    state_bytes: u64,
    last: Option<Study>,
}

impl Resume {
    /// The `resume_60d` workload.
    pub fn new(seed: u64, work: &Path) -> Self {
        let mut base = base_config(seed, StudyConfig::tiny().households);
        base.extend_days = RESUME_BASE_EXTEND;
        Self::with_config(base, work)
    }

    /// A resume workload whose history is `base` (tests use short ones).
    pub fn with_config(base: StudyConfig, work: &Path) -> Self {
        let mut target = base.clone();
        target.extend_days += 1;
        Self {
            base,
            target,
            work: work.to_path_buf(),
            pristine: work.join("pristine_state"),
            state: work.join("state"),
            state_bytes: 0,
            last: None,
        }
    }

    /// Times one `incremental::run` on the state dir as it is, and
    /// asserts that it absorbed exactly one new day onto the history.
    pub fn run_op(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        self.last = None;
        let mut config = self.target.clone();
        config.instrument = tr.enabled();
        reset_peak_rss()?;
        let t0 = Instant::now();
        let run = tr.span("iter", |tr| {
            let run = timed_resume(tr, config, &self.state)?;
            record_driver(tr, &run.study);
            Ok::<_, String>(run)
        })?;
        let secs = t0.elapsed().as_secs_f64();
        let peak_mib = peak_rss_mib()?;
        check_one_day(&run.stats, self.base.sim_range().num_days())?;
        self.state_bytes = dir_bytes(&self.state)?;
        let out = IterOut {
            digest: digest(&run.markdown),
            offered: run.study.datasets().offered,
            rows: stored_rows(&run.study),
            secs,
            peak_mib,
        };
        self.last = Some(run.study);
        Ok(out)
    }
}

impl Workload for Resume {
    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        remove_dir(&self.pristine)?;
        let t0 = Instant::now();
        tr.span("setup", |tr| {
            tr.span("incremental.cold", |_| {
                incremental::run(self.base.clone(), &self.pristine)
            })
        })
        .map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn iterate(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        // Untimed: without the restore the dir already covers the target
        // and the operation would be a zero-day no-op.
        copy_dir(&self.pristine, &self.state)?;
        self.run_op(tr)
    }

    fn reference(&self) -> Result<u64, String> {
        reference_digest(self.target.clone())
    }

    fn replay(&mut self, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let study = self.last.take().ok_or("no iteration to replay")?;
        let suffix = DateRange::single(study.config().sim_end());
        replay_layers(&study, suffix, &self.work, tr)?;
        // The operation renders inside the library: replay the analysis
        // over its output, which must reproduce the same digest.
        let markdown = tr.span("replay/analysis", |tr| analyse_traced(&study, tr));
        drop(study);

        // The in-memory 60-day study, rebuilt from the pristine dir.
        copy_dir(&self.pristine, &self.state)?;
        let history = incremental::run(self.base.clone(), &self.state)
            .map_err(|e| e.to_string())?
            .study;
        replay_extend(history, tr)?;
        Ok(Some(digest(&markdown)))
    }

    fn state_dir_bytes(&self) -> u64 {
        self.state_bytes
    }

    fn locations(&self) -> (String, String) {
        ("-".to_string(), absolute(&self.state))
    }
}

/// Fails unless `stats` shows `history_days` reused and one computed.
pub fn check_one_day(stats: &IncrementalStat, history_days: u16) -> Result<(), String> {
    if stats.days_reused == u64::from(history_days) && stats.days_computed == 1 {
        Ok(())
    } else {
        Err(format!(
            "resume absorbed days_reused {} / days_computed {}, expected {history_days} / 1 \
             (was the state dir restored?)",
            stats.days_reused, stats.days_computed
        ))
    }
}

/// `incremental::run` under an `incremental.run` span, with its reuse
/// split as attributes.
fn timed_resume(
    tr: &mut Tracer,
    config: StudyConfig,
    dir: &Path,
) -> Result<incremental::IncrementalRun, String> {
    tr.span("incremental.run", |tr| {
        let run = incremental::run(config, dir).map_err(|e| e.to_string())?;
        tr.attr("incremental.days_reused", run.stats.days_reused as f64);
        tr.attr("incremental.days_computed", run.stats.days_computed as f64);
        Ok(run)
    })
}

/// The driver's own phase walls and counters, as span attributes. They
/// are program-reported: the driver's phases cannot be wrapped from
/// outside the library.
fn record_driver(tr: &mut Tracer, study: &Study) {
    let m = study.metrics();
    tr.attr("driver.sim_s", m.sim_wall.as_secs_f64());
    tr.attr("driver.merge_s", m.merge_wall.as_secs_f64());
    tr.attr("driver.sort_s", m.sort_wall.as_secs_f64());
    tr.attr("driver.records", m.total_records() as f64);
    tr.attr("driver.peak_store_bytes", m.peak_store_bytes as f64);
    tr.attr(
        "spill.bytes_verified",
        study.report().spill_bytes_verified as f64,
    );
}

/// Rows held by a study's frozen stores: datasets, abuse and pair.
fn stored_rows(study: &Study) -> u64 {
    study.datasets().retained() + study.abuse_store().len() as u64 + study.pair_store().len() as u64
}

type Pass = (&'static str, fn(&AnalysisCtx) -> ExperimentOutput);

/// The experiment registry in paper order; [`check_registry`] pins it
/// to `experiments::experiment_ids`.
const PASSES: [Pass; 20] = [
    ("F1", experiments::fig1_prevalence),
    ("T1", experiments::tab1_asns),
    ("T2/F12", experiments::tab2_countries),
    ("C4.4", experiments::c44_client_patterns),
    ("F2", experiments::fig2_addrs_per_user),
    ("F3", experiments::fig3_aa_addrs),
    ("O5.1", experiments::o51_user_outliers),
    ("F4", experiments::fig4_prefix_span),
    ("F5", experiments::fig5_lifespans),
    ("F6", experiments::fig6_prefix_lifespans),
    ("F7", experiments::fig7_users_per_ip),
    ("F8", experiments::fig8_aa_per_ip),
    ("O6.1", experiments::o61_ip_outliers),
    ("F9", experiments::fig9_users_per_prefix),
    ("F10", experiments::fig10_aa_per_prefix),
    ("O6.2", experiments::o62_prefix_outliers),
    ("F11", experiments::fig11_roc),
    ("S7.2", experiments::s72_defenses),
    ("X8.1", experiments::x81_network_breakdown),
    ("ApxA", experiments::apx_pandemic_compare),
];

/// The six shared analysis windows, in `AnalysisCtx::build_all` order.
pub const WINDOWS: [&str; 6] = [
    "user_week",
    "user_day",
    "user_lookback",
    "ip_day",
    "ip_week",
    "abuse_week",
];

/// Builds (or fetches) one shared window by its [`WINDOWS`] name.
fn window<'c>(ctx: &'c AnalysisCtx<'_>, name: &str) -> &'c DatasetIndex {
    match name {
        "user_week" => ctx.user_week(),
        "user_day" => ctx.user_day(),
        "user_lookback" => ctx.user_lookback(),
        "ip_day" => ctx.ip_day(),
        "ip_week" => ctx.ip_week(),
        "abuse_week" => ctx.abuse_week(),
        _ => unreachable!("unknown window {name}"),
    }
}

/// The registry ids the benchmark times, in paper order.
pub fn pass_ids() -> impl Iterator<Item = &'static str> {
    PASSES.iter().map(|&(id, _)| id)
}

/// Fails when the library's registry no longer matches [`PASSES`].
pub fn check_registry() -> Result<(), String> {
    if experiments::experiment_ids().eq(pass_ids()) {
        Ok(())
    } else {
        Err("the experiment registry changed; update PASSES".to_string())
    }
}

/// A pass id as a metric-name stem (`T2/F12` → `T2-F12`).
pub fn pass_stem(id: &str) -> String {
    id.replace('/', "-")
}

/// What `experiments::run_all` + `render_markdown` do at one worker,
/// with a span around each window build, each pass and the render.
fn analyse_traced(study: &Study, tr: &mut Tracer) -> String {
    let ctx = AnalysisCtx::new(study);
    tr.span("analysis.index", |tr| {
        for name in WINDOWS {
            tr.span(&format!("index.{name}"), |tr| {
                let index = window(&ctx, name);
                tr.attr("index.records", index.len() as f64);
                tr.attr("index.bytes", index.bytes() as f64);
            });
        }
    });
    let results: Vec<(&'static str, ExperimentOutput)> = PASSES
        .iter()
        .map(|&(id, pass)| {
            let stem = pass_stem(id);
            let out = tr.span(&format!("pass.{stem}"), |tr| {
                let out = pass(&ctx);
                scratch_reset();
                tr.attr(&format!("pass.{stem}_records"), out.input_records as f64);
                out
            });
            (id, out)
        })
        .collect();
    tr.span("report.render", |_| render_markdown(&results))
}

/// Builds the simulation inputs the way `Study::run` does, under one
/// span per constructor, and hands them to `f`.
fn with_inputs<T>(
    config: &StudyConfig,
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer, &World, &Population<'_>, &AbuseSim) -> T,
) -> T {
    // The seed derivations mirror `Study::run`, so a replay emits the
    // rows the driver emits.
    let mut world = tr.span("netmodel.world", |_| {
        World::sized(config.seed, config.households)
    });
    config.ablation.apply_to_world(&mut world);
    let pop = tr.span("behavior.population", |_| {
        Population::new(&world, config.seed ^ 0x504F_5055, config.households)
    });
    let abuse = tr.span("behavior.abuse", |_| {
        AbuseSim::new(
            &world,
            config.seed ^ 0x4142_5553,
            config.campaigns,
            config.households,
            DateRange::new(config.full_range.start, config.full_range.end),
        )
        .with_detect_scale(config.ablation.detect_scale())
    });
    f(tr, &world, &pop, &abuse)
}

/// The replays shared by every workload, over `study` (the last
/// iteration's output) and `days` (the days its operation simulated).
fn replay_layers(
    study: &Study,
    days: DateRange,
    work: &Path,
    tr: &mut Tracer,
) -> Result<(), String> {
    let config = study.config();
    tr.span("replay/emit", |tr| {
        with_inputs(config, tr, |tr, world, pop, abuse| {
            let samplers = config.sampling.resolve(pop.approx_users());
            let rows = tr.span("behavior.emit", |tr| {
                let mut rows: Vec<RequestRecord> = Vec::new();
                let mut sink = FnSink(|r| rows.push(r));
                for day in days.days() {
                    for hh in 0..config.households {
                        let household = pop.household(hh);
                        for uid in pop.member_ids(&household) {
                            // Outside the dense window only the user-sample
                            // panel is simulated, as in the driver.
                            if !config.is_dense(day) && !samplers.user_sampled(uid) {
                                continue;
                            }
                            let profile = pop.user(uid);
                            let plan = day_plan(world, &profile, day);
                            emit_user_day(world, &profile, day, &plan, &mut sink);
                        }
                    }
                    abuse.emit_day(pop, day, &mut sink);
                }
                tr.attr("behavior.emit_records", rows.len() as f64);
                rows
            });
            tr.span("telemetry.route", |_| {
                let mut datasets =
                    StudyDatasets::with_prefix_lengths(samplers, &config.prefix_lengths);
                for rec in rows {
                    datasets.offer(rec);
                }
                datasets
            });
        })
    });

    tr.span("replay/freeze", |tr| {
        let thaw = |stores: &[&FrozenStore]| {
            let mut out = RequestStore::new();
            for rec in stores.iter().flat_map(|s| s.all().records()) {
                out.push(rec);
            }
            out
        };
        let d = study.datasets();
        let mut datasets =
            StudyDatasets::with_prefix_lengths(d.samplers.clone(), &config.prefix_lengths);
        datasets.request_sample = thaw(&[&d.request_sample]);
        datasets.user_sample = thaw(&[&d.user_sample]);
        datasets.ip_sample = thaw(&[&d.ip_sample]);
        for &len in &config.prefix_lengths {
            *datasets.prefix_sample(len) = thaw(&[d.prefix_sample(len)]);
        }
        let abuse = thaw(&[study.abuse_store()]);
        let pair = thaw(&[study.pair_store()]);
        let tables = tr.span("telemetry.intern", |tr| {
            let tables = EntityTables::build(
                datasets
                    .iter_unordered()
                    .chain(abuse.iter_unordered())
                    .chain(pair.iter_unordered()),
            );
            tr.attr(
                "telemetry.intern_keys",
                (tables.ips.len() + tables.users.len()) as f64,
            );
            std::sync::Arc::new(tables)
        });
        tr.span("telemetry.encode", |tr| {
            let bytes = datasets.freeze_with(tables.clone()).bytes()
                + abuse.freeze_with(tables.clone()).bytes()
                + pair.freeze_with(tables.clone()).bytes()
                + tables.bytes();
            tr.attr("telemetry.store_bytes", bytes as f64);
        });
    });

    let dir = work.join("replay_checkpoint");
    tr.span("replay/checkpoint", |tr| -> Result<(), String> {
        let mut families: Vec<(String, &FrozenStore)> = vec![
            ("request".into(), &study.datasets().request_sample),
            ("user".into(), &study.datasets().user_sample),
            ("ip".into(), &study.datasets().ip_sample),
        ];
        for &len in &config.prefix_lengths {
            families.push((format!("prefix{len}"), study.datasets().prefix_sample(len)));
        }
        families.push(("abuse".into(), study.abuse_store()));
        families.push(("pair".into(), study.pair_store()));
        let mut paths = Vec::new();
        for day in config.sim_range().days() {
            let day_dir = dir.join(format!("day{:03}", day.index()));
            fs::create_dir_all(&day_dir)
                .map_err(|e| format!("creating {}: {e}", day_dir.display()))?;
            for (name, store) in &families {
                let rows: Vec<RequestRecord> = store.on_day(day).records().collect();
                if !rows.is_empty() {
                    paths.push((day_dir.join(format!("{name}.seg")), rows));
                }
            }
        }
        tr.span("checkpoint.write", |tr| -> Result<(), String> {
            for (path, rows) in &paths {
                write_checkpoint_segment(path, rows).map_err(|e| e.to_string())?;
            }
            tr.attr("checkpoint.bytes", dir_bytes(&dir)? as f64);
            Ok(())
        })?;
        tr.span("checkpoint.read", |_| -> Result<(), String> {
            for (path, rows) in &paths {
                let back = read_checkpoint_segment(path).map_err(|e| e.to_string())?;
                if back.len() != rows.len() {
                    return Err(format!("{} read back short", path.display()));
                }
            }
            Ok(())
        })
    })?;
    remove_dir(&dir)?;

    tr.span("replay/actioning", |tr| {
        let pair = pair_window(config.sim_end());
        let days: Vec<ColumnSlice<'_>> =
            pair.days().map(|d| study.pair_store().on_day(d)).collect();
        let counts: Vec<DayCounts> = days
            .iter()
            .map(|rows| {
                tr.span("actioning.build", |tr| {
                    let c = DayCounts::build(*rows, study.labels());
                    tr.attr("actioning.trie_nodes", c.node_count() as f64);
                    c
                })
            })
            .collect();
        for gran in [
            Granularity::V6Full,
            Granularity::V6Prefix(64),
            Granularity::V6Prefix(56),
            Granularity::V4Full,
        ] {
            for k in 0..counts.len().saturating_sub(1) {
                tr.span("actioning.read", |_| {
                    actioning_roc_between(&counts[k], &counts[k + 1], gran)
                });
            }
        }
    });
    Ok(())
}

/// `Study::extend_days(1)` on an in-memory study.
fn replay_extend(study: Study, tr: &mut Tracer) -> Result<(), String> {
    tr.span("replay/extend", |tr| {
        tr.span("incremental.extend", |_| study.extend_days(1))
            .map(drop)
            .map_err(|e| e.to_string())
    })
}

/// Resets the process's resident-set high-water mark (`VmHWM`) to its
/// current resident set.
fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Replaces `to` with a copy of the tree at `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    remove_dir(to)?;
    fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Removes `dir` and everything under it, if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

fn absolute(path: &Path) -> String {
    std::path::absolute(path)
        .unwrap_or_else(|_| path.to_path_buf())
        .display()
        .to_string()
}
