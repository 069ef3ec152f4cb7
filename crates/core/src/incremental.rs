//! The incremental day-over-day engine (DESIGN.md §14).
//!
//! The paper's security application is day-*n* → day-*n+1* actioning,
//! which makes "append one day" the pipeline's steady-state operation —
//! yet the batch pipeline recomputes the whole timeline per run. This
//! module adds the extension path on top of three facts the rest of the
//! workspace guarantees:
//!
//! 1. **Per-day purity.** A shard's emission on a day is a pure function
//!    of `(config, day)` — the shard plan, samplers, and campaign
//!    placement are all anchored on the *base* `full_range`, never on
//!    `extend_days` — so simulating only the suffix days reproduces
//!    exactly the rows a full run emits there (the crate-private
//!    `driver::simulate`).
//! 2. **Order stability.** Frozen stores order rows by timestamp with
//!    plan-order tie-breaks; days are timestamp-disjoint, so the
//!    history's canonical rows followed by the suffix's runs *are* the
//!    longer run's canonical order. The history enters the one freeze
//!    as runs — the old study's frozen stores, or the state dir's day
//!    files — placed before the suffix runs, and the freeze's stable
//!    sort keeps that order.
//! 3. **Order-isomorphism.** Intern tables depend only on the
//!    distinct raw-key *sets*, and dense ids are assigned in ascending
//!    raw-key order — so the union tables equal the longer run's tables
//!    bit-for-bit, and keys that survive an extension keep their
//!    relative order (which is what lets cached per-day structures and
//!    merged indexes stay valid).
//!
//! Together these give the engine's defining correctness bar: extending
//! by a day is **byte-identical** to a from-scratch run of the longer
//! range, at any thread count and either storage mode (pinned by
//! `tests/incremental.rs`).
//!
//! # Checkpoints (`--state-dir`)
//!
//! A state directory persists the engine's frozen day deltas so a later
//! process can extend without re-simulating:
//!
//! ```text
//! state-dir/
//!   manifest.json        config identity, covered extension, counters,
//!                        cached-pass list (written last = commit point)
//!   days/day<idx>/<family>.seg   one checkpoint segment per family per
//!                        day, rows in canonical frozen order (request,
//!                        user, ip, prefix<len>…, abuse; pair only for
//!                        days inside the sliding pair window)
//!   passes/<id>.md|.sum  rendered markdown section + console summary
//!                        of each default-registry pass
//! ```
//!
//! Day deltas are immutable, so a save skips segments that already
//! exist; pair segments are pruned as the window slides. A resume opens
//! the covered days' files as runs and freezes them once, together with
//! the suffix. Only the passes whose read windows cover the new days (per
//! [`windows::invalidated_by_extension`], the single source of truth)
//! are re-run — everything else is spliced from the cached sections,
//! byte-identical because the calendar-anchored windows see the same
//! records in the same order.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use ipv6_study_analysis::windows;
use ipv6_study_obs::{IncrementalStat, Json, Span};
use ipv6_study_telemetry::{write_checkpoint_segment, DateRange, FamilyRuns, FrozenStore, Run};

use crate::config::{ConfigError, StudyConfig};
use crate::driver::SimInputs;
use crate::experiments::{self, ExperimentOutput};
use crate::faults::StudyError;
use crate::report;
use crate::study::{History, Study};

/// The manifest layout this build writes and reads.
const CHECKPOINT_SCHEMA: u64 = 2;

/// A completed incremental run: the (possibly extended) study, the reuse
/// accounting, and the rendered documents with cached sections spliced
/// in.
#[derive(Debug)]
pub struct IncrementalRun {
    /// The study covering the requested (extended) range.
    pub study: Study,
    /// What was reused vs. computed (also recorded in the study's run
    /// report as `incremental`).
    pub stats: IncrementalStat,
    /// The full EXPERIMENTS.md content for the extended range.
    pub markdown: String,
    /// The console summary (one line per statistic).
    pub summary: String,
}

/// One pass's rendered output, as cached under `passes/` in a state dir.
struct PassSection {
    id: String,
    markdown: String,
    summary: String,
}

/// A parsed checkpoint manifest.
struct Checkpoint {
    /// The `extend_days` value the persisted deltas cover.
    covered_extend_days: u16,
    offered: u64,
    users_seen: u64,
    users_sampled: u64,
    /// Ids of the passes with cached sections.
    passes: Vec<String>,
}

/// Wraps a filesystem problem in the state dir as a config/storage
/// error (the checkpoint is configuration-supplied storage).
fn storage_err(what: &str, path: &Path, e: &std::io::Error) -> StudyError {
    StudyError::Config(ConfigError::Storage(format!(
        "state dir: {what} {} failed: {e}",
        path.display()
    )))
}

/// A state-dir consistency problem (bad manifest, config mismatch).
fn storage_msg(msg: String) -> StudyError {
    StudyError::Config(ConfigError::Storage(msg))
}

/// The filename stem for a pass's cached sections. Pass ids may contain
/// path separators (e.g. `T2/F12`); flatten them so every cache file
/// lives directly under `passes/`.
fn pass_file_stem(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Extends `study` by `n` simulated days: its frozen stores become the
/// history's runs, the driver simulates only the suffix days, and the
/// one freeze merges both. See the module docs for why the result is
/// byte-identical to a from-scratch run of the longer range.
pub(crate) fn extend(study: Study, n: u16) -> Result<(Study, IncrementalStat), StudyError> {
    let t0 = Instant::now();
    let old_range = study.config.sim_range();
    let old_days = u64::from(old_range.num_days());
    if n == 0 {
        let mut study = study;
        let stats = IncrementalStat {
            days_reused: old_days,
            days_computed: 0,
            extend_wall: t0.elapsed(),
        };
        study.report.incremental = stats;
        return Ok((study, stats));
    }
    let mut config = study.config.clone();
    config.extend_days = config.extend_days.saturating_add(n);
    config.validate()?;

    // Carry the per-day trie cache for days still inside the sliding
    // pair window; DayCounts reads raw keys only, so re-encoding does
    // not invalidate them.
    let pair_win = windows::pair_window(config.sim_end());
    let carried = study.take_day_counts(pair_win);

    let Study {
        world,
        datasets,
        abuse_store,
        pair_store,
        users_seen,
        users_sampled,
        ..
    } = study;
    let mut runs = FamilyRuns {
        request: vec![Run::frozen(datasets.request_sample, old_range)],
        user: vec![Run::frozen(datasets.user_sample, old_range)],
        ip: vec![Run::frozen(datasets.ip_sample, old_range)],
        prefixes: datasets
            .prefix_samples
            .into_iter()
            .map(|(len, store)| (len, vec![Run::frozen(store, old_range)]))
            .collect(),
        abuse: vec![Run::frozen(abuse_store, old_range)],
        pair: Vec::new(),
    };
    // The pair store slides: keep only the old days still inside the new
    // window (the suffix run routes its days against that window).
    if pair_win.start <= old_range.end {
        let kept = DateRange::new(pair_win.start, old_range.end);
        runs.pair.push(Run::frozen(pair_store, kept));
    }
    let history = History {
        runs,
        days: old_range.num_days(),
        offered: datasets.offered,
        users_seen,
        users_sampled,
        load_wall: Duration::ZERO,
    };
    let mut extended = Study::absorb(config, world, history, t0)?;
    extended.seed_day_counts(carried);
    let stats = IncrementalStat {
        days_reused: old_days,
        days_computed: u64::from(n),
        extend_wall: t0.elapsed(),
    };
    extended.report.incremental = stats;
    Ok((extended, stats))
}

/// A checkpointed dataset family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Request,
    User,
    Ip,
    Prefix(u8),
    Abuse,
    /// Checkpointed only for days inside the sliding pair window.
    Pair,
}

impl Family {
    /// Every family of `config`, in a fixed order.
    fn all(config: &StudyConfig) -> Vec<Family> {
        let mut all = vec![Family::Request, Family::User, Family::Ip];
        all.extend(config.prefix_lengths.iter().map(|&l| Family::Prefix(l)));
        all.extend([Family::Abuse, Family::Pair]);
        all
    }

    /// The family's file name inside a day directory.
    fn file_name(self) -> String {
        match self {
            Family::Request => "request.seg".into(),
            Family::User => "user.seg".into(),
            Family::Ip => "ip.seg".into(),
            Family::Prefix(len) => format!("prefix{len}.seg"),
            Family::Abuse => "abuse.seg".into(),
            Family::Pair => "pair.seg".into(),
        }
    }

    /// The study's frozen store of this family.
    fn store(self, study: &Study) -> &FrozenStore {
        match self {
            Family::Request => &study.datasets().request_sample,
            Family::User => &study.datasets().user_sample,
            Family::Ip => &study.datasets().ip_sample,
            Family::Prefix(len) => study.datasets().prefix_sample(len),
            Family::Abuse => study.abuse_store(),
            Family::Pair => study.pair_store(),
        }
    }

    /// This family's run list.
    fn runs(self, runs: &mut FamilyRuns) -> &mut Vec<Run> {
        match self {
            Family::Request => &mut runs.request,
            Family::User => &mut runs.user,
            Family::Ip => &mut runs.ip,
            Family::Prefix(len) => runs.prefixes.entry(len).or_default(),
            Family::Abuse => &mut runs.abuse,
            Family::Pair => &mut runs.pair,
        }
    }
}

/// The config-identity echo both written to and checked against the
/// manifest. Runtime knobs that cannot change the emitted datasets —
/// threads, analysis threads, storage mode, instrumentation — are
/// deliberately excluded: a checkpoint written by a spill run resumes
/// fine in memory mode and vice versa.
fn identity_json(config: &StudyConfig) -> Json {
    Json::obj()
        .with("seed", Json::UInt(config.seed))
        .with("households", Json::UInt(config.households))
        .with("campaigns", Json::UInt(u64::from(config.campaigns)))
        .with(
            "full_start",
            Json::UInt(u64::from(config.full_range.start.index())),
        )
        .with(
            "full_end",
            Json::UInt(u64::from(config.full_range.end.index())),
        )
        .with(
            "dense_start",
            Json::UInt(u64::from(config.dense_range.start.index())),
        )
        .with(
            "dense_end",
            Json::UInt(u64::from(config.dense_range.end.index())),
        )
        .with(
            "prefix_lengths",
            Json::Arr(
                config
                    .prefix_lengths
                    .iter()
                    .map(|&l| Json::UInt(u64::from(l)))
                    .collect(),
            ),
        )
        .with("sampling", Json::str(config.sampling.label()))
        .with("ablation", Json::str(config.ablation.name()))
}

/// Writes (or refreshes) the checkpoint for `study` in `dir`. Day
/// deltas are immutable, so existing segments are kept as-is; pair
/// segments outside the sliding window are pruned; the manifest is
/// written last as the commit point.
fn save_checkpoint(study: &Study, sections: &[PassSection], dir: &Path) -> Result<(), StudyError> {
    let days_dir = dir.join("days");
    fs::create_dir_all(&days_dir).map_err(|e| storage_err("creating", &days_dir, &e))?;
    let pair_win = windows::pair_window(study.config.sim_end());
    let families = Family::all(&study.config);
    for day in study.config.sim_range().days() {
        let day_dir = days_dir.join(format!("day{:03}", day.index()));
        fs::create_dir_all(&day_dir).map_err(|e| storage_err("creating", &day_dir, &e))?;
        for &family in &families {
            let path = day_dir.join(family.file_name());
            if family == Family::Pair && !pair_win.contains(day) {
                if path.exists() {
                    fs::remove_file(&path).map_err(|e| storage_err("pruning", &path, &e))?;
                }
            } else if !path.exists() {
                let rows: Vec<_> = family.store(study).on_day(day).records().collect();
                write_checkpoint_segment(&path, &rows)?;
            }
        }
    }
    let pass_dir = dir.join("passes");
    fs::create_dir_all(&pass_dir).map_err(|e| storage_err("creating", &pass_dir, &e))?;
    for s in sections {
        let stem = pass_file_stem(&s.id);
        let md = pass_dir.join(format!("{stem}.md"));
        fs::write(&md, &s.markdown).map_err(|e| storage_err("writing", &md, &e))?;
        let sum = pass_dir.join(format!("{stem}.sum"));
        fs::write(&sum, &s.summary).map_err(|e| storage_err("writing", &sum, &e))?;
    }
    let manifest = Json::obj()
        .with("checkpoint_schema", Json::UInt(CHECKPOINT_SCHEMA))
        .with("identity", identity_json(&study.config))
        .with(
            "covered_extend_days",
            Json::UInt(u64::from(study.config.extend_days)),
        )
        .with(
            "counters",
            Json::obj()
                .with("offered", Json::UInt(study.datasets().offered))
                .with("users_seen", Json::UInt(study.users_seen))
                .with("users_sampled", Json::UInt(study.users_sampled)),
        )
        .with(
            "passes",
            Json::Arr(sections.iter().map(|s| Json::str(&*s.id)).collect()),
        );
    let path = dir.join("manifest.json");
    fs::write(&path, manifest.render_pretty()).map_err(|e| storage_err("writing", &path, &e))?;
    Ok(())
}

/// Reads one `u64` field out of a manifest object.
fn manifest_u64(obj: &Json, key: &str) -> Result<u64, StudyError> {
    match obj.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        _ => Err(storage_msg(format!(
            "state dir manifest is missing the `{key}` field"
        ))),
    }
}

/// Loads and validates the manifest, or `Ok(None)` for a fresh dir.
fn load_manifest(dir: &Path, config: &StudyConfig) -> Result<Option<Checkpoint>, StudyError> {
    let path = dir.join("manifest.json");
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| storage_err("reading", &path, &e))?;
    let json = Json::parse(&text)
        .map_err(|e| storage_msg(format!("state dir manifest is not valid JSON: {e}")))?;
    let schema = manifest_u64(&json, "checkpoint_schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(storage_msg(format!(
            "state dir manifest has checkpoint_schema {schema}, but this build reads only \
             checkpoint_schema {CHECKPOINT_SCHEMA}; use a fresh --state-dir"
        )));
    }
    let identity = json
        .get("identity")
        .ok_or_else(|| storage_msg("state dir manifest has no identity echo".to_string()))?;
    if *identity != identity_json(config) {
        return Err(storage_msg(
            "state dir was produced by a different configuration (seed, scale, windows, \
             sampling, or ablation differ); refusing to resume — use a fresh --state-dir"
                .to_string(),
        ));
    }
    let covered = manifest_u64(&json, "covered_extend_days")?;
    let covered_extend_days = u16::try_from(covered)
        .map_err(|_| storage_msg(format!("covered_extend_days {covered} is out of range")))?;
    let counters = json
        .get("counters")
        .ok_or_else(|| storage_msg("state dir manifest has no counters".to_string()))?;
    let passes = match json.get("passes") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|v| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(Some(Checkpoint {
        covered_extend_days,
        offered: manifest_u64(counters, "offered")?,
        users_seen: manifest_u64(counters, "users_seen")?,
        users_sampled: manifest_u64(counters, "users_sampled")?,
        passes,
    }))
}

/// Opens the checkpointed days of `covered` as the history of `config`:
/// every family's day file, except pair files of days outside the new
/// run's pair window. Only headers are read here; the freeze streams and
/// verifies the rows.
fn load_history(
    config: &StudyConfig,
    cp: &Checkpoint,
    covered: DateRange,
    dir: &Path,
) -> Result<History, StudyError> {
    let t0 = Instant::now();
    let pair_win = windows::pair_window(config.sim_end());
    let families = Family::all(config);
    let mut runs = FamilyRuns::new(&config.prefix_lengths);
    for day in covered.days() {
        let day_dir = dir.join("days").join(format!("day{:03}", day.index()));
        for &family in &families {
            if family == Family::Pair && !pair_win.contains(day) {
                continue;
            }
            let run = Run::checkpoint(&day_dir.join(family.file_name()))?;
            family.runs(&mut runs).push(run);
        }
    }
    Ok(History {
        runs,
        days: covered.num_days(),
        offered: cp.offered,
        users_seen: cp.users_seen,
        users_sampled: cp.users_sampled,
        load_wall: t0.elapsed(),
    })
}

/// Runs the requested config against a state directory: a cold dir gets
/// a full batch run (then a checkpoint); a warm dir is extended — only
/// the not-yet-covered suffix days are simulated and only the passes
/// whose windows cover them are re-run, everything else spliced from
/// the cached sections. The rendered documents are byte-identical to a
/// from-scratch run of the same config either way.
///
/// An instrumented warm resume reports the `resume` span root — `load`
/// (manifest and history runs), `extend` (suffix simulation, the one
/// freeze and the re-run passes, which also land under
/// `run/analysis/passes`), `render` (the splice) and `checkpoint` (the
/// save) — whose wall is [`IncrementalStat::extend_wall`].
pub fn run(config: StudyConfig, state_dir: &Path) -> Result<IncrementalRun, StudyError> {
    let t0 = Instant::now();
    config.validate()?;
    let Some(cp) = load_manifest(state_dir, &config)? else {
        // Cold start: batch-run the requested range, checkpoint it all.
        let mut study = Study::run(config)?;
        let results = experiments::run_all(&mut study);
        let sections = render_sections(&results);
        let markdown = report::render_markdown(&results);
        let summary = report::render_summary(&results);
        save_checkpoint(&study, &sections, state_dir)?;
        let stats = study.report.incremental;
        return Ok(IncrementalRun {
            study,
            stats,
            markdown,
            summary,
        });
    };

    if cp.covered_extend_days > config.extend_days {
        return Err(storage_msg(format!(
            "state dir already covers extend_days {} but the run requests only {}; \
             incremental runs only move forward",
            cp.covered_extend_days, config.extend_days
        )));
    }
    let n = config.extend_days - cp.covered_extend_days;
    let old_range = DateRange::new(
        config.full_range.start,
        config.full_range.end + cp.covered_extend_days,
    );
    let history = load_history(&config, &cp, old_range, state_dir)?;
    let load = t0.elapsed();

    let t_extend = Instant::now();
    let world = SimInputs::world(&config);
    let mut study = Study::absorb(config, world, history, t0)?;
    let new_range = study.config.sim_range();
    // Re-run exactly the passes the extension invalidates (plus any the
    // checkpoint never cached); splice the rest from the cached
    // sections in registry order.
    let to_run: Vec<&'static str> = experiments::experiment_ids()
        .filter(|&id| {
            (n > 0 && windows::invalidated_by_extension(id, old_range, new_range))
                || !cp.passes.iter().any(|p| p.as_str() == id)
        })
        .collect();
    let workers = study.config.effective_analysis_threads();
    let (recomputed, _windows_built) = experiments::run_selected(&mut study, &to_run, workers);
    let extend = t_extend.elapsed();

    let t_render = Instant::now();
    let mut markdown = report::render_header();
    let mut summary = String::new();
    let mut sections = Vec::with_capacity(experiments::experiment_ids().count());
    for id in experiments::experiment_ids() {
        let (md, sum) = match recomputed.iter().find(|(rid, _)| *rid == id) {
            Some((_, out)) => (
                report::render_pass_section(id, out),
                report::render_summary_section(id, out),
            ),
            None => {
                let stem = pass_file_stem(id);
                let md_path = state_dir.join("passes").join(format!("{stem}.md"));
                let sum_path = state_dir.join("passes").join(format!("{stem}.sum"));
                (
                    fs::read_to_string(&md_path)
                        .map_err(|e| storage_err("reading", &md_path, &e))?,
                    fs::read_to_string(&sum_path)
                        .map_err(|e| storage_err("reading", &sum_path, &e))?,
                )
            }
        };
        markdown.push_str(&md);
        summary.push_str(&sum);
        sections.push(PassSection {
            id: id.to_string(),
            markdown: md,
            summary: sum,
        });
    }
    let render = t_render.elapsed();

    let t_checkpoint = Instant::now();
    save_checkpoint(&study, &sections, state_dir)?;
    let checkpoint = t_checkpoint.elapsed();

    let stats = IncrementalStat {
        days_reused: u64::from(old_range.num_days()),
        days_computed: u64::from(n),
        extend_wall: t0.elapsed(),
    };
    study.report.incremental = stats;
    if study.config.instrument {
        study.report.spans.push(
            Span::new("resume", stats.extend_wall)
                .with_child(Span::new("load", load))
                .with_child(Span::new("extend", extend).with_items(u64::from(n)))
                .with_child(Span::new("render", render).with_items(sections.len() as u64))
                .with_child(Span::new("checkpoint", checkpoint)),
        );
    }
    Ok(IncrementalRun {
        study,
        stats,
        markdown,
        summary,
    })
}

/// Renders every pass's cached section pair from fresh results.
fn render_sections(results: &[(&'static str, ExperimentOutput)]) -> Vec<PassSection> {
    results
        .iter()
        .map(|(id, out)| PassSection {
            id: (*id).to_string(),
            markdown: report::render_pass_section(id, out),
            summary: report::render_summary_section(id, out),
        })
        .collect()
}
