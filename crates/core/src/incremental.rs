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
//!    history's canonical rows followed by the suffix's rows *are* the
//!    longer run's canonical order. The history enters the one freeze
//!    as day segments — the state dir's files, or the same segments
//!    encoded in memory from the old study's stores — placed before the
//!    suffix's segments, and the freeze gathers them as they lie.
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
//!   manifest.json          config identity, covered extension, counters
//!                          and every pass's rendered sections; written
//!                          last, it is the one commit point
//!   days/day<NNN>.seg      one dictionary-coded segment per day: one
//!                          section per family but pair (request, user,
//!                          ip, prefix<len>…, abuse), canonical rows
//!   days/day<NNN>.pair.seg the pair family's day, for days inside the
//!                          sliding pair window
//! ```
//!
//! Every file is written atomically (`telemetry::write_atomic`), so a
//! day segment exists only once complete, and the manifest's write is
//! the only commit point: a crash anywhere in a save leaves the previous
//! manifest, and every file it names, intact. A save writes the days the
//! committed manifest does not cover and keeps the rest, so a +1-day
//! resume writes three files: the day segment, the pair segment and the
//! manifest. Pair segments are pruned once neither the committed nor the
//! new pair window holds their day.
//!
//! A resume opens the covered days' segments, and the freeze gathers
//! them straight into the frozen columns, interning only each segment's
//! dictionary and never hashing or sorting a history row. An in-process
//! [`Study::extend_days`] hands the freeze the same segments, encoded in
//! memory by the same writer, so both paths freeze the same history. Only
//! the passes whose declared inputs moved or cover the new days (per
//! [`experiments::invalidated_by_extension`], derived from the registry's
//! declarations) are re-run — everything else is spliced from the
//! manifest's sections, byte-identical because the calendar-anchored
//! windows see the same records in the same order.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipv6_study_analysis::windows;
use ipv6_study_obs::{IncrementalStat, Json, Span};
use ipv6_study_telemetry::{
    remove_temp_files, write_atomic, write_segment, ColumnSlice, DateRange, Families, Family, IoOp,
    Segment, SimDate, SpillError,
};

use crate::config::{ConfigError, StudyConfig};
use crate::driver::SimInputs;
use crate::experiments::{self, ExperimentOutput};
use crate::faults::StudyError;
use crate::report;
use crate::study::{History, Study};

/// The state-dir layout this build writes and reads: `DSG4` day
/// segments (12-byte rows, each address's ASN and country in its
/// dictionary entry).
const CHECKPOINT_SCHEMA: u64 = 4;

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

/// One pass's rendered output, as cached in a state dir's manifest.
#[derive(Clone)]
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
    /// The cached sections of the passes.
    passes: Vec<PassSection>,
}

/// Files a load opened or a save wrote, and their bytes.
#[derive(Debug, Default, Clone, Copy)]
struct Files {
    count: u64,
    bytes: u64,
}

impl Files {
    fn add(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }
}

/// A refusal to use the state dir (schema, identity, or a backward
/// range): the configuration asks for something the dir cannot give.
fn storage_msg(msg: String) -> StudyError {
    StudyError::Config(ConfigError::Storage(msg))
}

/// A manifest that does not parse or lacks a field: damaged storage.
fn manifest_corrupt(path: &Path, offset: u64, reason: String) -> StudyError {
    StudyError::Spill(SpillError::Corrupt {
        path: path.to_path_buf(),
        run: 0,
        offset,
        reason,
    })
}

/// Extends `study` by `n` simulated days: its frozen stores become the
/// history's day segments, encoded in memory exactly as a checkpoint
/// save writes them, the driver simulates only the suffix days, and the
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

    // The history: every old day's segment, and the pair segments of the
    // old days still inside the new pair window (the suffix run routes
    // its days against that window).
    let t_encode = Instant::now();
    let families = day_families(&config);
    let tables = study.pair_store().tables();
    let mut segments = Vec::new();
    for day in old_range.days() {
        let sections = day_sections(&study, &families, day);
        segments.push(Segment::encoded(
            &day_path(Path::new(""), day),
            day,
            tables,
            &sections,
        )?);
        if pair_win.contains(day) {
            segments.push(Segment::encoded(
                &pair_path(Path::new(""), day),
                day,
                tables,
                &pair_section(&study, day),
            )?);
        }
    }
    let history = History {
        segments,
        days: old_range.num_days(),
        offered: study.datasets.offered,
        users_seen: study.users_seen,
        users_sampled: study.users_sampled,
        load_wall: t_encode.elapsed(),
    };
    // The old stores are dropped here; the segments hold the history.
    let Study { world, .. } = study;
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

/// The families of a day segment, in section order: every family of
/// `config` but pair.
fn day_families(config: &StudyConfig) -> Vec<Family> {
    let mut families = Families::<()>::new(&config.prefix_lengths).keys();
    families.retain(|&f| f != Family::Pair);
    families
}

/// The sections of `day`'s day segment: each of `families` on that day.
fn day_sections<'s>(
    study: &'s Study,
    families: &[Family],
    day: SimDate,
) -> Vec<(Family, ColumnSlice<'s>)> {
    families
        .iter()
        .map(|&f| (f, study.store(f).on_day(day)))
        .collect()
}

/// The one section of `day`'s pair segment.
fn pair_section(study: &Study, day: SimDate) -> [(Family, ColumnSlice<'_>); 1] {
    [(Family::Pair, study.pair_store().on_day(day))]
}

/// The day segment of `day` under `dir`.
fn day_path(dir: &Path, day: SimDate) -> PathBuf {
    dir.join("days").join(format!("day{:03}.seg", day.index()))
}

/// The pair segment of `day` under `dir`.
fn pair_path(dir: &Path, day: SimDate) -> PathBuf {
    dir.join("days")
        .join(format!("day{:03}.pair.seg", day.index()))
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

/// Saves the checkpoint of `study` in `dir`: the day and pair segments
/// the committed manifest does not cover (`committed` is the range it
/// covers, `None` for a fresh dir), then the manifest with `sections`,
/// whose atomic write commits the save. Pair segments of days outside
/// both the committed and the new pair window are pruned, and stale
/// temporary files removed. Returns the files written.
fn save_checkpoint(
    study: &Study,
    sections: &[PassSection],
    dir: &Path,
    committed: Option<DateRange>,
) -> Result<Files, StudyError> {
    let days_dir = dir.join("days");
    fs::create_dir_all(&days_dir).map_err(|e| SpillError::io(&days_dir, IoOp::Create, &e))?;
    remove_temp_files(dir)?;
    remove_temp_files(&days_dir)?;
    let config = &study.config;
    let pair_win = windows::pair_window(config.sim_end());
    let committed_pair_win = committed.map(|c| windows::pair_window(c.end));
    let families = day_families(config);
    // Every store of a study is encoded against the same tables.
    let tables = study.pair_store().tables();
    let mut written = Files::default();
    for day in config.sim_range().days() {
        let covered = committed.is_some_and(|c| c.contains(day));
        if !covered {
            let sections = day_sections(study, &families, day);
            written.add(write_segment(&day_path(dir, day), tables, &sections)?);
        }
        let pair = pair_path(dir, day);
        if pair_win.contains(day) {
            if !covered {
                written.add(write_segment(&pair, tables, &pair_section(study, day))?);
            }
        } else if !committed_pair_win.is_some_and(|w| w.contains(day)) {
            match fs::remove_file(&pair) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(SpillError::io(&pair, IoOp::Remove, &e).into());
                }
                _ => {}
            }
        }
    }
    let passes = sections
        .iter()
        .map(|s| {
            Json::obj()
                .with("id", Json::str(&*s.id))
                .with("markdown", Json::str(&*s.markdown))
                .with("summary", Json::str(&*s.summary))
        })
        .collect();
    let manifest = Json::obj()
        .with("checkpoint_schema", Json::UInt(CHECKPOINT_SCHEMA))
        .with("identity", identity_json(config))
        .with(
            "covered_extend_days",
            Json::UInt(u64::from(config.extend_days)),
        )
        .with(
            "counters",
            Json::obj()
                .with("offered", Json::UInt(study.datasets().offered))
                .with("users_seen", Json::UInt(study.users_seen))
                .with("users_sampled", Json::UInt(study.users_sampled)),
        )
        .with("passes", Json::Arr(passes))
        .render_pretty();
    write_atomic(&dir.join("manifest.json"), manifest.as_bytes())?;
    written.add(manifest.len() as u64);
    Ok(written)
}

/// Reads one `u64` field out of the manifest at `path`.
fn manifest_u64(path: &Path, obj: &Json, key: &str) -> Result<u64, StudyError> {
    match obj.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        _ => Err(manifest_corrupt(
            path,
            0,
            format!("manifest is missing the `{key}` field"),
        )),
    }
}

/// Reads one string field out of the manifest at `path`.
fn manifest_str(path: &Path, obj: &Json, key: &str) -> Result<String, StudyError> {
    match obj.get(key) {
        Some(Json::Str(v)) => Ok(v.clone()),
        _ => Err(manifest_corrupt(
            path,
            0,
            format!("manifest is missing the `{key}` field"),
        )),
    }
}

/// Loads and validates the manifest, or `Ok(None)` for a fresh dir. A
/// manifest that cannot be read, does not parse or lacks a field is a
/// storage error naming it; one written for another schema or
/// configuration is refused as a config error.
fn load_manifest(dir: &Path, config: &StudyConfig) -> Result<Option<Checkpoint>, StudyError> {
    let path = dir.join("manifest.json");
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| SpillError::io(&path, IoOp::Read, &e))?;
    let json = Json::parse(&text).map_err(|e| {
        manifest_corrupt(
            &path,
            e.offset as u64,
            format!("manifest is not valid JSON: {}", e.message),
        )
    })?;
    let field = |obj: &Json, key: &str| manifest_u64(&path, obj, key);
    let schema = field(&json, "checkpoint_schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(storage_msg(format!(
            "state dir manifest has checkpoint_schema {schema}, but this build reads only \
             checkpoint_schema {CHECKPOINT_SCHEMA}; use a fresh --state-dir"
        )));
    }
    let identity = json
        .get("identity")
        .ok_or_else(|| manifest_corrupt(&path, 0, "manifest has no identity echo".into()))?;
    if *identity != identity_json(config) {
        return Err(storage_msg(
            "state dir was produced by a different configuration (seed, scale, windows, \
             sampling, or ablation differ); refusing to resume — use a fresh --state-dir"
                .to_string(),
        ));
    }
    let covered = field(&json, "covered_extend_days")?;
    let covered_extend_days = u16::try_from(covered).map_err(|_| {
        manifest_corrupt(
            &path,
            0,
            format!("covered_extend_days {covered} is out of range"),
        )
    })?;
    let counters = json
        .get("counters")
        .ok_or_else(|| manifest_corrupt(&path, 0, "manifest has no counters".into()))?;
    let Some(Json::Arr(items)) = json.get("passes") else {
        return Err(manifest_corrupt(
            &path,
            0,
            "manifest is missing the `passes` list".into(),
        ));
    };
    let passes = items
        .iter()
        .map(|p| {
            Ok(PassSection {
                id: manifest_str(&path, p, "id")?,
                markdown: manifest_str(&path, p, "markdown")?,
                summary: manifest_str(&path, p, "summary")?,
            })
        })
        .collect::<Result<_, StudyError>>()?;
    Ok(Some(Checkpoint {
        covered_extend_days,
        offered: field(counters, "offered")?,
        users_seen: field(counters, "users_seen")?,
        users_sampled: field(counters, "users_sampled")?,
        passes,
    }))
}

/// Opens the checkpointed days of `covered` as the history of `config`:
/// every day segment, and the pair segments of days inside the new run's
/// pair window. Only headers and section tables are read here, checked
/// against each file's length and the config's families; the freeze
/// verifies the rest. Returns the history and the segments opened.
fn load_history(
    config: &StudyConfig,
    cp: &Checkpoint,
    covered: DateRange,
    dir: &Path,
) -> Result<(History, Files), StudyError> {
    let t0 = Instant::now();
    let pair_win = windows::pair_window(config.sim_end());
    let families = day_families(config);
    let mut segments = Vec::new();
    let mut opened = Files::default();
    for day in covered.days() {
        let mut open = |path: PathBuf, families: &[Family]| -> Result<(), StudyError> {
            let segment = Segment::open(&path, day, families)?;
            opened.add(segment.bytes());
            segments.push(segment);
            Ok(())
        };
        open(day_path(dir, day), &families)?;
        if pair_win.contains(day) {
            open(pair_path(dir, day), &[Family::Pair])?;
        }
    }
    let history = History {
        segments,
        days: covered.num_days(),
        offered: cp.offered,
        users_seen: cp.users_seen,
        users_sampled: cp.users_sampled,
        load_wall: t0.elapsed(),
    };
    Ok((history, opened))
}

/// Runs the requested config against a state directory: a cold dir gets
/// a full batch run (then a checkpoint); a warm dir is extended — only
/// the not-yet-covered suffix days are simulated and only the passes
/// whose windows cover them are re-run, everything else spliced from
/// the cached sections. The rendered documents are byte-identical to a
/// from-scratch run of the same config either way.
///
/// An instrumented warm resume reports the `resume` span root — `load`
/// (manifest and history segments), `extend` (suffix simulation, the one
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
        save_checkpoint(&study, &sections, state_dir, None)?;
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
    let (history, opened) = load_history(&config, &cp, old_range, state_dir)?;
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
            (n > 0 && experiments::invalidated_by_extension(id, old_range, new_range))
                || !cp.passes.iter().any(|p| p.id == id)
        })
        .collect();
    let workers = study.config.effective_analysis_threads();
    let recomputed = experiments::run_selected(&mut study, &to_run, workers);
    let extend = t_extend.elapsed();

    let t_render = Instant::now();
    let mut markdown = report::render_header();
    let mut summary = String::new();
    let mut sections = Vec::with_capacity(experiments::experiment_ids().count());
    for id in experiments::experiment_ids() {
        let section = match recomputed.iter().find(|(rid, _)| *rid == id) {
            Some((_, out)) => PassSection {
                id: id.to_string(),
                markdown: report::render_pass_section(id, out),
                summary: report::render_summary_section(id, out),
            },
            // `to_run` holds every pass without a cached section.
            None => cp
                .passes
                .iter()
                .find(|p| p.id == id)
                .cloned()
                .ok_or_else(|| {
                    manifest_corrupt(
                        &state_dir.join("manifest.json"),
                        0,
                        format!("manifest has no section for pass {id}"),
                    )
                })?,
        };
        markdown.push_str(&section.markdown);
        summary.push_str(&section.summary);
        sections.push(section);
    }
    let render = t_render.elapsed();

    let t_checkpoint = Instant::now();
    let written = save_checkpoint(&study, &sections, state_dir, Some(old_range))?;
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
                .with_child(
                    Span::new("load", load)
                        .with_items(opened.count)
                        .with_bytes(opened.bytes),
                )
                .with_child(Span::new("extend", extend).with_items(u64::from(n)))
                .with_child(Span::new("render", render).with_items(sections.len() as u64))
                .with_child(
                    Span::new("checkpoint", checkpoint)
                        .with_items(written.count)
                        .with_bytes(written.bytes),
                ),
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
