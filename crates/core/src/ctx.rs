//! The analysis engine's one reader.
//!
//! Every registry entry of [`crate::experiments`] declares the inputs its
//! pass reads as (dataset family, window [`Recipe`]) pairs, and the pass
//! reaches rows, indexes and day tries only through an [`AnalysisCtx`]
//! limited to those declarations: an undeclared read panics and names
//! the pass and the input. The study is private to this module.
//!
//! A run resolves each declared input to a family and a row range of its
//! frozen store, clipped to the simulated days, and inputs with equal
//! rows share one index: at the tiny calendar ApxA's 27-day lookback
//! clips to F5's 28-day one. The first reader builds an index, timed as
//! `passes/<id>/index/<input>` under the first pass in registry order
//! that reads it (the same node at any thread count), and the engine
//! drops it once the last pass declaring its rows finishes. These shared
//! indexes are the only ones a run builds: a pass that wants a subset of
//! an input's rows (X8.1's network kinds) filters the groups of the
//! shared index instead of indexing the subset.
//! [`AnalysisCtx::new`] serves every input of the registry and releases
//! nothing, for callers that run passes one by one.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ipv6_study_analysis::windows::Recipe;
use ipv6_study_analysis::DatasetIndex;
use ipv6_study_netmodel::World;
use ipv6_study_obs::Span;
use ipv6_study_secapp::actioning::DayCounts;
use ipv6_study_telemetry::{AbuseLabels, ColumnSlice, DateRange, Family, SimDate};

use crate::experiments::{EXPERIMENTS, EXTENDED_EXPERIMENTS};
use crate::study::Study;

/// One declared input: a dataset family over a window recipe.
pub type Input = (Family, Recipe);

const POISON: &str = "analysis plan lock poisoned";

/// An input's name in span paths and messages (`user_week`,
/// `prefix64_week`).
fn name((family, recipe): Input) -> String {
    match family {
        Family::Prefix(len) => format!("prefix{len}_{}", recipe.name()),
        _ => format!("{family:?}_{}", recipe.name()).to_lowercase(),
    }
}

/// An index build's span: rows as items, index bytes as bytes.
fn build_span(name: &str, started: Instant, index: &DatasetIndex) -> Span {
    Span::new(name, started.elapsed())
        .with_items(index.len() as u64)
        .with_bytes(index.bytes() as u64)
}

/// One distinct (family, row range) of a run.
struct Slot {
    family: Family,
    rows: Range<usize>,
    /// Declarations of passes still to finish.
    readers: AtomicUsize,
    /// The first pass, in registry order, to read the index.
    first: AtomicUsize,
    /// The index, until the last declaring pass finishes.
    index: Mutex<Option<Arc<OnceLock<DatasetIndex>>>>,
    built: OnceLock<Span>,
}

/// One run's passes, each declared input resolved to its slot.
pub(crate) struct Plan<'a> {
    study: &'a Study,
    passes: Vec<(&'static str, Vec<(Input, usize)>)>,
    slots: Vec<Slot>,
}

impl<'a> Plan<'a> {
    /// Resolves each pass's declared inputs over `study`.
    pub(crate) fn new<'r>(
        study: &'a Study,
        passes: impl Iterator<Item = (&'static str, &'r [Input])>,
    ) -> Arc<Self> {
        let sim = study.config.sim_range();
        let collected = |len| study.datasets.prefix_samples.contains_key(&len);
        let mut slots: Vec<Slot> = Vec::new();
        let mut resolved = Vec::new();
        for (id, inputs) in passes {
            let mut own: Vec<(Input, usize)> = Vec::new();
            for &input @ (family, recipe) in inputs {
                let rows = match family {
                    Family::Prefix(len) if !collected(len) => 0..0, // panics when read
                    _ => study.store(family).rows(recipe.days(sim)),
                };
                let found = slots
                    .iter()
                    .position(|s| s.family == family && s.rows == rows);
                let slot = found.unwrap_or_else(|| {
                    let (readers, first) = (AtomicUsize::new(0), AtomicUsize::new(usize::MAX));
                    let index = Mutex::new(Some(Arc::default()));
                    let built = OnceLock::new();
                    slots.push(Slot {
                        family,
                        rows,
                        readers,
                        first,
                        index,
                        built,
                    });
                    slots.len() - 1
                });
                slots[slot].readers.fetch_add(1, Ordering::Relaxed);
                own.push((input, slot));
            }
            resolved.push((id, own));
        }
        Arc::new(Self {
            study,
            passes: resolved,
            slots,
        })
    }

    /// Pass `pass`'s view: its declared inputs and nothing else.
    pub(crate) fn view(self: &Arc<Self>, pass: usize) -> AnalysisCtx<'a> {
        let handle = |&(_, s): &(Input, usize)| {
            let index = self.slots[s].index.lock().expect(POISON).clone();
            index.expect("released only once every declaring pass finished")
        };
        AnalysisCtx {
            indexes: self.passes[pass].1.iter().map(handle).collect(),
            plan: Arc::clone(self),
            pass,
        }
    }

    /// Each pass's index builds: those it was the first in registry order
    /// to read, named as it declares them (read once every pass finished).
    pub(crate) fn builds(&self) -> Vec<Vec<Span>> {
        let mut builds = vec![Vec::new(); self.passes.len()];
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some(span) = slot.built.get() {
                let first = slot.first.load(Ordering::Relaxed);
                let inputs = &self.passes[first].1;
                let input = inputs.iter().find(|&&(_, x)| x == s).expect("declared").0;
                let mut span = span.clone();
                span.name = name(input);
                builds[first].push(span);
            }
        }
        builds
    }
}

/// The input of one experiment pass: the rows, indexes and day tries of
/// the inputs its registry entry declares, and the study's labels, world
/// and scale. Reading an undeclared input panics.
pub struct AnalysisCtx<'a> {
    plan: Arc<Plan<'a>>,
    pass: usize,
    /// This view's handle on each declared input's index.
    indexes: Vec<Arc<OnceLock<DatasetIndex>>>,
}

impl<'a> AnalysisCtx<'a> {
    /// The whole-registry view over `study`: every input any registry
    /// entry declares, indexed on first read and never released.
    pub fn new(study: &'a Study) -> Self {
        let registry = EXPERIMENTS.iter().chain(&EXTENDED_EXPERIMENTS);
        let inputs: Vec<Input> = registry.flat_map(|e| e.1.iter().copied()).collect();
        Plan::new(study, std::iter::once(("the registry", &inputs[..]))).view(0)
    }

    /// The user sample over the Apr 13–19 focus week.
    pub fn user_week(&self) -> &DatasetIndex {
        self.index_of(Family::User, Recipe::Week)
    }

    /// The user sample on the Apr 19 focus day.
    pub fn user_day(&self) -> &DatasetIndex {
        self.index_of(Family::User, Recipe::Apr19)
    }

    /// The user sample over the 28-day lifespan lookback behind Apr 19.
    pub fn user_lookback(&self) -> &DatasetIndex {
        self.index_of(Family::User, Recipe::Lookback)
    }

    /// The IP sample on the Apr 13 focus day.
    pub fn ip_day(&self) -> &DatasetIndex {
        self.index_of(Family::Ip, Recipe::Apr13)
    }

    /// The IP sample over the focus week.
    pub fn ip_week(&self) -> &DatasetIndex {
        self.index_of(Family::Ip, Recipe::Week)
    }

    /// The abuse stream over the focus week.
    pub fn abuse_week(&self) -> &DatasetIndex {
        self.index_of(Family::Abuse, Recipe::Week)
    }

    /// A declared input's position and slot. Panics, naming the pass and
    /// the input, on an undeclared one.
    fn declared(&self, input: Input) -> (usize, &Slot) {
        let (pass, inputs) = &self.plan.passes[self.pass];
        let Some(i) = inputs.iter().position(|&(d, _)| d == input) else {
            panic!("{pass} reads undeclared input {}", name(input));
        };
        (i, &self.plan.slots[inputs[i].1])
    }

    /// The rows of a declared input.
    pub fn rows(&self, family: Family, recipe: Recipe) -> ColumnSlice<'a> {
        let rows = self.declared((family, recipe)).1.rows.clone();
        self.plan.study.store(family).all().slice(rows)
    }

    /// The rows of one day of a declared input.
    pub fn rows_on(&self, family: Family, recipe: Recipe, day: SimDate) -> ColumnSlice<'a> {
        self.declared((family, recipe));
        if !self.days(recipe).contains(day) {
            let pass = self.plan.passes[self.pass].0;
            panic!("{pass} reads {day}, outside {}", name((family, recipe)));
        }
        self.plan.study.store(family).on_day(day)
    }

    /// The index of a declared input, built by its first reader: the
    /// user sample and the abuse stream grouped by user, every other
    /// family by address.
    pub fn index_of(&self, family: Family, recipe: Recipe) -> &DatasetIndex {
        let (i, slot) = self.declared((family, recipe));
        slot.first.fetch_min(self.pass, Ordering::Relaxed);
        self.indexes[i].get_or_init(|| {
            let t = Instant::now();
            let rows = self.rows(family, recipe);
            let index = match family {
                Family::User | Family::Abuse => DatasetIndex::by_user(rows),
                _ => DatasetIndex::by_address(rows),
            };
            let _ = slot.built.set(build_span("", t, &index));
            index
        })
    }

    /// The aggregation tries of one day of a declared pair-store input,
    /// cached on the study.
    pub fn day_counts(&self, recipe: Recipe, day: SimDate) -> Arc<DayCounts> {
        self.rows_on(Family::Pair, recipe, day);
        self.plan.study.day_counts(day)
    }

    /// The days `recipe` covers in this study.
    pub fn days(&self, recipe: Recipe) -> DateRange {
        recipe.days(self.plan.study.config.sim_range())
    }

    /// The study's static world.
    pub fn world(&self) -> &'a World {
        &self.plan.study.world
    }

    /// The abusive-account labels.
    pub fn labels(&self) -> &'a AbuseLabels {
        &self.plan.study.labels
    }

    /// Expected user count (for extrapolation scales).
    pub fn approx_users(&self) -> u64 {
        self.plan.study.approx_users
    }

    /// The realized user-sample rate ([`Study::user_sample_rate`]).
    pub fn user_sample_rate(&self) -> f64 {
        self.plan.study.user_sample_rate()
    }

    /// Ends the pass: drops every index it was the last declaring pass
    /// of.
    pub(crate) fn finish(self) {
        for &(_, s) in &self.plan.passes[self.pass].1 {
            let slot = &self.plan.slots[s];
            if slot.readers.fetch_sub(1, Ordering::AcqRel) == 1 {
                slot.index.lock().expect(POISON).take();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::config::StudyConfig;

    /// Each pass, run on the tiny study under its own view, reads every
    /// input it declares: without any one of them it panics, naming the
    /// pass and that input.
    #[test]
    fn every_pass_reads_exactly_what_it_declares() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        for &(id, inputs, pass) in EXPERIMENTS.iter().chain(&EXTENDED_EXPERIMENTS) {
            let run = |declared: &[Input]| {
                let plan = Plan::new(&study, std::iter::once((id, declared)));
                catch_unwind(AssertUnwindSafe(|| pass(&plan.view(0)).stats.len()))
            };
            assert!(run(inputs).is_ok(), "{id} runs under its own view");
            for (i, &input) in inputs.iter().enumerate() {
                let fewer = [&inputs[..i], &inputs[i + 1..]].concat();
                let err = run(&fewer).expect_err("an undeclared read panics");
                let msg = err.downcast_ref::<String>().expect("a formatted message");
                assert_eq!(*msg, format!("{id} reads undeclared input {}", name(input)));
            }
        }
    }

    /// Each pass counts every row of its distinct declared inputs once:
    /// its `input_records` equals the summed rows of its slots (declared
    /// inputs with equal rows share one slot).
    #[test]
    fn every_pass_counts_each_declared_row_once() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        for &(id, inputs, pass) in EXPERIMENTS.iter().chain(&EXTENDED_EXPERIMENTS) {
            let plan = Plan::new(&study, std::iter::once((id, inputs)));
            let declared: usize = plan.slots.iter().map(|s| s.rows.len()).sum();
            assert_eq!(pass(&plan.view(0)).input_records, declared as u64, "{id}");
        }
    }

    /// Each registry input's index holds its family's grouping (the user
    /// sample and the abuse stream by user, every other family by
    /// address) over all of the input's rows; asking it for the other
    /// grouping panics, naming the one it holds.
    #[test]
    fn each_input_is_indexed_in_its_familys_grouping() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        let ctx = AnalysisCtx::new(&study);
        let registry = EXPERIMENTS.iter().chain(&EXTENDED_EXPERIMENTS);
        for &(family, recipe) in registry.flat_map(|e| e.1.iter()) {
            let input = name((family, recipe));
            let index = ctx.index_of(family, recipe);
            assert_eq!(index.len(), ctx.rows(family, recipe).len(), "{input}");
            let by_user = catch_unwind(AssertUnwindSafe(|| index.user_groups().len()));
            let by_address = catch_unwind(AssertUnwindSafe(|| index.ip_id_groups().len()));
            let (held, other, message) = match family {
                Family::User | Family::Abuse => {
                    (by_user, by_address, "user grouping, not the address")
                }
                _ => (by_address, by_user, "address grouping, not the user"),
            };
            assert!(held.is_ok(), "{input} holds its family's grouping");
            let err = other.expect_err("the other grouping panics");
            let msg = err.downcast_ref::<&str>().expect("a message");
            assert_eq!(
                *msg,
                format!("the index holds the {message} grouping"),
                "{input}"
            );
        }
    }

    /// Releasing follows the declarations: an index lives until the last
    /// pass declaring its rows finishes, and no longer.
    #[test]
    fn an_index_is_dropped_after_its_last_declaring_pass() {
        let study = Study::run(StudyConfig::tiny()).unwrap();
        let week: &[Input] = &[(Family::User, Recipe::Week)];
        let plan = Plan::new(&study, [("A", week), ("B", week)].into_iter());
        let a = plan.view(0);
        let built: *const DatasetIndex = a.user_week();
        a.finish();
        let b = plan.view(1);
        assert!(std::ptr::eq(built, b.user_week()), "B re-uses A's build");
        b.finish();
        assert!(plan.slots[0].index.lock().unwrap().is_none());
        assert_eq!(plan.builds()[0].len(), 1, "filed under A, once");
    }
}
