//! The deterministic sharded simulation driver.
//!
//! The simulation is embarrassingly parallel in two dimensions: benign
//! households never interact (each household's requests are a pure
//! function of the seed and its index), and attacker campaigns never
//! interact. The driver exploits this by partitioning the run into
//! **shards** — contiguous household ranges plus contiguous campaign
//! ranges — and simulating each shard's *entire* study window into
//! shard-local accumulators on a pool of worker threads.
//!
//! # Determinism
//!
//! Output must be byte-identical at any thread count, so nothing about
//! the partition may depend on the thread count:
//!
//! 1. the shard plan is a function of the *config only* (household and
//!    campaign counts), never of `threads`;
//! 2. workers claim shard indices from a shared queue — claiming order
//!    is racy, but each shard's output is entirely local;
//! 3. the merge walks shards in plan order, so each family's run list
//!    ("shard-major": benign shards ascending, then campaign shards
//!    ascending) is a constant of the config.
//!
//! The freeze k-way merges each family's runs by `(timestamp, run
//! position)`, so equal-timestamp ties resolve by that plan order —
//! identical in every run (see `ipv6_study_telemetry::run`). A
//! `threads = 1` run executes the same plan on one worker and produces
//! the same bytes.
//!
//! # Fault tolerance
//!
//! Every shard attempt runs behind `std::panic::catch_unwind`, so a
//! panicking shard unwinds into a captured payload instead of poisoning
//! the merge mutex or killing sibling workers; its half-filled local
//! buffers are dropped with the unwind. Failed shards are re-enqueued up
//! to `max_shard_retries` extra attempts (a retry of a pure function
//! reproduces the exact bytes, so determinism survives), and what
//! happens after exhaustion is the [`FailurePolicy`]'s call: `Abort` and
//! `Retry` fail the run with a [`FaultReport`], `Degrade` drops the
//! shard and completes on the survivors. See [`crate::faults`].

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ipv6_study_analysis::windows;
use ipv6_study_behavior::abuse::AbuseSim;
use ipv6_study_behavior::emit::emit_user_day;
use ipv6_study_behavior::population::Population;
use ipv6_study_behavior::schedule::day_plan;
use ipv6_study_netmodel::World;
use ipv6_study_obs::{rate_per_sec, Span};
use ipv6_study_telemetry::{
    merge_runs, DateRange, FamilyRuns, FrozenDatasets, FrozenStore, KeyCollector, MemGauge,
    RequestSink, Samplers, ShardPayload, ShardSink, SimDate, SpillError, SpillSession, SpillTarget,
    StorageMode,
};

use crate::config::StudyConfig;
use crate::faults::{
    FailurePolicy, FaultDecision, FaultKind, FaultReport, ShardFailure, StudyError,
};

/// Target number of benign shards (the plan clamps so small runs still
/// get meaningfully sized shards).
const TARGET_BENIGN_SHARDS: u64 = 64;
/// Minimum households per benign shard.
const MIN_HOUSEHOLDS_PER_SHARD: u64 = 64;
/// Target number of abuse shards.
const TARGET_ABUSE_SHARDS: u32 = 16;
/// Minimum campaigns per abuse shard.
const MIN_CAMPAIGNS_PER_SHARD: u32 = 4;

/// One unit of schedulable work.
#[derive(Debug, Clone)]
enum ShardWork {
    /// Simulate a contiguous household range over the whole window.
    Benign(Range<u64>),
    /// Simulate a contiguous campaign range over the whole window.
    Abuse(Range<u32>),
}

/// Human-readable shard description, e.g. `benign hh 0..312`.
fn shard_label(work: &ShardWork) -> String {
    match work {
        ShardWork::Benign(r) => format!("benign hh {}..{}", r.start, r.end),
        ShardWork::Abuse(r) => format!("abuse camp {}..{}", r.start, r.end),
    }
}

/// Everything one shard produced.
struct ShardOutput {
    payload: ShardPayload,
    /// Distinct users this (benign) shard enumerated on the first study
    /// day — the denominator of the realized user-sample rate.
    users_seen: u64,
    /// How many of those the user sampler selected.
    users_sampled: u64,
    wall: Duration,
}

/// Timing and throughput for one shard.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Plan index of the shard.
    pub shard: usize,
    /// Human-readable shard description, e.g. `benign hh 0..312`.
    pub label: String,
    /// Records emitted by this shard (before sampling).
    pub records: u64,
    /// Wall-clock the shard's simulation took on its worker.
    pub wall: Duration,
}

impl ShardMetrics {
    /// Emission throughput in records per second. A shard whose wall
    /// clock rounds to zero has no measurable rate and reports `0.0`
    /// (never `f64::INFINITY`, which JSON cannot represent).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(self.records, self.wall)
    }
}

/// Per-phase timing for a completed run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Worker threads the run used.
    pub threads: usize,
    /// Per-shard timings of the shards that made it into the merge, in
    /// plan (= merge) order. Shards dropped under
    /// [`FailurePolicy::Degrade`] appear in the run's [`FaultReport`]
    /// instead.
    pub shards: Vec<ShardMetrics>,
    /// Wall-clock of the shard-planning phase.
    pub plan_wall: Duration,
    /// Wall-clock of the parallel simulation phase.
    pub sim_wall: Duration,
    /// Wall-clock of the merge phase: concatenating the shards' runs in
    /// plan order, plus opening any history's runs.
    pub merge_wall: Duration,
    /// Wall-clock of the freeze: the key pass and the k-way merge of
    /// every run into frozen columns.
    pub sort_wall: Duration,
    /// Wall-clock of the whole [`crate::Study::run`], set by the caller.
    pub total_wall: Duration,
    /// High-water mark of mutable row bytes held in memory during the sim
    /// phase (in-memory runs plus staging buffers; frozen columns, intern
    /// tables, and merge cursors excluded). This is the number
    /// [`StorageMode::Spill`] bounds.
    ///
    /// [`StorageMode::Spill`]: ipv6_study_telemetry::StorageMode::Spill
    pub peak_store_bytes: u64,
}

impl RunMetrics {
    /// Total records emitted across all merged shards.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Aggregate simulation throughput in records per second (`0.0`
    /// when the sim phase's wall clock rounds to zero — JSON has no
    /// `Infinity`).
    pub fn records_per_sec(&self) -> f64 {
        rate_per_sec(self.total_records(), self.sim_wall)
    }

    /// The `run` span tree: `plan`, `sim` (one `shard[i]` child per
    /// merged shard, `i` its plan index), `merge` and the freeze's span.
    /// `offered` is the run's offered record count, history included.
    pub fn span(&self, offered: u64, freeze: Span) -> Span {
        let sim = Span {
            items: self.total_records(),
            bytes: self.peak_store_bytes,
            children: self
                .shards
                .iter()
                .map(|s| Span::new(&format!("shard[{}]", s.shard), s.wall).with_items(s.records))
                .collect(),
            ..Span::new("sim", self.sim_wall)
        };
        Span::new("run", self.total_wall)
            .with_items(offered)
            .with_child(Span::new("plan", self.plan_wall))
            .with_child(sim)
            .with_child(Span::new("merge", self.merge_wall))
            .with_child(freeze)
    }

    /// Renders the run report: one header line, one line per shard, and
    /// the phase totals.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulation: {} thread(s), {} shards, {} records in {:.2?} ({:.0} rec/s)",
            self.threads,
            self.shards.len(),
            self.total_records(),
            self.sim_wall,
            self.records_per_sec(),
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i:3} {:<24} {:>9} records  {:>9.2?}  {:>10.0} rec/s",
                s.label,
                s.records,
                s.wall,
                s.records_per_sec(),
            );
        }
        let _ = writeln!(
            out,
            "plan: {:.2?}; merge: {:.2?}; sort: {:.2?}; total: {:.2?}; peak store: {} bytes",
            self.plan_wall, self.merge_wall, self.sort_wall, self.total_wall, self.peak_store_bytes
        );
        out
    }
}

/// The simulation inputs every day's emission is a pure function of:
/// the population, the samplers and the attacker campaigns, all derived
/// from the base config and the (ablated) world.
pub(crate) struct SimInputs<'w> {
    pub pop: Population<'w>,
    pub samplers: Samplers,
    pub abuse: AbuseSim<'w>,
}

impl<'w> SimInputs<'w> {
    /// The static world `config` simulates, with its ablation applied.
    pub(crate) fn world(config: &StudyConfig) -> World {
        let mut world = World::sized(config.seed, config.households);
        config.ablation.apply_to_world(&mut world);
        world
    }

    /// Derives the inputs from `config` over `world` (see
    /// [`SimInputs::world`]). Attackers operate over the whole base
    /// window: their creation dates are spread across it.
    pub(crate) fn new(config: &StudyConfig, world: &'w World) -> Self {
        let pop = Population::new(world, config.seed ^ 0x504F_5055, config.households);
        let samplers = config.sampling.resolve(pop.approx_users());
        let abuse = AbuseSim::new(
            world,
            config.seed ^ 0x4142_5553,
            config.campaigns,
            config.households,
            config.full_range,
        )
        .with_detect_scale(config.ablation.detect_scale());
        Self {
            pop,
            samplers,
            abuse,
        }
    }
}

/// What the sim phase hands to the freeze: every family's runs in plan
/// order, the counters the runs do not carry, metrics and faults.
pub(crate) struct Simulated {
    pub runs: FamilyRuns,
    /// Records offered to the samplers.
    pub offered: u64,
    /// Distinct benign users enumerated on the first study day, summed
    /// over the merged shards.
    pub users_seen: u64,
    /// How many of those the user sampler selected — the numerator of the
    /// realized user-sample rate.
    pub users_sampled: u64,
    pub metrics: RunMetrics,
    pub faults: FaultReport,
}

impl Simulated {
    /// The output of simulating no days at all (a resume whose history
    /// already covers the requested range).
    pub(crate) fn nothing(config: &StudyConfig) -> Self {
        Self {
            runs: FamilyRuns::new(&config.prefix_lengths),
            offered: 0,
            users_seen: 0,
            users_sampled: 0,
            metrics: RunMetrics {
                threads: config.threads,
                shards: Vec::new(),
                plan_wall: Duration::ZERO,
                sim_wall: Duration::ZERO,
                merge_wall: Duration::ZERO,
                sort_wall: Duration::ZERO,
                total_wall: Duration::ZERO,
                peak_store_bytes: 0,
            },
            faults: FaultReport {
                policy: config.failure_policy,
                failures: Vec::new(),
                io_retries: 0,
                checksum_failures: 0,
            },
        }
    }
}

/// Builds the shard plan. Depends only on the config (see the module
/// docs); benign shards come first, campaign shards after.
fn plan_shards(config: &StudyConfig) -> Vec<ShardWork> {
    let mut plan = Vec::new();
    let hh_size = (config.households / TARGET_BENIGN_SHARDS).max(MIN_HOUSEHOLDS_PER_SHARD);
    let mut lo = 0u64;
    while lo < config.households {
        let hi = (lo + hh_size).min(config.households);
        plan.push(ShardWork::Benign(lo..hi));
        lo = hi;
    }
    let c_size = (config.campaigns / TARGET_ABUSE_SHARDS).max(MIN_CAMPAIGNS_PER_SHARD);
    let mut lo = 0u32;
    while lo < config.campaigns {
        let hi = (lo + c_size).min(config.campaigns);
        plan.push(ShardWork::Abuse(lo..hi));
        lo = hi;
    }
    plan
}

/// The read-only context every shard attempt runs against (bundled so
/// [`run_shard`] stays under the argument-count lint and worker closures
/// capture one reference).
struct ShardEnv<'a> {
    config: &'a StudyConfig,
    world: &'a World,
    inputs: &'a SimInputs<'a>,
    /// The days this run actually simulates — the full `sim_range()` on
    /// a batch run, only the appended suffix on an incremental extension
    /// (every day's emission is a pure function of `(config, day)`, so a
    /// suffix run reproduces exactly the rows a full run emits there).
    days: DateRange,
    pair_start: SimDate,
    /// The run's spill session when `config.storage` is `Spill`.
    spill: Option<&'a SpillSession>,
    /// Rows staged per family before a sorted run is spilled.
    segment_rows: usize,
    /// Run-wide mutable-row-bytes high-water gauge.
    gauge: &'a MemGauge,
}

/// Simulates one shard attempt through one [`ShardSink`] that applies the
/// §3.1 samplers in-stream and seals each family into sorted runs, in
/// memory or spilled per the configured storage mode.
///
/// `progress` is updated with the running record count at every day
/// boundary; when the attempt fails (injected or real), the caller reads
/// it to learn how much work was discarded. `published` is the
/// attempt's slice of the memory gauge, released by the caller on
/// failure. `fault` is the injector's decision for this attempt —
/// [`FaultDecision::default`] when injection is off.
///
/// Storage faults surface as a typed `Err(SpillError)`: the sink latches
/// the first writer error, this loop polls it at every day boundary to
/// stop simulating into a dead sink, and `into_payload` refuses partial
/// data at the end.
fn run_shard(
    env: &ShardEnv<'_>,
    work: &ShardWork,
    shard: usize,
    attempt: u32,
    fault: FaultDecision,
    progress: &AtomicU64,
    published: &AtomicU64,
) -> Result<ShardOutput, SpillError> {
    let t0 = Instant::now();
    let spill = env.spill.map(|session| SpillTarget {
        session,
        shard,
        attempt,
        segment_rows: env.segment_rows,
    });
    let collect_abuse = matches!(work, ShardWork::Abuse(_));
    let samplers = &env.inputs.samplers;
    let mut sink = ShardSink::new(
        samplers.clone(),
        &env.config.prefix_lengths,
        collect_abuse,
        spill,
        Some((env.gauge, published)),
    );
    let mut users_seen = 0u64;
    let mut users_sampled = 0u64;
    let mut days_done = 0u16;

    for day in env.days.days() {
        if fault.panic_after_days == Some(days_done) {
            // The injected failure: mid-shard, with partially filled
            // local buffers on the stack — exactly what a real panic in
            // the emitters would leave behind for the unwind to discard.
            panic!("injected fault: shard {shard} attempt {attempt} after {days_done} day(s)");
        }
        let dense = env.config.is_dense(day);
        let first_day = day == env.config.full_range.start;
        sink.set_pair_routing(day >= env.pair_start);
        match work {
            ShardWork::Benign(households) => {
                let pop = &env.inputs.pop;
                for hh in households.clone() {
                    let hprof = pop.household(hh);
                    for uid in pop.member_ids(&hprof) {
                        // The first day enumerates every member before the
                        // panel skip, so these counters are exact distinct
                        // counts over the shard's population — the
                        // realized user-sample rate's inputs.
                        if first_day {
                            users_seen += 1;
                            users_sampled += u64::from(samplers.user_sampled(uid));
                        }
                        // Panel phase: only user-sample panel members.
                        if !dense && !samplers.user_sampled(uid) {
                            continue;
                        }
                        let profile = pop.user(uid);
                        let plan = day_plan(env.world, &profile, day);
                        if plan.contexts.is_empty() {
                            continue;
                        }
                        emit_user_day(env.world, &profile, day, &plan, &mut sink);
                    }
                }
            }
            ShardWork::Abuse(campaigns) => {
                env.inputs.abuse.emit_day_campaigns(
                    &env.inputs.pop,
                    day,
                    campaigns.clone(),
                    &mut sink,
                );
            }
        }
        days_done += 1;
        sink.flush_segment();
        progress.store(sink.records(), Ordering::Relaxed);
        if let Some(e) = sink.io_error() {
            return Err(e.clone());
        }
    }

    sink.finish();
    Ok(ShardOutput {
        payload: sink.into_payload()?,
        users_seen,
        users_sampled,
        wall: t0.elapsed(),
    })
}

/// The shared work queue: a cursor over fresh shards, a retry queue for
/// failed ones, and the run-level completion/abort state.
///
/// Claim order is racy by design — it cannot affect output, because every
/// shard's result lands in its own plan-indexed slot and the merge walks
/// slots in plan order.
struct WorkQueue {
    /// Cursor over not-yet-claimed plan indices.
    next: AtomicUsize,
    /// Number of plan entries.
    total: usize,
    /// Failed shards awaiting another attempt, as `(shard, attempt)`.
    retries: Mutex<Vec<(usize, u32)>>,
    /// Shards not yet resolved (succeeded or permanently failed).
    outstanding: AtomicUsize,
    /// Set when the failure policy decides the run is lost; workers stop
    /// claiming and drain out.
    aborted: AtomicBool,
}

impl WorkQueue {
    fn new(total: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
            retries: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(total),
            aborted: AtomicBool::new(false),
        }
    }

    /// Claims a retry if one is queued, else the next fresh shard.
    fn claim(&self) -> Option<(usize, u32)> {
        // Poison recovery is sound here (and on every mutex below): a
        // panicking shard unwinds *outside* any lock — all shard state is
        // attempt-local — so a poisoned mutex can only mean some holder
        // panicked between lock and unlock of these tiny critical
        // sections, which touch plain Vec/BTreeMap state that every
        // operation leaves consistent.
        if let Some(job) = self
            .retries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return Some(job);
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some((i, 0))
    }

    /// Re-enqueues a failed shard for another attempt.
    fn requeue(&self, shard: usize, attempt: u32) {
        self.retries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((shard, attempt));
    }

    /// Marks one shard resolved (merged output or permanent failure).
    fn resolve(&self) {
        self.outstanding.fetch_sub(1, Ordering::Release);
    }

    /// True when every shard is resolved.
    fn done(&self) -> bool {
        self.outstanding.load(Ordering::Acquire) == 0
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulates `days` on the shard plan and concatenates the shards' runs
/// in plan order.
///
/// The shard plan, samplers, and campaign placement are config-derived,
/// so for any day this emits exactly the rows a run over the whole
/// `config.sim_range()` would — the incremental engine simulates only
/// the days its history does not cover. `spill` is the run's spill
/// session when `config.storage` is `Spill`; the caller owns it so its
/// files outlive the runs the freeze reads.
///
/// Returns `Err(StudyError::ShardsFailed)` when shard failures exceed
/// what `config.failure_policy` tolerates; otherwise the output's
/// `faults` field records any recovered (or, under `Degrade`, dropped)
/// shards.
pub(crate) fn simulate(
    config: &StudyConfig,
    world: &World,
    inputs: &SimInputs<'_>,
    spill: Option<&SpillSession>,
    days: DateRange,
) -> Result<Simulated, StudyError> {
    // Figure 11's full-population day pairs: the last four *effective*
    // days. Routing is anchored on the run's final end — not on the
    // restricted `days` — so a suffix run routes each day exactly like
    // the full run does.
    let pair_start = windows::pair_window(config.sim_end()).start;
    let t_plan = Instant::now();
    let plan = plan_shards(config);
    let plan_wall = t_plan.elapsed();
    let workers = config.threads.min(plan.len()).max(1);
    let policy = config.failure_policy;
    // Abort never retries: the first failure already decides the run.
    let max_retries = match policy {
        FailurePolicy::Abort => 0,
        FailurePolicy::Retry | FailurePolicy::Degrade => config.max_shard_retries,
    };
    let injector = config.faults.as_ref();
    let segment_rows = match &config.storage {
        StorageMode::Spill { segment_rows, .. } => *segment_rows,
        StorageMode::InMemory => usize::MAX,
    };
    let gauge = MemGauge::new();
    let env = ShardEnv {
        config,
        world,
        inputs,
        days,
        pair_start,
        spill,
        segment_rows,
        gauge: &gauge,
    };

    let t0 = Instant::now();
    let queue = WorkQueue::new(plan.len());
    let slots: Vec<Mutex<Option<ShardOutput>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let failures: Mutex<BTreeMap<usize, ShardFailure>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if queue.is_aborted() {
                    break;
                }
                let Some((i, attempt)) = queue.claim() else {
                    if queue.done() {
                        break;
                    }
                    // All remaining work is in flight on other workers
                    // (and may yet be re-enqueued); stay available.
                    std::thread::yield_now();
                    continue;
                };
                let work = &plan[i];
                let fault = injector.map_or_else(FaultDecision::default, |f| {
                    f.decide(config.seed, i, attempt)
                });
                if !fault.delay.is_zero() {
                    std::thread::sleep(fault.delay);
                }
                let progress = AtomicU64::new(0);
                let published = AtomicU64::new(0);
                // AssertUnwindSafe: on Err every value the closure touched
                // mutably (the shard-local accumulators) is dropped by the
                // unwind; the shared inputs are `&`-borrows.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_shard(&env, work, i, attempt, fault, &progress, &published)
                }));
                let (kind, msg) = match result {
                    Ok(Ok(out)) => {
                        if attempt > 0 {
                            // A recovered retry: count the successful
                            // attempt so `attempts` = first try + retries.
                            failures
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .entry(i)
                                .and_modify(|f| f.attempts = attempt + 1);
                        }
                        // See WorkQueue::claim for why poison recovery is
                        // sound: failed shards' buffers are discarded with
                        // the unwind, never written through this mutex.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                        queue.resolve();
                        continue;
                    }
                    Ok(Err(e)) => (FaultKind::from_spill(&e), e.to_string()),
                    Err(payload) => (FaultKind::Panic, panic_message(payload)),
                };
                // The failed attempt's buffers are gone (dropped by the
                // unwind, or never handed over by the typed-error return);
                // give back its gauge slice and delete any segment files
                // the attempt spilled so a retry starts from nothing.
                gauge.release(&published);
                if let Some(session) = spill {
                    session.remove_attempt(i, attempt);
                }
                // Corrupt and Budget failures never retry: re-running the
                // same pure work cannot repair bit rot or shrink the
                // budget, so burning the retry budget would only delay the
                // verdict.
                let exhausted = attempt >= max_retries || !kind.is_retryable();
                {
                    let mut failed = failures.lock().unwrap_or_else(PoisonError::into_inner);
                    let entry = failed.entry(i).or_insert_with(|| ShardFailure {
                        shard: i,
                        label: shard_label(work),
                        attempts: 0,
                        kind: FaultKind::Panic,
                        panic_msg: String::new(),
                        dropped: false,
                        records_lost: 0,
                    });
                    entry.attempts = attempt + 1;
                    entry.kind = kind;
                    entry.panic_msg = msg;
                    entry.records_lost = progress.load(Ordering::Relaxed);
                    if exhausted && policy == FailurePolicy::Degrade {
                        entry.dropped = true;
                    }
                }
                if !exhausted {
                    queue.requeue(i, attempt + 1);
                } else {
                    queue.resolve();
                    if policy != FailurePolicy::Degrade {
                        queue.abort();
                    }
                }
            });
        }
    });
    let sim_wall = t0.elapsed();
    let peak_store_bytes = gauge.peak();

    let failures: Vec<ShardFailure> = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_values()
        .collect();
    let sim_stats = spill.map(SpillSession::stats).unwrap_or_default();
    let faults = FaultReport {
        policy,
        failures,
        io_retries: sim_stats.io_retries,
        checksum_failures: sim_stats.checksum_failures,
    };
    if queue.is_aborted() {
        return Err(StudyError::ShardsFailed(faults));
    }

    // Merge phase: walk the slots in plan order and concatenate each
    // family's runs. No record moves; all ordering is left to the
    // freeze's k-way merge.
    let t1 = Instant::now();
    let mut shards = Vec::with_capacity(plan.len());
    let mut runs = FamilyRuns::new(&config.prefix_lengths);
    let (mut offered, mut users_seen, mut users_sampled) = (0u64, 0u64, 0u64);
    for (i, (work, slot)) in plan.iter().zip(slots).enumerate() {
        // Poison recovery (see WorkQueue::claim); an empty slot is a shard
        // dropped under Degrade — it must be in the fault report.
        let Some(out) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) else {
            debug_assert!(
                faults.dropped().any(|f| f.shard == i),
                "unfilled slot {i} without a dropped-shard record"
            );
            continue;
        };
        let ShardPayload {
            runs: shard_runs,
            offered: shard_offered,
            records,
        } = out.payload;
        shards.push(ShardMetrics {
            shard: i,
            label: shard_label(work),
            records,
            wall: out.wall,
        });
        offered += shard_offered;
        users_seen += out.users_seen;
        users_sampled += out.users_sampled;
        runs.append(shard_runs);
    }
    let merge_wall = t1.elapsed();

    Ok(Simulated {
        runs,
        offered,
        users_seen,
        users_sampled,
        metrics: RunMetrics {
            threads: workers,
            shards,
            plan_wall,
            sim_wall,
            merge_wall,
            sort_wall: Duration::ZERO,
            total_wall: Duration::ZERO,
            peak_store_bytes,
        },
        faults,
    })
}

/// What the freeze produces: the frozen stores and the `freeze` span.
pub(crate) struct Frozen {
    pub datasets: FrozenDatasets,
    pub abuse_store: FrozenStore,
    pub pair_store: FrozenStore,
    /// `freeze` (items = rows frozen, bytes = frozen store bytes, intern
    /// tables counted once) with its `intern` (items = distinct keys) and
    /// `merge` children.
    pub span: Span,
}

/// The one freeze: interns the keys of every run, then k-way merges each
/// family's runs into frozen columns over those shared tables, dropping
/// each family's runs as soon as it is merged. Cold runs, extensions and
/// state-dir resumes all freeze through here, so equal runs give equal
/// bytes whichever storage they came from.
pub(crate) fn freeze(
    runs: FamilyRuns,
    samplers: Samplers,
    offered: u64,
) -> Result<Frozen, SpillError> {
    let t0 = Instant::now();
    let mut keys = KeyCollector::new();
    for run in runs.iter() {
        keys.add_run(run)?;
    }
    let tables = Arc::new(keys.into_tables());
    let intern = Span::new("intern", t0.elapsed())
        .with_items((tables.users.len() + tables.ips.len()) as u64)
        .with_bytes(tables.bytes() as u64);
    // Heap pop and row encode interleave per row, so the merge is one
    // span.
    let t_merge = Instant::now();
    let FamilyRuns {
        request,
        user,
        ip,
        prefixes,
        abuse,
        pair,
    } = runs;
    let mut prefix_samples = HashMap::new();
    for (len, runs) in prefixes {
        prefix_samples.insert(len, merge_runs(runs, &tables)?);
    }
    let datasets = FrozenDatasets {
        samplers,
        request_sample: merge_runs(request, &tables)?,
        user_sample: merge_runs(user, &tables)?,
        ip_sample: merge_runs(ip, &tables)?,
        prefix_samples,
        offered,
    };
    let abuse_store = merge_runs(abuse, &tables)?;
    let pair_store = merge_runs(pair, &tables)?;
    let merge = Span::new("merge", t_merge.elapsed());
    let rows = datasets.retained() + abuse_store.len() as u64 + pair_store.len() as u64;
    let bytes = datasets.bytes() + abuse_store.bytes() + pair_store.bytes() + tables.bytes();
    let span = Span::new("freeze", t0.elapsed())
        .with_items(rows)
        .with_bytes(bytes as u64)
        .with_child(intern)
        .with_child(merge);
    Ok(Frozen {
        datasets,
        abuse_store,
        pair_store,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_depends_on_config_not_threads() {
        let mut a = StudyConfig::tiny();
        let mut b = StudyConfig::tiny();
        a.threads = 1;
        b.threads = 8;
        let pa: Vec<String> = plan_shards(&a).iter().map(|w| format!("{w:?}")).collect();
        let pb: Vec<String> = plan_shards(&b).iter().map(|w| format!("{w:?}")).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn shard_plan_covers_everything_once() {
        for cfg in [
            StudyConfig::tiny(),
            StudyConfig::test_scale(),
            StudyConfig::default_scale(),
        ] {
            let plan = plan_shards(&cfg);
            let mut next_hh = 0u64;
            let mut next_camp = 0u32;
            for work in &plan {
                match work {
                    ShardWork::Benign(r) => {
                        assert_eq!(r.start, next_hh, "household shards contiguous");
                        assert!(r.end > r.start);
                        next_hh = r.end;
                    }
                    ShardWork::Abuse(r) => {
                        assert_eq!(r.start, next_camp, "campaign shards contiguous");
                        assert!(r.end > r.start);
                        next_camp = r.end;
                    }
                }
            }
            assert_eq!(next_hh, cfg.households);
            assert_eq!(next_camp, cfg.campaigns);
            // Benign shards strictly precede abuse shards in merge order.
            let first_abuse = plan
                .iter()
                .position(|w| matches!(w, ShardWork::Abuse(_)))
                .expect("abuse shards exist");
            assert!(plan[..first_abuse]
                .iter()
                .all(|w| matches!(w, ShardWork::Benign(_))));
        }
    }

    #[test]
    fn work_queue_retries_before_fresh_claims_and_terminates() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some((0, 0)));
        q.requeue(0, 1);
        assert_eq!(q.claim(), Some((0, 1)), "retries take priority");
        assert_eq!(q.claim(), Some((1, 0)));
        assert_eq!(q.claim(), Some((2, 0)));
        assert_eq!(q.claim(), None);
        assert!(!q.done(), "claimed but unresolved shards keep the run open");
        q.resolve();
        q.resolve();
        q.resolve();
        assert!(q.done());
        assert!(!q.is_aborted());
        q.abort();
        assert!(q.is_aborted());
    }

    #[test]
    fn panic_payloads_are_stringified() {
        let p = catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p), "static message");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p), "non-string panic payload");
    }

    #[test]
    fn metrics_render_and_span_cover_every_phase() {
        let m = RunMetrics {
            threads: 2,
            shards: vec![ShardMetrics {
                shard: 3,
                label: "benign hh 0..64".into(),
                records: 1000,
                wall: Duration::from_millis(10),
            }],
            plan_wall: Duration::from_micros(5),
            sim_wall: Duration::from_millis(12),
            merge_wall: Duration::from_millis(1),
            sort_wall: Duration::from_millis(2),
            total_wall: Duration::from_millis(20),
            peak_store_bytes: 40_000,
        };
        let text = m.render();
        assert!(text.contains("2 thread(s)"));
        assert!(text.contains("benign hh 0..64"));
        assert!(text.contains("plan:"));
        assert!(text.contains("merge:"));
        assert!(text.contains("sort:"));
        assert_eq!(m.total_records(), 1000);
        assert!(m.records_per_sec() > 0.0);
        let run = m.span(1500, Span::new("freeze", m.sort_wall));
        let names: Vec<&str> = run.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["plan", "sim", "merge", "freeze"]);
        assert_eq!((run.wall, run.items), (m.total_wall, 1500));
        let shard = run.get("sim/shard[3]").expect("named by plan index");
        assert_eq!((shard.wall, shard.items), (Duration::from_millis(10), 1000));
        assert_eq!(run.get("sim").map(|s| s.bytes), Some(40_000));
    }

    #[test]
    fn zero_duration_throughput_is_zero_not_infinite() {
        // A shard fast enough to round to a zero wall clock must report a
        // zero rate: f64::INFINITY has no JSON representation and would
        // poison the exported metrics.
        let s = ShardMetrics {
            shard: 0,
            label: "benign hh 0..64".into(),
            records: 1000,
            wall: Duration::ZERO,
        };
        assert_eq!(s.records_per_sec(), 0.0);

        let m = RunMetrics {
            threads: 1,
            shards: vec![s],
            plan_wall: Duration::ZERO,
            sim_wall: Duration::ZERO,
            merge_wall: Duration::ZERO,
            sort_wall: Duration::ZERO,
            total_wall: Duration::ZERO,
            peak_store_bytes: 0,
        };
        assert_eq!(m.records_per_sec(), 0.0);
        assert!(m.records_per_sec().is_finite());
    }
}
