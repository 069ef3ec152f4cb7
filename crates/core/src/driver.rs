//! The deterministic sharded simulation driver.
//!
//! The simulation is embarrassingly parallel in two dimensions: benign
//! households never interact (each household's requests are a pure
//! function of the seed and its index), and attacker campaigns never
//! interact. The driver exploits this by partitioning the run into
//! **shards** — contiguous household ranges plus contiguous campaign
//! ranges — and simulating each shard's *entire* study window into
//! segments it seals itself, on the crate's one claim-order worker pool
//! (the calling thread is worker 0).
//!
//! # Determinism
//!
//! Output must be byte-identical at any thread count, so nothing about
//! the partition may depend on the thread count:
//!
//! 1. the shard plan is a function of the *config only* (household and
//!    campaign counts), never of `threads`;
//! 2. workers claim shard indices from one atomic cursor — claiming
//!    order is racy, but each shard's output is entirely local and comes
//!    back by value, in plan order;
//! 3. the merge walks shards in plan order, so the segment list
//!    ("shard-major": benign shards ascending, then campaign shards
//!    ascending) is a constant of the config.
//!
//! The freeze's stable radix argsort orders each family's plan-order
//! concatenation by timestamp, so equal-timestamp ties resolve by that
//! plan order — identical in every run (see `ipv6_study_telemetry::run`).
//! A `threads = 1` run executes the same plan on the calling thread alone
//! and produces the same bytes.
//!
//! # Fault tolerance
//!
//! Every shard attempt runs behind `std::panic::catch_unwind`, so a
//! panicking shard unwinds into a captured payload instead of killing
//! its worker; its half-filled local buffers are dropped with the
//! unwind. A failed shard retries in place, on the same worker, up to
//! `max_shard_retries` extra attempts (a retry of a pure function
//! reproduces the exact bytes, so determinism survives), and what
//! happens after exhaustion is the [`FailurePolicy`]'s call: `Abort` and
//! `Retry` fail the run with a [`FaultReport`], `Degrade` drops the
//! shard and completes on the survivors. See [`crate::faults`].

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ipv6_study_analysis::windows;
use ipv6_study_behavior::abuse::AbuseSim;
use ipv6_study_behavior::emit::emit_user_day;
use ipv6_study_behavior::population::{Population, UserProfile};
use ipv6_study_behavior::schedule::day_plan;
use ipv6_study_netmodel::World;
use ipv6_study_obs::{rate_per_sec, Span};
use ipv6_study_telemetry::{
    freeze_families, DateRange, Families, FnSink, FrozenDatasets, FrozenFamilies, FrozenStore,
    MemGauge, RequestRecord, Samplers, SealStats, Segment, ShardPayload, ShardSink, SimDate,
    SpillError, SpillSession, SpillTarget, StorageMode,
};

use crate::config::StudyConfig;
use crate::faults::{
    FailurePolicy, FaultDecision, FaultKind, FaultReport, ShardFailure, StudyError,
};
use crate::pool;

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
    clock: SimClock,
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
    /// Wall-clock of emitting the records: everything between one
    /// batch's routing and the next's.
    pub emit_wall: Duration,
    /// Wall-clock of routing them through the samplers into staging,
    /// seals excluded.
    pub route_wall: Duration,
    /// The shard's seals: their wall, rows and segment bytes.
    pub sealed: SealStats,
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
    /// Wall-clock of the merge phase: concatenating the shards' segments
    /// in plan order, plus opening or encoding any history's segments.
    pub merge_wall: Duration,
    /// Wall-clock of the freeze: the verified read of every segment, the
    /// key ranking and the gather into frozen columns.
    pub sort_wall: Duration,
    /// Wall-clock of the whole [`crate::Study::run`], set by the caller.
    pub total_wall: Duration,
    /// High-water mark of the bytes the sim phase holds in memory for the
    /// freeze (staged rows, shard dictionaries and sealed in-memory
    /// segments; frozen columns, intern tables, and the freeze's staging
    /// columns excluded). This is the number [`StorageMode::Spill`]
    /// bounds.
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
    /// merged shard, `i` its plan index, each with its `emit`, `route`
    /// and `seal`), `merge` and the freeze's span. `offered` is the
    /// run's offered record count, history included.
    pub fn span(&self, offered: u64, freeze: Span) -> Span {
        let shard = |s: &ShardMetrics| {
            Span::new(&format!("shard[{}]", s.shard), s.wall)
                .with_items(s.records)
                .with_child(Span::new("emit", s.emit_wall).with_items(s.records))
                .with_child(Span::new("route", s.route_wall).with_items(s.records))
                .with_child(
                    Span::new("seal", s.sealed.wall)
                        .with_items(s.sealed.rows)
                        .with_bytes(s.sealed.bytes),
                )
        };
        let sim = Span {
            items: self.total_records(),
            bytes: self.peak_store_bytes,
            children: self.shards.iter().map(shard).collect(),
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

/// What the sim phase hands to the freeze: every shard's segments in
/// plan order, the counters the segments do not carry, metrics and
/// faults.
pub(crate) struct Simulated {
    pub segments: Vec<Segment>,
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
            segments: Vec::new(),
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
    /// Rows a family stages before a spilling shard seals a segment.
    segment_rows: usize,
    /// Run-wide mutable-row-bytes high-water gauge.
    gauge: &'a MemGauge,
}

/// A shard attempt's emit and route walls, at two clock reads per batch
/// (a user-day, or an abuse shard's day of campaigns): from the end of
/// the last batch's routing to the end of this batch's emission is emit,
/// the routing after it is route.
struct SimClock {
    mark: Instant,
    emit: Duration,
    route: Duration,
}

impl SimClock {
    fn start() -> Self {
        Self {
            mark: Instant::now(),
            emit: Duration::ZERO,
            route: Duration::ZERO,
        }
    }

    /// Routes `batch`, emitted since the last call, into `sink` in
    /// order, leaving `batch` empty for the next one.
    fn route(
        &mut self,
        batch: &mut Vec<RequestRecord>,
        sink: &mut ShardSink<'_>,
    ) -> Result<(), SpillError> {
        let emitted = Instant::now();
        self.emit += emitted - self.mark;
        for rec in batch.drain(..) {
            sink.push(rec)?;
        }
        self.mark = Instant::now();
        self.route += self.mark - emitted;
        Ok(())
    }
}

/// Simulates one shard attempt through one [`ShardSink`] that applies the
/// §3.1 samplers in-stream and seals the retained rows into segments, in
/// memory or spilled per the configured storage mode. Each user-day (an
/// abuse shard: each day of its campaigns) is emitted into one reused
/// buffer, then routed, so [`SimClock`] times the two apart.
///
/// `progress` is updated with the running record count at every day
/// boundary; when the attempt fails (injected or real), the caller reads
/// it to learn how much work was discarded. `published` is the
/// attempt's slice of the memory gauge, released by the caller on
/// failure. `fault` is the injector's decision for this attempt —
/// [`FaultDecision::default`] when injection is off.
///
/// Storage faults surface as a typed `Err(SpillError)` from the push or
/// the final seal that raised them, so a failed attempt stops at once
/// and never hands partial data to the freeze.
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
    let mut days_done = 0u16;
    let mut batch: Vec<RequestRecord> = Vec::new();
    let mut clock = SimClock::start();
    // Each member's profile and user-sample decision, derived once for
    // the attempt (every day re-reads them) and dropped with it.
    let members: Vec<(UserProfile, bool)> = match work {
        ShardWork::Benign(households) => {
            let pop = &env.inputs.pop;
            households
                .clone()
                .flat_map(|hh| pop.member_ids(&pop.household(hh)))
                .map(|uid| (pop.user(uid), samplers.user_sampled(uid)))
                .collect()
        }
        ShardWork::Abuse(_) => Vec::new(),
    };
    // Exact distinct counts over the shard's population — the realized
    // user-sample rate's inputs — on the run that simulates the first
    // day (an extension's suffix counts none).
    let (users_seen, users_sampled) = if env.days.contains(env.config.full_range.start) {
        let sampled = members.iter().filter(|(_, sampled)| *sampled).count();
        (members.len() as u64, sampled as u64)
    } else {
        (0, 0)
    };

    for day in env.days.days() {
        if fault.panic_after_days == Some(days_done) {
            // The injected failure: mid-shard, with partially filled
            // local buffers on the stack — exactly what a real panic in
            // the emitters would leave behind for the unwind to discard.
            panic!("injected fault: shard {shard} attempt {attempt} after {days_done} day(s)");
        }
        let dense = env.config.is_dense(day);
        sink.set_pair_routing(day >= env.pair_start);
        match work {
            ShardWork::Benign(_) => {
                for (profile, sampled) in &members {
                    // Panel phase: only user-sample panel members.
                    if !dense && !sampled {
                        continue;
                    }
                    let plan = day_plan(env.world, profile, day);
                    if plan.contexts.is_empty() {
                        continue;
                    }
                    let buffer = &mut FnSink(|rec| batch.push(rec));
                    emit_user_day(env.world, profile, day, &plan, buffer);
                    clock.route(&mut batch, &mut sink)?;
                }
            }
            ShardWork::Abuse(campaigns) => {
                env.inputs.abuse.emit_day_campaigns(
                    &env.inputs.pop,
                    day,
                    campaigns.clone(),
                    &mut FnSink(|rec| batch.push(rec)),
                );
                clock.route(&mut batch, &mut sink)?;
            }
        }
        days_done += 1;
        sink.publish_gauge();
        progress.store(sink.records(), Ordering::Relaxed);
    }

    // The seals so far ran inside the routing.
    clock.route = clock.route.saturating_sub(sink.sealed().wall);
    Ok(ShardOutput {
        payload: sink.finish()?,
        users_seen,
        users_sampled,
        wall: t0.elapsed(),
        clock,
    })
}

/// Runs shard `shard` in place: one attempt, then up to
/// `max_shard_retries` more, each behind `catch_unwind`, until one
/// succeeds or the failure policy gives up. Returns the shard's output
/// and its [`ShardFailure`] (present iff some attempt failed, recovered
/// or not).
///
/// `aborted` is the run's abort flag: checked before every attempt, and
/// set when a shard exhausts its attempts under `Abort` or `Retry`.
fn run_attempts(
    env: &ShardEnv<'_>,
    work: &ShardWork,
    shard: usize,
    aborted: &AtomicBool,
) -> (Option<ShardOutput>, Option<ShardFailure>) {
    let policy = env.config.failure_policy;
    // Abort never retries: the first failure already decides the run.
    let max_retries = match policy {
        FailurePolicy::Abort => 0,
        FailurePolicy::Retry | FailurePolicy::Degrade => env.config.max_shard_retries,
    };
    let mut failure: Option<ShardFailure> = None;
    for attempt in 0..=max_retries {
        if aborted.load(Ordering::Acquire) {
            break;
        }
        let fault = env
            .config
            .faults
            .as_ref()
            .map_or_else(FaultDecision::default, |f| {
                f.decide(env.config.seed, shard, attempt)
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
            run_shard(env, work, shard, attempt, fault, &progress, &published)
        }));
        let (kind, msg) = match result {
            Ok(Ok(out)) => {
                // A recovered retry counts its successful attempt, so
                // `attempts` = first try + retries.
                if let Some(f) = &mut failure {
                    f.attempts = attempt + 1;
                }
                return (Some(out), failure);
            }
            Ok(Err(e)) => (FaultKind::from_spill(&e), e.to_string()),
            Err(payload) => (FaultKind::Panic, panic_message(payload)),
        };
        // The failed attempt's buffers are gone (dropped by the unwind,
        // or never handed over by the typed-error return); give back its
        // gauge slice and delete the spill file the attempt wrote so a
        // retry starts from nothing.
        env.gauge.release(&published);
        if let Some(session) = env.spill {
            session.remove_attempt(shard, attempt);
        }
        // Corrupt and Budget failures never retry: re-running the same
        // pure work cannot repair bit rot or shrink the budget, so
        // burning the retry budget would only delay the verdict.
        let exhausted = attempt >= max_retries || !kind.is_retryable();
        failure = Some(ShardFailure {
            shard,
            label: shard_label(work),
            attempts: attempt + 1,
            kind,
            panic_msg: msg,
            dropped: exhausted && policy == FailurePolicy::Degrade,
            records_lost: progress.load(Ordering::Relaxed),
        });
        if exhausted {
            if policy != FailurePolicy::Degrade {
                aborted.store(true, Ordering::Release);
            }
            break;
        }
    }
    (None, failure)
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

/// Simulates `days` on the shard plan and concatenates the shards'
/// segments in plan order.
///
/// The shard plan, samplers, and campaign placement are config-derived,
/// so for any day this emits exactly the rows a run over the whole
/// `config.sim_range()` would — the incremental engine simulates only
/// the days its history does not cover. `spill` is the run's spill
/// session when `config.storage` is `Spill`; the caller owns it so its
/// files outlive the segments the freeze reads.
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
    let workers = pool::worker_count(plan.len(), config.threads);
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
    let aborted = AtomicBool::new(false);
    let results = pool::run_indexed(plan.len(), workers, |i| {
        run_attempts(&env, &plan[i], i, &aborted)
    });
    let sim_wall = t0.elapsed();
    let peak_store_bytes = gauge.peak();

    // The results are in plan order, so the failures come out ascending
    // by shard.
    let (outputs, failures): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let sim_stats = spill.map(SpillSession::stats).unwrap_or_default();
    let faults = FaultReport {
        policy: config.failure_policy,
        failures: failures.into_iter().flatten().collect(),
        io_retries: sim_stats.io_retries,
        checksum_failures: sim_stats.checksum_failures,
    };
    if aborted.into_inner() {
        return Err(StudyError::ShardsFailed(faults));
    }

    // Merge phase: walk the outputs in plan order and concatenate the
    // shards' segments. No record moves; all ordering is left to the
    // freeze.
    let t1 = Instant::now();
    let mut shards = Vec::with_capacity(plan.len());
    let mut segments = Vec::new();
    let (mut offered, mut users_seen, mut users_sampled) = (0u64, 0u64, 0u64);
    for (i, (work, out)) in plan.iter().zip(outputs).enumerate() {
        // A shard without output was dropped under Degrade — it must be
        // in the fault report.
        let Some(out) = out else {
            debug_assert!(
                faults.dropped().any(|f| f.shard == i),
                "shard {i} has no output and no dropped-shard record"
            );
            continue;
        };
        let ShardPayload {
            segments: shard_segments,
            records,
            sealed,
        } = out.payload;
        shards.push(ShardMetrics {
            shard: i,
            label: shard_label(work),
            records,
            wall: out.wall,
            emit_wall: out.clock.emit,
            route_wall: out.clock.route,
            sealed,
        });
        offered += records;
        users_seen += out.users_seen;
        users_sampled += out.users_sampled;
        segments.extend(shard_segments);
    }
    let merge_wall = t1.elapsed();

    Ok(Simulated {
        segments,
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
    /// tables counted once) with its `read` (items = rows staged: every
    /// emitted segment's), `intern` (items = distinct keys, bytes =
    /// tables) and `gather` (items = rows) children.
    pub span: Span,
}

/// The one freeze: [`freeze_families`] over the segment list (history
/// first) with `config`'s families, packaged as the study's stores with
/// its span. Cold runs, extensions and state-dir resumes all freeze
/// through here, so equal runs give equal bytes whichever storage they
/// came from.
pub(crate) fn freeze(
    segments: Vec<Segment>,
    config: &StudyConfig,
    samplers: Samplers,
    offered: u64,
) -> Result<Frozen, SpillError> {
    let t0 = Instant::now();
    let FrozenFamilies {
        stores,
        tables,
        rows,
        staged,
        read_wall,
        intern_wall,
        gather_wall,
    } = freeze_families(segments, &config.prefix_lengths)?;
    let Families {
        request,
        user,
        ip,
        prefixes,
        abuse,
        pair,
    } = stores;
    let datasets = FrozenDatasets {
        samplers,
        request_sample: request,
        user_sample: user,
        ip_sample: ip,
        prefix_samples: prefixes.into_iter().collect(),
        offered,
    };
    let bytes = datasets.bytes() + abuse.bytes() + pair.bytes() + tables.bytes();
    let span = Span::new("freeze", t0.elapsed())
        .with_items(rows)
        .with_bytes(bytes as u64)
        .with_child(Span::new("read", read_wall).with_items(staged))
        .with_child(
            Span::new("intern", intern_wall)
                .with_items((tables.users.len() + tables.ips.len()) as u64)
                .with_bytes(tables.bytes() as u64),
        )
        .with_child(Span::new("gather", gather_wall).with_items(rows));
    Ok(Frozen {
        datasets,
        abuse_store: abuse,
        pair_store: pair,
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
                emit_wall: Duration::from_millis(6),
                route_wall: Duration::from_millis(3),
                sealed: SealStats {
                    wall: Duration::from_millis(1),
                    rows: 2500,
                    bytes: 45_000,
                },
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
        let names: Vec<&str> = shard.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["emit", "route", "seal"]);
        let seal = shard.get("seal").unwrap();
        assert_eq!((seal.items, seal.bytes), (2500, 45_000));
        assert_eq!(shard.get("route").map(|r| r.items), Some(1000));
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
            emit_wall: Duration::ZERO,
            route_wall: Duration::ZERO,
            sealed: SealStats::default(),
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
