//! The request-consumer abstraction between simulators and datasets.
//!
//! Emitters (the behavior and abuse simulators) produce a stream of
//! [`RequestRecord`]s; what happens to each record — sampling into the
//! study datasets, wholesale retention in a [`RequestStore`], sealing into
//! runs — is the caller's business. [`RequestSink`] is that seam:
//! emitters take `&mut dyn RequestSink`, and this module provides the
//! standard implementations:
//!
//! - [`ShardSink`] — the production path: routes each record through the
//!   deterministic §3.1 samplers *during* the sim phase and seals each
//!   dataset family into runs in emission order, in memory or spilled
//!   ([`SpillTarget`]),
//! - [`StudyDatasets`] — routes through the samplers into in-memory
//!   stores only (tests and ad-hoc pipelines),
//! - [`RequestStore`] — keeps everything (tests),
//! - [`FnSink`] — adapts a closure (tests, probes and benchmarks).
//!
//! # Lifecycle
//!
//! The trait is **sealed** — the record lifecycle below is a contract
//! between the driver and this crate's sinks, not an extension point
//! (adapt external consumers through [`FnSink`]):
//!
//! 1. [`RequestSink::push`] for every record, in emission order;
//! 2. [`RequestSink::flush_segment`] at stream-defined boundaries (the
//!    driver calls it once per simulated day) — sinks may publish
//!    progress/memory telemetry; spill-backed sinks need no forcing here
//!    because runs seal automatically at `segment_rows`;
//! 3. [`RequestSink::finish`] exactly once at end of stream — staging
//!    buffers seal into their final runs.
//!
//! For simple sinks `flush_segment` and `finish` are no-ops.
//!
//! # Storage faults
//!
//! `push` is deliberately infallible — emitters are pure simulation code
//! and never handle I/O. A spill-backed [`ShardSink`] instead **latches**
//! the first typed [`SpillError`] its writers raise: subsequent records
//! are counted but no longer routed, [`ShardSink::io_error`] exposes the
//! latched error (the driver polls it at day boundaries to fail fast),
//! and [`ShardSink::into_payload`] refuses to produce a payload, so a
//! faulted attempt can never feed partial data into the freeze.

use std::sync::atomic::AtomicU64;

use ipv6_study_netaddr::Ipv6Prefix;

use crate::dataset::StudyDatasets;
use crate::record::RequestRecord;
use crate::run::FamilyRuns;
use crate::sampler::Samplers;
use crate::spill::{MemGauge, RunWriter, SpillError, SpillSession};
use crate::store::RequestStore;

mod sealed {
    //! Seals [`super::RequestSink`]: only this crate's sinks implement it.
    pub trait Sealed {}
}

/// A consumer of simulated platform requests.
///
/// Object-safe on purpose: emitters take `&mut dyn RequestSink` so the
/// simulation crates compile once regardless of where records end up.
/// Sealed: the `push`/`flush_segment`/`finish` lifecycle is a closed
/// contract (see the module docs); external consumers adapt via
/// [`FnSink`].
pub trait RequestSink: sealed::Sealed {
    /// Accepts one request record.
    fn push(&mut self, rec: RequestRecord);

    /// Marks a stream boundary (the driver calls this once per simulated
    /// day). Sinks may publish telemetry or compact buffers; the default
    /// does nothing.
    fn flush_segment(&mut self) {}

    /// Marks end of stream: buffered state must become final (staging
    /// seals into runs). Called exactly once; the default does nothing.
    fn finish(&mut self) {}
}

impl sealed::Sealed for StudyDatasets {}
impl RequestSink for StudyDatasets {
    fn push(&mut self, rec: RequestRecord) {
        self.offer(rec);
    }
}

impl sealed::Sealed for RequestStore {}
impl RequestSink for RequestStore {
    fn push(&mut self, rec: RequestRecord) {
        RequestStore::push(self, rec);
    }
}

impl sealed::Sealed for &mut dyn RequestSink {}
/// Forwarding through a mutable reference, so `&mut dyn RequestSink` can
/// itself be handed to an emitter.
impl RequestSink for &mut dyn RequestSink {
    fn push(&mut self, rec: RequestRecord) {
        (**self).push(rec);
    }

    fn flush_segment(&mut self) {
        (**self).flush_segment();
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Adapts a closure into a sink.
///
/// A blanket `impl<F: FnMut(..)> RequestSink for F` would collide with the
/// concrete impls above under coherence rules, so closures are wrapped
/// explicitly: `&mut FnSink(|rec| ...)`. This is also the escape hatch
/// through the sealed trait for external consumers.
pub struct FnSink<F: FnMut(RequestRecord)>(pub F);

impl<F: FnMut(RequestRecord)> sealed::Sealed for FnSink<F> {}
impl<F: FnMut(RequestRecord)> RequestSink for FnSink<F> {
    fn push(&mut self, rec: RequestRecord) {
        (self.0)(rec);
    }
}

/// Where a spilling [`ShardSink`] writes its runs.
#[derive(Debug, Clone, Copy)]
pub struct SpillTarget<'a> {
    /// The run's spill session (owns the directory).
    pub session: &'a SpillSession,
    /// Shard index (names the spill files).
    pub shard: usize,
    /// Attempt number (names the spill files, so a failed attempt's
    /// files can be removed without touching a retry's).
    pub attempt: u32,
    /// Rows staged per family before a run is appended.
    pub segment_rows: usize,
}

/// Everything a finished [`ShardSink`] produced, handed back to the
/// driver for the merge phase.
#[derive(Debug)]
pub struct ShardPayload {
    /// Every family's runs, in emission order.
    pub runs: FamilyRuns,
    /// Records offered to the samplers (excludes nothing; the abuse
    /// stream sees the same records before sampling).
    pub offered: u64,
    /// Total records pushed through the sink.
    pub records: u64,
}

/// The production per-shard sink: applies the §3.1 [`Samplers`] to every
/// record *during* the sim phase and seals each dataset family into runs
/// in emission order, in memory or spilled to a [`SpillTarget`].
///
/// One sink lives for one shard attempt. The routing order per record is
/// fixed (it defines emission order within every family, which the golden
/// digests pin): full-fidelity abuse stream (abuse shards), then the
/// request/user/ip samples, then each prefix sample ascending by length,
/// then the pair-window stream when [`ShardSink::set_pair_routing`] is on.
pub struct ShardSink<'a> {
    samplers: Samplers,
    request: RunWriter,
    user: RunWriter,
    ip: RunWriter,
    prefixes: Vec<(u8, RunWriter)>,
    abuse: Option<RunWriter>,
    pair: RunWriter,
    pair_routing: bool,
    offered: u64,
    records: u64,
    gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    /// The first storage error a spill writer raised; once set, records
    /// are counted but no longer routed (see "Storage faults" above).
    error: Option<SpillError>,
}

impl<'a> ShardSink<'a> {
    /// Creates a sink for one shard attempt.
    ///
    /// `prefix_lengths` need not be sorted or unique; the sink routes in
    /// ascending-length order. `collect_abuse` turns on the full-fidelity
    /// abuse stream (abuse shards). `spill` sends runs to disk; `None`
    /// keeps one run per family in memory. `gauge` is the run-wide memory
    /// high-water gauge plus this attempt's published counter; pass
    /// `None` to skip memory telemetry.
    pub fn new(
        samplers: Samplers,
        prefix_lengths: &[u8],
        collect_abuse: bool,
        spill: Option<SpillTarget<'a>>,
        gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    ) -> Self {
        let writer = |family: &str| match spill {
            Some(t) => t.session.writer(t.shard, t.attempt, family, t.segment_rows),
            None => RunWriter::in_memory(),
        };
        let mut lengths: Vec<u8> = prefix_lengths.to_vec();
        lengths.sort_unstable();
        lengths.dedup();
        let prefixes = lengths
            .into_iter()
            .map(|len| (len, writer(&format!("p{len}"))))
            .collect();
        Self {
            samplers,
            request: writer("request"),
            user: writer("user"),
            ip: writer("ip"),
            prefixes,
            abuse: collect_abuse.then(|| writer("abuse")),
            pair: writer("pair"),
            pair_routing: false,
            offered: 0,
            records: 0,
            gauge,
            error: None,
        }
    }

    /// Toggles the full-fidelity pair-window stream (the driver enables
    /// it for the last three study days).
    pub fn set_pair_routing(&mut self, on: bool) {
        self.pair_routing = on;
    }

    /// Total records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The latched storage error, if a spill writer has failed. The
    /// driver polls this at day boundaries so a faulted attempt stops
    /// simulating instead of pushing into a dead sink.
    pub fn io_error(&self) -> Option<&SpillError> {
        self.error.as_ref()
    }

    /// Routes one record through the samplers into the family writers,
    /// surfacing the first storage error.
    fn route(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        if let Some(abuse) = &mut self.abuse {
            abuse.push(rec)?;
        }
        self.offered += 1;
        if self.samplers.request_sampled(&rec) {
            self.request.push(rec)?;
        }
        if self.samplers.user_sampled(rec.user) {
            self.user.push(rec)?;
        }
        if self.samplers.ip_sampled(&rec) {
            self.ip.push(rec)?;
        }
        if let Some(addr) = rec.ipv6() {
            for (len, writer) in &mut self.prefixes {
                if self
                    .samplers
                    .prefix_sampled(Ipv6Prefix::containing(addr, *len))
                {
                    writer.push(rec)?;
                }
            }
        }
        if self.pair_routing {
            self.pair.push(rec)?;
        }
        Ok(())
    }

    /// Finishes every family writer, surfacing the first storage error.
    fn finish_families(&mut self) -> Result<(), SpillError> {
        self.request.finish()?;
        self.user.finish()?;
        self.ip.finish()?;
        for (_, writer) in &mut self.prefixes {
            writer.finish()?;
        }
        if let Some(abuse) = &mut self.abuse {
            abuse.finish()?;
        }
        self.pair.finish()
    }

    /// Mutable row bytes currently held in memory across all families.
    fn live_bytes(&self) -> u64 {
        let mut bytes = self.request.live_bytes()
            + self.user.live_bytes()
            + self.ip.live_bytes()
            + self.pair.live_bytes();
        for (_, writer) in &self.prefixes {
            bytes += writer.live_bytes();
        }
        if let Some(abuse) = &self.abuse {
            bytes += abuse.live_bytes();
        }
        bytes
    }

    fn publish_gauge(&self) {
        if let Some((gauge, published)) = self.gauge {
            gauge.publish(published, self.live_bytes());
        }
    }

    /// Consumes the sink into its payload. [`RequestSink::finish`] must
    /// have been called first (the writers debug-assert it). A sink that
    /// latched a storage error refuses to produce a payload — the typed
    /// error surfaces instead, so partial data never reaches the freeze.
    pub fn into_payload(self) -> Result<ShardPayload, SpillError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(ShardPayload {
            runs: FamilyRuns {
                request: self.request.into_runs(),
                user: self.user.into_runs(),
                ip: self.ip.into_runs(),
                prefixes: self
                    .prefixes
                    .into_iter()
                    .map(|(len, writer)| (len, writer.into_runs()))
                    .collect(),
                abuse: self.abuse.map(RunWriter::into_runs).unwrap_or_default(),
                pair: self.pair.into_runs(),
            },
            offered: self.offered,
            records: self.records,
        })
    }
}

impl sealed::Sealed for ShardSink<'_> {}
impl RequestSink for ShardSink<'_> {
    fn push(&mut self, rec: RequestRecord) {
        self.records += 1;
        if self.error.is_some() {
            return; // latched: count, don't route
        }
        if let Err(e) = self.route(rec) {
            self.error = Some(e);
        }
    }

    fn flush_segment(&mut self) {
        self.publish_gauge();
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.finish_families() {
                self.error = Some(e);
            }
        }
        self.publish_gauge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country, UserId};
    use crate::run::{freeze_families, Run};
    use crate::sampler::Samplers;
    use crate::time::SimDate;

    fn rec(user: u64, sec: u32) -> RequestRecord {
        RequestRecord {
            ts: crate::time::Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: "2001:db8::1".parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn keep_all() -> Samplers {
        Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 0.0,
        }
    }

    /// Rows held by a family's runs.
    fn rows(runs: &[Run]) -> usize {
        runs.iter().map(|r| r.rows() as usize).sum()
    }

    #[test]
    fn store_sink_keeps_everything() {
        let mut store = RequestStore::new();
        let sink: &mut dyn RequestSink = &mut store;
        sink.push(rec(1, 0));
        sink.push(rec(2, 1));
        sink.flush_segment(); // default no-op
        sink.finish();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn dataset_sink_routes_through_offer() {
        let mut d = StudyDatasets::with_prefix_lengths(keep_all(), &[]);
        let sink: &mut dyn RequestSink = &mut d;
        sink.push(rec(7, 0));
        assert_eq!(d.offered, 1);
        assert_eq!(d.request_sample.len(), 1);
    }

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|r: RequestRecord| seen.push(r.user));
        sink.push(rec(3, 0));
        sink.push(rec(4, 1));
        assert_eq!(seen, vec![UserId(3), UserId(4)]);
    }

    #[test]
    fn shard_sink_routes_like_study_datasets() {
        // Reference path: StudyDatasets + an external pair store.
        let samplers = Samplers::scaled_for(1_000);
        let records: Vec<RequestRecord> = (0..2_000).map(|i| rec(i % 97, i as u32)).collect();

        let mut reference = StudyDatasets::with_prefix_lengths(samplers.clone(), &[48, 64]);
        let mut ref_pair = RequestStore::new();
        for (i, r) in records.iter().enumerate() {
            reference.offer(*r);
            if i >= 1_000 {
                ref_pair.push(*r);
            }
        }

        let mut sink = ShardSink::new(samplers, &[64, 48, 48], false, None, None);
        for (i, r) in records.iter().enumerate() {
            if i == 1_000 {
                sink.set_pair_routing(true);
            }
            sink.push(*r);
        }
        sink.finish();
        let payload = sink.into_payload().unwrap();

        assert_eq!(payload.offered, reference.offered);
        assert_eq!(payload.records, 2_000);
        let runs = &payload.runs;
        assert!(runs.abuse.is_empty());
        // In memory, each family is one run (or none when empty).
        let lists = [&runs.request, &runs.user, &runs.ip, &runs.pair];
        for list in lists.into_iter().chain(runs.prefixes.values()) {
            assert!(list.len() <= 1 && list.iter().all(|r| r.rows() > 0));
        }
        assert_eq!(runs.request.len(), 1);
        assert_eq!(rows(&runs.request), reference.request_sample.len());
        assert_eq!(rows(&runs.user), reference.user_sample.len());
        assert_eq!(rows(&runs.ip), reference.ip_sample.len());
        assert_eq!(rows(&runs.pair), ref_pair.len());
        // Duplicated/unsorted prefix lengths collapse to ascending order.
        assert_eq!(runs.prefixes.keys().copied().collect::<Vec<_>>(), [48, 64]);
        for (len, p) in &runs.prefixes {
            assert_eq!(rows(p), reference.prefix_sample(*len).len(), "/{len}");
        }
    }

    #[test]
    fn shard_sink_publishes_memory_telemetry() {
        let gauge = MemGauge::new();
        let published = AtomicU64::new(0);
        let mut sink = ShardSink::new(keep_all(), &[], true, None, Some((&gauge, &published)));
        for i in 0..10 {
            sink.push(rec(i, i as u32));
        }
        sink.flush_segment();
        // 10 records × (abuse + request + user + ip) families × 40 bytes.
        let expected = 10 * 4 * std::mem::size_of::<RequestRecord>() as u64;
        assert_eq!(gauge.current(), expected);
        // Sealed in-memory runs are still resident row bytes.
        sink.finish();
        assert_eq!(gauge.current(), expected);
        assert_eq!(gauge.peak(), expected);
    }

    #[test]
    fn spill_backed_shard_sink_matches_memory_routing() {
        let session = SpillSession::create(None).unwrap();
        let samplers = Samplers::scaled_for(1_000);
        let records: Vec<RequestRecord> = (0..3_000).map(|i| rec(i % 61, i as u32)).collect();

        let run = |spill: Option<SpillTarget<'_>>| {
            let mut sink = ShardSink::new(samplers.clone(), &[64], true, spill, None);
            for r in &records {
                sink.push(*r);
            }
            sink.finish();
            sink.into_payload().unwrap()
        };
        let memory = run(None);
        let spilled = run(Some(SpillTarget {
            session: &session,
            shard: 0,
            attempt: 0,
            segment_rows: 128,
        }));
        assert_eq!(memory.offered, spilled.offered);
        assert!(spilled.runs.request.len() > 1, "spilled in several runs");

        // The same rows freeze to the same columns either way.
        let records = |store: &crate::FrozenStore| store.all().records().collect::<Vec<_>>();
        let m = freeze_families(memory.runs).unwrap().stores;
        let s = freeze_families(spilled.runs).unwrap().stores;
        for (m, s, what) in [
            (&m.prefixes[&64], &s.prefixes[&64], "p64"),
            (&m.request, &s.request, "request"),
            (&m.user, &s.user, "user"),
            (&m.ip, &s.ip, "ip"),
            (&m.pair, &s.pair, "pair"),
            (&m.abuse, &s.abuse, "abuse"),
        ] {
            assert_eq!(records(m), records(s), "{what} family");
        }
    }
}
