//! The request-consumer seam between simulators and datasets.
//!
//! Emitters (the behavior and abuse simulators) push a stream of
//! [`RequestRecord`]s into a `&mut dyn RequestSink`; [`FnSink`] adapts a
//! closure into one (the driver's per-user-day buffer, tests, probes and
//! benchmarks). The driver routes each buffered record into its shard's
//! [`ShardSink`], which applies the deterministic §3.1 samplers and
//! seals every retained row into dictionary-coded segments in emission
//! order, kept in memory or spilled ([`SpillTarget`]); it memoizes the
//! decisions that depend only on the address or the user. Every
//! [`ShardSink`] step that can touch storage returns a typed
//! [`SpillError`].

use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use ipv6_study_netaddr::Ipv6Prefix;

use crate::ids::UserId;
use crate::intern::{Attrs, IpId};
use crate::record::RequestRecord;
use crate::run::Family;
use crate::sampler::Samplers;
use crate::segment::{same_attrs, Segment, Staging};
use crate::spill::{MemGauge, SpillError, SpillFile, SpillSession};

/// A consumer of simulated platform requests.
///
/// Object-safe on purpose: emitters take `&mut dyn RequestSink` so the
/// simulation crates compile once regardless of where records end up.
pub trait RequestSink {
    /// Accepts one request record.
    fn push(&mut self, rec: RequestRecord);
}

/// Adapts a closure into a sink: `&mut FnSink(|rec| ...)`.
pub struct FnSink<F: FnMut(RequestRecord)>(pub F);

impl<F: FnMut(RequestRecord)> RequestSink for FnSink<F> {
    fn push(&mut self, rec: RequestRecord) {
        (self.0)(rec);
    }
}

/// Where a spilling [`ShardSink`] writes its segments.
#[derive(Debug, Clone, Copy)]
pub struct SpillTarget<'a> {
    /// The run's spill session (owns the directory).
    pub session: &'a SpillSession,
    /// Shard index (names the spill file).
    pub shard: usize,
    /// Attempt number (names the spill file, so a failed attempt's file
    /// can be removed without touching a retry's).
    pub attempt: u32,
    /// Rows a family stages before the shard seals a segment.
    pub segment_rows: usize,
}

/// Everything a finished [`ShardSink`] produced, handed back to the
/// driver for the merge phase.
#[derive(Debug)]
pub struct ShardPayload {
    /// The shard's emitted segments, in the order sealed.
    pub segments: Vec<Segment>,
    /// Records pushed through the sink, every one offered to the
    /// samplers.
    pub records: u64,
    /// The shard's seals.
    pub sealed: SealStats,
}

/// What a shard attempt's seals took and wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct SealStats {
    /// Wall-clock of encoding the staged rows and storing the segments.
    pub wall: Duration,
    /// Rows sealed, over every family.
    pub rows: u64,
    /// Bytes of the sealed segments.
    pub bytes: u64,
}

/// A shard attempt's segments: the rows staged for the next one under
/// its first-sight dictionary, and the ones sealed so far, in memory or
/// in the attempt's spill file.
#[derive(Debug)]
pub(crate) struct Sealer {
    staging: Staging,
    /// Rows any family may stage before a seal; `usize::MAX` in memory.
    segment_rows: usize,
    spill: Option<SpillFile>,
    sealed: Vec<Segment>,
    /// Bytes of the sealed segments held in memory.
    held: u64,
    /// Whether some family has staged `segment_rows` rows.
    full: bool,
    stats: SealStats,
}

impl Sealer {
    /// A sealer of `families`, in section order: spilled to `spill`, or
    /// kept in memory and sealed once at [`Sealer::seal`].
    pub(crate) fn new(families: Vec<Family>, spill: Option<SpillTarget<'_>>) -> Self {
        Self {
            staging: Staging::new(families),
            segment_rows: spill.map_or(usize::MAX, |t| t.segment_rows),
            spill: spill.map(|t| t.session.spill_file(t.shard, t.attempt)),
            sealed: Vec::new(),
            held: 0,
            full: false,
            stats: SealStats::default(),
        }
    }

    /// The local id of address `ip` in the open segment's dictionary,
    /// interned with attributes `attrs` on first sight, and the
    /// attributes it was interned with; the next seal voids both.
    pub(crate) fn intern_ip(&mut self, ip: IpAddr, attrs: Attrs) -> (IpId, Attrs) {
        self.staging.intern_ip(ip, attrs)
    }

    /// The local id of `user` in the open segment's dictionary, interned
    /// on first sight; the next seal voids it.
    pub(crate) fn intern_user(&mut self, user: UserId) -> u32 {
        self.staging.intern_user(user)
    }

    /// Stages `rec` in family `k` under its local `ids`.
    pub(crate) fn keep(&mut self, k: usize, rec: &RequestRecord, ids: (IpId, u32)) {
        if self.staging.push(k, rec, ids) >= self.segment_rows {
            self.full = true;
        }
    }

    /// Seals once some family has staged `segment_rows` rows; called
    /// after each record, so a record's rows share a segment. Returns
    /// whether it sealed, which voids every local id handed out so far.
    pub(crate) fn end_record(&mut self) -> Result<bool, SpillError> {
        if !self.full {
            return Ok(false);
        }
        self.seal()?;
        Ok(true)
    }

    /// Seals the staged rows, if any, into one segment: appended to the
    /// spill file, or kept in memory.
    pub(crate) fn seal(&mut self) -> Result<(), SpillError> {
        self.full = false;
        let rows = self.staging.rows();
        if rows == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        let bytes = self.staging.seal();
        let len = bytes.len() as u64;
        let segment = match &mut self.spill {
            Some(file) => file.append(&bytes)?,
            None => {
                self.held += len;
                let name = PathBuf::from(format!("in-memory segment {}", self.sealed.len()));
                Segment::emitted(name, bytes)?
            }
        };
        self.sealed.push(segment);
        self.stats.wall += t0.elapsed();
        self.stats.rows += rows as u64;
        self.stats.bytes += len;
        Ok(())
    }

    /// Bytes held for the freeze: staged rows, the dictionary and sealed
    /// in-memory segments.
    pub(crate) fn bytes(&self) -> u64 {
        self.staging.bytes() + self.held
    }

    /// The seals so far.
    pub(crate) fn stats(&self) -> SealStats {
        self.stats
    }

    /// The sealed segments, in order; [`Sealer::seal`] must have run
    /// last.
    pub(crate) fn into_segments(self) -> Vec<Segment> {
        debug_assert_eq!(self.staging.rows(), 0, "into_segments before the last seal");
        self.sealed
    }
}

/// Family indices of a [`ShardSink`]'s sealer: request, user and ip,
/// then the prefix lengths ascending, then abuse (abuse shards) and pair.
const REQUEST: usize = 0;
const USER: usize = 1;
const IP: usize = 2;
const PREFIX: usize = 3;

/// Slots of a [`ShardSink`]'s address memo, a power of two.
const MEMO_SLOTS: usize = 1 << 10;

/// Words of an address's prefix bits: one bit for each configured
/// length, and a configuration may name every length from 0 through
/// [`Ipv6Prefix::MAX_LEN`].
const PREFIX_WORDS: usize = (Ipv6Prefix::MAX_LEN as usize + 1).div_ceil(64);

/// What routing knows of one address: its sampler decisions, which never
/// change, and its dictionary entry in the open segment — its local id
/// and the attributes it was interned with — which the next seal voids.
#[derive(Debug, Clone, Copy)]
struct AddressMemo {
    /// The tag: the full address, since `ip_key` folds a v6 address's
    /// halves and two addresses can share a key.
    ip: IpAddr,
    /// The IP-sample decision.
    sampled: bool,
    /// Bit `i` is set when the address's prefix of the `i`-th configured
    /// length (ascending) is in that length's prefix sample.
    prefixes: [u64; PREFIX_WORDS],
    entry: Option<(IpId, Attrs)>,
}

/// What routing knows of the last user: the user-sample decision, and
/// the local id the next seal voids.
#[derive(Debug, Clone, Copy)]
struct UserMemo {
    user: UserId,
    sampled: bool,
    id: Option<u32>,
}

/// The production per-shard sink: applies the §3.1 [`Samplers`] to every
/// record *during* the sim phase and stages each retained record once,
/// its address and user interned into the shard's dictionary, in every
/// family that keeps it; the staged rows seal into segments in memory or
/// spilled to a [`SpillTarget`].
///
/// One sink lives for one shard attempt. The routing order per record is
/// fixed (it defines emission order within every family, which the golden
/// digests pin): full-fidelity abuse stream (abuse shards), then the
/// request/user/ip samples, then each prefix sample ascending by length,
/// then the pair-window stream when [`ShardSink::set_pair_routing`] is on.
///
/// # Memo
///
/// §3.1's samplers are deterministic over time, so only the request
/// sampler, which hashes the whole record, runs on every record. The
/// rest are remembered:
///
/// - per address, in a direct-mapped memo of 1,024 entries
///   whose slot comes from the address's `ip_key` and whose tag is the
///   full address: the IP-sample decision, one prefix-sample bit per
///   configured length, and the address's local id and attributes;
/// - per user, for the last user routed (an emitter pushes a user-day at
///   a time): the user-sample decision and the user's local id.
///
/// A record's keys are still interned when its first family keeps it, so
/// the dictionary and the segments are the same bytes as without the
/// memo. Local ids index the open segment's dictionary, so every seal
/// forgets them; the decisions stay.
///
/// # One (ASN, country) per address
///
/// An address's dictionary entry holds the ASN and country its first
/// kept record gave it. Every later kept record is checked against the
/// entry, once per record however many families keep it, and a record
/// that gives the address another pair fails the shard with a
/// [`SpillError::Attributes`], which no retry clears.
pub struct ShardSink<'a> {
    samplers: Samplers,
    /// Prefix lengths, ascending; the i-th is family `PREFIX + i`.
    lengths: Vec<u8>,
    /// The abuse family's index, on abuse shards.
    abuse: Option<usize>,
    /// The pair family's index.
    pair: usize,
    sealer: Sealer,
    /// The address memo, [`MEMO_SLOTS`] slots.
    addresses: Vec<Option<AddressMemo>>,
    user: Option<UserMemo>,
    pair_routing: bool,
    records: u64,
    gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
}

impl<'a> ShardSink<'a> {
    /// Creates a sink for one shard attempt.
    ///
    /// `prefix_lengths` need not be sorted or unique; the sink routes in
    /// ascending-length order. `collect_abuse` turns on the full-fidelity
    /// abuse stream (abuse shards). `spill` sends segments to disk;
    /// `None` keeps one segment in memory. `gauge` is the run-wide memory
    /// high-water gauge plus this attempt's published counter; pass
    /// `None` to skip memory telemetry.
    pub fn new(
        samplers: Samplers,
        prefix_lengths: &[u8],
        collect_abuse: bool,
        spill: Option<SpillTarget<'a>>,
        gauge: Option<(&'a MemGauge, &'a AtomicU64)>,
    ) -> Self {
        let mut lengths: Vec<u8> = prefix_lengths.to_vec();
        lengths.sort_unstable();
        lengths.dedup();
        let mut families = vec![Family::Request, Family::User, Family::Ip];
        families.extend(lengths.iter().map(|&len| Family::Prefix(len)));
        let abuse = collect_abuse.then(|| {
            families.push(Family::Abuse);
            families.len() - 1
        });
        families.push(Family::Pair);
        Self {
            samplers,
            lengths,
            abuse,
            pair: families.len() - 1,
            sealer: Sealer::new(families, spill),
            addresses: vec![None; MEMO_SLOTS],
            user: None,
            pair_routing: false,
            records: 0,
            gauge,
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

    /// The seals so far.
    pub fn sealed(&self) -> SealStats {
        self.sealer.stats()
    }

    /// Routes one record through the samplers into the families that keep
    /// it, sealing a full segment; a failed seal, or an address given a
    /// second (ASN, country) pair, fails the shard attempt.
    pub fn push(&mut self, rec: RequestRecord) -> Result<(), SpillError> {
        self.records += 1;
        let request = self.samplers.request_sampled(&rec);
        let user = match &mut self.user {
            Some(memo) if memo.user == rec.user => memo,
            slot => slot.insert(UserMemo {
                user: rec.user,
                sampled: self.samplers.user_sampled(rec.user),
                id: None,
            }),
        };
        let slot = memo_slot(rec.ip_key());
        let addr = match &mut self.addresses[slot] {
            Some(memo) if memo.ip == rec.ip => memo,
            slot => slot.insert(address_memo(&self.samplers, &self.lengths, &rec)),
        };
        let kept = self.abuse.is_some()
            || request
            || user.sampled
            || addr.sampled
            || addr.prefixes != [0; PREFIX_WORDS]
            || self.pair_routing;
        if !kept {
            return Ok(());
        }
        let sealer = &mut self.sealer;
        let (ip, first) =
            *(addr.entry).get_or_insert_with(|| sealer.intern_ip(rec.ip, (rec.asn, rec.country)));
        same_attrs(&rec, first)?;
        let ids = (
            ip,
            *user.id.get_or_insert_with(|| sealer.intern_user(rec.user)),
        );
        if let Some(k) = self.abuse {
            sealer.keep(k, &rec, ids);
        }
        if request {
            sealer.keep(REQUEST, &rec, ids);
        }
        if user.sampled {
            sealer.keep(USER, &rec, ids);
        }
        if addr.sampled {
            sealer.keep(IP, &rec, ids);
        }
        for (w, &word) in addr.prefixes.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sealer.keep(PREFIX + w * 64 + bits.trailing_zeros() as usize, &rec, ids);
                bits &= bits - 1;
            }
        }
        if self.pair_routing {
            sealer.keep(self.pair, &rec, ids);
        }
        if sealer.end_record()? {
            self.forget_ids();
        }
        Ok(())
    }

    /// Forgets every memoized dictionary entry: a seal has emptied the
    /// dictionary they index.
    fn forget_ids(&mut self) {
        for memo in self.addresses.iter_mut().flatten() {
            memo.entry = None;
        }
        if let Some(memo) = &mut self.user {
            memo.id = None;
        }
    }

    /// Publishes the bytes held for the freeze to the memory gauge, if
    /// any (the driver calls this once per simulated day).
    pub fn publish_gauge(&self) {
        if let Some((gauge, published)) = self.gauge {
            gauge.publish(published, self.sealer.bytes());
        }
    }

    /// Seals the staged rows into the final segment and consumes the sink
    /// into its payload.
    pub fn finish(mut self) -> Result<ShardPayload, SpillError> {
        self.sealer.seal()?;
        self.publish_gauge();
        Ok(ShardPayload {
            sealed: self.sealer.stats(),
            segments: self.sealer.into_segments(),
            records: self.records,
        })
    }
}

/// The address memo's slot for an address's `ip_key`: the top bits of a
/// multiplicative hash, so the slot depends on every bit of the key.
fn memo_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// The sampler decisions for `rec`'s address under `samplers`, over the
/// ascending prefix `lengths`, with no dictionary entry yet.
fn address_memo(samplers: &Samplers, lengths: &[u8], rec: &RequestRecord) -> AddressMemo {
    let mut prefixes = [0; PREFIX_WORDS];
    if let Some(addr) = rec.ipv6() {
        for (i, &len) in lengths.iter().enumerate() {
            if samplers.prefix_sampled(Ipv6Prefix::containing(addr, len)) {
                prefixes[i / 64] |= 1 << (i % 64);
            }
        }
    }
    AddressMemo {
        ip: rec.ip,
        sampled: samplers.ip_sampled(rec),
        prefixes,
        entry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::StudyDatasets;
    use crate::ids::{Asn, Country, UserId};
    use crate::run::freeze_families;
    use crate::sampler::Samplers;
    use crate::spill::SpillPolicy;
    use crate::store::RequestStore;
    use crate::time::SimDate;
    use ipv6_study_stats::testgen::TestGen;

    impl Sealer {
        /// The local ids of `r`'s address and user, checked as
        /// [`Staging::intern`] checks them (the sealer tests' one call
        /// for both).
        pub(crate) fn intern(&mut self, r: &RequestRecord) -> Result<(IpId, u32), SpillError> {
            self.staging.intern(r)
        }
    }

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

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|r: RequestRecord| seen.push(r.user));
        sink.push(rec(3, 0));
        sink.push(rec(4, 1));
        assert_eq!(seen, vec![UserId(3), UserId(4)]);
    }

    /// The addresses [`pooled`] draws: v4 and v6, the v6 ones across
    /// several /48s and /64s, and two v6 addresses with swapped halves,
    /// whose `ip_key`s are equal, so the memo's tag must tell them apart.
    const POOL: [&str; 12] = [
        "192.0.2.1",
        "192.0.2.77",
        "198.51.100.9",
        "2001:db8::1",
        "0:0:0:1:2001:db8::",
        "2001:db8::2",
        "2001:db8:0:1::1",
        "2001:db8:0:1:aaaa::5",
        "2001:db8:7::1",
        "2001:db8:7:ff00::9",
        "2001:db8:ffff:1::1",
        "2600::42",
    ];

    /// `n` records, one a second, with users from a pool of 29 (a user
    /// often keeps the next record, as in an emitted user-day) and
    /// addresses from [`POOL`], drawn at random: keys repeat across seals,
    /// in a different first-sight order in each segment.
    fn pooled(n: usize) -> Vec<RequestRecord> {
        let mut g = TestGen::new(0x4d45_4d4f); // "MEMO"
        let mut user = 0;
        (0..n)
            .map(|i| {
                if g.below(3) != 0 {
                    user = g.below(29);
                }
                let ip = POOL[g.below(POOL.len() as u64) as usize];
                RequestRecord {
                    ip: ip.parse().unwrap(),
                    ..rec(user, i as u32)
                }
            })
            .collect()
    }

    /// Routes `records` through a [`ShardSink`] over `lengths` (any
    /// order, duplicates allowed), with pair routing from the 1,000th
    /// record on, and asserts that every family freezes to the rows
    /// [`StudyDatasets`] (the unmemoized reference) and a pair store keep.
    /// Returns each segment's section families.
    fn assert_routes_like_study_datasets(
        records: &[RequestRecord],
        lengths: &[u8],
        spill: Option<SpillTarget<'_>>,
    ) -> Vec<Vec<Family>> {
        let samplers = Samplers::scaled_for(1_000);
        let mut reference = StudyDatasets::with_prefix_lengths(samplers.clone(), lengths);
        let mut ref_pair = RequestStore::new();
        for (i, r) in records.iter().enumerate() {
            reference.offer(*r);
            if i >= 1_000 {
                ref_pair.push(*r);
            }
        }

        let mut sink = ShardSink::new(samplers, lengths, false, spill, None);
        for (i, r) in records.iter().enumerate() {
            if i == 1_000 {
                sink.set_pair_routing(true);
            }
            sink.push(*r).unwrap();
        }
        let payload = sink.finish().unwrap();
        assert_eq!(payload.records, reference.offered);
        let sections = |s: &Segment| s.sections().collect::<Vec<_>>();
        let sections: Vec<Vec<(Family, u64)>> = payload.segments.iter().map(sections).collect();
        let rows: u64 = sections.iter().flatten().map(|&(_, rows)| rows).sum();
        assert_eq!(payload.sealed.rows, rows, "every sealed row counted");
        let bytes: u64 = payload.segments.iter().map(Segment::bytes).sum();
        assert_eq!(payload.sealed.bytes, bytes, "every sealed byte counted");

        let frozen = freeze_families(payload.segments, lengths).unwrap().stores;
        let rows = |store: &crate::FrozenStore| store.all().records().collect::<Vec<_>>();
        assert_eq!(rows(&frozen.request), reference.request_sample.all());
        assert_eq!(rows(&frozen.user), reference.user_sample.all());
        assert_eq!(rows(&frozen.ip), reference.ip_sample.all());
        assert_eq!(rows(&frozen.pair), ref_pair.all());
        assert!(frozen.abuse.is_empty());
        for &len in lengths {
            assert_eq!(
                rows(&frozen.prefixes[&len]),
                reference.prefix_sample(len).all(),
                "/{len}"
            );
        }
        let families = |s: Vec<(Family, u64)>| s.into_iter().map(|(f, _)| f).collect();
        sections.into_iter().map(families).collect()
    }

    #[test]
    fn shard_sink_routes_like_study_datasets() {
        let records = pooled(2_000);
        let segments = assert_routes_like_study_datasets(&records, &[64, 48, 48], None);
        // In memory, the shard is one segment: request, user, ip, the
        // prefix lengths ascending (duplicates and order collapse), pair.
        assert_eq!(segments.len(), 1);
        assert_eq!(
            segments[0],
            [
                Family::Request,
                Family::User,
                Family::Ip,
                Family::Prefix(48),
                Family::Prefix(64),
                Family::Pair
            ]
        );

        // Every length the config accepts, 0 through 128, in memory and
        // spilled: the memo keeps one prefix bit per length, whatever
        // the count.
        let lengths: Vec<u8> = (0..=128).rev().collect();
        assert_routes_like_study_datasets(&records, &lengths, None);
        let session = SpillSession::create(None).unwrap();
        let spilled = assert_routes_like_study_datasets(
            &records,
            &lengths,
            Some(SpillTarget {
                session: &session,
                shard: 0,
                attempt: 0,
                segment_rows: 256,
            }),
        );
        assert!(spilled.len() > 1, "spilled in several segments");
    }

    #[test]
    fn shard_sink_publishes_memory_telemetry() {
        let gauge = MemGauge::new();
        let published = AtomicU64::new(0);
        let mut sink = ShardSink::new(keep_all(), &[], true, None, Some((&gauge, &published)));
        for i in 0..10 {
            sink.push(rec(i, i as u32)).unwrap();
        }
        sink.publish_gauge();
        // 10 records × (abuse + request + user + ip) families × 12 bytes,
        // and a dictionary of one address (with its ASN and country) and
        // ten users.
        let dict = std::mem::size_of::<(u128, u32)>()
            + std::mem::size_of::<(Asn, Country)>()
            + 10 * std::mem::size_of::<(u64, u32)>();
        let staged = (10 * 4 * 12 + dict) as u64;
        assert_eq!(gauge.current(), staged);
        // The sealed segment is still held for the freeze: a header, a
        // table of five sections (pair too), the dictionary (a 22-byte v6
        // entry, ten 8-byte user keys) and the rows.
        let payload = sink.finish().unwrap();
        let sealed = (28 + 5 * 20 + 22 + 10 * 8 + 10 * 4 * 12) as u64;
        assert_eq!(gauge.current(), sealed);
        assert_eq!(gauge.peak(), staged.max(sealed));
        assert_eq!(payload.segments[0].bytes(), sealed);
    }

    /// A record that gives an address another (ASN, country) pair than
    /// the address's entry in the open segment fails its push with a
    /// typed, non-retryable `Attributes` error: on a memo hit (the
    /// memoized entry is compared) and after another address evicted the
    /// memo slot (the dictionary's entry is compared), in memory and
    /// spilled at 256 rows a segment.
    #[test]
    fn an_address_given_two_pairs_fails_the_shard() {
        let session = SpillSession::create(None).unwrap();
        let first = rec(1, 0);
        let then = RequestRecord {
            asn: Asn(64497),
            country: Country::new("DE"),
            ..rec(2, 1)
        };
        let slot = memo_slot(first.ip_key());
        let evicts = (0..)
            .map(|i| IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 + i)))
            .find(|&ip| memo_slot(crate::record::ip_key(ip)) == slot)
            .unwrap();
        let evicts = RequestRecord {
            ip: evicts,
            ..rec(3, 2)
        };
        for spill in [
            None,
            Some(SpillTarget {
                session: &session,
                shard: 0,
                attempt: 0,
                segment_rows: 256,
            }),
        ] {
            for rows in [vec![first, then], vec![first, evicts, evicts, then]] {
                let mut sink = ShardSink::new(keep_all(), &[64], false, spill, None);
                let (last, before) = rows.split_last().unwrap();
                for &r in before {
                    sink.push(r).unwrap();
                }
                let err = sink.push(*last).unwrap_err();
                assert_eq!(
                    err,
                    SpillError::Attributes {
                        ip: first.ip,
                        first: (Asn(64496), Country::new("US")),
                        then: (Asn(64497), Country::new("DE")),
                    }
                );
                assert!(!err.is_retryable());
                assert_eq!(
                    err.to_string(),
                    "address 2001:db8::1 came as AS64497/DE after AS64496/US: \
                     an address has one (ASN, country)"
                );
            }
        }
    }

    #[test]
    fn spill_backed_shard_sink_matches_memory_routing() {
        let session = SpillSession::create(None).unwrap();
        let samplers = Samplers::scaled_for(1_000);
        let records = pooled(3_000);

        let run = |spill: Option<SpillTarget<'_>>| {
            let mut sink = ShardSink::new(samplers.clone(), &[64], true, spill, None);
            for r in &records {
                sink.push(*r).unwrap();
            }
            sink.finish().unwrap()
        };
        let memory = run(None);
        let spilled = run(Some(SpillTarget {
            session: &session,
            shard: 0,
            attempt: 0,
            segment_rows: 128,
        }));
        assert_eq!(memory.records, spilled.records);
        assert_eq!(memory.segments.len(), 1);
        assert!(spilled.segments.len() > 1, "spilled in several segments");
        assert_eq!(memory.sealed.rows, spilled.sealed.rows);

        // The same rows freeze to the same columns either way.
        let records = |store: &crate::FrozenStore| store.all().records().collect::<Vec<_>>();
        let m = freeze_families(memory.segments, &[64]).unwrap().stores;
        let s = freeze_families(spilled.segments, &[64]).unwrap().stores;
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

    /// The push whose seal would take a spilled shard past the session's
    /// disk budget fails with a typed, non-retryable `Budget` error; the
    /// pushes before it, the first seal among them, succeed.
    #[test]
    fn the_push_whose_seal_exceeds_the_disk_budget_fails() {
        let records: Vec<RequestRecord> = (0..8).map(|i| rec(i, i as u32)).collect();
        // Four rows in the request family seal a segment.
        let target = |session| SpillTarget {
            session,
            shard: 0,
            attempt: 0,
            segment_rows: 4,
        };
        let unbounded = SpillSession::create(None).unwrap();
        let mut sink = ShardSink::new(keep_all(), &[], false, Some(target(&unbounded)), None);
        for &r in &records[..4] {
            sink.push(r).unwrap();
        }
        let first = sink.finish().unwrap().segments[0].bytes();

        let policy = SpillPolicy {
            disk_budget_bytes: Some(first), // exactly the first segment
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let mut sink = ShardSink::new(keep_all(), &[], false, Some(target(&session)), None);
        for &r in &records[..7] {
            sink.push(r).unwrap();
        }
        assert_eq!(session.stats().bytes_written, first);
        let err = sink.push(records[7]).unwrap_err();
        assert!(
            matches!(err, SpillError::Budget { budget_bytes, attempted_bytes }
                if budget_bytes == first && attempted_bytes > first),
            "{err:?}"
        );
        assert!(!err.is_retryable());
    }
}
