//! The freeze: every row reaches the frozen stores as a section of one
//! ordered list of dictionary-coded segments (see [`crate::segment`]).
//!
//! The list holds the history's day segments first (a state dir's, or
//! the ones an in-process extension encodes from the old study), then
//! each shard's emitted segments, shards in plan order and each shard's
//! in the order it sealed them. [`freeze_families`] turns it into one
//! [`FrozenStore`] per family in three steps:
//!
//! 1. **read** — the list is walked once. Every segment's dictionary is
//!    read, verified and interned once, each key on first sight into a
//!    provisional id and each address with its ASN and country, which
//!    gives the segment a local → provisional table; an entry whose pair
//!    disagrees with an earlier segment's fails the freeze. Every section
//!    of an emitted segment is read, verified and staged through that
//!    table into its family's exact-capacity staging columns (12 bytes a
//!    row), so no row is hashed, and the segment is dropped once staged;
//!    history segments stay for the gather;
//! 2. **intern** — the distinct keys are ranked once, which builds the
//!    shared [`EntityTables`] (each address with its ASN and country)
//!    and, per key family (v4, v6, user), a provisional → dense id remap;
//!    each history segment's local → dense tables follow from it;
//! 3. **gather** — per family, exact-size frozen columns take the
//!    history sections first, read one by one, verified and mapped
//!    through their segment's local → dense tables. Then the stable LSB
//!    radix argsort of the staged timestamps orders the emitted rows,
//!    and every staged column is gathered through it (ids through the
//!    remap) after them, and dropped once gathered.
//!
//! # Determinism (stable sort of the plan-order concatenation)
//!
//! A family's canonical order is a *stable* sort by timestamp of its
//! rows in emission order, with shards concatenated in plan order. A
//! shard's segments partition its emission stream contiguously and keep
//! its order, so reading a family's emitted sections in list order
//! stages exactly that concatenation — however the rows were split into
//! segments. The gather's argsort is stable, so it reproduces the
//! canonical order exactly.
//!
//! History sections hold canonical rows of strictly earlier days than
//! the newly simulated ones, so they skip the sort altogether: they are
//! gathered as they lie, ahead of a family's emitted rows, which the
//! gather licenses by checking that every history row lies inside its
//! segment's day, that the history never goes back in time, and that the
//! first sorted emitted row is not earlier than the history's last.
//!
//! Intern tables depend only on the distinct key *sets* (the ranking
//! sorts them), so the tables and every dense id are the same for any
//! split of the same rows into segments and any read order. Damaged
//! bytes, and a dictionary entry that gives an address another pair than
//! an earlier segment did, fail the freeze with a typed
//! [`SpillError::Corrupt`] naming the file, section and offset; they
//! never reach a figure, and nothing here panics.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::columns::ColumnStore;
use crate::intern::{rank_keys, EntityTables, Interner, IpId, IpTable, LocalIds, UserTable};
use crate::segment::{Section, Segment};
use crate::spill::SpillError;
use crate::store::FrozenStore;
use crate::time::Timestamp;

/// One dataset family: the key of a [`Families`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Record random sample.
    Request,
    /// User random sample.
    User,
    /// IP random sample.
    Ip,
    /// The IPv6 prefix random sample of one length.
    Prefix(u8),
    /// Full-fidelity abuse stream.
    Abuse,
    /// Full-fidelity pair-window stream.
    Pair,
}

/// One value per dataset family: what the freeze stages per family, and
/// the frozen stores it produces.
#[derive(Debug, Default)]
pub struct Families<T> {
    /// Record random sample (§3.1).
    pub request: T,
    /// User random sample (§3.1).
    pub user: T,
    /// IP random sample (§3.1).
    pub ip: T,
    /// Per-length IPv6 prefix random samples.
    pub prefixes: BTreeMap<u8, T>,
    /// Full-fidelity abuse stream.
    pub abuse: T,
    /// Full-fidelity pair-window stream (the last study days).
    pub pair: T,
}

impl<T> Families<T> {
    /// Applies `f` to every family in turn (request, user, ip, prefixes
    /// by ascending length, abuse, pair), stopping at the first error.
    pub fn try_map<U, E>(self, mut f: impl FnMut(T) -> Result<U, E>) -> Result<Families<U>, E> {
        Ok(Families {
            request: f(self.request)?,
            user: f(self.user)?,
            ip: f(self.ip)?,
            prefixes: self
                .prefixes
                .into_iter()
                .map(|(len, v)| Ok((len, f(v)?)))
                .collect::<Result<_, E>>()?,
            abuse: f(self.abuse)?,
            pair: f(self.pair)?,
        })
    }

    /// Applies `f` to every family in turn.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Families<U> {
        let mapped: Result<_, Infallible> = self.try_map(|v| Ok(f(v)));
        mapped.unwrap_or_else(|never| match never {})
    }

    /// Every family, in the order [`Families::try_map`] visits them.
    pub fn keys(&self) -> Vec<Family> {
        let mut keys = vec![Family::Request, Family::User, Family::Ip];
        keys.extend(self.prefixes.keys().map(|&len| Family::Prefix(len)));
        keys.extend([Family::Abuse, Family::Pair]);
        keys
    }
}

impl<T: Default> Families<T> {
    /// Empty values, with one prefix family per length in
    /// `prefix_lengths`.
    pub fn new(prefix_lengths: &[u8]) -> Self {
        Self {
            prefixes: prefix_lengths.iter().map(|&l| (l, T::default())).collect(),
            ..Self::default()
        }
    }

    /// The value of `family`; a prefix length not yet present starts
    /// empty.
    pub fn family_mut(&mut self, family: Family) -> &mut T {
        match family {
            Family::Request => &mut self.request,
            Family::User => &mut self.user,
            Family::Ip => &mut self.ip,
            Family::Prefix(len) => self.prefixes.entry(len).or_default(),
            Family::Abuse => &mut self.abuse,
            Family::Pair => &mut self.pair,
        }
    }
}

/// What [`freeze_families`] produces: one frozen store per family over
/// shared intern tables, and what each of its steps measured.
#[derive(Debug)]
pub struct FrozenFamilies {
    /// The frozen stores, timestamp-sorted and densely encoded.
    pub stores: Families<FrozenStore>,
    /// The intern tables every store is encoded against.
    pub tables: Arc<EntityTables>,
    /// Rows frozen.
    pub rows: u64,
    /// Rows the read staged: every emitted segment's.
    pub staged: u64,
    /// Wall of the verified read, which interns every segment dictionary
    /// and stages every emitted section.
    pub read_wall: Duration,
    /// Wall of ranking the distinct keys into the tables and remaps.
    pub intern_wall: Duration,
    /// Wall of gathering every family: the history sections as they lie,
    /// then the staged rows in radix order.
    pub gather_wall: Duration,
}

/// One family after the read: its history sections, as (history slot,
/// section index) in list order, and its emitted rows, staged.
#[derive(Debug, Default)]
struct Staged {
    sections: Vec<(usize, usize)>,
    cols: ColumnStore,
}

/// Freezes `segments` — history first, then every shard's emitted
/// segments in plan order — into timestamp-sorted, densely encoded
/// stores over one set of shared intern tables, one per family of
/// `prefix_lengths`' family set: one verified read, one ranking of the
/// distinct keys, one gather per family (see the module docs).
///
/// The stores equal a [`RequestStore`](crate::RequestStore) stable sort
/// of each family's rows in list order, encoded against
/// [`EntityTables::build`] over every family's rows, provided the history
/// segments come first in the list. A segment that fails verification
/// fails the freeze, and so do history sections whose rows would not be
/// in order as they lie.
pub fn freeze_families(
    segments: Vec<Segment>,
    prefix_lengths: &[u8],
) -> Result<FrozenFamilies, SpillError> {
    let t_read = Instant::now();
    // Every emitted section's row count is known up front, so no staging
    // column ever grows.
    let mut rows = Families::<usize>::new(prefix_lengths);
    for segment in segments.iter().filter(|s| !s.is_history()) {
        for (family, n) in segment.sections() {
            *rows.family_mut(family) += n as usize;
        }
    }
    let mut staged_rows = 0u64;
    let mut families = rows.map(|n| {
        staged_rows += n as u64;
        Staged {
            sections: Vec::new(),
            cols: ColumnStore::with_capacity(n),
        }
    });
    let mut interner = Interner::default();
    let mut history = Vec::new();
    let mut buf = Vec::new();
    for segment in segments {
        let dict = segment.read_dictionary(&mut buf)?;
        let ids = (interner.intern_dictionary(&dict)).map_err(|c| segment.conflict(&dict, c))?;
        if segment.is_history() {
            for (index, (family, _)) in segment.sections().enumerate() {
                (families.family_mut(family).sections).push((history.len(), index));
            }
            history.push((segment, ids));
            continue;
        }
        for (index, (family, _)) in segment.sections().enumerate() {
            let section = segment.read_section(index, &mut buf)?;
            let cols = &mut families.family_mut(family).cols;
            cols.ts.extend(section.ts());
            section.ips(&ids.v4, &ids.v6, &mut cols.ip)?;
            section.users(&ids.users, &mut cols.user)?;
        }
        segment.verified();
    }
    let read_wall = t_read.elapsed();

    let t_intern = Instant::now();
    let (tables, remap) = rank(interner);
    let tables = Arc::new(tables);
    let history: Vec<(Segment, LocalIds)> = history
        .into_iter()
        .map(|(segment, ids)| (segment, remap.densify(ids)))
        .collect();
    let intern_wall = t_intern.elapsed();

    let t_gather = Instant::now();
    let mut rows = 0u64;
    let stores = families.try_map(|staged| {
        let store = remap.gather(staged, &history, &mut buf, &tables)?;
        rows += store.len() as u64;
        Ok(store)
    })?;
    Ok(FrozenFamilies {
        stores,
        tables,
        rows,
        staged: staged_rows,
        read_wall,
        intern_wall,
        gather_wall: t_gather.elapsed(),
    })
}

/// Ranks every key family's distinct keys once: the shared tables, and
/// the remap from provisional to dense ids.
fn rank(mut interner: Interner) -> (EntityTables, Remap) {
    let (v4, v4_attrs, v4_dense) = interner.v4.drain_ranked();
    let (v6, v6_attrs, v6_dense) = interner.v6.drain_ranked();
    let (users, user_dense) = rank_keys(interner.users.into_iter());
    // The tables index each key family's distinct keys in ascending
    // order, so a key's rank is its dense index.
    let ips = v4_dense
        .iter()
        .map(|&d| IpId::new(false, d as usize))
        .chain(v6_dense.iter().map(|&d| IpId::new(true, d as usize)))
        .collect();
    let tables = EntityTables {
        ips: IpTable::from_sorted(v4, v6, v4_attrs, v6_attrs),
        users: UserTable::from_keys(users),
    };
    let remap = Remap {
        ips,
        v6_base: v4_dense.len(),
        users: user_dense,
    };
    (tables, remap)
}

/// Provisional → dense ids: the v4 family's dense address ids, then the
/// v6 family's from `v6_base`, and the dense user ids.
#[derive(Debug)]
struct Remap {
    ips: Vec<IpId>,
    v6_base: usize,
    users: Vec<u32>,
}

impl Remap {
    /// The dense id of a provisional address id.
    fn ip(&self, id: IpId) -> IpId {
        self.ips[id.index() + usize::from(id.is_v6()) * self.v6_base]
    }

    /// A segment's local → dense tables, from its local → provisional
    /// ones.
    fn densify(&self, ids: LocalIds) -> LocalIds {
        LocalIds {
            v4: ids.v4.into_iter().map(|id| self.ip(id)).collect(),
            v6: ids.v6.into_iter().map(|id| self.ip(id)).collect(),
            users: ids
                .users
                .into_iter()
                .map(|u| self.users[u as usize])
                .collect(),
        }
    }

    /// One family's frozen store: its history sections as they lie, each
    /// verified and mapped through its segment's local → dense tables,
    /// then its staged rows in canonical order — the stable radix argsort
    /// of the staged timestamps, every column gathered through it with
    /// ids through the remap. All columns are exactly sized; each staged
    /// column is dropped once gathered.
    ///
    /// The history rows must lie inside their segment's day and never go
    /// back in time, and the first staged row in order must not precede
    /// the history's last, or the gather fails: that is what makes
    /// skipping the sort of the history exact.
    fn gather(
        &self,
        staged: Staged,
        history: &[(Segment, LocalIds)],
        buf: &mut Vec<u8>,
        tables: &Arc<EntityTables>,
    ) -> Result<FrozenStore, SpillError> {
        let Staged {
            sections,
            cols: rest,
        } = staged;
        let history_rows: u64 = sections
            .iter()
            .map(|&(slot, index)| history[slot].0.section_rows(index))
            .sum();
        // History sections fill all three columns at once, so those start
        // at their final size. Otherwise each column is allocated as it
        // is gathered, after the staged column before it was dropped,
        // which keeps the freeze's heap smaller.
        let mut cols = if sections.is_empty() {
            ColumnStore::default()
        } else {
            ColumnStore::with_capacity(history_rows as usize + rest.len())
        };
        let mut last: Option<LastRow> = None;
        for &(slot, index) in &sections {
            let (segment, ids) = &history[slot];
            let section = segment.read_section(index, buf)?;
            let start = cols.len();
            cols.ts.extend(section.ts());
            section.ips(&ids.v4, &ids.v6, &mut cols.ip)?;
            section.users(&ids.users, &mut cols.user)?;
            check_in_order(&section, slot, index, &cols.ts[start..], &mut last)?;
        }

        let perm = crate::kernels::radix_sort_perm_u32(&rest.ts);
        if let (Some(last), Some(&first)) = (last, perm.first()) {
            let first = rest.ts[first as usize];
            if first < last.ts {
                let segment = &history[last.slot].0;
                return Err(segment.corrupt(
                    last.index + 1,
                    segment.ts_offset(last.index, last.row),
                    format!(
                        "history row at {} is later than the first new row at {first}",
                        last.ts
                    ),
                ));
            }
        }
        let ColumnStore { ts, ip, user } = rest;
        gather_into(&perm, ts, &mut cols.ts, |ts| ts);
        gather_into(&perm, ip, &mut cols.ip, |id| self.ip(id));
        gather_into(&perm, user, &mut cols.user, |u| self.users[u as usize]);
        Ok(FrozenStore::from_sorted_parts(cols, Arc::clone(tables)))
    }
}

/// `col` permuted by `perm` through `f`, appended to `out` (grown to
/// exactly fit); `col` is dropped on return.
fn gather_into<T: Copy, U>(perm: &[u32], col: Vec<T>, out: &mut Vec<U>, f: impl Fn(T) -> U) {
    out.reserve_exact(perm.len());
    out.extend(perm.iter().map(|&i| f(col[i as usize])));
}

/// The last history row a family's gather has taken, and where it lies.
#[derive(Debug, Clone, Copy)]
struct LastRow {
    ts: Timestamp,
    slot: usize,
    index: usize,
    row: usize,
}

/// Checks the timestamps `ts` that section `index` of the history
/// segment in `slot` just gave a family: each inside the segment's day,
/// and none earlier than the family's history row before it.
fn check_in_order(
    section: &Section<'_>,
    slot: usize,
    index: usize,
    ts: &[Timestamp],
    last: &mut Option<LastRow>,
) -> Result<(), SpillError> {
    let bounds = section.day_bounds();
    for (row, &t) in ts.iter().enumerate() {
        let reason = match (bounds, *last) {
            (Some((lo, hi)), _) if t < lo || t > hi => Some(format!(
                "row timestamp {t} lies outside the day {lo} – {hi}"
            )),
            (_, Some(prev)) if t < prev.ts => Some(format!(
                "row timestamp {t} precedes the history row before it at {}",
                prev.ts
            )),
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(section.corrupt_ts(row, reason));
        }
        *last = Some(LastRow {
            ts: t,
            slot,
            index,
            row,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{ColumnSlice, OwnedColumns};
    use crate::ids::{Asn, Country, UserId};
    use crate::record::RequestRecord;
    use crate::sink::{Sealer, SpillTarget};
    use crate::spill::SpillSession;
    use crate::store::RequestStore;
    use crate::time::SimDate;
    use ipv6_study_stats::testgen::TestGen;
    use std::net::IpAddr;

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    /// Seals `records`, each kept by the families at its indices into
    /// `families`, through a shard's sealer: in memory when `session` is
    /// `None` (one segment), else spilled under `(shard, attempt 0)` with
    /// a seal whenever a family stages `segment_rows` rows.
    fn seal(
        session: Option<&SpillSession>,
        shard: usize,
        segment_rows: usize,
        families: &[Family],
        records: &[(RequestRecord, Vec<usize>)],
    ) -> Vec<Segment> {
        let target = session.map(|session| SpillTarget {
            session,
            shard,
            attempt: 0,
            segment_rows,
        });
        let mut sealer = Sealer::new(families.to_vec(), target);
        for (r, kept) in records {
            if !kept.is_empty() {
                let ids = sealer.intern(r).unwrap();
                for &k in kept {
                    sealer.keep(k, r, ids);
                }
            }
            sealer.end_record().unwrap();
        }
        sealer.seal().unwrap();
        sealer.into_segments()
    }

    /// `records` as the request family's only rows.
    fn requests(records: &[RequestRecord]) -> Vec<(RequestRecord, Vec<usize>)> {
        records.iter().map(|&r| (r, vec![0])).collect()
    }

    /// Two shards with ties across and within both, each split into
    /// several segments, freeze to exactly the stable sort of their
    /// plan-order concatenation — held in memory or spilled — and the one
    /// verified read counts every spilled byte once.
    #[test]
    fn freeze_reproduces_the_stable_concatenation_sort() {
        let shard_a = vec![
            rec(1, 10, "2001:db8::1"),
            rec(2, 5, "2001:db8::2"),
            rec(3, 10, "10.0.0.1"), // ties with user 1
            rec(4, 1, "2001:db8::3"),
            rec(5, 10, "2001:db8::4"), // crosses a segment boundary
        ];
        let shard_b = vec![rec(6, 10, "10.0.0.2"), rec(7, 0, "2001:db8::5")];
        let mut reference = RequestStore::new();
        for &r in shard_a.iter().chain(shard_b.iter()) {
            reference.push(r);
        }

        let session = SpillSession::create(None).unwrap();
        for spill in [None, Some(&session)] {
            let mut segments = seal(spill, 0, 3, &[Family::Request], &requests(&shard_a));
            segments.extend(seal(spill, 1, 3, &[Family::Request], &requests(&shard_b)));
            let expected = if spill.is_some() { 3 } else { 2 };
            assert_eq!(segments.len(), expected);
            let bytes: u64 = segments.iter().map(Segment::bytes).sum();
            let frozen = freeze_families(segments, &[]).unwrap();
            assert_eq!((frozen.rows, frozen.staged), (7, 7));
            let frozen = frozen.stores.request;
            assert_eq!(
                frozen.all().records().collect::<Vec<_>>(),
                reference.all(),
                "the freeze must equal the stable concatenation sort (spill: {})",
                spill.is_some()
            );
            // Frozen columns are exactly sized (the bytes() contract).
            assert_eq!(frozen.bytes(), frozen.len() * 12);
            if spill.is_some() {
                assert_eq!(session.stats().bytes_verified, bytes);
            }
        }
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// A history day segment encoded in memory, an empty one and an
    /// emitted segment freeze together: the history precedes the emitted
    /// rows and empty sections change nothing.
    #[test]
    fn history_and_empty_segments_freeze_with_emitted_ones() {
        let day = SimDate::ymd(4, 13);
        let early: Vec<RequestRecord> = (0..4).map(|i| rec(i, i as u32, "10.0.0.1")).collect();
        let late: Vec<RequestRecord> = (0..3)
            .map(|i| rec(i + 9, 86_400 + i as u32, "2001:db8::9"))
            .collect();
        let history = {
            let mut s = RequestStore::new();
            early.iter().for_each(|&r| s.push(r));
            s.freeze()
        };
        let tables = Arc::clone(history.tables());
        let none = ColumnSlice::empty(&tables);
        let path = std::path::Path::new("days/day103.seg");
        let mut segments = vec![
            Segment::encoded(path, day, &tables, &[(Family::Request, history.all())]).unwrap(),
            Segment::encoded(path, day, &tables, &[(Family::Request, none)]).unwrap(),
        ];
        assert!(segments.iter().all(Segment::is_history));
        segments.extend(seal(None, 0, 2, &[Family::Request], &requests(&late)));
        let frozen = freeze_families(segments, &[]).unwrap();
        assert_eq!((frozen.rows, frozen.staged), (7, 3));
        let expected: Vec<RequestRecord> = early.iter().chain(&late).copied().collect();
        assert_eq!(
            frozen.stores.request.all().records().collect::<Vec<_>>(),
            expected
        );
    }

    /// An address that two segments give different (ASN, country) pairs
    /// fails the freeze with a typed `Corrupt` naming the later segment's
    /// file, its dictionary (run 0) and the byte offset of the entry's
    /// pair: across two seals of one spilled shard, across two shards'
    /// in-memory segments, and across two history days on disk.
    #[test]
    fn an_address_given_two_pairs_by_two_segments_fails_the_freeze() {
        let other_pair = |r: RequestRecord, secs: u32| RequestRecord {
            ts: Timestamp::from_secs(r.ts.secs() + secs),
            asn: Asn(64497),
            country: Country::new("DE"),
            ..r
        };
        let first = rec(1, 0, "2001:db8::7");
        let then = other_pair(first, 2);
        let v4 = rec(2, 1, "10.0.0.9");
        let v4_then = other_pair(v4, 3);
        let expect = |segments: Vec<Segment>, path: &std::path::Path, at: u64, why: &str| {
            let got = freeze_families(segments, &[]);
            let Err(SpillError::Corrupt {
                path: p,
                run: 0,
                offset,
                reason,
            }) = got
            else {
                panic!("expected Corrupt, got {got:?}");
            };
            assert_eq!((p.as_path(), offset), (path, at), "{reason}");
            assert_eq!(reason, why);
        };
        // The later segment's dictionary follows its header and one-entry
        // table; a v6 entry's pair follows the v4 entries (10 B each) and
        // its 16-byte key, a v4 entry's its 4-byte key.
        let (v6_at, v4_at) = (28 + 20 + 10 + 16, 28 + 20 + 4);
        let v6_why = "dictionary v6 entry 0 gives 2001:db8::7 AS64497/DE, \
                      but an earlier segment gave it AS64496/US";
        let v4_why = "dictionary v4 entry 0 gives 10.0.0.9 AS64497/DE, \
                      but an earlier segment gave it AS64496/US";

        // Two seals of one spilled shard, two rows a segment.
        let session = SpillSession::create(None).unwrap();
        let rows = requests(&[first, v4, v4, then]);
        let segments = seal(Some(&session), 3, 2, &[Family::Request], &rows);
        assert_eq!(segments.len(), 2);
        let base = segments[0].bytes();
        let path = session.dir().join("s00003-a00.seg");
        expect(segments, &path, base + v6_at, v6_why);

        // Two shards, each one segment in memory.
        let mut segments = seal(None, 0, usize::MAX, &[Family::Request], &requests(&[first]));
        let rows = requests(&[v4, then]);
        segments.extend(seal(None, 1, usize::MAX, &[Family::Request], &rows));
        expect(segments, "in-memory segment 0".as_ref(), v6_at, v6_why);

        // Two history days on disk.
        let dir = std::env::temp_dir().join(format!("ipv6-run-pairs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut segments = Vec::new();
        for (d, rows) in [(0, vec![v4]), (1, vec![v4_then, first])] {
            let day = SimDate::ymd(4, 13) + d;
            let ts = day.at(0, 0, 0);
            let rows: Vec<RequestRecord> = rows
                .into_iter()
                .map(|r| RequestRecord { ts, ..r })
                .collect();
            let store = OwnedColumns::from_records(&rows);
            let path = dir.join(format!("day{d}.seg"));
            let slice = store.as_slice();
            crate::segment::write_segment(&path, slice.tables(), &[(Family::Request, slice)])
                .unwrap();
            segments.push(Segment::open(&path, day, &[Family::Request]).unwrap());
        }
        expect(segments, &dir.join("day1.seg"), v4_at, v4_why);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A random row on `day`: few users and addresses, each address with
    /// its own ASN and country, and timestamps piled on the day's first
    /// and last seconds and on a coarse grid between, so ties are heavy;
    /// `v4` and `v6` say which address families may appear.
    fn random_row(g: &mut TestGen, day: SimDate, v4: bool, v6: bool) -> RequestRecord {
        let sec = match g.below(4) {
            0 => 0,
            1 => 86_399,
            _ => g.below(8) as u32 * 10_800,
        };
        let ip = if v4 && (!v6 || g.below(3) == 0) {
            IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 | g.below(12) as u32))
        } else {
            IpAddr::from(std::net::Ipv6Addr::from(
                0x2001_0db8_u128 << 96 | u128::from(g.below(4)) << 64 | u128::from(g.below(9)),
            ))
        };
        let (asn, country) = crate::record::test_attrs(ip);
        RequestRecord {
            ts: Timestamp::from_secs(day.start().secs() + sec),
            user: UserId(g.below(30) << 40 | g.below(3)),
            ip,
            asn,
            country,
        }
    }

    /// The reference freeze of `rows` (each family's rows in list order):
    /// a `RequestStore` stable sort per family, encoded against
    /// `EntityTables::from_records` over every family with `freeze_with`.
    fn reference(rows: &[Vec<RequestRecord>]) -> (Arc<EntityTables>, Vec<FrozenStore>) {
        let all: Vec<RequestRecord> = rows.iter().flatten().copied().collect();
        let tables = Arc::new(EntityTables::from_records(&all));
        let stores = rows
            .iter()
            .map(|rows| {
                let mut store = RequestStore::new();
                rows.iter().for_each(|&r| store.push(r));
                store.freeze_with(Arc::clone(&tables))
            })
            .collect();
        (tables, stores)
    }

    /// Checks `got` against the reference freeze of `rows`, family by
    /// family in `Families` order: tables, every column, exact sizes.
    fn assert_reference(got: FrozenFamilies, rows: &[Vec<RequestRecord>], case: usize) {
        let (tables, want) = reference(rows);
        assert_eq!(*got.tables, *tables, "case {case}: tables");
        let total: usize = rows.iter().map(Vec::len).sum();
        assert_eq!(got.rows, total as u64, "case {case}: rows");
        let mut k = 0;
        got.stores.map(|store| {
            assert_eq!(store.all(), want[k].all(), "case {case}, family {k}");
            assert_eq!(
                store.bytes(),
                store.len() * 12,
                "case {case}: exact columns"
            );
            k += 1;
        });
        assert_eq!(k, rows.len(), "case {case}: families");
    }

    /// The freeze equals the reference — a `RequestStore` stable sort of
    /// each family's rows in list order, encoded against
    /// `EntityTables::from_records` over every family with `freeze_with`
    /// — for in-memory history segments followed by random shards sealed
    /// by the sink's sealer, in memory or spilled at a random
    /// `segment_rows` from 1 to `usize::MAX`. Shards may be empty, v4-only
    /// or v6-only, families may stay empty, a record may be kept by
    /// several families or none, and timestamps tie heavily.
    #[test]
    fn freeze_equals_the_reference_over_random_runs_from_every_source() {
        let session = SpillSession::create(None).unwrap();
        let mut g = TestGen::new(0x4652_5A31); // "FRZ1"
        let families = Families::<()>::new(&[48, 64]).keys();
        let history_days = [SimDate::ymd(4, 11), SimDate::ymd(4, 12)];
        let mut shards = 0;
        let mut spilled_bytes = 0;
        for case in 0..40 {
            let mut rows: Vec<Vec<RequestRecord>> = vec![Vec::new(); families.len()];
            let mut segments = Vec::new();
            // History: some days of canonical rows per family.
            for &day in &history_days[..g.below(3) as usize] {
                let day_rows: Vec<Vec<RequestRecord>> = families
                    .iter()
                    .map(|_| {
                        let n = g.below(12) as usize;
                        let mut r = g.vec_of(n, |g| random_row(g, day, true, true));
                        r.sort_by_key(|r| r.ts);
                        r
                    })
                    .collect();
                let (tables, stores) = reference(&day_rows);
                let sections: Vec<_> = families
                    .iter()
                    .zip(&stores)
                    .map(|(&f, s)| (f, s.all()))
                    .collect();
                let path = std::path::Path::new("history.seg");
                segments.push(Segment::encoded(path, day, &tables, &sections).unwrap());
                for (k, r) in day_rows.into_iter().enumerate() {
                    rows[k].extend(r);
                }
            }
            // Shards on the two days after the history.
            for _ in 0..g.below(5) {
                shards += 1;
                let (v4, v6) = [(true, true), (true, false), (false, true)][g.below(3) as usize];
                let n = [0, 1, 5, 40][g.below(4) as usize];
                let records: Vec<(RequestRecord, Vec<usize>)> = g.vec_of(n, |g| {
                    let day = SimDate::ymd(4, 13 + g.below(2) as u8);
                    let r = random_row(g, day, v4, v6);
                    let kept = (0..families.len()).filter(|_| g.below(3) == 0).collect();
                    (r, kept)
                });
                for (r, kept) in &records {
                    kept.iter().for_each(|&k| rows[k].push(*r));
                }
                let segment_rows = match g.below(4) {
                    0 => usize::MAX,
                    1 => 1 + g.below(3) as usize,
                    _ => 1 + g.below(12) as usize,
                };
                let spill = (g.below(2) == 0).then_some(&session);
                let sealed = seal(spill, shards, segment_rows, &families, &records);
                if spill.is_some() {
                    spilled_bytes += sealed.iter().map(Segment::bytes).sum::<u64>();
                }
                segments.extend(sealed);
            }
            let got = freeze_families(segments, &[48, 64]).unwrap();
            assert_reference(got, &rows, case);
            assert_eq!(session.stats().bytes_verified, spilled_bytes, "read once");
        }
        assert!(spilled_bytes > 0);
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// Random multi-day histories written as day segments by the state
    /// dir's writer and opened from disk, then frozen with memory and
    /// spilled emitted segments, equal the reference freeze of the same
    /// rows: tables, every column, and exact column sizes. Histories
    /// include empty sections and empty days, v4-only and v6-only days, a
    /// pair family that covers only the last days, ties at both day
    /// boundaries, and emitted rows tied with the history's last second.
    #[test]
    fn segment_histories_freeze_like_the_reference() {
        use crate::segment::write_segment;
        let session = SpillSession::create(None).unwrap();
        let dir = std::env::temp_dir().join(format!("ipv6-run-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut g = TestGen::new(0x5345_4731); // "SEG1"
        let first = SimDate::ymd(4, 6);
        let families = Families::<()>::new(&[48, 64]).keys();
        let main: Vec<Family> = families
            .iter()
            .copied()
            .filter(|&f| f != Family::Pair)
            .collect();
        let mut shards = 0;
        for case in 0..30 {
            let days = g.below(6) as u16;
            let pair_days = g.below(3) as u16;
            let in_pair = |d: u16| d + pair_days >= days;
            // Each family's history rows, day by day in canonical order.
            let mut rows: Vec<Vec<RequestRecord>> = vec![Vec::new(); families.len()];
            for d in 0..days {
                let day = first + d;
                let (v4, v6) = [(true, true), (true, false), (false, true)][g.below(3) as usize];
                let empty_day = g.below(5) == 0;
                for (k, &family) in families.iter().enumerate() {
                    if family == Family::Pair && !in_pair(d) {
                        continue;
                    }
                    let n = if empty_day || g.below(4) == 0 {
                        0
                    } else {
                        g.below(30)
                    };
                    let mut day_rows = g.vec_of(n as usize, |g| random_row(g, day, v4, v6));
                    day_rows.sort_by_key(|r| r.ts);
                    rows[k].extend(day_rows);
                }
            }
            let (tables, stores) = reference(&rows);
            let store =
                |family: Family| &stores[families.iter().position(|&f| f == family).unwrap()];

            let mut segments = Vec::new();
            for d in 0..days {
                let day = first + d;
                let mut write = |name: String, fams: &[Family]| {
                    let path = dir.join(name);
                    let sections: Vec<_> =
                        fams.iter().map(|&f| (f, store(f).on_day(day))).collect();
                    write_segment(&path, &tables, &sections).unwrap();
                    segments.push(Segment::open(&path, day, fams).unwrap());
                };
                write(format!("case{case}-day{d}.seg"), &main);
                if in_pair(d) {
                    write(format!("case{case}-day{d}.pair.seg"), &[Family::Pair]);
                }
            }

            // Emitted shards: unsorted rows on the two days after the
            // history or on the last history day's last second.
            for _ in 0..g.below(3) {
                let n = g.below(25) as usize;
                let records: Vec<(RequestRecord, Vec<usize>)> = g.vec_of(n, |g| {
                    let r = if days > 0 && g.below(5) == 0 {
                        let last = first + (days - 1);
                        RequestRecord {
                            ts: Timestamp::from_secs(last.start().secs() + 86_399),
                            ..random_row(g, last, true, true)
                        }
                    } else {
                        let day = first + days + g.below(2) as u16;
                        random_row(g, day, true, true)
                    };
                    let kept = (0..families.len()).filter(|_| g.below(2) == 0).collect();
                    (r, kept)
                });
                for (r, kept) in &records {
                    kept.iter().for_each(|&k| rows[k].push(*r));
                }
                shards += 1;
                let spill = (g.below(2) == 0).then_some(&session);
                let segment_rows = 1 + g.below(8) as usize;
                segments.extend(seal(spill, shards, segment_rows, &families, &records));
            }

            let got = freeze_families(segments, &[48, 64]).unwrap();
            assert_reference(got, &rows, case);
        }
        assert_eq!(session.stats().checksum_failures, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
