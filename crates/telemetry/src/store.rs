//! Request stores: the row-format [`RequestStore`] and the frozen,
//! columnar [`FrozenStore`] every analysis reads.
//!
//! A [`RequestStore`] holds one dataset's records as rows for tests and
//! ad-hoc pipelines; it sorts lazily on first query and then serves
//! date-range slices by binary search. The study itself builds its
//! [`FrozenStore`]s from segments (see [`crate::run`]).

use std::sync::Arc;

use crate::columns::{ColumnSlice, ColumnStore};
use crate::intern::EntityTables;
use crate::record::RequestRecord;
use crate::time::{DateRange, SimDate};
use crate::UserId;

/// A sorted collection of request records.
#[derive(Debug, Clone, Default)]
pub struct RequestStore {
    records: Vec<RequestRecord>,
    sorted: bool,
}

impl RequestStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: RequestRecord) {
        self.records.push(rec);
        self.sorted = false;
    }

    /// Iterates the records in raw (unsorted) arrival order — for building
    /// intern tables before freezing, where order is irrelevant.
    pub fn iter_unordered(&self) -> impl Iterator<Item = &RequestRecord> + Clone {
        self.records.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sorts records by timestamp (stable w.r.t. equal timestamps). Called
    /// automatically by queries; exposed for explicit pre-sorting. Runs as
    /// a stable LSB radix permutation over the packed timestamp seconds —
    /// the same order `sort_by_key(|r| r.ts)` produced, at counting-sort
    /// cost (see [`crate::kernels`]).
    pub fn ensure_sorted(&mut self) {
        if !self.sorted {
            crate::kernels::radix_sort_records_by_ts(&mut self.records);
            self.sorted = true;
        }
    }

    /// All records, time-ordered.
    pub fn all(&mut self) -> &[RequestRecord] {
        self.ensure_sorted();
        &self.records
    }

    /// The records whose timestamps fall inside `range` (inclusive days).
    pub fn in_range(&mut self, range: DateRange) -> &[RequestRecord] {
        self.ensure_sorted();
        let (lo_ts, hi_ts) = range.ts_bounds();
        let lo = self.records.partition_point(|r| r.ts < lo_ts);
        let hi = self.records.partition_point(|r| r.ts <= hi_ts);
        &self.records[lo..hi]
    }

    /// The records on one day.
    pub fn on_day(&mut self, day: SimDate) -> &[RequestRecord] {
        self.in_range(DateRange::single(day))
    }

    /// The distinct users appearing in a record slice, ascending — a
    /// radix sort over the raw ids followed by an in-place dedup
    /// (identical output to the old `sort_unstable` + `dedup`: the keys
    /// are plain integers, so any correct sort agrees).
    pub fn distinct_users(records: &[RequestRecord]) -> Vec<UserId> {
        let mut v: Vec<u64> = records.iter().map(|r| r.user.0).collect();
        crate::kernels::radix_sort_u64(&mut v);
        v.dedup();
        v.into_iter().map(UserId).collect()
    }

    /// Consumes the store into an immutable, pre-sorted, **columnar**
    /// [`FrozenStore`] encoded against intern tables built over this store
    /// alone — the convenience path for tests and standalone stores.
    pub fn freeze(self) -> FrozenStore {
        let tables = Arc::new(EntityTables::build(self.records.iter()));
        self.freeze_with(tables)
    }

    /// Consumes the store into a columnar [`FrozenStore`] encoded against
    /// shared intern tables. Every address and user in this store must be
    /// interned in `tables`.
    pub fn freeze_with(mut self, tables: Arc<EntityTables>) -> FrozenStore {
        self.ensure_sorted();
        let cols = ColumnStore::encode(self.records.iter(), &tables);
        FrozenStore { cols, tables }
    }
}

/// An immutable, timestamp-sorted, columnar view of a completed dataset.
///
/// Freezing transposes timestamp-sorted rows into interned
/// struct-of-arrays columns — 12 bytes/row instead of the 40-byte
/// `RequestRecord`, each address's ASN and country held once in the
/// shared address table. Range queries are binary searches over the
/// timestamp column returning [`ColumnSlice`] windows over `&self`, safe
/// to share across the parallel analysis engine's worker threads; rows
/// rematerialize lazily through [`ColumnSlice::records`], byte-for-byte
/// what the thawed store would have returned.
#[derive(Debug, Clone, Default)]
pub struct FrozenStore {
    cols: ColumnStore,
    tables: Arc<EntityTables>,
}

impl FrozenStore {
    /// Assembles a frozen store from already-sorted, already-encoded
    /// columns — the freeze's entry point, which orders and encodes
    /// its columns itself (see [`crate::run`]). The columns must be
    /// timestamp-sorted (debug-asserted) and encoded against `tables`.
    pub fn from_sorted_parts(cols: ColumnStore, tables: Arc<EntityTables>) -> Self {
        debug_assert!(
            cols.ts.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted_parts requires timestamp-sorted columns"
        );
        Self { cols, tables }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// All records, time-ordered.
    pub fn all(&self) -> ColumnSlice<'_> {
        self.cols.slice(0..self.cols.len(), &self.tables)
    }

    /// The records whose timestamps fall inside `range` (inclusive days).
    pub fn in_range(&self, range: DateRange) -> ColumnSlice<'_> {
        self.cols.slice(self.rows(range), &self.tables)
    }

    /// The row positions of [`FrozenStore::in_range`]'s window: equal
    /// positions are equal rows, whatever days asked for them.
    pub fn rows(&self, range: DateRange) -> std::ops::Range<usize> {
        let (lo_ts, hi_ts) = range.ts_bounds();
        let lo = self.cols.ts.partition_point(|&ts| ts < lo_ts);
        lo..self.cols.ts.partition_point(|&ts| ts <= hi_ts)
    }

    /// The records on one day.
    pub fn on_day(&self, day: SimDate) -> ColumnSlice<'_> {
        self.in_range(DateRange::single(day))
    }

    /// The intern tables this store is encoded against.
    pub fn tables(&self) -> &Arc<EntityTables> {
        &self.tables
    }

    /// Heap bytes held by the columns (tables excluded — they are shared
    /// across every store of a study and accounted once).
    pub fn bytes(&self) -> usize {
        self.cols.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country};

    fn rec(user: u64, day: SimDate, hour: u8, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(hour, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn range_queries_slice_correctly() {
        let mut s = RequestStore::new();
        // Insert out of order on purpose.
        s.push(rec(1, SimDate::ymd(4, 15), 8, "2001:db8::1"));
        s.push(rec(2, SimDate::ymd(4, 13), 9, "2001:db8::2"));
        s.push(rec(3, SimDate::ymd(4, 19), 23, "2001:db8::3"));
        s.push(rec(4, SimDate::ymd(4, 12), 23, "2001:db8::4"));
        s.push(rec(5, SimDate::ymd(4, 20), 0, "2001:db8::5"));

        assert_eq!(s.len(), 5);
        let week = s.in_range(crate::time::focus_week());
        assert_eq!(week.len(), 3);
        assert!(week.windows(2).all(|w| w[0].ts <= w[1].ts));

        let day = s.on_day(SimDate::ymd(4, 13));
        assert_eq!(day.len(), 1);
        assert_eq!(day[0].user, UserId(2));

        let empty = s.on_day(SimDate::ymd(1, 1));
        assert!(empty.is_empty());
    }

    #[test]
    fn inclusive_bounds_at_midnight() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 13), 0, "2001:db8::1")); // first second
        s.push(rec(2, SimDate::ymd(4, 19), 23, "2001:db8::2")); // last day
        assert_eq!(s.in_range(crate::time::focus_week()).len(), 2);
    }

    #[test]
    fn frozen_store_matches_thawed_queries() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 15), 8, "2001:db8::1"));
        s.push(rec(2, SimDate::ymd(4, 13), 9, "2001:db8::2"));
        s.push(rec(3, SimDate::ymd(4, 19), 23, "2001:db8::3"));
        s.push(rec(4, SimDate::ymd(4, 12), 23, "2001:db8::4"));
        let frozen = s.clone().freeze();
        assert_eq!(frozen.len(), s.len());
        assert_eq!(frozen.all().records().collect::<Vec<_>>(), s.all());
        assert_eq!(
            frozen
                .in_range(crate::time::focus_week())
                .records()
                .collect::<Vec<_>>(),
            s.in_range(crate::time::focus_week())
        );
        assert_eq!(
            frozen
                .on_day(SimDate::ymd(4, 13))
                .records()
                .collect::<Vec<_>>(),
            s.on_day(SimDate::ymd(4, 13))
        );
        assert!(frozen.on_day(SimDate::ymd(1, 1)).is_empty());
        // Columnar cost: 12 bytes/row vs the 40-byte row struct.
        assert_eq!(frozen.bytes(), frozen.len() * 12);
        assert!(!frozen.tables().ips.is_empty());
    }

    #[test]
    fn distinct_users_of_a_slice() {
        let mut s = RequestStore::new();
        s.push(rec(1, SimDate::ymd(4, 13), 1, "2001:db8::1"));
        s.push(rec(1, SimDate::ymd(4, 13), 2, "2001:db8::9"));
        s.push(rec(2, SimDate::ymd(4, 13), 3, "2001:db8::1"));
        let recs = s.all().to_vec();
        assert_eq!(
            RequestStore::distinct_users(&recs),
            vec![UserId(1), UserId(2)]
        );
    }

    #[test]
    fn distinct_users_radix_path_matches_comparison_sort() {
        use crate::time::Timestamp;
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(1234);
        // Duplicate-heavy ids across the full u64 range.
        let recs: Vec<RequestRecord> = g.vec_of(2000, |g| RequestRecord {
            ts: Timestamp::from_secs(g.below(100) as u32),
            user: UserId(g.next_u64() >> g.below(50)),
            ip: "2001:db8::1".parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        });
        // The pre-kernel implementation, verbatim.
        let mut old: Vec<UserId> = recs.iter().map(|r| r.user).collect();
        old.sort_unstable();
        old.dedup();
        assert_eq!(RequestStore::distinct_users(&recs), old);
        assert!(RequestStore::distinct_users(&[]).is_empty());
    }
}
