//! Columnar (struct-of-arrays) request storage over interned ids.
//!
//! The row-oriented [`RequestRecord`] costs
//! 40 bytes per row (a tagged `IpAddr` enum plus padding). The columnar
//! layout stores three parallel columns over interned ids — 4-byte
//! timestamp, 4-byte [`IpId`], 4-byte dense user = **12 bytes per row** —
//! and the address's ASN and country once, in its [`IpTable`] entry.
//! Range queries return [`ColumnSlice`]s: borrowed column windows plus
//! the shared [`EntityTables`], from which rows can be rematerialized on
//! demand through the [`RecordView`] cursor.
//!
//! [`IpTable`]: crate::intern::IpTable

use std::ops::Range;
use std::sync::Arc;

use crate::intern::{EntityTables, IpId};
use crate::record::RequestRecord;
use crate::time::Timestamp;

/// Owned parallel columns of encoded request rows (no entity tables).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStore {
    /// Arrival timestamps, in store order.
    pub ts: Vec<Timestamp>,
    /// Interned source-address ids.
    pub ip: Vec<IpId>,
    /// Dense user ids.
    pub user: Vec<u32>,
}

impl ColumnStore {
    /// Encodes a row stream against intern tables built over (a superset
    /// of) the same rows.
    pub fn encode<'a>(
        records: impl Iterator<Item = &'a RequestRecord>,
        tables: &EntityTables,
    ) -> Self {
        let mut cols = Self::default();
        for r in records {
            cols.push_encoded(r, tables);
        }
        cols.shrink_to_fit();
        cols
    }

    /// Empty columns with room for exactly `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ts: Vec::with_capacity(n),
            ip: Vec::with_capacity(n),
            user: Vec::with_capacity(n),
        }
    }

    /// Appends one encoded row.
    ///
    /// # Panics
    /// If the row's address or user is not interned in `tables`, or the
    /// row's ASN or country differs from its address's entry.
    pub fn push_encoded(&mut self, r: &RequestRecord, tables: &EntityTables) {
        let ip = tables.ips.id_of(r.ip);
        let user = tables.users.dense_of(r.user);
        assert!(
            tables.ips.attrs(ip) == (r.asn, r.country),
            "row attributes differ from address {}'s entry",
            r.ip
        );
        self.ts.push(r.ts);
        self.ip.push(ip);
        self.user.push(user);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Removes every row, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.ip.clear();
        self.user.clear();
    }

    /// Reserves room for `n` more rows on every column.
    pub fn reserve(&mut self, n: usize) {
        self.ts.reserve(n);
        self.ip.reserve(n);
        self.user.reserve(n);
    }

    /// Releases over-allocation on every column.
    pub fn shrink_to_fit(&mut self) {
        self.ts.shrink_to_fit();
        self.ip.shrink_to_fit();
        self.user.shrink_to_fit();
    }

    /// Heap bytes held by the columns (capacity, not just length — this is
    /// what the run report's `run/freeze/bytes` counts).
    pub fn bytes(&self) -> usize {
        self.ts.capacity() * std::mem::size_of::<Timestamp>()
            + self.ip.capacity() * std::mem::size_of::<IpId>()
            + self.user.capacity() * std::mem::size_of::<u32>()
    }

    /// Borrows a row window as a [`ColumnSlice`].
    pub fn slice<'a>(
        &'a self,
        range: Range<usize>,
        tables: &'a Arc<EntityTables>,
    ) -> ColumnSlice<'a> {
        ColumnSlice {
            ts: &self.ts[range.clone()],
            ip: &self.ip[range.clone()],
            user: &self.user[range],
            tables,
        }
    }
}

/// A borrowed window of encoded rows: three column slices plus the shared
/// intern tables needed to rematerialize them. `Copy`, so passes hand
/// windows around as cheaply as the `&[RequestRecord]` slices they
/// replaced.
#[derive(Clone, Copy)]
pub struct ColumnSlice<'a> {
    ts: &'a [Timestamp],
    ip: &'a [IpId],
    user: &'a [u32],
    tables: &'a Arc<EntityTables>,
}

impl<'a> ColumnSlice<'a> {
    /// An empty slice over the given tables.
    pub fn empty(tables: &'a Arc<EntityTables>) -> Self {
        Self {
            ts: &[],
            ip: &[],
            user: &[],
            tables,
        }
    }

    /// Number of rows in the window.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the window holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The timestamp column.
    pub fn ts(&self) -> &'a [Timestamp] {
        self.ts
    }

    /// The interned address-id column.
    pub fn ip_ids(&self) -> &'a [IpId] {
        self.ip
    }

    /// The dense user-id column.
    pub fn users_dense(&self) -> &'a [u32] {
        self.user
    }

    /// The shared intern tables.
    pub fn tables(&self) -> &'a EntityTables {
        self.tables
    }

    /// A clone of the `Arc` holding the intern tables (for owners that
    /// outlive this borrow, e.g. a `DatasetIndex`).
    pub fn tables_arc(&self) -> Arc<EntityTables> {
        Arc::clone(self.tables)
    }

    /// The source address at a row.
    #[inline]
    pub fn addr_at(&self, i: usize) -> std::net::IpAddr {
        self.tables.ips.addr(self.ip[i])
    }

    /// Rematerializes one row.
    #[inline]
    pub fn record(&self, i: usize) -> RequestRecord {
        materialize(self.tables, self.ts[i], self.ip[i], self.user[i])
    }

    /// A lazily-rematerializing row cursor over the window.
    pub fn records(&self) -> RecordView<'a> {
        RecordView {
            ts: self.ts.iter(),
            ip: self.ip.iter(),
            user: self.user.iter(),
            tables: self.tables,
        }
    }

    /// Re-windows the slice.
    pub fn slice(&self, range: Range<usize>) -> ColumnSlice<'a> {
        ColumnSlice {
            ts: &self.ts[range.clone()],
            ip: &self.ip[range.clone()],
            user: &self.user[range],
            tables: self.tables,
        }
    }
}

impl std::fmt::Debug for ColumnSlice<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnSlice")
            .field("len", &self.len())
            .field("first", &(!self.is_empty()).then(|| self.record(0)))
            .finish()
    }
}

/// Row equality by content: two windows are equal when they materialize
/// to the same record sequence (their tables may differ).
impl PartialEq for ColumnSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.records().eq(other.records())
    }
}

/// One row rematerialized from its three columns: a user table look-up
/// and the address table's look-ups of the address and its attributes.
#[inline]
fn materialize(tables: &EntityTables, ts: Timestamp, ip: IpId, user: u32) -> RequestRecord {
    let (asn, country) = tables.ips.attrs(ip);
    RequestRecord {
        ts,
        user: tables.users.user(user),
        ip: tables.ips.addr(ip),
        asn,
        country,
    }
}

/// A double-ended, exact-size cursor yielding rematerialized rows.
///
/// Holds one [`std::slice::Iter`] per column and advances all three in
/// lockstep, so each row costs three pointer bumps — not the
/// bounds-checked indexes the earlier index-based cursor paid per row
/// (`bench_kernels` reports the difference).
#[derive(Clone)]
pub struct RecordView<'a> {
    ts: std::slice::Iter<'a, Timestamp>,
    ip: std::slice::Iter<'a, IpId>,
    user: std::slice::Iter<'a, u32>,
    tables: &'a EntityTables,
}

impl Iterator for RecordView<'_> {
    type Item = RequestRecord;

    #[inline]
    fn next(&mut self) -> Option<RequestRecord> {
        let ts = *self.ts.next()?;
        let ip = *self.ip.next()?;
        let user = *self.user.next()?;
        Some(materialize(self.tables, ts, ip, user))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ts.size_hint()
    }
}

impl DoubleEndedIterator for RecordView<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<RequestRecord> {
        let ts = *self.ts.next_back()?;
        let ip = *self.ip.next_back()?;
        let user = *self.user.next_back()?;
        Some(materialize(self.tables, ts, ip, user))
    }
}

impl ExactSizeIterator for RecordView<'_> {}

/// Owned encoded rows plus their intern tables — the columnar analogue of
/// a `Vec<RequestRecord>`, for filtered subsets and unit tests.
#[derive(Debug, Clone)]
pub struct OwnedColumns {
    cols: ColumnStore,
    tables: Arc<EntityTables>,
}

impl OwnedColumns {
    /// Encodes a record slice against freshly-built local tables.
    pub fn from_records(records: &[RequestRecord]) -> Self {
        let tables = Arc::new(EntityTables::from_records(records));
        let cols = ColumnStore::encode(records.iter(), &tables);
        Self { cols, tables }
    }

    /// Encodes a record stream against existing (shared) tables; every
    /// entity in the stream must be interned in them.
    pub fn encode_with(
        tables: Arc<EntityTables>,
        records: impl Iterator<Item = RequestRecord>,
    ) -> Self {
        let mut cols = ColumnStore::default();
        for r in records {
            cols.push_encoded(&r, &tables);
        }
        cols.shrink_to_fit();
        Self { cols, tables }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Borrows the full window.
    pub fn as_slice(&self) -> ColumnSlice<'_> {
        self.cols.slice(0..self.cols.len(), &self.tables)
    }

    /// Heap bytes held by the columns (tables excluded — they're shared).
    pub fn bytes(&self) -> usize {
        self.cols.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country, UserId};
    use crate::time::SimDate;

    /// A row whose ASN and country follow from its address's family.
    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        let ip: std::net::IpAddr = ip.parse().unwrap();
        let (asn, country) = if ip.is_ipv6() {
            (Asn(64497), Country::new("DE"))
        } else {
            (Asn(64496), Country::new("US"))
        };
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip,
            asn,
            country,
        }
    }

    fn sample() -> Vec<RequestRecord> {
        vec![
            rec(3, 0, "2001:db8:1::a"),
            rec(1, 1, "10.0.0.1"),
            rec(3, 2, "10.0.0.1"),
            rec(2, 3, "2001:db8:1::a"),
        ]
    }

    #[test]
    fn encode_round_trips_every_row() {
        let recs = sample();
        let owned = OwnedColumns::from_records(&recs);
        let slice = owned.as_slice();
        assert_eq!(slice.len(), 4);
        assert!(!slice.is_empty());
        let back: Vec<RequestRecord> = slice.records().collect();
        assert_eq!(back, recs, "materialized rows == input rows");
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(slice.record(i), *r);
            assert_eq!(slice.addr_at(i), r.ip);
        }
    }

    #[test]
    fn columns_are_twelve_bytes_per_row() {
        let owned = OwnedColumns::from_records(&sample());
        assert_eq!(owned.bytes(), 4 * 12, "4+4+4 bytes per row");
        assert!(std::mem::size_of::<RequestRecord>() > 12);
    }

    #[test]
    fn rewindowing_and_equality() {
        let recs = sample();
        let owned = OwnedColumns::from_records(&recs);
        let slice = owned.as_slice();
        let mid = slice.slice(1..3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.record(0), recs[1]);
        // Content equality across different tables.
        let other = OwnedColumns::from_records(&recs[1..3]);
        assert_eq!(mid, other.as_slice());
        assert_ne!(slice, other.as_slice());
        assert!(format!("{mid:?}").contains("len"));
    }

    #[test]
    fn record_view_is_double_ended_and_exact() {
        let recs = sample();
        let owned = OwnedColumns::from_records(&recs);
        let view = owned.as_slice().records();
        assert_eq!(view.len(), 4);
        let rev: Vec<RequestRecord> = owned.as_slice().records().rev().collect();
        assert_eq!(rev.first(), recs.last());
        let empty = OwnedColumns::from_records(&[]);
        assert_eq!(empty.as_slice().records().next(), None);
    }

    #[test]
    #[should_panic(expected = "differ from address 10.0.0.1's entry")]
    fn encoding_a_row_against_another_pair_panics() {
        let recs = sample();
        let tables = EntityTables::from_records(&recs);
        let mut cols = ColumnStore::default();
        let other = RequestRecord {
            asn: Asn(1),
            ..recs[1]
        };
        cols.push_encoded(&other, &tables);
    }

    #[test]
    fn encode_with_shared_tables() {
        let recs = sample();
        let tables = Arc::new(EntityTables::from_records(&recs));
        let day = OwnedColumns::encode_with(Arc::clone(&tables), recs[..2].iter().copied());
        assert_eq!(day.len(), 2);
        assert_eq!(day.as_slice().record(1), recs[1]);
        let empty = ColumnSlice::empty(&tables);
        assert!(empty.is_empty());
    }
}
