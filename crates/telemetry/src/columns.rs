//! Columnar (struct-of-arrays) request storage over interned ids.
//!
//! The row-oriented [`RequestRecord`] costs
//! 40 bytes per row (a tagged `IpAddr` enum plus padding). The columnar
//! layout stores the same five fields as parallel columns over interned
//! ids — 4-byte timestamp, 4-byte [`IpId`], 4-byte dense user, 4-byte ASN,
//! 2-byte country = **18 bytes per row** — and serves range queries as
//! [`ColumnSlice`]s: borrowed column windows plus the shared
//! [`EntityTables`], from which rows can be rematerialized on demand
//! through the [`RecordView`] cursor.

use std::ops::Range;
use std::sync::Arc;

use crate::ids::{Asn, Country, UserId};
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
    /// Announcing ASNs.
    pub asn: Vec<Asn>,
    /// Country geolocations.
    pub country: Vec<Country>,
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
            asn: Vec::with_capacity(n),
            country: Vec::with_capacity(n),
        }
    }

    /// Appends one encoded row.
    ///
    /// # Panics
    /// If the row's address or user is not interned in `tables`.
    pub fn push_encoded(&mut self, r: &RequestRecord, tables: &EntityTables) {
        assert!(
            self.try_push_encoded(r, tables),
            "address and user were interned"
        );
    }

    /// Appends one encoded row, or returns `false` and appends nothing
    /// when its address or user is not interned in `tables`.
    pub fn try_push_encoded(&mut self, r: &RequestRecord, tables: &EntityTables) -> bool {
        let (Some(ip), Some(user)) = (
            tables.ips.try_id_of(r.ip),
            tables.users.try_dense_of(r.user),
        ) else {
            return false;
        };
        self.ts.push(r.ts);
        self.ip.push(ip);
        self.user.push(user);
        self.asn.push(r.asn);
        self.country.push(r.country);
        true
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Reserves room for `n` more rows on every column.
    pub fn reserve(&mut self, n: usize) {
        self.ts.reserve(n);
        self.ip.reserve(n);
        self.user.reserve(n);
        self.asn.reserve(n);
        self.country.reserve(n);
    }

    /// Releases over-allocation on every column.
    pub fn shrink_to_fit(&mut self) {
        self.ts.shrink_to_fit();
        self.ip.shrink_to_fit();
        self.user.shrink_to_fit();
        self.asn.shrink_to_fit();
        self.country.shrink_to_fit();
    }

    /// Heap bytes held by the columns (capacity, not just length — this is
    /// what the run report's `run/freeze/bytes` counts).
    pub fn bytes(&self) -> usize {
        self.ts.capacity() * std::mem::size_of::<Timestamp>()
            + self.ip.capacity() * std::mem::size_of::<IpId>()
            + self.user.capacity() * std::mem::size_of::<u32>()
            + self.asn.capacity() * std::mem::size_of::<Asn>()
            + self.country.capacity() * std::mem::size_of::<Country>()
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
            user: &self.user[range.clone()],
            asn: &self.asn[range.clone()],
            country: &self.country[range],
            tables,
        }
    }
}

/// A borrowed window of encoded rows: five column slices plus the shared
/// intern tables needed to rematerialize them. `Copy`, so passes hand
/// windows around as cheaply as the `&[RequestRecord]` slices they
/// replaced.
#[derive(Clone, Copy)]
pub struct ColumnSlice<'a> {
    ts: &'a [Timestamp],
    ip: &'a [IpId],
    user: &'a [u32],
    asn: &'a [Asn],
    country: &'a [Country],
    tables: &'a Arc<EntityTables>,
}

impl<'a> ColumnSlice<'a> {
    /// An empty slice over the given tables.
    pub fn empty(tables: &'a Arc<EntityTables>) -> Self {
        Self {
            ts: &[],
            ip: &[],
            user: &[],
            asn: &[],
            country: &[],
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

    /// The ASN column.
    pub fn asns(&self) -> &'a [Asn] {
        self.asn
    }

    /// The country column.
    pub fn countries(&self) -> &'a [Country] {
        self.country
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

    /// The raw user id at a row.
    #[inline]
    pub fn user_at(&self, i: usize) -> UserId {
        self.tables.users.user(self.user[i])
    }

    /// The source address at a row.
    #[inline]
    pub fn addr_at(&self, i: usize) -> std::net::IpAddr {
        self.tables.ips.addr(self.ip[i])
    }

    /// Whether the row's source address is IPv6.
    #[inline]
    pub fn is_v6_at(&self, i: usize) -> bool {
        self.ip[i].is_v6()
    }

    /// Rematerializes one row.
    #[inline]
    pub fn record(&self, i: usize) -> RequestRecord {
        RequestRecord {
            ts: self.ts[i],
            user: self.user_at(i),
            ip: self.addr_at(i),
            asn: self.asn[i],
            country: self.country[i],
        }
    }

    /// A lazily-rematerializing row cursor over the window.
    pub fn records(&self) -> RecordView<'a> {
        RecordView {
            ts: self.ts.iter(),
            ip: self.ip.iter(),
            user: self.user.iter(),
            asn: self.asn.iter(),
            country: self.country.iter(),
            tables: self.tables,
        }
    }

    /// Copies the mask-selected rows into owned columns sharing this
    /// window's intern tables — the columnar replacement for
    /// `OwnedColumns::encode_with(tables, win.records().filter(..))`:
    /// no row is decoded to a [`RequestRecord`] and re-interned, the
    /// five columns are gathered directly.
    pub fn gather(&self, mask: &crate::kernels::SelectionMask) -> OwnedColumns {
        let mut cols = ColumnStore::default();
        self.select_into(mask, &mut cols);
        OwnedColumns {
            cols,
            tables: self.tables_arc(),
        }
    }

    /// Appends the mask-selected rows onto `out` (encoded against this
    /// window's tables). The mask must cover exactly this window.
    pub fn select_into(&self, mask: &crate::kernels::SelectionMask, out: &mut ColumnStore) {
        assert_eq!(mask.len(), self.len(), "mask covers a different window");
        out.reserve(mask.count());
        mask.for_each(|i| {
            out.ts.push(self.ts[i]);
            out.ip.push(self.ip[i]);
            out.user.push(self.user[i]);
            out.asn.push(self.asn[i]);
            out.country.push(self.country[i]);
        });
    }

    /// Number of rows in the window selected by `mask` — a popcount, no
    /// materialization.
    pub fn filter_count(&self, mask: &crate::kernels::SelectionMask) -> usize {
        assert_eq!(mask.len(), self.len(), "mask covers a different window");
        mask.count()
    }

    /// Re-windows the slice.
    pub fn slice(&self, range: Range<usize>) -> ColumnSlice<'a> {
        ColumnSlice {
            ts: &self.ts[range.clone()],
            ip: &self.ip[range.clone()],
            user: &self.user[range.clone()],
            asn: &self.asn[range.clone()],
            country: &self.country[range],
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

/// A double-ended, exact-size cursor yielding rematerialized rows.
///
/// Holds one [`std::slice::Iter`] per column and advances all five in
/// lockstep, so each row costs five pointer bumps — not the five
/// bounds-checked indexes the earlier index-based cursor paid per row
/// (`bench_kernels` reports the difference).
#[derive(Clone)]
pub struct RecordView<'a> {
    ts: std::slice::Iter<'a, Timestamp>,
    ip: std::slice::Iter<'a, IpId>,
    user: std::slice::Iter<'a, u32>,
    asn: std::slice::Iter<'a, Asn>,
    country: std::slice::Iter<'a, Country>,
    tables: &'a EntityTables,
}

impl RecordView<'_> {
    #[inline]
    fn materialize(
        &self,
        ts: Timestamp,
        ip: IpId,
        user: u32,
        asn: Asn,
        c: Country,
    ) -> RequestRecord {
        RequestRecord {
            ts,
            user: self.tables.users.user(user),
            ip: self.tables.ips.addr(ip),
            asn,
            country: c,
        }
    }
}

impl Iterator for RecordView<'_> {
    type Item = RequestRecord;

    #[inline]
    fn next(&mut self) -> Option<RequestRecord> {
        let ts = *self.ts.next()?;
        let ip = *self.ip.next()?;
        let user = *self.user.next()?;
        let asn = *self.asn.next()?;
        let c = *self.country.next()?;
        Some(self.materialize(ts, ip, user, asn, c))
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
        let asn = *self.asn.next_back()?;
        let c = *self.country.next_back()?;
        Some(self.materialize(ts, ip, user, asn, c))
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
    use crate::ids::{Asn, Country};
    use crate::time::SimDate;

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
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
            assert_eq!(slice.user_at(i), r.user);
            assert_eq!(slice.addr_at(i), r.ip);
            assert_eq!(slice.is_v6_at(i), r.is_v6());
        }
    }

    #[test]
    fn columns_are_eighteen_bytes_per_row() {
        let owned = OwnedColumns::from_records(&sample());
        assert_eq!(owned.bytes(), 4 * 18, "4+4+4+4+2 bytes per row");
        assert!(std::mem::size_of::<RequestRecord>() > 18);
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
    fn gather_matches_filtered_reencode() {
        let recs = sample();
        let tables = Arc::new(EntityTables::from_records(&recs));
        let cols = ColumnStore::encode(recs.iter(), &tables);
        let win = cols.slice(0..recs.len(), &tables);
        // Select the v6 rows via a mask; the old path re-encoded the
        // filtered RecordView stream.
        let mask = crate::kernels::mask_from(win.ip_ids(), |id| id.is_v6());
        let gathered = win.gather(&mask);
        let old =
            OwnedColumns::encode_with(Arc::clone(&tables), win.records().filter(|r| r.is_v6()));
        assert_eq!(gathered.as_slice(), old.as_slice());
        assert_eq!(win.filter_count(&mask), 2);
        assert_eq!(gathered.len(), 2);

        let mut extra = ColumnStore::default();
        win.select_into(&mask, &mut extra);
        win.select_into(&mask, &mut extra);
        assert_eq!(extra.len(), 4, "select_into appends");

        let none = win.gather(&crate::kernels::SelectionMask::none(win.len()));
        assert!(none.is_empty());
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
