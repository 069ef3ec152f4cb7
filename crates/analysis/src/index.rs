//! A per-window dataset index: the same columns re-ordered for group-by.
//!
//! Every analysis in §4–§6 is a group-by over one windowed slice — per
//! user, per address, or per prefix. The index gathers a window's columns
//! into two key-sorted copies once per window, and the index is immutable
//! so the parallel analysis engine can share it across worker threads.
//!
//! # Layout
//!
//! The index holds the window's **columns** twice, re-ordered:
//!
//! - `by_user`: stable-sorted by dense user id, so each user's rows form
//!   one contiguous run, *in the original timestamp order within the run*;
//! - `by_ip`: stable-sorted by [`IpId`]. The id packing (family bit, then
//!   per-family ascending address index) makes the `u32` sort identical to
//!   sorting by full [`IpAddr`]: distinct addresses never share a run, and
//!   all v6 addresses under a common prefix are adjacent, so per-prefix
//!   analyses at any length are walks over consecutive runs — at the
//!   precomputed lengths (/64, /56, /48) they are walks over a precomputed
//!   prefix-id column.
//!
//! Run boundaries are precomputed (`*_starts`), and the distinct-user /
//! distinct-address tables fall out of the run keys for free. Groups are
//! served as [`ColumnSlice`] windows: column access for the hot passes, a
//! lazy [`records()`](ColumnSlice::records) cursor for the rest.
//!
//! # Determinism
//!
//! [`DatasetIndex::build`] (sort-based) and [`DatasetIndex::build_naive`]
//! (hash-group-then-sort-keys, the pre-index shape) produce byte-identical
//! indexes: both order groups by ascending key, and both preserve the
//! input (timestamp) order within a group. Because dense ids are assigned
//! in ascending raw-key order (see
//! [`ipv6_study_telemetry::EntityTables`]), ascending-dense
//! group order is exactly the ascending `UserId` / `IpAddr` order the
//! row-oriented index produced. The equivalence is pinned by a unit test
//! here and end-to-end by `tests/analysis_equivalence.rs`.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use ipv6_study_telemetry::columns::{ColumnSlice, ColumnStore};
use ipv6_study_telemetry::intern::{EntityTables, IpId};
use ipv6_study_telemetry::kernels::radix_sort_perm_u32;
use ipv6_study_telemetry::{OwnedColumns, RequestRecord, UserId};

/// How a [`DatasetIndex`] groups records — functionally identical paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Stable sort by dense key (the fast production path).
    #[default]
    Sorted,
    /// Hash-map grouping, keys sorted afterwards (the pre-index shape;
    /// kept as the reference implementation for equivalence testing).
    Naive,
}

/// An immutable group-by index over one windowed column slice.
#[derive(Debug, Clone, Default)]
pub struct DatasetIndex {
    tables: Arc<EntityTables>,
    by_user: ColumnStore,
    users: Vec<UserId>,
    user_starts: Vec<usize>,
    by_ip: ColumnStore,
    ips: Vec<IpAddr>,
    ip_ids: Vec<IpId>,
    ip_starts: Vec<usize>,
}

/// Computes the permutation that stable-sorts a key column ascending —
/// kept as the comparison-sort reference the radix path is tested
/// against (see `sorted_radix_and_naive_perms_agree`).
#[cfg(test)]
fn sort_perm<K: Ord>(n: usize, key_at: impl Fn(usize) -> K) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by_key(|&i| key_at(i as usize));
    perm
}

/// The reference permutation: hash-map buckets (append order = input
/// order), groups concatenated in ascending key order.
fn naive_perm<K: Ord + Eq + std::hash::Hash + Copy>(
    n: usize,
    key_at: impl Fn(usize) -> K,
) -> Vec<u32> {
    let mut groups: HashMap<K, Vec<u32>> = HashMap::new();
    for i in 0..n as u32 {
        groups.entry(key_at(i as usize)).or_default().push(i);
    }
    let mut keys: Vec<K> = groups.keys().copied().collect();
    keys.sort_unstable();
    let mut perm = Vec::with_capacity(n);
    for k in &keys {
        perm.extend_from_slice(&groups[k]);
    }
    perm
}

/// Gathers a window's columns through a permutation.
fn gather(cols: ColumnSlice<'_>, perm: &[u32]) -> ColumnStore {
    let at = |i: &u32| *i as usize;
    ColumnStore {
        ts: perm.iter().map(|i| cols.ts()[at(i)]).collect(),
        ip: perm.iter().map(|i| cols.ip_ids()[at(i)]).collect(),
        user: perm.iter().map(|i| cols.users_dense()[at(i)]).collect(),
        asn: perm.iter().map(|i| cols.asns()[at(i)]).collect(),
        country: perm.iter().map(|i| cols.countries()[at(i)]).collect(),
    }
}

/// Copies one gathered row across stores (all five columns).
fn push_row(out: &mut ColumnStore, src: &ColumnStore, i: usize) {
    out.ts.push(src.ts[i]);
    out.ip.push(src.ip[i]);
    out.user.push(src.user[i]);
    out.asn.push(src.asn[i]);
    out.country.push(src.country[i]);
}

/// Merges two key-sorted gathered column sets into one. On key ties the
/// whole of `a`'s run is taken before `b`'s — correct exactly when every
/// `b` row follows every `a` row in window order, which is the
/// append-a-newer-day contract of [`DatasetIndex::append_sorted_suffix`].
fn merge_sorted_by<K: Ord + Copy>(
    a: &ColumnStore,
    b: &ColumnStore,
    key: impl Fn(&ColumnStore, usize) -> K,
) -> ColumnStore {
    let mut out = ColumnStore::default();
    out.ts.reserve_exact(a.len() + b.len());
    out.ip.reserve_exact(a.len() + b.len());
    out.user.reserve_exact(a.len() + b.len());
    out.asn.reserve_exact(a.len() + b.len());
    out.country.reserve_exact(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if key(a, i) <= key(b, j) {
            push_row(&mut out, a, i);
            i += 1;
        } else {
            push_row(&mut out, b, j);
            j += 1;
        }
    }
    while i < a.len() {
        push_row(&mut out, a, i);
        i += 1;
    }
    while j < b.len() {
        push_row(&mut out, b, j);
        j += 1;
    }
    out
}

/// Finds run boundaries in a key-sorted column. Returns the run keys and
/// start offsets, with a trailing sentinel offset (`keys.len()`).
fn runs<K: PartialEq + Copy>(col: &[K]) -> (Vec<K>, Vec<usize>) {
    let mut keys = Vec::new();
    let mut starts = Vec::new();
    for (i, &k) in col.iter().enumerate() {
        if keys.last() != Some(&k) {
            keys.push(k);
            starts.push(i);
        }
    }
    starts.push(col.len());
    (keys, starts)
}

impl DatasetIndex {
    /// Builds the index with stable sorts (the production path).
    pub fn build(cols: ColumnSlice<'_>) -> Self {
        Self::with_mode(cols, IndexMode::Sorted)
    }

    /// Builds the index via hash-map grouping (the reference path).
    pub fn build_naive(cols: ColumnSlice<'_>) -> Self {
        Self::with_mode(cols, IndexMode::Naive)
    }

    /// Builds the index from a row slice by interning a local table set —
    /// the unit-test convenience path.
    pub fn from_records(records: &[RequestRecord]) -> Self {
        let owned = OwnedColumns::from_records(records);
        Self::build(owned.as_slice())
    }

    /// Builds the index using the given grouping mode.
    pub fn with_mode(cols: ColumnSlice<'_>, mode: IndexMode) -> Self {
        let n = cols.len();
        let user_col = cols.users_dense();
        let ip_col = cols.ip_ids();
        let (user_perm, ip_perm) = match mode {
            // Stable LSB radix over the packed u32 keys: identical
            // permutation to the old `perm.sort_by_key(|&i| col[i])`
            // (stability pinned by `sorted_radix_and_naive_perms_agree`),
            // at counting-sort cost.
            IndexMode::Sorted => (radix_sort_perm_u32(user_col), radix_sort_perm_u32(ip_col)),
            IndexMode::Naive => (naive_perm(n, |i| user_col[i]), naive_perm(n, |i| ip_col[i])),
        };
        let tables = cols.tables_arc();
        let by_user = gather(cols, &user_perm);
        let (user_keys, user_starts) = runs(&by_user.user);
        let users = user_keys.iter().map(|&d| tables.users.user(d)).collect();
        let by_ip = gather(cols, &ip_perm);
        let (ip_ids, ip_starts) = runs(&by_ip.ip);
        let ips = ip_ids.iter().map(|&id| tables.ips.addr(id)).collect();
        Self {
            tables,
            by_user,
            users,
            user_starts,
            by_ip,
            ips,
            ip_ids,
            ip_starts,
        }
    }

    /// Extends the index with a strictly-later slice of the same window —
    /// the incremental-engine path: when a simulated day is appended, the
    /// standing per-window index absorbs the one-day suffix by merging two
    /// key-sorted runs (`O(old + new)` copies) instead of re-sorting the
    /// whole grown window.
    ///
    /// Contract (asserted / relied upon):
    ///
    /// - `suffix` is encoded against the **same** intern tables as `self`
    ///   (same `Arc`) — after a timeline extension the caller re-encodes
    ///   stores against the union tables before slicing, so both operands
    ///   share one table set;
    /// - every suffix row follows every existing row in window
    ///   (timestamp) order, so on key ties the existing run is taken
    ///   whole before the suffix run — exactly the stable-sort order a
    ///   from-scratch [`DatasetIndex::build`] over the concatenated
    ///   window produces. The equivalence is pinned by
    ///   `append_sorted_suffix_equals_full_rebuild`.
    pub fn append_sorted_suffix(&self, suffix: ColumnSlice<'_>) -> Self {
        assert!(
            Arc::ptr_eq(&self.tables, &suffix.tables_arc()),
            "append_sorted_suffix: suffix must share the index's intern tables"
        );
        let sfx = Self::build(suffix);
        let by_user = merge_sorted_by(&self.by_user, &sfx.by_user, |c, i| c.user[i]);
        let (user_keys, user_starts) = runs(&by_user.user);
        let users = user_keys
            .iter()
            .map(|&d| self.tables.users.user(d))
            .collect();
        let by_ip = merge_sorted_by(&self.by_ip, &sfx.by_ip, |c, i| c.ip[i]);
        let (ip_ids, ip_starts) = runs(&by_ip.ip);
        let ips = ip_ids.iter().map(|&id| self.tables.ips.addr(id)).collect();
        Self {
            tables: Arc::clone(&self.tables),
            by_user,
            users,
            user_starts,
            by_ip,
            ips,
            ip_ids,
            ip_starts,
        }
    }

    /// Number of records in the window.
    pub fn len(&self) -> usize {
        self.by_user.len()
    }

    /// True when the window held no records.
    pub fn is_empty(&self) -> bool {
        self.by_user.is_empty()
    }

    /// The intern tables the window is encoded against.
    pub fn tables(&self) -> &EntityTables {
        &self.tables
    }

    /// The distinct users of the window, ascending (memoized).
    pub fn distinct_users(&self) -> &[UserId] {
        &self.users
    }

    /// The distinct source addresses of the window, ascending (memoized).
    pub fn distinct_ips(&self) -> &[IpAddr] {
        &self.ips
    }

    /// The distinct interned address ids of the window, ascending.
    pub fn distinct_ip_ids(&self) -> &[IpId] {
        &self.ip_ids
    }

    /// Iterates `(user, group)` in ascending user order; rows within a
    /// group keep the window's timestamp order.
    pub fn user_groups(&self) -> impl Iterator<Item = (UserId, ColumnSlice<'_>)> {
        self.users.iter().enumerate().map(|(i, &u)| {
            (
                u,
                self.by_user
                    .slice(self.user_starts[i]..self.user_starts[i + 1], &self.tables),
            )
        })
    }

    /// Iterates `(address, group)` in ascending [`IpAddr`] order; rows
    /// within a group keep the window's timestamp order.
    pub fn ip_groups(&self) -> impl Iterator<Item = (IpAddr, ColumnSlice<'_>)> {
        self.ips.iter().enumerate().map(|(i, &ip)| {
            (
                ip,
                self.by_ip
                    .slice(self.ip_starts[i]..self.ip_starts[i + 1], &self.tables),
            )
        })
    }

    /// Iterates `(address id, group)` in ascending [`IpId`] order — the
    /// column-native variant of [`DatasetIndex::ip_groups`] for passes
    /// that work over interned ids (prefix walks, radix tallies).
    pub fn ip_id_groups(&self) -> impl Iterator<Item = (IpId, ColumnSlice<'_>)> {
        self.ip_ids.iter().enumerate().map(|(i, &id)| {
            (
                id,
                self.by_ip
                    .slice(self.ip_starts[i]..self.ip_starts[i + 1], &self.tables),
            )
        })
    }

    /// Heap bytes held by the index's gathered columns and run tables
    /// (the run report's `run/analysis/index` bytes; shared intern tables
    /// excluded).
    pub fn bytes(&self) -> usize {
        self.by_user.bytes()
            + self.by_ip.bytes()
            + self.users.len() * std::mem::size_of::<UserId>()
            + self.ips.len() * std::mem::size_of::<IpAddr>()
            + self.ip_ids.len() * std::mem::size_of::<IpId>()
            + (self.user_starts.len() + self.ip_starts.len()) * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{Asn, Country, SimDate};

    fn rec(user: u64, hour: u8, minute: u8, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 13).at(hour, minute, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn window() -> Vec<RequestRecord> {
        // Interleaved users and addresses, in timestamp order.
        vec![
            rec(3, 1, 0, "2001:db8:1::a"),
            rec(1, 2, 0, "10.0.0.1"),
            rec(3, 3, 0, "10.0.0.1"),
            rec(2, 4, 0, "2001:db8:1::a"),
            rec(1, 5, 0, "2001:db8:2::b"),
            rec(3, 6, 0, "2001:db8:1::a"),
        ]
    }

    #[test]
    fn groups_are_key_ascending_with_input_order_inside() {
        let idx = DatasetIndex::from_records(&window());
        assert_eq!(idx.len(), 6);
        assert!(!idx.is_empty());
        assert_eq!(
            idx.distinct_users(),
            &[UserId(1), UserId(2), UserId(3)],
            "users ascend"
        );
        let groups: Vec<(UserId, usize)> = idx.user_groups().map(|(u, g)| (u, g.len())).collect();
        assert_eq!(groups, vec![(UserId(1), 2), (UserId(2), 1), (UserId(3), 3)]);
        // Within user 3's run, timestamps ascend (stable sort).
        let g3 = idx.user_groups().find(|(u, _)| *u == UserId(3)).unwrap().1;
        assert!(g3.ts().windows(2).all(|w| w[0] <= w[1]));
        // Groups rematerialize the original rows.
        let g3_users: Vec<UserId> = g3.records().map(|r| r.user).collect();
        assert_eq!(g3_users, vec![UserId(3); 3]);

        // IP groups: v4 sorts before v6 under IpAddr's order.
        let ips: Vec<IpAddr> = idx.ip_groups().map(|(ip, _)| ip).collect();
        assert_eq!(ips, idx.distinct_ips());
        assert_eq!(ips[0], "10.0.0.1".parse::<IpAddr>().unwrap());
        assert!(ips.windows(2).all(|w| w[0] < w[1]));
        // Id order matches address order.
        assert!(idx.distinct_ip_ids().windows(2).all(|w| w[0] < w[1]));
        let shared = idx
            .ip_groups()
            .find(|(ip, _)| *ip == "2001:db8:1::a".parse::<IpAddr>().unwrap())
            .unwrap();
        assert_eq!(shared.1.len(), 3);
        assert_eq!(idx.ip_id_groups().count(), idx.distinct_ips().len());
        assert!(idx.bytes() > 0);
    }

    #[test]
    fn naive_and_sorted_paths_are_identical() {
        let recs = window();
        let owned = OwnedColumns::from_records(&recs);
        let a = DatasetIndex::build(owned.as_slice());
        let b = DatasetIndex::build_naive(owned.as_slice());
        assert_eq!(a.by_user, b.by_user);
        assert_eq!(a.users, b.users);
        assert_eq!(a.user_starts, b.user_starts);
        assert_eq!(a.by_ip, b.by_ip);
        assert_eq!(a.ips, b.ips);
        assert_eq!(a.ip_starts, b.ip_starts);
    }

    /// Satellite: the three grouping paths — radix permutation (the
    /// production `Sorted` mode), the old comparison-sort permutation,
    /// and naive hash-grouping — must be byte-identical on seeded inputs
    /// with heavy key duplication (which is what makes this a stability
    /// check: within a duplicate run, all three must preserve input
    /// order), and on empty / single-row windows.
    #[test]
    fn sorted_radix_and_naive_perms_agree() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x5241_4458); // "RADX"
        for n in [0usize, 1, 2, 63, 64, 65, 1000] {
            // Few distinct entities => long duplicate runs.
            let recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let v6 = g.below(2) == 1;
                let host = g.below(8);
                let ip = if v6 {
                    format!("2001:db8::{host:x}")
                } else {
                    format!("10.0.0.{host}")
                };
                rec(g.below(6), (g.below(24)) as u8, (g.below(60)) as u8, &ip)
            });
            let owned = OwnedColumns::from_records(&recs);
            let cols = owned.as_slice();

            // Permutation level: radix == stable comparison sort.
            let user_col = cols.users_dense();
            let ip_col = cols.ip_ids();
            assert_eq!(
                radix_sort_perm_u32(user_col),
                sort_perm(n, |i| user_col[i]),
                "user perm, n={n}"
            );
            assert_eq!(
                radix_sort_perm_u32(ip_col),
                sort_perm(n, |i| ip_col[i]),
                "ip perm, n={n}"
            );

            // Index level: Sorted (radix) == Naive (hash-group).
            let a = DatasetIndex::with_mode(cols, IndexMode::Sorted);
            let b = DatasetIndex::with_mode(cols, IndexMode::Naive);
            assert_eq!(a.by_user, b.by_user, "by_user columns, n={n}");
            assert_eq!(a.users, b.users);
            assert_eq!(a.user_starts, b.user_starts);
            assert_eq!(a.by_ip, b.by_ip, "by_ip columns, n={n}");
            assert_eq!(a.ips, b.ips);
            assert_eq!(a.ip_ids, b.ip_ids);
            assert_eq!(a.ip_starts, b.ip_starts);
        }
    }

    /// Asserts two indexes are identical field-for-field (tables aside).
    fn assert_same_index(a: &DatasetIndex, b: &DatasetIndex, ctx: &str) {
        assert_eq!(a.by_user, b.by_user, "by_user columns, {ctx}");
        assert_eq!(a.users, b.users, "users, {ctx}");
        assert_eq!(a.user_starts, b.user_starts, "user_starts, {ctx}");
        assert_eq!(a.by_ip, b.by_ip, "by_ip columns, {ctx}");
        assert_eq!(a.ips, b.ips, "ips, {ctx}");
        assert_eq!(a.ip_ids, b.ip_ids, "ip_ids, {ctx}");
        assert_eq!(a.ip_starts, b.ip_starts, "ip_starts, {ctx}");
    }

    /// Tentpole: appending a timestamp-later suffix to an existing index
    /// must be byte-identical to building the index from scratch over the
    /// concatenated window — at every split point of a hand-built window.
    #[test]
    fn append_sorted_suffix_equals_full_rebuild() {
        let recs = window();
        let owned = OwnedColumns::from_records(&recs);
        let cols = owned.as_slice();
        let full = DatasetIndex::build(cols);
        for split in 0..=recs.len() {
            let prefix = DatasetIndex::build(cols.slice(0..split));
            let merged = prefix.append_sorted_suffix(cols.slice(split..recs.len()));
            assert_same_index(&merged, &full, &format!("split={split}"));
        }
    }

    /// TestGen property: same equivalence over seeded windows with heavy
    /// key duplication (long duplicate runs make this a stability check —
    /// the merge must keep the existing run ahead of the suffix run on
    /// key ties), sorted by timestamp so every suffix row is later.
    #[test]
    fn append_sorted_suffix_property_matches_build() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4150_5058); // "APPX"
        for n in [1usize, 2, 64, 500] {
            let mut recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let host = g.below(6);
                let ip = if g.below(2) == 1 {
                    format!("2001:db8::{host:x}")
                } else {
                    format!("10.0.0.{host}")
                };
                rec(g.below(4), (g.below(24)) as u8, (g.below(60)) as u8, &ip)
            });
            recs.sort_by_key(|r| r.ts);
            let owned = OwnedColumns::from_records(&recs);
            let cols = owned.as_slice();
            let full = DatasetIndex::build(cols);
            for split in [0, 1, n / 3, n / 2, n - 1, n] {
                let prefix = DatasetIndex::build(cols.slice(0..split));
                let merged = prefix.append_sorted_suffix(cols.slice(split..n));
                assert_same_index(&merged, &full, &format!("n={n} split={split}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "intern tables")]
    fn append_sorted_suffix_rejects_foreign_tables() {
        let recs = window();
        let a = OwnedColumns::from_records(&recs);
        let b = OwnedColumns::from_records(&recs);
        let idx = DatasetIndex::build(a.as_slice());
        let _ = idx.append_sorted_suffix(b.as_slice());
    }

    #[test]
    fn empty_window_is_safe() {
        for mode in [IndexMode::Sorted, IndexMode::Naive] {
            let owned = OwnedColumns::from_records(&[]);
            let idx = DatasetIndex::with_mode(owned.as_slice(), mode);
            assert!(idx.is_empty());
            assert_eq!(idx.user_groups().count(), 0);
            assert_eq!(idx.ip_groups().count(), 0);
            assert!(idx.distinct_users().is_empty());
        }
    }
}
