//! A per-window dataset index: a window's rows grouped once, by user or by
//! address.
//!
//! Every analysis in §4–§6 is a group-by over one windowed slice — per
//! user (§5: addresses per user, life spans) or per address and prefix
//! (§6: users per address, per prefix). An index holds exactly one of
//! those groupings, and only the columns its groups are read by. It is
//! immutable, so the parallel analysis engine shares it across worker
//! threads.
//!
//! # Layout
//!
//! - [`DatasetIndex::by_user`]: rows stable-sorted by dense user id, so
//!   each user's rows form one contiguous run, *in the window's
//!   timestamp order within the run*. Per row it keeps the timestamp and
//!   the address id; groups are [`UserGroup`]s.
//! - [`DatasetIndex::by_address`]: rows stable-sorted by [`IpId`]. The id
//!   packing (family bit, then per-family ascending address index) makes
//!   the `u32` sort identical to sorting by full [`IpAddr`]: distinct
//!   addresses never share a run, and all v6 addresses under a common
//!   prefix are adjacent, so per-prefix analyses at any length are walks
//!   over consecutive runs. Per row it keeps the dense user id; groups
//!   are [`AddressGroup`]s.
//!
//! Group keys (dense user ids, address ids) and run starts are `u32`;
//! keys map to [`UserId`]s and [`IpAddr`]s through the shared intern
//! tables when a pass asks for them. Asking an index for the grouping it
//! does not hold panics, naming the one it holds.
//!
//! # Determinism
//!
//! Both constructors order groups by ascending key with a stable radix
//! sort, so every group keeps the input (timestamp) order. Because dense
//! ids are assigned in ascending raw-key order (see
//! [`ipv6_study_telemetry::EntityTables`]), ascending-dense group order
//! is exactly the ascending `UserId` / `IpAddr` order the row-oriented
//! index produced. Hash-map grouping (the pre-index shape) is the oracle:
//! the unit tests here compare against it, and
//! `tests/analysis_equivalence.rs` does so on the tiny study's shared
//! windows.

use std::net::IpAddr;
use std::sync::Arc;

use ipv6_study_telemetry::columns::ColumnSlice;
use ipv6_study_telemetry::intern::{EntityTables, IpId};
use ipv6_study_telemetry::kernels::radix_sort_perm_u32;
use ipv6_study_telemetry::time::Timestamp;
use ipv6_study_telemetry::UserId;

/// An immutable group-by index over one windowed column slice, holding
/// one grouping.
#[derive(Debug, Clone)]
pub struct DatasetIndex {
    tables: Arc<EntityTables>,
    grouping: Grouping,
}

/// The one grouping an index holds: run keys ascending, `starts[i]` the
/// first row of run `i`, with a trailing sentinel (the row count).
#[derive(Debug, Clone)]
enum Grouping {
    /// By dense user id: each row's timestamp and address id.
    User {
        keys: Vec<u32>,
        starts: Vec<u32>,
        ts: Vec<Timestamp>,
        ips: Vec<IpId>,
    },
    /// By address id: each row's dense user id.
    Address {
        keys: Vec<IpId>,
        starts: Vec<u32>,
        users: Vec<u32>,
    },
}

/// One user's rows of a user grouping, in window order.
#[derive(Debug, Clone, Copy)]
pub struct UserGroup<'a> {
    ts: &'a [Timestamp],
    ips: &'a [IpId],
}

impl<'a> UserGroup<'a> {
    /// The rows' timestamps.
    pub fn ts(&self) -> &'a [Timestamp] {
        self.ts
    }

    /// The rows' interned address ids.
    pub fn ip_ids(&self) -> &'a [IpId] {
        self.ips
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the group holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// One address's rows of an address grouping, in window order.
#[derive(Debug, Clone, Copy)]
pub struct AddressGroup<'a> {
    users: &'a [u32],
    tables: &'a EntityTables,
}

impl<'a> AddressGroup<'a> {
    /// The rows' dense user ids.
    pub fn users_dense(&self) -> &'a [u32] {
        self.users
    }

    /// The intern tables the rows are encoded against.
    pub fn tables(&self) -> &'a EntityTables {
        self.tables
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the group holds no rows.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// Gathers a column through a permutation.
fn gather<T: Copy>(col: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&i| col[i as usize]).collect()
}

/// Finds the runs of a key-sorted key stream. Returns the run keys and
/// start offsets, with a trailing sentinel offset (the key count), each
/// holding no spare capacity.
fn runs<K: PartialEq + Copy>(sorted: impl Iterator<Item = K>) -> (Vec<K>, Vec<u32>) {
    let (mut keys, mut starts) = (Vec::new(), Vec::new());
    let mut n = 0u32;
    for k in sorted {
        if keys.last() != Some(&k) {
            keys.push(k);
            starts.push(n);
        }
        n += 1;
    }
    starts.push(n);
    keys.shrink_to_fit();
    starts.shrink_to_fit();
    (keys, starts)
}

/// The row range of run `i`.
fn run(starts: &[u32], i: usize) -> std::ops::Range<usize> {
    starts[i] as usize..starts[i + 1] as usize
}

impl DatasetIndex {
    /// Groups `rows` by user: one stable radix sort of the dense user
    /// ids, then a gather of the timestamps and the address ids.
    pub fn by_user(rows: ColumnSlice<'_>) -> Self {
        // Stable LSB radix over the packed u32 keys: identical
        // permutation to a stable comparison sort (pinned by
        // `sorted_radix_and_naive_perms_agree`), at counting-sort cost.
        let users = rows.users_dense();
        let perm = radix_sort_perm_u32(users);
        let (keys, starts) = runs(perm.iter().map(|&i| users[i as usize]));
        let grouping = Grouping::User {
            keys,
            starts,
            ts: gather(rows.ts(), &perm),
            ips: gather(rows.ip_ids(), &perm),
        };
        Self::with(rows, grouping)
    }

    /// Groups `rows` by address: one stable radix sort of the address
    /// ids, then a gather of the dense user ids.
    pub fn by_address(rows: ColumnSlice<'_>) -> Self {
        let ips = rows.ip_ids();
        let perm = radix_sort_perm_u32(ips);
        let (keys, starts) = runs(perm.iter().map(|&i| ips[i as usize]));
        let grouping = Grouping::Address {
            keys,
            starts,
            users: gather(rows.users_dense(), &perm),
        };
        Self::with(rows, grouping)
    }

    fn with(rows: ColumnSlice<'_>, grouping: Grouping) -> Self {
        Self {
            tables: rows.tables_arc(),
            grouping,
        }
    }

    /// Number of records in the window.
    pub fn len(&self) -> usize {
        match &self.grouping {
            Grouping::User { ts, .. } => ts.len(),
            Grouping::Address { users, .. } => users.len(),
        }
    }

    /// True when the window held no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The intern tables the window is encoded against.
    pub fn tables(&self) -> &EntityTables {
        &self.tables
    }

    /// Iterates `(user, group)` in ascending user order; rows within a
    /// group keep the window's timestamp order.
    ///
    /// # Panics
    /// On an index grouped by address.
    pub fn user_groups(&self) -> impl ExactSizeIterator<Item = (UserId, UserGroup<'_>)> {
        let Grouping::User {
            keys,
            starts,
            ts,
            ips,
        } = &self.grouping
        else {
            panic!("the index holds the address grouping, not the user grouping");
        };
        keys.iter().enumerate().map(move |(i, &dense)| {
            let rows = run(starts, i);
            let group = UserGroup {
                ts: &ts[rows.clone()],
                ips: &ips[rows],
            };
            (self.tables.users.user(dense), group)
        })
    }

    /// Iterates `(address, group)` in ascending [`IpAddr`] order; rows
    /// within a group keep the window's timestamp order.
    ///
    /// # Panics
    /// On an index grouped by user.
    pub fn ip_groups(&self) -> impl ExactSizeIterator<Item = (IpAddr, AddressGroup<'_>)> {
        self.ip_id_groups()
            .map(|(id, group)| (self.tables.ips.addr(id), group))
    }

    /// Iterates `(address id, group)` in ascending [`IpId`] order — the
    /// column-native variant of [`DatasetIndex::ip_groups`] for passes
    /// that work over interned ids (prefix walks, radix tallies).
    ///
    /// # Panics
    /// On an index grouped by user.
    pub fn ip_id_groups(&self) -> impl ExactSizeIterator<Item = (IpId, AddressGroup<'_>)> {
        let Grouping::Address {
            keys,
            starts,
            users,
        } = &self.grouping
        else {
            panic!("the index holds the user grouping, not the address grouping");
        };
        keys.iter().enumerate().map(move |(i, &id)| {
            let group = AddressGroup {
                users: &users[run(starts, i)],
                tables: &self.tables,
            };
            (id, group)
        })
    }

    /// Heap bytes held by the grouping's columns and run tables (the run
    /// report's `run/analysis/index` bytes; shared intern tables
    /// excluded).
    pub fn bytes(&self) -> usize {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        match &self.grouping {
            Grouping::User {
                keys,
                starts,
                ts,
                ips,
            } => held(keys) + held(starts) + held(ts) + held(ips),
            Grouping::Address {
                keys,
                starts,
                users,
            } => held(keys) + held(starts) + held(users),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{Asn, Country, OwnedColumns, RequestRecord, SimDate};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let owned = OwnedColumns::from_records(&window());
        let idx = DatasetIndex::by_user(owned.as_slice());
        assert_eq!(idx.len(), 6);
        assert!(!idx.is_empty());
        let groups: Vec<(UserId, usize)> = idx.user_groups().map(|(u, g)| (u, g.len())).collect();
        assert_eq!(groups, vec![(UserId(1), 2), (UserId(2), 1), (UserId(3), 3)]);
        assert_eq!(idx.user_groups().len(), 3, "one group per distinct user");
        // Within user 3's run, timestamps ascend (stable sort).
        let g3 = idx.user_groups().find(|(u, _)| *u == UserId(3)).unwrap().1;
        assert!(g3.ts().windows(2).all(|w| w[0] <= w[1]));
        let g3_ips: Vec<IpAddr> = g3
            .ip_ids()
            .iter()
            .map(|&id| idx.tables().ips.addr(id))
            .collect();
        let a: IpAddr = "2001:db8:1::a".parse().unwrap();
        assert_eq!(g3_ips, [a, "10.0.0.1".parse().unwrap(), a]);
        assert_eq!(
            idx.bytes(),
            6 * 8 + 3 * 4 + 4 * 4,
            "8 B a row, 4 B a key and a start"
        );

        // IP groups: v4 sorts before v6 under IpAddr's order.
        let idx = DatasetIndex::by_address(owned.as_slice());
        assert_eq!(idx.len(), 6);
        let ips: Vec<IpAddr> = idx.ip_groups().map(|(ip, _)| ip).collect();
        assert_eq!(ips[0], "10.0.0.1".parse::<IpAddr>().unwrap());
        assert!(ips.windows(2).all(|w| w[0] < w[1]));
        // Id order matches address order.
        let ids: Vec<IpId> = idx.ip_id_groups().map(|(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), ips.len());
        let shared = idx.ip_groups().find(|(ip, _)| *ip == a).unwrap().1;
        let users: Vec<UserId> = shared
            .users_dense()
            .iter()
            .map(|&d| shared.tables().users.user(d))
            .collect();
        assert_eq!(users, [UserId(3), UserId(2), UserId(3)], "window order");
        assert_eq!(
            idx.bytes(),
            6 * 4 + 3 * 4 + 4 * 4,
            "4 B a row, 4 B a key and a start"
        );
    }

    /// Asking for the grouping an index does not hold panics, naming the
    /// one it holds.
    #[test]
    fn the_other_grouping_panics_naming_the_held_one() {
        let owned = OwnedColumns::from_records(&window());
        let message = |f: &dyn Fn() -> usize| {
            let err = catch_unwind(AssertUnwindSafe(f)).expect_err("panics");
            err.downcast_ref::<&str>().expect("a message").to_string()
        };
        let by_user = DatasetIndex::by_user(owned.as_slice());
        let held = "the index holds the user grouping, not the address grouping";
        assert_eq!(message(&|| by_user.ip_groups().count()), held);
        assert_eq!(message(&|| by_user.ip_id_groups().count()), held);
        let by_address = DatasetIndex::by_address(owned.as_slice());
        let held = "the index holds the address grouping, not the user grouping";
        assert_eq!(message(&|| by_address.user_groups().count()), held);
    }

    /// Computes the permutation that stable-sorts a key column ascending
    /// — the comparison-sort reference the radix path is tested against.
    fn sort_perm<K: Ord + Copy>(col: &[K]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..col.len() as u32).collect();
        perm.sort_by_key(|&i| col[i as usize]);
        perm
    }

    /// The reference grouping: hash-map buckets (append order = input
    /// order) in ascending key order, each with its rows' `row` values.
    fn naive_groups<K: Ord + Eq + std::hash::Hash + Copy, R>(
        keys: &[K],
        row: impl Fn(usize) -> R,
    ) -> Vec<(K, Vec<R>)> {
        let mut groups: std::collections::HashMap<K, Vec<R>> = std::collections::HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            groups.entry(k).or_default().push(row(i));
        }
        let mut groups: Vec<(K, Vec<R>)> = groups.into_iter().collect();
        groups.sort_unstable_by_key(|&(k, _)| k);
        groups
    }

    /// The radix permutation (the production path) equals the stable
    /// comparison-sort permutation for both key columns, and both
    /// groupings equal naive hash-grouping, on seeded inputs with heavy
    /// key duplication (which is what makes this a stability check:
    /// within a duplicate run, all must preserve input order), and on
    /// empty / single-row windows.
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
            let (users, ips, ts) = (cols.users_dense(), cols.ip_ids(), cols.ts());

            // Permutation level: radix == stable comparison sort.
            assert_eq!(
                radix_sort_perm_u32(users),
                sort_perm(users),
                "user perm, n={n}"
            );
            assert_eq!(radix_sort_perm_u32(ips), sort_perm(ips), "ip perm, n={n}");

            // Index level: each grouping == the hash-group oracle.
            let tables = cols.tables();
            let by_user: Vec<_> = DatasetIndex::by_user(cols)
                .user_groups()
                .map(|(u, g)| (tables.users.dense_of(u), g.ts().iter().zip(g.ip_ids())))
                .map(|(u, rows)| (u, rows.map(|(&t, &i)| (t, i)).collect::<Vec<_>>()))
                .collect();
            assert_eq!(by_user, naive_groups(users, |i| (ts[i], ips[i])), "n={n}");
            let by_address: Vec<_> = DatasetIndex::by_address(cols)
                .ip_id_groups()
                .map(|(id, g)| (id, g.users_dense().to_vec()))
                .collect();
            assert_eq!(by_address, naive_groups(ips, |i| users[i]), "n={n}");
        }
    }

    #[test]
    fn empty_window_is_safe() {
        let owned = OwnedColumns::from_records(&[]);
        let by_user = DatasetIndex::by_user(owned.as_slice());
        assert!(by_user.is_empty());
        assert_eq!(by_user.user_groups().count(), 0);
        let by_address = DatasetIndex::by_address(owned.as_slice());
        assert!(by_address.is_empty());
        assert_eq!(by_address.ip_groups().count(), 0);
        assert_eq!(by_user.bytes() + by_address.bytes(), 2 * 4, "two sentinels");
    }
}
