//! Global entity intern tables: dense ids for addresses and users.
//!
//! The study's analyses are group-by-entity scans over tens of millions of
//! rows; hashing full 128-bit addresses (and recomputing /64, /56, /48
//! prefixes) per row dominates them. Interning assigns every distinct
//! address and user a **dense** id once — during the driver's freeze step —
//! so the columnar stores carry 4-byte ids instead of 17-byte `IpAddr`
//! enums and 8-byte raw user ids, and every prefix a pass needs is a
//! precomputed per-entry column lookup. An address's ASN and country are
//! attributes of the address (the simulator allocates every address from
//! one network's pool), so they live in its table entry too, never in a
//! row.
//!
//! # Order isomorphism (the determinism contract)
//!
//! Dense ids are assigned in ascending raw-key order, and [`IpId`] packs
//! the address family into bit 31 (v4 = 0, v6 = 1):
//!
//! - sorting by dense user id ≡ sorting by raw [`UserId`];
//! - sorting by raw [`IpId`] ≡ sorting by [`IpAddr`]'s total order
//!   (all v4 before all v6, numeric within each family);
//! - prefix ids are dense in ascending prefix-bits order.
//!
//! Every group-by in the analysis layer therefore iterates in exactly the
//! order the row-oriented code did, which is what keeps `EXPERIMENTS.md`
//! byte-identical across the columnar refactor.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use ipv6_study_netaddr::Ipv6Prefix;

use crate::ids::{Asn, Country, UserId};
use crate::record::RequestRecord;
use crate::segment::Dictionary;

/// An address's attributes: the ASN announcing it and its country.
pub(crate) type Attrs = (Asn, Country);

/// `attrs` as `AS64496/US`, whatever bytes the country holds (so a
/// damaged file's entry can be named without a panic).
pub(crate) fn attrs_str((asn, country): Attrs) -> String {
    format!("{asn}/{}", String::from_utf8_lossy(&country.0))
}

/// A dense interned address id: bit 31 is the family (1 = IPv6), the low
/// 31 bits are the per-family index in ascending numeric address order.
///
/// The packing makes the `u32` ordering of ids isomorphic to [`IpAddr`]'s
/// derived total order (v4 < v6, numeric within a family), so sorting an
/// id column reproduces the row-oriented sort exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpId(u32);

/// The family bit of an [`IpId`].
pub(crate) const V6_BIT: u32 = 1 << 31;

impl IpId {
    /// Builds an id from a family and per-family index.
    ///
    /// # Panics
    /// Panics when `index` overflows the 31-bit per-family space.
    pub fn new(v6: bool, index: usize) -> Self {
        assert!((index as u64) < u64::from(V6_BIT), "IpId index overflow");
        Self(if v6 {
            V6_BIT | index as u32
        } else {
            index as u32
        })
    }

    /// Whether the id denotes an IPv6 address.
    #[inline]
    pub fn is_v6(self) -> bool {
        self.0 & V6_BIT != 0
    }

    /// The per-family table index.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & !V6_BIT) as usize
    }

    /// The packed raw value (for radix passes over id columns).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The id a packed raw value denotes.
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Self {
        Self(raw)
    }
}

/// The interned address dictionary with precomputed prefix-id columns.
///
/// Per-family address tables are sorted and deduplicated; every entry
/// carries its address's ASN and country, and each IPv6 entry the dense
/// id of its /64, /56 and /48 prefix — the prefix lengths the paper's
/// aggregation analyses (Figures 4, 6, 9–11) hit on every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpTable {
    v4: Vec<u32>,
    v6: Vec<u128>,
    v4_attrs: Vec<Attrs>,
    v6_attrs: Vec<Attrs>,
    v6_p64: Vec<u32>,
    v6_p56: Vec<u32>,
    v6_p48: Vec<u32>,
    p64: Vec<u128>,
    p56: Vec<u128>,
    p48: Vec<u128>,
}

/// Builds the per-entry prefix-id column plus the dense prefix table for
/// one prefix length over a sorted address column. Sorted input means the
/// masked bits are non-decreasing, so dense ids are assigned by run scan.
fn prefix_column<B: Copy + PartialEq>(addrs: &[B], mask: impl Fn(B) -> B) -> (Vec<u32>, Vec<B>) {
    let mut ids = Vec::with_capacity(addrs.len());
    let mut table: Vec<B> = Vec::new();
    for &a in addrs {
        let bits = mask(a);
        if table.last() != Some(&bits) {
            table.push(bits);
        }
        ids.push((table.len() - 1) as u32);
    }
    (ids, table)
}

/// One family's distinct address keys, ascending, and each one's
/// attributes, from entries in any order; `addr` names a key in the
/// panic. Entries are deduplicated through a map of the distinct keys,
/// so only those are sorted.
///
/// # Panics
/// Panics when two entries give one key different attributes.
fn distinct_entries<K: Hash + Ord + Copy>(
    entries: Vec<(K, Asn, Country)>,
    addr: impl Fn(K) -> IpAddr,
) -> (Vec<K>, Vec<Attrs>) {
    let mut seen: HashMap<K, Attrs, BuildHasherDefault<KeyHasher>> = HashMap::default();
    for (k, asn, country) in entries {
        let first = *seen.entry(k).or_insert((asn, country));
        if first != (asn, country) {
            let (a, c) = first;
            panic!(
                "address {} has two attributes: {a}/{c} and {asn}/{country}",
                addr(k)
            );
        }
    }
    let mut distinct: Vec<(K, Attrs)> = seen.into_iter().collect();
    // Keys are distinct, so the map's iteration order cannot show.
    distinct.sort_unstable_by_key(|&(k, _)| k);
    distinct.into_iter().unzip()
}

impl IpTable {
    /// Builds the table from the distinct addresses of a record stream,
    /// each with the ASN and country its records carry.
    ///
    /// # Panics
    /// Panics when two records give one address different (ASN,
    /// country) pairs.
    pub fn build<'a>(records: impl Iterator<Item = &'a RequestRecord>) -> Self {
        let mut v4 = Vec::new();
        let mut v6 = Vec::new();
        for r in records {
            match r.ip {
                IpAddr::V4(a) => v4.push((u32::from(a), r.asn, r.country)),
                IpAddr::V6(a) => v6.push((u128::from(a), r.asn, r.country)),
            }
        }
        Self::from_entries(v4, v6)
    }

    /// Builds the table from per-family (address key, ASN, country)
    /// entries, in any order and with repeats. The result depends only
    /// on the distinct entry *sets*, which is what makes tables built
    /// over spilled streams bit-identical to tables built over the same
    /// records in memory.
    ///
    /// # Panics
    /// Panics when two entries give one address different attributes.
    pub fn from_entries(v4: Vec<(u32, Asn, Country)>, v6: Vec<(u128, Asn, Country)>) -> Self {
        let (v4, v4_attrs) = distinct_entries(v4, |k| Ipv4Addr::from(k).into());
        let (v6, v6_attrs) = distinct_entries(v6, |k| Ipv6Addr::from(k).into());
        Self::from_sorted(v4, v6, v4_attrs, v6_attrs)
    }

    /// Builds the table from each family's distinct addresses, ascending,
    /// and their attributes in the same order.
    pub(crate) fn from_sorted(
        v4: Vec<u32>,
        v6: Vec<u128>,
        v4_attrs: Vec<Attrs>,
        v6_attrs: Vec<Attrs>,
    ) -> Self {
        debug_assert!(v4.windows(2).all(|w| w[0] < w[1]) && v6.windows(2).all(|w| w[0] < w[1]));
        let (v6_p64, p64) = prefix_column(&v6, |a| Ipv6Prefix::bits_containing(a, 64));
        let (v6_p56, p56) = prefix_column(&v6, |a| Ipv6Prefix::bits_containing(a, 56));
        let (v6_p48, p48) = prefix_column(&v6, |a| Ipv6Prefix::bits_containing(a, 48));
        Self {
            v4,
            v6,
            v4_attrs,
            v6_attrs,
            v6_p64,
            v6_p56,
            v6_p48,
            p64,
            p56,
            p48,
        }
    }

    /// Number of distinct addresses (both families).
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when no address was interned.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }

    /// Number of distinct IPv6 addresses.
    pub fn num_v6(&self) -> usize {
        self.v6.len()
    }

    /// Number of distinct IPv4 addresses.
    pub fn num_v4(&self) -> usize {
        self.v4.len()
    }

    /// The IPv4 keys in dense-id order (ascending).
    pub(crate) fn v4_keys(&self) -> &[u32] {
        &self.v4
    }

    /// The IPv6 keys in dense-id order (ascending).
    pub(crate) fn v6_keys(&self) -> &[u128] {
        &self.v6
    }

    /// The dense id of an interned address.
    ///
    /// # Panics
    /// Panics when the address was not part of the stream the table was
    /// built over — encoding is only defined for interned entities.
    pub fn id_of(&self, ip: IpAddr) -> IpId {
        match ip {
            IpAddr::V4(a) => IpId::new(
                false,
                self.v4
                    .binary_search(&u32::from(a))
                    .expect("address was interned"),
            ),
            IpAddr::V6(a) => IpId::new(
                true,
                self.v6
                    .binary_search(&u128::from(a))
                    .expect("address was interned"),
            ),
        }
    }

    /// The address an id denotes.
    #[inline]
    pub fn addr(&self, id: IpId) -> IpAddr {
        if id.is_v6() {
            IpAddr::V6(std::net::Ipv6Addr::from(self.v6[id.index()]))
        } else {
            IpAddr::V4(std::net::Ipv4Addr::from(self.v4[id.index()]))
        }
    }

    /// The ASN announcing an address and the country it geolocates to.
    #[inline]
    pub(crate) fn attrs(&self, id: IpId) -> Attrs {
        if id.is_v6() {
            self.v6_attrs[id.index()]
        } else {
            self.v4_attrs[id.index()]
        }
    }

    /// The ASN announcing an address.
    #[inline]
    pub fn asn(&self, id: IpId) -> Asn {
        self.attrs(id).0
    }

    /// The country an address geolocates to.
    #[inline]
    pub fn country(&self, id: IpId) -> Country {
        self.attrs(id).1
    }

    /// Raw 128-bit value of an IPv6 id.
    ///
    /// # Panics
    /// Panics (in debug builds, via indexing invariants) when `id` is v4.
    #[inline]
    pub fn v6_bits(&self, id: IpId) -> u128 {
        debug_assert!(id.is_v6());
        self.v6[id.index()]
    }

    /// Raw 32-bit value of an IPv4 id.
    #[inline]
    pub fn v4_bits(&self, id: IpId) -> u32 {
        debug_assert!(!id.is_v6());
        self.v4[id.index()]
    }

    /// Dense /64 prefix id of an IPv6 address id.
    #[inline]
    pub fn p64_id(&self, id: IpId) -> u32 {
        self.v6_p64[id.index()]
    }

    /// Dense /56 prefix id of an IPv6 address id.
    #[inline]
    pub fn p56_id(&self, id: IpId) -> u32 {
        self.v6_p56[id.index()]
    }

    /// Dense /48 prefix id of an IPv6 address id.
    #[inline]
    pub fn p48_id(&self, id: IpId) -> u32 {
        self.v6_p48[id.index()]
    }

    /// Network bits of a dense /64 prefix id.
    #[inline]
    pub fn p64_bits(&self, pid: u32) -> u128 {
        self.p64[pid as usize]
    }

    /// Network bits of a dense /56 prefix id.
    #[inline]
    pub fn p56_bits(&self, pid: u32) -> u128 {
        self.p56[pid as usize]
    }

    /// Network bits of a dense /48 prefix id.
    #[inline]
    pub fn p48_bits(&self, pid: u32) -> u128 {
        self.p48[pid as usize]
    }

    /// Heap bytes held by the table (address, attribute and prefix
    /// columns).
    pub fn bytes(&self) -> usize {
        self.v4.len() * 4
            + self.v6.len() * 16
            + (self.v4_attrs.len() + self.v6_attrs.len()) * std::mem::size_of::<Attrs>()
            + (self.v6_p64.len() + self.v6_p56.len() + self.v6_p48.len()) * 4
            + (self.p64.len() + self.p56.len() + self.p48.len()) * 16
    }
}

/// The interned user dictionary: dense `u32` ids in ascending raw order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserTable {
    raw: Vec<u64>,
}

impl UserTable {
    /// Builds the table from the distinct users of a record stream.
    pub fn build<'a>(records: impl Iterator<Item = &'a RequestRecord>) -> Self {
        Self::from_keys(records.map(|r| r.user.raw()).collect())
    }

    /// Builds the table from raw user keys (duplicates and arbitrary
    /// order allowed); depends only on the distinct key set.
    pub fn from_keys(mut raw: Vec<u64>) -> Self {
        crate::kernels::radix_sort_u64(&mut raw);
        raw.dedup();
        Self { raw }
    }

    /// Number of distinct users.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when no user was interned.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The dense id of an interned user.
    ///
    /// # Panics
    /// Panics when the user was not part of the stream the table was
    /// built over.
    #[inline]
    pub fn dense_of(&self, user: UserId) -> u32 {
        self.raw
            .binary_search(&user.raw())
            .expect("user was interned") as u32
    }

    /// The raw user id a dense id denotes.
    #[inline]
    pub fn user(&self, dense: u32) -> UserId {
        UserId(self.raw[dense as usize])
    }

    /// The raw user keys in dense-id order (ascending).
    pub(crate) fn keys(&self) -> &[u64] {
        &self.raw
    }

    /// Heap bytes held by the table.
    pub fn bytes(&self) -> usize {
        self.raw.len() * 8
    }
}

/// The shared intern tables a frozen telemetry core hangs off: one address
/// dictionary and one user dictionary, built once over every retained
/// store during the driver's freeze step and shared by `Arc` across all
/// frozen stores, indexes, and analysis threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntityTables {
    /// Interned addresses with precomputed prefix-id columns.
    pub ips: IpTable,
    /// Interned users.
    pub users: UserTable,
}

impl EntityTables {
    /// Builds both tables from one pass over a record stream.
    pub fn build<'a>(records: impl Iterator<Item = &'a RequestRecord> + Clone) -> Self {
        Self {
            ips: IpTable::build(records.clone()),
            users: UserTable::build(records),
        }
    }

    /// Convenience constructor over a record slice.
    pub fn from_records(records: &[RequestRecord]) -> Self {
        Self::build(records.iter())
    }

    /// Heap bytes held by both tables.
    pub fn bytes(&self) -> usize {
        self.ips.bytes() + self.users.bytes()
    }
}

/// Hashes the interner's integer keys with one folded multiply per
/// 64-bit word. The interner's maps are probed, never iterated into
/// output (ranking sorts their keys), so the hash needs spread, not
/// stability, and a full xxHash64 per key would cost more than the rest
/// of a row's staging. Keys come from this program's own simulator, so
/// no caller can craft them to collide.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// An odd 64-bit constant (the fractional bits of π).
    const MUL: u64 = 0x243f_6a88_85a3_08d3;
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * u128::from(Self::MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

/// A provisional-id map of one key family.
pub(crate) type KeyIds<K> = HashMap<K, u32, BuildHasherDefault<KeyHasher>>;

/// The provisional id of `key`, assigning the next one on first sight.
fn provisional<K: Hash + Eq>(ids: &mut KeyIds<K>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

/// A first-sight dictionary: provisional ids for the keys seen so far,
/// assigned in first-sight order, one id space per key family, and each
/// address's attributes as its first sighting gave them. A shard's
/// staged rows carry its ids until a seal ranks them; the freeze maps
/// every segment dictionary into one before it ranks the whole run's
/// keys.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    pub v4: AddressIds<u32>,
    pub v6: AddressIds<u128>,
    pub users: KeyIds<u64>,
}

/// One address family's provisional ids, and each address's attributes
/// by provisional id.
#[derive(Debug)]
pub(crate) struct AddressIds<K> {
    ids: KeyIds<K>,
    attrs: Vec<Attrs>,
}

impl<K> Default for AddressIds<K> {
    fn default() -> Self {
        Self {
            ids: KeyIds::default(),
            attrs: Vec::new(),
        }
    }
}

/// A dictionary entry whose attributes differ from the ones an earlier
/// dictionary gave its address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Conflict {
    /// The entry's family.
    pub v6: bool,
    /// The entry's position among its family's keys.
    pub entry: usize,
    /// The attributes the address was first interned with.
    pub first: Attrs,
}

impl<K: Hash + Ord + Copy> AddressIds<K> {
    /// The provisional id of address `key`, recording `attrs` as its
    /// attributes on first sight; returned with the attributes recorded.
    fn intern(&mut self, key: K, attrs: Attrs) -> (usize, Attrs) {
        let id = provisional(&mut self.ids, key) as usize;
        if id == self.attrs.len() {
            self.attrs.push(attrs);
        }
        (id, self.attrs[id])
    }

    /// The provisional ids of one dictionary family's entries, or the
    /// first entry whose attributes disagree with its address's.
    fn intern_entries(
        &mut self,
        keys: &[K],
        attrs: &[Attrs],
        v6: bool,
    ) -> Result<Vec<IpId>, Conflict> {
        let entries = keys.iter().zip(attrs).enumerate();
        entries
            .map(|(entry, (&key, &attrs))| match self.intern(key, attrs) {
                (id, first) if first == attrs => Ok(IpId::new(v6, id)),
                (_, first) => Err(Conflict { v6, entry, first }),
            })
            .collect()
    }

    /// The distinct addresses in ascending order, their attributes in
    /// the same order, and the rank of each provisional id among them;
    /// the family is left empty.
    pub fn drain_ranked(&mut self) -> (Vec<K>, Vec<Attrs>, Vec<u32>) {
        let (keys, rank) = rank_keys(self.ids.drain());
        let mut ranked = self.attrs.clone();
        for (&attrs, &r) in self.attrs.iter().zip(&rank) {
            ranked[r as usize] = attrs;
        }
        self.attrs.clear();
        (keys, ranked, rank)
    }

    /// Heap bytes of the entries: each key, its `u32` id and its
    /// attributes.
    fn bytes(&self) -> usize {
        self.ids.len() * (std::mem::size_of::<(K, u32)>() + std::mem::size_of::<Attrs>())
    }
}

/// One dictionary's local ids mapped into another id space: local v4,
/// v6 and user ids index these tables.
#[derive(Debug, Default)]
pub(crate) struct LocalIds {
    pub v4: Vec<IpId>,
    pub v6: Vec<IpId>,
    pub users: Vec<u32>,
}

impl Interner {
    /// The provisional id of address `ip`, and its attributes: `attrs`
    /// on first sight, else the ones its first sighting gave. The id
    /// keeps the family bit; its index counts within the family.
    pub fn intern_ip(&mut self, ip: IpAddr, attrs: Attrs) -> (IpId, Attrs) {
        let (v6, (id, first)) = match ip {
            IpAddr::V4(a) => (false, self.v4.intern(u32::from(a), attrs)),
            IpAddr::V6(a) => (true, self.v6.intern(u128::from(a), attrs)),
        };
        (IpId::new(v6, id), first)
    }

    /// The provisional id of `user`.
    pub fn intern_user(&mut self, user: UserId) -> u32 {
        provisional(&mut self.users, user.raw())
    }

    /// Interns every key of `dict`: its local → provisional tables, or
    /// the first address entry whose attributes disagree with the ones
    /// an earlier dictionary gave the address.
    pub fn intern_dictionary(&mut self, dict: &Dictionary) -> Result<LocalIds, Conflict> {
        Ok(LocalIds {
            v4: (self.v4).intern_entries(&dict.v4, &dict.v4_attrs, false)?,
            v6: (self.v6).intern_entries(&dict.v6, &dict.v6_attrs, true)?,
            users: (dict.users.iter())
                .map(|&k| provisional(&mut self.users, k))
                .collect(),
        })
    }

    /// Heap bytes of the entries: each key and its `u32` id, and each
    /// address's attributes.
    pub fn bytes(&self) -> u64 {
        (self.v4.bytes() + self.v6.bytes() + self.users.len() * std::mem::size_of::<(u64, u32)>())
            as u64
    }
}

/// A key family's distinct keys in ascending order, and the rank of each
/// provisional id among them.
pub(crate) fn rank_keys<K: Ord + Copy>(ids: impl Iterator<Item = (K, u32)>) -> (Vec<K>, Vec<u32>) {
    let mut by_key: Vec<(K, u32)> = ids.collect();
    // Keys are distinct, so the map's iteration order cannot show.
    by_key.sort_unstable();
    let mut rank = vec![0; by_key.len()];
    for (r, &(_, id)) in by_key.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    (by_key.into_iter().map(|(key, _)| key).collect(), rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country};
    use crate::time::SimDate;

    fn rec(user: u64, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 13).at(12, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn ids_are_order_isomorphic_to_raw_keys() {
        let recs = vec![
            rec(9, "2001:db8::2"),
            rec(3, "10.0.0.1"),
            rec(7, "2001:db8::1"),
            rec(3, "192.0.2.1"),
            rec(9, "10.0.0.1"),
        ];
        let t = EntityTables::from_records(&recs);
        // Users dense-ascending == raw-ascending.
        assert_eq!(t.users.len(), 3);
        assert_eq!(t.users.user(0), UserId(3));
        assert_eq!(t.users.user(2), UserId(9));
        assert_eq!(t.users.dense_of(UserId(7)), 1);
        // Addresses: every v4 id sorts below every v6 id, numeric within.
        let mut addrs: Vec<IpAddr> = recs.iter().map(|r| r.ip).collect();
        addrs.sort_unstable();
        addrs.dedup();
        let ids: Vec<IpId> = addrs.iter().map(|&a| t.ips.id_of(a)).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "id order == IpAddr order"
        );
        for (&a, &id) in addrs.iter().zip(&ids) {
            assert_eq!(t.ips.addr(id), a, "round trip");
        }
        assert_eq!(t.ips.num_v4(), 2);
        assert_eq!(t.ips.num_v6(), 2);
        assert!(!t.ips.is_empty() && !t.users.is_empty());
        assert!(t.bytes() > 0);
    }

    /// The stored /64 /56 /48 prefix ids must agree with `netaddr`
    /// prefix math applied to the raw address — including v4-mapped and
    /// edge addresses.
    #[test]
    fn prefix_columns_agree_with_netaddr_math() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4950_5442); // "IPTB"
        let mut recs = Vec::new();
        for i in 0..512u64 {
            let bits = g.next_u128();
            recs.push(rec(i, &std::net::Ipv6Addr::from(bits).to_string()));
            let v4 = std::net::Ipv4Addr::from(g.next_u64() as u32);
            recs.push(rec(i, &v4.to_string()));
        }
        // Edge and v4-mapped addresses.
        for s in [
            "::",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
            "::ffff:192.0.2.1",
            "::1",
            "0.0.0.0",
            "255.255.255.255",
        ] {
            recs.push(rec(1, s));
        }
        let t = IpTable::build(recs.iter());
        for r in &recs {
            let id = t.id_of(r.ip);
            match r.ip {
                IpAddr::V6(a) => {
                    let raw = u128::from(a);
                    assert_eq!(
                        t.p64_bits(t.p64_id(id)),
                        Ipv6Prefix::containing(a, 64).bits(),
                        "/64 of {a}"
                    );
                    assert_eq!(
                        t.p56_bits(t.p56_id(id)),
                        Ipv6Prefix::bits_containing(raw, 56),
                        "/56 of {a}"
                    );
                    assert_eq!(
                        t.p48_bits(t.p48_id(id)),
                        Ipv6Prefix::bits_containing(raw, 48),
                        "/48 of {a}"
                    );
                    assert_eq!(t.v6_bits(id), raw);
                }
                IpAddr::V4(a) => assert_eq!(t.v4_bits(id), u32::from(a)),
            }
        }
        // Prefix ids are dense in ascending prefix-bits order.
        assert!(t.p64.windows(2).all(|w| w[0] < w[1]));
        assert!(!t.v6_p64.is_empty());
    }

    /// Each address's ASN and country live in its table entry, whatever
    /// the order and repetition of the rows that carry them.
    #[test]
    fn attributes_live_in_the_address_entry() {
        let mut recs = vec![
            rec(1, "10.0.0.1"),
            rec(2, "2001:db8::1"),
            rec(3, "10.0.0.2"),
        ];
        recs[1].asn = Asn(64497);
        recs[2].country = Country::new("DE");
        recs.push(recs[1]);
        let t = IpTable::build(recs.iter().rev());
        for r in &recs {
            let id = t.id_of(r.ip);
            assert_eq!((t.asn(id), t.country(id)), (r.asn, r.country), "{}", r.ip);
        }
        // Three addresses: 4 + 16 + 4 key bytes, 8 attribute bytes each,
        // and /64, /56 and /48 ids and prefix bits for the v6.
        assert_eq!(t.bytes(), 24 + 3 * 8 + 3 * 4 + 3 * 16);
    }

    #[test]
    #[should_panic(expected = "address 10.0.0.1 has two attributes: AS64496/US and AS64497/US")]
    fn an_address_with_two_pairs_panics() {
        let mut other = rec(2, "10.0.0.1");
        other.asn = Asn(64497);
        let _ = IpTable::build([rec(1, "10.0.0.1"), other].iter());
    }

    #[test]
    #[should_panic(expected = "address was interned")]
    fn uninterned_address_panics() {
        let t = IpTable::build([rec(1, "10.0.0.1")].iter());
        let _ = t.id_of("10.0.0.2".parse().unwrap());
    }

    #[test]
    fn empty_tables_are_valid() {
        let t = EntityTables::from_records(&[]);
        assert!(t.ips.is_empty());
        assert!(t.users.is_empty());
        assert_eq!(t.bytes(), 0);
    }
}
