//! A stable 64-bit hash for deterministic sampling.
//!
//! The study's datasets are built by *deterministic attribute sampling*
//! (§3.1): a request is in the "user random sample" iff
//! `hash(user_id) mod N == 0`, and likewise for IP addresses and prefixes.
//! For that to be reproducible the hash must be fixed for all time, across
//! platforms and Rust releases — which rules out `std`'s `DefaultHasher`
//! (documented as unstable). We implement **xxHash64**, a public, well-tested
//! non-cryptographic hash with excellent avalanche behavior, from its
//! specification.
//!
//! Two forms share one implementation: the one-shot [`stable_hash64`] over
//! a byte slice, and the streaming [`StableHasher`] (four lane
//! accumulators, a 32-byte stripe buffer and the total length), which
//! hashes fields as they are written without allocating and returns
//! exactly what [`stable_hash64`] returns over the concatenated bytes.
//! The streaming form backs the simulator's compound keys, the test
//! suites' whole-dataset digests and the [`SeededBuildHasher`] maps.
//!
//! Every entry point is `#[inline]`. The simulator's crates call these
//! per request, and a build without LTO inlines a non-generic function
//! across crates only when it is marked so; out of line, a 5-word key
//! costs about five times as much (DESIGN.md §13).

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

/// Bytes one round of the four lanes consumes.
const STRIPE: usize = 32;

/// Computes the xxHash64 of `data` with the given `seed`.
///
/// The result is stable: it will never change between releases of this
/// workspace, and matches the reference xxHash64 vectors.
#[inline]
pub fn stable_hash64(seed: u64, data: &[u8]) -> u64 {
    let mut lanes = init_lanes(seed);
    let stripes = data.chunks_exact(STRIPE);
    let tail = stripes.remainder();
    for stripe in stripes {
        consume_stripe(&mut lanes, stripe);
    }
    digest(seed, &lanes, data.len() as u64, tail)
}

/// The four lane accumulators before any stripe.
#[inline]
fn init_lanes(seed: u64) -> [u64; 4] {
    [
        seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
        seed.wrapping_add(PRIME64_2),
        seed,
        seed.wrapping_sub(PRIME64_1),
    ]
}

/// Folds one 32-byte stripe into the lanes.
#[inline]
fn consume_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
    lanes[0] = round(lanes[0], read_u64(&stripe[0..8]));
    lanes[1] = round(lanes[1], read_u64(&stripe[8..16]));
    lanes[2] = round(lanes[2], read_u64(&stripe[16..24]));
    lanes[3] = round(lanes[3], read_u64(&stripe[24..32]));
}

/// The hash of `len` bytes whose complete stripes went into `lanes` and
/// whose last `len % 32` bytes are `tail`.
#[inline]
fn digest(seed: u64, lanes: &[u64; 4], len: u64, mut tail: &[u8]) -> u64 {
    let mut h = if len >= STRIPE as u64 {
        let [v1, v2, v3, v4] = *lanes;
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = merge_round(h, v);
        }
        h
    } else {
        seed.wrapping_add(PRIME64_5)
    };

    h = h.wrapping_add(len);

    while tail.len() >= 8 {
        let k1 = round(0, read_u64(&tail[0..8]));
        h ^= k1;
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let k = u64::from(read_u32(&tail[0..4]));
        h ^= k.wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    // Final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    let val = round(0, val);
    (acc ^ val).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("slice of length 8"))
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("slice of length 4"))
}

/// Streaming xxHash64 for compound keys of fixed-width fields.
///
/// Samplers hash compound keys such as `(dataset tag, user id)`; every
/// `write_*` call appends the field's full fixed-width little-endian
/// encoding, so field boundaries are unambiguous. The state is fixed-size
/// (four lanes, one 32-byte stripe buffer, the total length): writing
/// never allocates, any number of bytes may be written, and
/// [`StableHasher::finish`] equals [`stable_hash64`] over the
/// concatenation of everything written.
#[derive(Debug, Clone)]
pub struct StableHasher {
    seed: u64,
    lanes: [u64; 4],
    stripe: [u8; STRIPE],
    /// Bytes buffered in `stripe`, always below [`STRIPE`].
    buffered: usize,
    /// Total bytes written.
    len: u64,
}

impl StableHasher {
    /// Creates a hasher with a domain-separation `seed`.
    ///
    /// Distinct samplers must use distinct seeds so that, e.g., the user
    /// sample and the IP sample are statistically independent.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            lanes: init_lanes(seed),
            stripe: [0; STRIPE],
            buffered: 0,
            len: 0,
        }
    }

    /// Appends a `u64` field.
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Appends a `u128` field (e.g. a full IPv6 address).
    #[inline]
    pub fn write_u128(&mut self, v: u128) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Appends raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, mut b: &[u8]) -> &mut Self {
        self.len += b.len() as u64;
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(b.len());
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&b[..take]);
            self.buffered += take;
            b = &b[take..];
            if self.buffered < STRIPE {
                return self;
            }
            consume_stripe(&mut self.lanes, &self.stripe);
            self.buffered = 0;
        }
        let stripes = b.chunks_exact(STRIPE);
        let tail = stripes.remainder();
        for stripe in stripes {
            consume_stripe(&mut self.lanes, stripe);
        }
        self.stripe[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
        self
    }

    /// Finishes the hash, consuming nothing (the hasher can be reused after
    /// [`StableHasher::reset`]).
    #[inline]
    pub fn finish(&self) -> u64 {
        digest(
            self.seed,
            &self.lanes,
            self.len,
            &self.stripe[..self.buffered],
        )
    }

    /// Clears accumulated bytes, keeping the seed.
    #[inline]
    pub fn reset(&mut self) {
        *self = Self::new(self.seed);
    }
}

/// A [`std::hash::BuildHasher`] over [`stable_hash64`], for hash maps on
/// analysis hot paths.
///
/// `std`'s default SipHash trades speed for HashDoS resistance we do not
/// need (all keys come from our own simulator), and its per-map random seed
/// makes iteration order vary between runs. This builder hashes with the
/// frozen xxHash64 under a fixed seed instead: faster on the short integer
/// keys the analyses use, stable across runs/platforms, and std-only.
///
/// Note that map *iteration* order, while now reproducible, is still an
/// implementation detail of `std`'s table layout — output paths must keep
/// sorting before emitting rows.
#[derive(Debug, Clone, Copy)]
pub struct SeededBuildHasher {
    seed: u64,
}

/// Domain-separation seed for [`SeededBuildHasher::default`], distinct from
/// every sampler seed in the workspace.
const DEFAULT_MAP_SEED: u64 = 0x4D41_5048_4153_4845; // "MAPHASHE"

impl SeededBuildHasher {
    /// Creates a builder hashing under `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for SeededBuildHasher {
    #[inline]
    fn default() -> Self {
        Self::new(DEFAULT_MAP_SEED)
    }
}

impl std::hash::BuildHasher for SeededBuildHasher {
    type Hasher = SeededHasher;

    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher(StableHasher::new(self.seed))
    }
}

/// The [`std::hash::Hasher`] produced by [`SeededBuildHasher`]: a
/// [`StableHasher`] behind the std trait, so hashing a key allocates
/// nothing. Integer writes are encoded little-endian explicitly so the
/// hash — and thus table layout — is identical on every platform.
#[derive(Debug, Clone)]
pub struct SeededHasher(StableHasher);

impl std::hash::Hasher for SeededHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0.write_bytes(&[v]);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0.write_bytes(&v.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0.write_bytes(&v.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.0.write_u128(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        // Widen to u64 so 32- and 64-bit platforms hash identically.
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.write_u8(v as u8);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` keyed by the stable seeded hasher.
pub type StableHashMap<K, V> = std::collections::HashMap<K, V, SeededBuildHasher>;

/// A `HashSet` keyed by the stable seeded hasher.
pub type StableHashSet<K> = std::collections::HashSet<K, SeededBuildHasher>;

/// Returns true with probability `rate` (deterministically) for the given key.
///
/// This is the sampling primitive behind every dataset in the study: the
/// decision depends only on `(seed, key)`, so the *same* users / addresses /
/// prefixes are selected every day, exactly as in the paper's methodology
/// ("our sampling method is deterministic over time", §3.1).
#[inline]
pub fn sampled(seed: u64, key: u64, rate: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
    let h = stable_hash64(seed, &key.to_le_bytes());
    // Map the hash to [0, 1) with 53 bits of precision.
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical empty-input vector from the xxHash specification
    /// (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).
    #[test]
    fn xxhash64_empty_input_vector() {
        assert_eq!(stable_hash64(0, b""), 0xEF46DB3751D8E999);
    }

    /// Published xxHash64 vectors for short ASCII inputs at seed 0 (widely
    /// reproduced from the reference implementation's sanity checks).
    #[test]
    fn xxhash64_ascii_vectors() {
        assert_eq!(stable_hash64(0, b"a"), 0xd24ec4f1a98c6e5b);
        assert_eq!(stable_hash64(0, b"abc"), 0x44bc2cf5ad770999);
    }

    /// Frozen golden vectors over every length class — empty, tail-only
    /// (<8, <4), word-tail, and the 32-byte four-lane stripe path — and over
    /// multiple seeds. These were cross-validated against the reference
    /// xxHash64 once and are now pinned: the sampled datasets depend on
    /// these exact values, so they must never change.
    #[test]
    fn xxhash64_matches_frozen_vectors() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        #[rustfmt::skip]
        let goldens: &[(u64, usize, u64)] = &[
            (0x0, 0, 0xef46db3751d8e999), (0x0, 1, 0xe934a84adb052768),
            (0x0, 3, 0xe5c7bb4533bc65dd), (0x0, 4, 0xffced8604453cc1e),
            (0x0, 7, 0x14cc643f630c72d2), (0x0, 8, 0x884a173614b81b8d),
            (0x0, 13, 0x13d17c4c779723a8), (0x0, 16, 0x44b6ef2fb84169f7),
            (0x0, 31, 0xc346d2b59b4d8ee1), (0x0, 32, 0xcbf59c5116ff32b4),
            (0x0, 33, 0x0c535d1acafb8ead), (0x0, 63, 0xe26aa9e2a95f8e4f),
            (0x0, 64, 0xf7c67301db6713f0), (0x0, 100, 0x6ac1e58032166597),
            (0x0, 255, 0x0f7d97507caad693), (0x0, 300, 0x4f1d6de0165b155a),
            (0x1, 0, 0xd5afba1336a3be4b), (0x1, 1, 0x771917c7f6ee2451),
            (0x1, 3, 0xa2168d89c582b451), (0x1, 4, 0x94506f8c7e5870a9),
            (0x1, 7, 0xaf4c5311c47c77b7), (0x1, 8, 0x9d2b7c7354fe4e23),
            (0x1, 13, 0xa8aa733c5ea6e3bb), (0x1, 16, 0xdd4230f47b0d28c1),
            (0x1, 31, 0xf031031d65977dfc), (0x1, 32, 0xd74e6766ce9dba94),
            (0x1, 33, 0xa371825f4210fe99), (0x1, 63, 0x5264ec0719e10595),
            (0x1, 64, 0x3ce5bdf7575926c0), (0x1, 100, 0x3d19a3a2098a7023),
            (0x1, 255, 0xec6164aa2e454f2b), (0x1, 300, 0xda1c9a4bf865135d),
            (0x9e3779b185ebca87, 0, 0x6ec6d05f61c7e7a7),
            (0x9e3779b185ebca87, 1, 0x60508b0ced72c717),
            (0x9e3779b185ebca87, 3, 0xa1552d556a299b24),
            (0x9e3779b185ebca87, 4, 0xd485946465317d49),
            (0x9e3779b185ebca87, 7, 0x0ff0ba621eec7a4e),
            (0x9e3779b185ebca87, 8, 0x5eb050a7cb134cae),
            (0x9e3779b185ebca87, 13, 0xed7609f72d314b2e),
            (0x9e3779b185ebca87, 16, 0xc633a2fb67580003),
            (0x9e3779b185ebca87, 31, 0xa3c5ec38a60b7ea1),
            (0x9e3779b185ebca87, 32, 0xbfb3e4ef6096c49c),
            (0x9e3779b185ebca87, 33, 0x702e2aa8b96740bd),
            (0x9e3779b185ebca87, 63, 0xb83be1f91b39104d),
            (0x9e3779b185ebca87, 64, 0x2006c268b7d34f54),
            (0x9e3779b185ebca87, 100, 0x00278bda0ee3f586),
            (0x9e3779b185ebca87, 255, 0x26d3f88ab2d2ce34),
            (0x9e3779b185ebca87, 300, 0x8ef4dbc1bd6f1daf),
            (0xffffffffffffffff, 0, 0x298f4c84b24f5380),
            (0xffffffffffffffff, 1, 0x8ba3328805e37c90),
            (0xffffffffffffffff, 3, 0x2766da80af982d5d),
            (0xffffffffffffffff, 4, 0x50ee1d0d77c6ca04),
            (0xffffffffffffffff, 7, 0x53899ea28b7375fc),
            (0xffffffffffffffff, 8, 0x367a57c649c7a5ac),
            (0xffffffffffffffff, 13, 0xdf16ce003b750916),
            (0xffffffffffffffff, 16, 0xb261c2ef4316cc29),
            (0xffffffffffffffff, 31, 0x208e0384ffffdb7a),
            (0xffffffffffffffff, 32, 0x35220dfdb7d4d7c9),
            (0xffffffffffffffff, 33, 0x5677d5193d356c20),
            (0xffffffffffffffff, 63, 0xc57c35bc58c8fe4a),
            (0xffffffffffffffff, 64, 0x79e8b8230306e25c),
            (0xffffffffffffffff, 100, 0x09a991a091c9f6d7),
            (0xffffffffffffffff, 255, 0xeee590888bb50713),
            (0xffffffffffffffff, 300, 0x1dc987251be347da),
        ];
        for &(seed, len, expect) in goldens {
            assert_eq!(
                stable_hash64(seed, &data[..len]),
                expect,
                "mismatch at seed={seed} len={len}"
            );
        }
    }

    #[test]
    fn long_input_uses_lane_mixing() {
        // >= 32 bytes exercises the four-lane path.
        let data: Vec<u8> = (0u8..100).collect();
        let h1 = stable_hash64(7, &data);
        let h2 = stable_hash64(7, &data);
        let h3 = stable_hash64(8, &data);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3, "seed must matter");
    }

    #[test]
    fn sampler_rate_is_respected() {
        let n = 200_000u64;
        let rate = 0.001;
        let hits = (0..n).filter(|&k| sampled(42, k, rate)).count();
        let expected = (n as f64 * rate) as i64;
        // Binomial stddev ≈ sqrt(200) ≈ 14; allow 5σ.
        assert!(
            (hits as i64 - expected).abs() < 80,
            "hits={hits} expected≈{expected}"
        );
    }

    #[test]
    fn sampler_is_deterministic() {
        for k in 0..1000u64 {
            assert_eq!(sampled(1, k, 0.01), sampled(1, k, 0.01));
        }
    }

    #[test]
    fn sampler_monotone_in_rate() {
        // A key sampled at rate r must also be sampled at any rate r' > r.
        for k in 0..2000u64 {
            if sampled(3, k, 0.001) {
                assert!(sampled(3, k, 0.01));
                assert!(sampled(3, k, 1.0));
            }
        }
    }

    #[test]
    fn seeded_build_hasher_is_deterministic_and_usable() {
        use std::hash::BuildHasher;

        // Same key, two independently built hashers: identical output.
        let b = SeededBuildHasher::default();
        let hash_of = |v: u64| b.hash_one(v);
        assert_eq!(hash_of(42), hash_of(42));
        assert_ne!(hash_of(42), hash_of(43));

        // Distinct seeds produce distinct table layouts.
        assert_ne!(
            SeededBuildHasher::new(1).hash_one(7u64),
            SeededBuildHasher::new(2).hash_one(7u64)
        );

        // The aliases behave like plain maps/sets.
        let mut m: StableHashMap<u64, u64> = StableHashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m[&1], 10);
        let mut s: StableHashSet<u128> = StableHashSet::default();
        s.insert(5);
        assert!(s.contains(&5));
        assert!(!s.contains(&6));
    }

    #[test]
    fn seeded_hasher_integer_writes_are_width_stable() {
        use std::hash::{BuildHasher, Hasher};
        // usize must hash like the equivalent u64 on every platform.
        let b = SeededBuildHasher::default();
        let mut a = b.build_hasher();
        a.write_usize(99);
        let mut c = b.build_hasher();
        c.write_u64(99);
        assert_eq!(a.finish(), c.finish());
    }

    /// The streaming hasher equals the one-shot hash over the
    /// concatenated bytes for every length through several stripes, fed
    /// whole, split once at several points, and byte by byte.
    #[test]
    fn streaming_matches_one_shot_at_every_length_and_split() {
        let data: Vec<u8> = (0u8..=255).cycle().skip(7).take(256).collect();
        for seed in [0, 1, 0x9e37_79b1_85eb_ca87, u64::MAX] {
            for len in 0..=256 {
                let bytes = &data[..len];
                let expect = stable_hash64(seed, bytes);
                for split in [0, 1, 3, 8, 31, 32, 33, 63, 64, 100, len / 2, len] {
                    let split = split.min(len);
                    let mut h = StableHasher::new(seed);
                    h.write_bytes(&bytes[..split]).write_bytes(&bytes[split..]);
                    assert_eq!(h.finish(), expect, "seed={seed} len={len} split={split}");
                }
                let mut h = StableHasher::new(seed);
                for b in bytes {
                    h.write_bytes(std::slice::from_ref(b));
                }
                assert_eq!(h.finish(), expect, "seed={seed} len={len} bytewise");
                h.reset();
                assert_eq!(h.finish(), stable_hash64(seed, b""), "reset keeps the seed");
            }
        }
    }

    #[test]
    fn builder_is_boundary_unambiguous() {
        let mut a = StableHasher::new(0);
        a.write_u64(0x0102030405060708).write_u64(1);
        let mut b = StableHasher::new(0);
        b.write_u64(0x0102030405060708).write_u64(2);
        assert_ne!(a.finish(), b.finish());

        let mut c = StableHasher::new(0);
        c.write_u128(55);
        let mut d = StableHasher::new(0);
        d.write_u64(55).write_u64(0);
        // Same bytes => same hash; u128 LE == two u64 LE words (lo, hi).
        assert_eq!(c.finish(), d.finish());
    }
}
