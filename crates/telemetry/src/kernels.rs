//! Vectorized columnar kernels: stable LSB radix sorts.
//!
//! The struct-of-arrays layout of [`crate::columns`] is built for
//! data-parallel scans and sorts. The kernels here are the sort
//! primitives the hot paths run on instead of comparison sorts:
//!
//! - **Radix sorts** — [`radix_sort_perm_u32`] computes the permutation
//!   that stable-sorts a `u32`-keyed column ascending, as a counting
//!   (LSB-first) radix sort: 4 passes of 8 bits, each pass a stable
//!   counting redistribution, passes whose byte is constant across the
//!   column skipped; one read of the keys counts every byte's histogram
//!   before the first pass. A stable LSB radix sort produces **the identical
//!   permutation** to `sort_by_key` (Rust's stable sort) on the same
//!   keys — pinned by tests here and by the index/driver equivalence
//!   suites — so using it as the freeze's one ordering step (see
//!   [`crate::run`]) and in the
//!   [`DatasetIndex`](../../ipv6_study_analysis/index/struct.DatasetIndex.html)
//!   build leaves every golden digest byte-identical. [`radix_sort_u32`]
//!   and [`radix_sort_u64`] sort plain key vectors in place (for
//!   sort-and-dedup distinct-key paths, where any correct sort agrees).
//! - **No retained state** — each sort allocates its bounce buffers
//!   when it is called and frees them when it returns, so no thread
//!   holds sort memory past the pass that needed it.
//!
//! Everything is std-only: the "vectorization" is bounds-check-free
//! chunked loops the optimizer auto-vectorizes, not intrinsics.

use crate::intern::IpId;
use crate::record::RequestRecord;
use crate::time::Timestamp;

// ---------------------------------------------------------------------------
// u32-keyed column views
// ---------------------------------------------------------------------------

/// A column element with a `u32` sort key whose unsigned order equals
/// the element's own [`Ord`] — the contract that makes radix passes over
/// typed columns equivalent to their row-oriented counterparts.
pub trait U32Key: Copy {
    /// The element's packed `u32` key.
    fn key32(self) -> u32;
}

impl U32Key for u32 {
    #[inline]
    fn key32(self) -> u32 {
        self
    }
}

impl U32Key for Timestamp {
    #[inline]
    fn key32(self) -> u32 {
        self.secs()
    }
}

impl U32Key for IpId {
    #[inline]
    fn key32(self) -> u32 {
        self.raw()
    }
}

/// Does nothing: the sorts keep no state between calls. It stays only
/// because `perfbench` calls it after every pass, and goes once that
/// call does.
pub fn scratch_reset() {}

// ---------------------------------------------------------------------------
// Radix sorts
// ---------------------------------------------------------------------------

/// Counts every byte of every key in one read of the keys:
/// `counts[b][v]` is how many keys hold `v` in byte `b` (LSB first). One
/// read serves every pass, where a read per pass would re-stream the
/// whole key column `BYTES` times for its histograms.
fn byte_histograms<const BYTES: usize>(keys: impl Iterator<Item = u64>) -> [[usize; 256]; BYTES] {
    let mut counts = [[0usize; 256]; BYTES];
    for k in keys {
        for (b, hist) in counts.iter_mut().enumerate() {
            hist[(k >> (8 * b) & 0xff) as usize] += 1;
        }
    }
    counts
}

/// Turns one byte's histogram into each bucket's first output slot, or
/// `None` when one bucket holds all `n` keys: the byte is constant and
/// its pass would be the identity.
fn bucket_starts(counts: &[usize; 256], n: usize) -> Option<[usize; 256]> {
    if counts.contains(&n) {
        return None;
    }
    let mut starts = [0usize; 256];
    let mut sum = 0usize;
    for (start, &c) in starts.iter_mut().zip(counts) {
        *start = sum;
        sum += c;
    }
    Some(starts)
}

/// Computes the permutation that stable-sorts `col` ascending by its
/// `u32` key — `perm[rank] = original index`. Byte-identical to
/// `{ let mut p: Vec<u32> = (0..n).collect(); p.sort_by_key(|&i| col[i]); p }`:
/// LSB-first counting radix is stable per pass, and stable per-pass
/// redistribution composes to the full stable order.
pub fn radix_sort_perm_u32<K: U32Key>(col: &[K]) -> Vec<u32> {
    radix_sort_perm_keys(col.iter().map(|k| k.key32()))
}

/// [`radix_sort_perm_u32`] over an arbitrary exact-size key stream (for
/// callers whose keys are computed, e.g. a row store sorting by
/// timestamp).
pub fn radix_sort_perm_keys(keys_in: impl ExactSizeIterator<Item = u32>) -> Vec<u32> {
    let n = keys_in.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if n <= 1 {
        return perm;
    }
    let mut keys: Vec<u32> = keys_in.collect();
    let mut keys_tmp = vec![0; n];
    let mut perm_tmp = vec![0; n];
    let counts = byte_histograms::<4>(keys.iter().map(|&k| u64::from(k)));
    for (byte, hist) in counts.iter().enumerate() {
        let Some(mut next) = bucket_starts(hist, n) else {
            continue;
        };
        let shift = 8 * byte;
        // A stable scatter of `(key, payload)` by the byte at `shift`.
        for (&k, &p) in keys.iter().zip(&perm) {
            let bucket = (k >> shift & 0xff) as usize;
            keys_tmp[next[bucket]] = k;
            perm_tmp[next[bucket]] = p;
            next[bucket] += 1;
        }
        std::mem::swap(&mut keys, &mut keys_tmp);
        std::mem::swap(&mut perm, &mut perm_tmp);
    }
    perm
}

/// Stable-sorts a record buffer by timestamp through the radix
/// permutation — byte-identical order to
/// `records.sort_by_key(|r| r.ts)` (the permutation is the stable one,
/// see [`radix_sort_perm_keys`]), which is the order
/// [`RequestStore`](crate::RequestStore), the reference the run freeze
/// is tested against, relies on.
pub fn radix_sort_records_by_ts(records: &mut Vec<RequestRecord>) {
    if records.len() <= 1 {
        return;
    }
    let perm = radix_sort_perm_keys(records.iter().map(|r| r.ts.secs()));
    let sorted: Vec<RequestRecord> = perm.iter().map(|&i| records[i as usize]).collect();
    *records = sorted;
}

/// Sorts a plain `u32` key vector ascending in place (LSB counting
/// radix). Equal keys are indistinguishable, so this agrees with any
/// correct sort — it replaces `sort_unstable` on distinct-key paths.
pub fn radix_sort_u32(v: &mut Vec<u32>) {
    let n = v.len();
    if n <= 1 {
        return;
    }
    let mut tmp = vec![0; n];
    let counts = byte_histograms::<4>(v.iter().map(|&k| u64::from(k)));
    for (byte, hist) in counts.iter().enumerate() {
        let Some(mut next) = bucket_starts(hist, n) else {
            continue;
        };
        let shift = 8 * byte;
        for &k in v.iter() {
            let bucket = (k >> shift & 0xff) as usize;
            tmp[next[bucket]] = k;
            next[bucket] += 1;
        }
        std::mem::swap(v, &mut tmp);
    }
}

/// Sorts a plain `u64` key vector ascending in place (LSB counting
/// radix, 8 byte passes, constant-byte passes skipped). Replaces
/// `sort_unstable` on distinct-key paths such as intern-table builds
/// and [`RequestStore::distinct_users`](crate::RequestStore::distinct_users).
pub fn radix_sort_u64(v: &mut Vec<u64>) {
    let n = v.len();
    if n <= 1 {
        return;
    }
    let mut tmp = vec![0; n];
    let counts = byte_histograms::<8>(v.iter().copied());
    for (byte, hist) in counts.iter().enumerate() {
        let Some(mut next) = bucket_starts(hist, n) else {
            continue;
        };
        let shift = 8 * byte;
        for &k in v.iter() {
            let bucket = (k >> shift & 0xff) as usize;
            tmp[next[bucket]] = k;
            next[bucket] += 1;
        }
        std::mem::swap(v, &mut tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;

    fn seeded_keys(seed: u64, n: usize, span: u64) -> Vec<u32> {
        let mut g = TestGen::new(seed);
        g.vec_of(n, |g| g.below(span) as u32)
    }

    #[test]
    fn radix_perm_equals_stable_comparison_sort() {
        for (seed, n, span) in [
            (1u64, 0usize, 10u64),
            (2, 1, 10),
            (3, 64, 4),   // heavy duplicates, exactly one word
            (4, 1000, 8), // heavy duplicates: stability matters
            (5, 1000, 1), // all keys equal: every pass skipped
            (6, 2500, u64::from(u32::MAX) - 1),
            (7, 257, 300),
        ] {
            let keys = seeded_keys(seed, n, span);
            let radix = radix_sort_perm_u32(&keys);
            let mut comparison: Vec<u32> = (0..n as u32).collect();
            comparison.sort_by_key(|&i| keys[i as usize]);
            assert_eq!(
                radix, comparison,
                "radix != stable sort for seed {seed} n {n} span {span}"
            );
        }
    }

    #[test]
    fn radix_in_place_sorts_match_sort_unstable() {
        let mut g = TestGen::new(11);
        let mut v32: Vec<u32> = g.vec_of(3000, |g| g.next_u64() as u32);
        let mut expected32 = v32.clone();
        radix_sort_u32(&mut v32);
        expected32.sort_unstable();
        assert_eq!(v32, expected32);

        let mut v64: Vec<u64> = g.vec_of(3000, |g| g.next_u64() >> g.below(40));
        let mut expected64 = v64.clone();
        radix_sort_u64(&mut v64);
        expected64.sort_unstable();
        assert_eq!(v64, expected64);

        let mut tiny: Vec<u64> = vec![5];
        radix_sort_u64(&mut tiny);
        assert_eq!(tiny, [5]);
        let mut none: Vec<u32> = Vec::new();
        radix_sort_u32(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn record_sort_matches_stable_sort_by_key() {
        use crate::ids::{Asn, Country, UserId};
        let mut g = TestGen::new(99);
        // Duplicate-heavy timestamps: user ids disambiguate tie order, so
        // equality below proves stability, not just sortedness. An
        // address's ASN follows from the address, as in the simulator.
        let mut records: Vec<RequestRecord> = g.vec_of(500, |g| {
            let ip = g.next_u64() as u32;
            RequestRecord {
                ts: Timestamp::from_secs(g.below(32) as u32),
                user: UserId(g.next_u64()),
                ip: std::net::IpAddr::V4(std::net::Ipv4Addr::from(ip)),
                asn: Asn(ip % 1000),
                country: Country::new("US"),
            }
        });
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.ts);
        radix_sort_records_by_ts(&mut records);
        assert_eq!(records, expected);
    }
}
