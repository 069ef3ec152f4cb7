//! Nybble-entropy analysis of interface identifiers.
//!
//! Entropy/IP (Foremski, Plonka & Berger, IMC 2016 — related work the paper
//! builds on) showed that per-nybble Shannon entropy exposes the structure
//! of IPv6 address populations: randomized (RFC 4941) IIDs run near the
//! 4-bit/nybble maximum everywhere, while structured allocations (EUI-64,
//! low-counter gateways, server numbering) leave low-entropy positions.
//! This module implements that analysis over 64-bit IIDs, backing the §4.4
//! observation that "most clients likely use randomized IIDs" with a
//! measurable statistic.

/// Per-nybble entropy profile of a population of 64-bit IIDs.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyProfile {
    /// Shannon entropy in bits (0–4) for each of the 16 nybbles, most
    /// significant first.
    pub bits: [f64; 16],
    /// Number of IIDs analyzed.
    pub samples: u64,
}

impl EntropyProfile {
    /// Computes the profile. Returns `None` for an empty population.
    pub fn compute(iids: impl IntoIterator<Item = u64>) -> Option<EntropyProfile> {
        let mut counts = [[0u64; 16]; 16];
        let mut n = 0u64;
        for iid in iids {
            n += 1;
            for (pos, row) in counts.iter_mut().enumerate() {
                let nybble = ((iid >> (60 - 4 * pos)) & 0xF) as usize;
                row[nybble] += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let mut bits = [0.0f64; 16];
        for (pos, row) in counts.iter().enumerate() {
            let mut h = 0.0;
            for &c in row {
                if c > 0 {
                    let p = c as f64 / n as f64;
                    h -= p * p.log2();
                }
            }
            bits[pos] = h;
        }
        Some(EntropyProfile { bits, samples: n })
    }

    /// Mean entropy across all 16 nybbles (bits/nybble, max 4).
    pub fn mean_bits(&self) -> f64 {
        self.bits.iter().sum::<f64>() / 16.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::hash::stable_hash64;

    #[test]
    fn empty_population() {
        assert_eq!(EntropyProfile::compute(std::iter::empty()), None);
    }

    #[test]
    fn constant_iids_have_zero_entropy() {
        let p = EntropyProfile::compute(std::iter::repeat_n(0xDEAD_BEEF_0000_0001, 100)).unwrap();
        assert_eq!(p.samples, 100);
        assert!(p.mean_bits() < 1e-12);
    }

    #[test]
    fn random_iids_have_high_entropy_everywhere() {
        let p = EntropyProfile::compute((0..5000u64).map(|i| stable_hash64(7, &i.to_le_bytes())))
            .unwrap();
        assert!(p.mean_bits() > 3.8, "mean {}", p.mean_bits());
        for (i, &b) in p.bits.iter().enumerate() {
            assert!(b > 3.5, "nybble {i}: {b}");
        }
    }

    #[test]
    fn gateway_signature_population_is_structured() {
        // Low-16-bit-only IIDs: the §6.1.3 outlier structure. High 12
        // nybbles are constant zero; only the low 4 carry entropy.
        let p = EntropyProfile::compute(
            (0..5000u64).map(|i| stable_hash64(9, &i.to_le_bytes()) & 0xFFFF),
        )
        .unwrap();
        assert!(p.bits[..12].iter().all(|&b| b < 1e-12));
        let low16 = p.bits[12..].iter().sum::<f64>() / 4.0;
        assert!(low16 > 3.0, "low nybbles carry the counter");
    }

    #[test]
    fn eui64_population_shows_the_fffe_plateau() {
        use crate::mac::MacAddr;
        // EUI-64 IIDs share the ff:fe marker in nybbles 6..10 and the OUI
        // in the first nybbles.
        let p = EntropyProfile::compute((0..2000u64).map(|i| {
            MacAddr::new([0x00, 0x1b, 0x63, (i >> 8) as u8, i as u8, (i >> 4) as u8])
                .to_modified_eui64()
        }))
        .unwrap();
        // The ff:fe marker nybbles (positions 6–9) are constant.
        for pos in 6..10 {
            assert!(p.bits[pos] < 1e-9, "marker nybble {pos}: {}", p.bits[pos]);
        }
    }
}
