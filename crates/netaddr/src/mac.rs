//! 48-bit MAC addresses and EUI-64 conversion.
//!
//! §4.4 of the paper identifies clients that embed their MAC address in the
//! IPv6 interface identifier via the modified EUI-64 scheme (RFC 4291
//! Appendix A): split the MAC in half, insert `ff:fe`, and flip the
//! universal/local bit. About 2.5% of the paper's IPv6 users show this
//! pattern; 83% of those reuse the same IID across addresses (static MAC),
//! the rest look like MAC randomization. This module implements the encoding
//! and its inverse so both the simulator and the classifier share one
//! definition.

use std::fmt;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Builds a MAC from raw octets.
    pub fn new(octets: [u8; 6]) -> Self {
        Self(octets)
    }

    /// Builds a MAC from the low 48 bits of `v` (big-endian octet order).
    pub fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        Self([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Whether the locally-administered bit is set — the telltale of MAC
    /// randomization (randomized MACs set this bit per IEEE 802).
    pub fn is_locally_administered(self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Encodes this MAC as a modified EUI-64 interface identifier
    /// (RFC 4291 Appendix A): `aa:bb:cc:dd:ee:ff` becomes
    /// `a8bb:ccff:fedd:eeff` — `ff:fe` spliced into the middle and the
    /// universal/local bit (bit 1 of the first octet) inverted.
    pub fn to_modified_eui64(self) -> u64 {
        let o = self.0;
        u64::from_be_bytes([o[0] ^ 0x02, o[1], o[2], 0xff, 0xfe, o[3], o[4], o[5]])
    }

    /// Decodes a modified EUI-64 IID back to a MAC, if the `ff:fe` marker is
    /// present.
    pub fn from_modified_eui64(iid: u64) -> Option<Self> {
        let b = iid.to_be_bytes();
        if b[3] == 0xff && b[4] == 0xfe {
            Some(Self([b[0] ^ 0x02, b[1], b[2], b[5], b[6], b[7]]))
        } else {
            None
        }
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;

    #[test]
    fn rfc4291_appendix_a_example() {
        // RFC 4291: MAC 34-56-78-9A-BC-DE -> IID 3656:78ff:fe9a:bcde.
        let mac = MacAddr::new([0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde]);
        assert_eq!(mac.to_modified_eui64(), 0x3656_78ff_fe9a_bcde);
    }

    #[test]
    fn eui64_round_trip() {
        let mac = MacAddr::new([0x00, 0x1b, 0x21, 0x0a, 0x0b, 0x0c]);
        let iid = mac.to_modified_eui64();
        assert_eq!(MacAddr::from_modified_eui64(iid), Some(mac));
    }

    #[test]
    fn non_eui64_iid_rejected() {
        assert_eq!(MacAddr::from_modified_eui64(0x1234_5678_9abc_def0), None);
        // ff:fe must be exactly in the middle.
        assert_eq!(MacAddr::from_modified_eui64(0xfffe_0000_0000_0000), None);
    }

    #[test]
    fn locally_administered_bit() {
        assert!(!MacAddr::new([0x00, 0, 0, 0, 0, 0]).is_locally_administered());
        assert!(MacAddr::new([0x02, 0, 0, 0, 0, 0]).is_locally_administered());
        assert!(MacAddr::new([0x06, 0, 0, 0, 0, 0]).is_locally_administered());
    }

    #[test]
    fn from_u64_and_display() {
        let mac = MacAddr::from_u64(0x0000_a1b2_c3d4_e5f6);
        assert_eq!(mac.0, [0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6]);
        assert_eq!(mac.to_string(), "a1:b2:c3:d4:e5:f6");
    }

    #[test]
    fn eui64_round_trips_for_random_macs() {
        let mut g = TestGen::new(0x4D41_4301);
        for _ in 0..2048 {
            let mac = MacAddr::new(g.octets6());
            assert_eq!(
                MacAddr::from_modified_eui64(mac.to_modified_eui64()),
                Some(mac)
            );
        }
    }

    #[test]
    fn from_u64_masks_high_bits() {
        let mut g = TestGen::new(0x4D41_4302);
        for _ in 0..2048 {
            let v = g.next_u64();
            let mac = MacAddr::from_u64(v);
            assert_eq!(mac.0, v.to_be_bytes()[2..]);
        }
    }
}
