//! Interface-identifier (IID) classification for IPv6 client addresses.
//!
//! §4.4 and §6.1.3 of the paper analyze the structure of the low 64 bits of
//! client addresses:
//!
//! * **MAC-embedded (modified EUI-64)** IIDs carry `ff:fe` in the middle —
//!   ~2.5% of the paper's users (RFC 7707 calls these out as a
//!   reconnaissance aid).
//! * **Transition protocols**: Teredo addresses live in `2001:0::/32`
//!   (RFC 4380) and 6to4 in `2002::/16` (RFC 3056) — together <0.01% of
//!   users.
//! * **Gateway signature**: the heavily populated outlier addresses of
//!   §6.1.3 have IIDs that are all zero except the low 16 bits, a structure
//!   distinctive enough to predict heavy population ("making creating
//!   signatures for heavily populated IP addresses feasible").
//! * **Opaque** (randomized / unclassified) IIDs — the RFC 4941 privacy
//!   extension default, the vast majority of clients.

use std::net::Ipv6Addr;

use crate::mac::MacAddr;

/// The Teredo service prefix, `2001:0::/32` (RFC 4380).
pub const TEREDO_PREFIX_BITS: u128 = 0x2001_0000 << 96;
/// The 6to4 relay prefix, `2002::/16` (RFC 3056).
pub const SIX_TO_FOUR_PREFIX_BITS: u128 = 0x2002u128 << 112;

/// Extracts the 64-bit interface identifier (the low 64 bits) of an address.
pub fn iid(addr: Ipv6Addr) -> u64 {
    u128::from(addr) as u64
}

/// Structural classification of an IPv6 client address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IidClass {
    /// Teredo tunnel address (`2001:0::/32`). Classified on the *network*
    /// portion; takes precedence over IID structure.
    Teredo,
    /// 6to4 tunnel address (`2002::/16`). Also a network-portion class.
    SixToFour,
    /// Modified EUI-64 IID with an embedded MAC address.
    MacEmbedded(MacAddr),
    /// IID is zero except its low 16 bits — the heavily-populated-gateway
    /// signature from §6.1.3 (observed on one mobile carrier's egress
    /// addresses). The payload is the low-16-bit value.
    LowBits16(u16),
    /// Anything else: randomized (RFC 4941 privacy) or otherwise opaque.
    Opaque,
}

impl IidClass {
    /// Classifies an address. Transition-protocol prefixes are checked
    /// first (they define *where* the address lives), then IID structure.
    pub fn classify(addr: Ipv6Addr) -> Self {
        let raw = u128::from(addr);
        if raw & (u128::MAX << 96) == TEREDO_PREFIX_BITS {
            return IidClass::Teredo;
        }
        if raw & (u128::MAX << 112) == SIX_TO_FOUR_PREFIX_BITS {
            return IidClass::SixToFour;
        }
        let iid = raw as u64;
        if let Some(mac) = MacAddr::from_modified_eui64(iid) {
            return IidClass::MacEmbedded(mac);
        }
        if iid != 0 && iid <= u64::from(u16::MAX) {
            return IidClass::LowBits16(iid as u16);
        }
        IidClass::Opaque
    }

    /// Whether this address came through an IPv4→IPv6 transition protocol.
    pub fn is_transition(self) -> bool {
        matches!(self, IidClass::Teredo | IidClass::SixToFour)
    }

    /// Whether the IID leaks a hardware identifier.
    pub fn is_mac_embedded(self) -> bool {
        matches!(self, IidClass::MacEmbedded(_))
    }

    /// Whether the IID matches the heavily-populated-gateway signature.
    pub fn is_gateway_signature(self) -> bool {
        matches!(self, IidClass::LowBits16(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn iid_is_the_low_64_bits() {
        let a = addr("2001:db8:1:2:3:4:5:6");
        assert_eq!(iid(a), 0x0003_0004_0005_0006);
    }

    #[test]
    fn classify_teredo() {
        assert_eq!(
            IidClass::classify(addr("2001:0:4136:e378:8000:63bf:3fff:fdd2")),
            IidClass::Teredo
        );
        // 2001:db8 is NOT Teredo (third hextet differs).
        assert_ne!(IidClass::classify(addr("2001:db8::1")), IidClass::Teredo);
        assert!(IidClass::Teredo.is_transition());
    }

    #[test]
    fn classify_6to4() {
        assert_eq!(
            IidClass::classify(addr("2002:c000:0204::1")),
            IidClass::SixToFour
        );
        assert!(IidClass::SixToFour.is_transition());
        assert_ne!(IidClass::classify(addr("2003::1")), IidClass::SixToFour);
    }

    #[test]
    fn classify_mac_embedded() {
        // RFC 4291 example MAC 34-56-78-9A-BC-DE.
        let a = addr("2001:db8::3656:78ff:fe9a:bcde");
        match IidClass::classify(a) {
            IidClass::MacEmbedded(mac) => {
                assert_eq!(mac, MacAddr::new([0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde]));
            }
            other => panic!("expected MacEmbedded, got {other:?}"),
        }
        assert!(IidClass::classify(a).is_mac_embedded());
    }

    #[test]
    fn classify_gateway_signature() {
        assert_eq!(
            IidClass::classify(addr("2600:380:1:2::ab1")),
            IidClass::LowBits16(0xab1)
        );
        assert!(IidClass::classify(addr("2600:380:1:2::ab1")).is_gateway_signature());
        // All-zero IID (a subnet-router anycast) is NOT the signature.
        assert_eq!(IidClass::classify(addr("2600:380:1:2::")), IidClass::Opaque);
        // 17 bits set is not the signature.
        assert_eq!(
            IidClass::classify(addr("2600:380:1:2::1:ab1")),
            IidClass::Opaque
        );
    }

    #[test]
    fn classify_opaque_random() {
        assert_eq!(
            IidClass::classify(addr("2001:db8::a1b2:c3d4:e5f6:789a")),
            IidClass::Opaque
        );
    }

    #[test]
    fn transition_takes_precedence_over_iid_structure() {
        // A Teredo address whose IID happens to look EUI-64-ish must still
        // classify as Teredo.
        let a = addr("2001:0:1:2:0211:22ff:fe33:4455");
        assert_eq!(IidClass::classify(a), IidClass::Teredo);
    }

    #[test]
    fn every_address_classifies() {
        let mut g = TestGen::new(0x4949_4401);
        for _ in 0..4096 {
            // Total function: no panic, and the class is self-consistent.
            let a = Ipv6Addr::from(g.next_u128());
            let c = IidClass::classify(a);
            if let IidClass::MacEmbedded(mac) = c {
                assert_eq!(mac.to_modified_eui64(), iid(a));
            }
            if let IidClass::LowBits16(v) = c {
                assert_eq!(u64::from(v), iid(a));
                assert!(v != 0);
            }
        }
    }

    #[test]
    fn mac_embedding_always_detected() {
        let mut g = TestGen::new(0x4949_4402);
        for _ in 0..2048 {
            let mac = MacAddr::new(g.octets6());
            let raw = (u128::from(g.next_u64()) << 64) | u128::from(mac.to_modified_eui64());
            let a = Ipv6Addr::from(raw);
            let c = IidClass::classify(a);
            // Unless the network part collides with a transition prefix,
            // the MAC must be recovered.
            if !c.is_transition() {
                assert_eq!(c, IidClass::MacEmbedded(mac));
            }
        }
    }
}
