//! CIDR prefixes for IPv4 and IPv6 with containment and aggregation math.
//!
//! Prefixes are stored *canonically*: host bits below the prefix length are
//! always zero, so two prefixes are equal iff they denote the same address
//! block, and `HashMap<Ipv6Prefix, _>` keys behave correctly. This is the
//! invariant the study's aggregation analyses (Figures 4, 6, 9, 10) rely on
//! when they re-key the same request stream at fifteen different prefix
//! lengths.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Error returned when parsing a textual CIDR prefix fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError {
    msg: &'static str,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.msg)
    }
}

impl std::error::Error for PrefixParseError {}

impl PrefixParseError {
    fn new(msg: &'static str) -> Self {
        Self { msg }
    }
}

macro_rules! define_prefix {
    (
        $(#[$doc:meta])*
        $name:ident, $addr:ty, $bits:ty, $maxlen:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name {
            bits: $bits,
            len: u8,
        }

        impl $name {
            /// Number of bits in an address of this family.
            pub const MAX_LEN: u8 = $maxlen;

            /// Creates the prefix of the given length containing `addr`,
            /// zeroing host bits.
            ///
            /// # Panics
            /// Panics if `len > Self::MAX_LEN`.
            pub fn containing(addr: $addr, len: u8) -> Self {
                assert!(len <= Self::MAX_LEN, "prefix length out of range");
                let raw: $bits = addr.into();
                Self { bits: raw & Self::mask(len), len }
            }

            /// Creates a prefix directly from raw bits (host bits are
            /// masked off) and a length.
            ///
            /// # Panics
            /// Panics if `len > Self::MAX_LEN`.
            pub fn from_bits(bits: $bits, len: u8) -> Self {
                assert!(len <= Self::MAX_LEN, "prefix length out of range");
                Self { bits: bits & Self::mask(len), len }
            }

            /// The network mask for a prefix of length `len`.
            #[inline]
            pub fn mask(len: u8) -> $bits {
                if len == 0 {
                    0
                } else {
                    <$bits>::MAX << (Self::MAX_LEN - len)
                }
            }

            /// The masked network bits of the length-`len` prefix containing
            /// an address given as raw bits — the precompute primitive behind
            /// interned prefix-id columns, equal to
            /// `Self::containing(addr, len).bits()` without constructing the
            /// prefix value.
            ///
            /// # Panics
            /// Panics if `len > Self::MAX_LEN`.
            #[inline]
            pub fn bits_containing(raw: $bits, len: u8) -> $bits {
                assert!(len <= Self::MAX_LEN, "prefix length out of range");
                raw & Self::mask(len)
            }

            /// Prefix length in bits.
            #[inline]
            #[allow(clippy::len_without_is_empty)] // bit length, not a container
            pub fn len(&self) -> u8 {
                self.len
            }

            /// The (masked) network bits.
            #[inline]
            pub fn bits(&self) -> $bits {
                self.bits
            }

            /// The network address (lowest address in the block).
            pub fn network(&self) -> $addr {
                <$addr>::from(self.bits)
            }

            /// Whether `addr` lies inside this prefix.
            pub fn contains_addr(&self, addr: $addr) -> bool {
                let raw: $bits = addr.into();
                raw & Self::mask(self.len) == self.bits
            }

            /// Whether `other` is fully contained in (or equal to) `self`.
            pub fn contains(&self, other: &Self) -> bool {
                other.len >= self.len && (other.bits & Self::mask(self.len)) == self.bits
            }

            /// The enclosing prefix of length `len`.
            ///
            /// # Panics
            /// Panics if `len > self.len()` (that would be a *narrowing*,
            /// not a parent) or `len > MAX_LEN`.
            pub fn parent(&self, len: u8) -> Self {
                assert!(len <= self.len, "parent must be shorter than child");
                Self { bits: self.bits & Self::mask(len), len }
            }

            /// Number of addresses in the block as a float (blocks can
            /// exceed `u64` for short IPv6 prefixes).
            pub fn size(&self) -> f64 {
                2f64.powi((Self::MAX_LEN - self.len) as i32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}/{}", self.network(), self.len)
            }
        }

        impl FromStr for $name {
            type Err = PrefixParseError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let (addr_s, len_s) = s
                    .split_once('/')
                    .ok_or_else(|| PrefixParseError::new("missing '/'"))?;
                let addr: $addr = addr_s
                    .parse()
                    .map_err(|_| PrefixParseError::new("bad address"))?;
                let len: u8 = len_s
                    .parse()
                    .map_err(|_| PrefixParseError::new("bad length"))?;
                if len > Self::MAX_LEN {
                    return Err(PrefixParseError::new("length out of range"));
                }
                Ok(Self::containing(addr, len))
            }
        }
    };
}

define_prefix!(
    /// An IPv6 CIDR prefix (`2001:db8::/32`), stored canonically.
    Ipv6Prefix,
    Ipv6Addr,
    u128,
    128
);

define_prefix!(
    /// An IPv4 CIDR prefix (`192.0.2.0/24`), stored canonically.
    Ipv4Prefix,
    Ipv4Addr,
    u32,
    32
);

impl Ipv6Prefix {
    /// The /128 prefix denoting a single address.
    pub fn host(addr: Ipv6Addr) -> Self {
        Self::containing(addr, 128)
    }
}

impl Ipv4Prefix {
    /// The /32 prefix denoting a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Self::containing(addr, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;

    #[test]
    fn canonical_masking() {
        let a: Ipv6Addr = "2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff".parse().unwrap();
        let p = Ipv6Prefix::containing(a, 64);
        assert_eq!(p.to_string(), "2001:db8:aaaa:bbbb::/64");
        assert_eq!(
            p.network(),
            "2001:db8:aaaa:bbbb::".parse::<Ipv6Addr>().unwrap()
        );
        // Two addresses in the same /64 yield the same (hashable) key.
        let b: Ipv6Addr = "2001:db8:aaaa:bbbb:1:2:3:4".parse().unwrap();
        assert_eq!(p, Ipv6Prefix::containing(b, 64));
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let p = Ipv6Prefix::from_bits(u128::MAX, 0);
        assert_eq!(p.bits(), 0);
        assert!(p.contains_addr("::1".parse().unwrap()));
        assert!(p.contains_addr("ffff::".parse().unwrap()));
        let v4 = Ipv4Prefix::from_bits(u32::MAX, 0);
        assert!(v4.contains_addr("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn full_length_prefix_is_a_host() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let p = Ipv6Prefix::host(a);
        assert_eq!(p.len(), 128);
        assert!(p.contains_addr(a));
        assert!(!p.contains_addr("2001:db8::2".parse().unwrap()));
        assert_eq!(p.size(), 1.0);
    }

    #[test]
    fn containment_hierarchy() {
        let p32: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let p64: Ipv6Prefix = "2001:db8:1:2::/64".parse().unwrap();
        let other: Ipv6Prefix = "2001:db9::/64".parse().unwrap();
        assert!(p32.contains(&p64));
        assert!(!p64.contains(&p32));
        assert!(p32.contains(&p32));
        assert!(!p32.contains(&other));
    }

    #[test]
    fn parent_masks_to_the_shorter_length() {
        let p: Ipv6Prefix = "2001:db8:1:2::/64".parse().unwrap();
        assert_eq!(p.parent(48).to_string(), "2001:db8:1::/48");
        assert_eq!(p.parent(0).to_string(), "::/0");
    }

    #[test]
    #[should_panic(expected = "parent must be shorter")]
    fn parent_cannot_narrow() {
        let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let _ = p.parent(48);
    }

    #[test]
    fn parsing_round_trip_and_errors() {
        for s in ["::/0", "2001:db8::/32", "fe80::1/128", "2002::/16"] {
            let p: Ipv6Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        for s in ["10.0.0.0/8", "192.0.2.0/24", "8.8.8.8/32", "0.0.0.0/0"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("2001:db8::".parse::<Ipv6Prefix>().is_err()); // no '/'
        assert!("2001:db8::/129".parse::<Ipv6Prefix>().is_err());
        assert!("notanaddr/64".parse::<Ipv6Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn v4_masking() {
        let a: Ipv4Addr = "192.0.2.130".parse().unwrap();
        let p = Ipv4Prefix::containing(a, 24);
        assert_eq!(p.to_string(), "192.0.2.0/24");
        assert!(p.contains_addr(a));
        assert!(!p.contains_addr("192.0.3.1".parse().unwrap()));
        assert_eq!(p.size(), 256.0);
    }

    #[test]
    fn containing_always_contains() {
        let mut g = TestGen::new(0x5046_5801);
        for _ in 0..1024 {
            let addr = Ipv6Addr::from(g.next_u128());
            let len = g.range_u8(0, 128);
            let p = Ipv6Prefix::containing(addr, len);
            assert!(p.contains_addr(addr));
            assert_eq!(p.len(), len);
            // Canonical: rebuilding from the network address is identity.
            assert_eq!(Ipv6Prefix::containing(p.network(), len), p);
        }
    }

    #[test]
    fn parent_contains_child() {
        let mut g = TestGen::new(0x5046_5802);
        for _ in 0..1024 {
            let len = g.range_u8(0, 128);
            let child = Ipv6Prefix::from_bits(g.next_u128(), len);
            let plen = g.range_u8(0, 128).min(len);
            let parent = child.parent(plen);
            assert!(parent.contains(&child));
            assert!(parent.contains_addr(child.network()));
        }
    }

    #[test]
    fn containment_is_transitive() {
        let mut g = TestGen::new(0x5046_5803);
        for _ in 0..1024 {
            let mut lens = [g.range_u8(0, 128), g.range_u8(0, 128), g.range_u8(0, 128)];
            lens.sort_unstable();
            let c = Ipv6Prefix::from_bits(g.next_u128(), lens[2]);
            let b = c.parent(lens[1]);
            let a = b.parent(lens[0]);
            assert!(a.contains(&b) && b.contains(&c) && a.contains(&c));
        }
    }

    #[test]
    fn display_parse_round_trip() {
        let mut g = TestGen::new(0x5046_5804);
        for _ in 0..512 {
            let p = Ipv6Prefix::from_bits(g.next_u128(), g.range_u8(0, 128));
            let back: Ipv6Prefix = p.to_string().parse().unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn v4_display_parse_round_trip() {
        let mut g = TestGen::new(0x5046_5805);
        for _ in 0..512 {
            let p = Ipv4Prefix::from_bits(g.next_u64() as u32, g.range_u8(0, 32));
            let back: Ipv4Prefix = p.to_string().parse().unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn bits_containing_matches_containing() {
        let mut g = TestGen::new(0x5046_5807);
        for _ in 0..1024 {
            let raw = g.next_u128();
            let len = g.range_u8(0, 128);
            assert_eq!(
                Ipv6Prefix::bits_containing(raw, len),
                Ipv6Prefix::containing(Ipv6Addr::from(raw), len).bits()
            );
            let raw4 = g.next_u64() as u32;
            let len4 = g.range_u8(0, 32);
            assert_eq!(
                Ipv4Prefix::bits_containing(raw4, len4),
                Ipv4Prefix::containing(Ipv4Addr::from(raw4), len4).bits()
            );
        }
        // Edge addresses at edge lengths.
        for raw in [0u128, u128::MAX] {
            assert_eq!(Ipv6Prefix::bits_containing(raw, 0), 0);
            assert_eq!(Ipv6Prefix::bits_containing(raw, 128), raw);
        }
    }
}
