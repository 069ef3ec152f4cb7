//! The request-telemetry schema.
//!
//! §3.1 of the paper lists the telemetry collected per request: timestamp,
//! logged-in user id, source IP, the IP's ASN, and its country geolocation.
//! [`RequestRecord`] is exactly that tuple. Records are small `Copy` values
//! (32 bytes) so stores can hold tens of millions without indirection.

use std::net::{IpAddr, Ipv6Addr};

use crate::ids::{Asn, Country, UserId};
use crate::time::Timestamp;

/// One authenticated request observed by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// When the request arrived.
    pub ts: Timestamp,
    /// The logged-in account that made it.
    pub user: UserId,
    /// Source IP address.
    pub ip: IpAddr,
    /// ASN announcing the source address.
    pub asn: Asn,
    /// Country-level geolocation of the source address.
    pub country: Country,
}

impl RequestRecord {
    /// Whether the request arrived over IPv6.
    pub fn is_v6(&self) -> bool {
        matches!(self.ip, IpAddr::V6(_))
    }

    /// The source address as IPv6, if it is one.
    pub fn ipv6(&self) -> Option<Ipv6Addr> {
        match self.ip {
            IpAddr::V6(a) => Some(a),
            IpAddr::V4(_) => None,
        }
    }

    /// A stable 64-bit key for the source address (used by the IP sampler):
    /// IPv4 addresses map into the (reserved, never-routed) high space so
    /// they cannot collide with IPv6 keys.
    pub fn ip_key(&self) -> u64 {
        ip_key(self.ip)
    }
}

/// Stable 64-bit key for any address; see [`RequestRecord::ip_key`].
pub fn ip_key(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(a) => 0xFFFF_0000_0000_0000 | u64::from(u32::from(a)),
        IpAddr::V6(a) => {
            // Fold the 128 bits to 64 by XOR of the halves; the sampler
            // re-hashes, so structure here is harmless, but distinct
            // addresses should map to distinct keys with high probability.
            let raw = u128::from(a);
            (raw >> 64) as u64 ^ raw as u64 ^ 0x6_0000_0000_0000
        }
    }
}

/// A test row's (ASN, country), a function of its address as in the
/// simulator: three ASNs and two countries, spread by the address key.
#[cfg(test)]
pub(crate) fn test_attrs(ip: IpAddr) -> (Asn, Country) {
    let k = ip_key(ip);
    let country = [Country::new("US"), Country::new("DE")][(k >> 7) as usize % 2];
    (Asn(64_496 + (k % 3) as u32), country)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDate;

    fn rec(ip: IpAddr) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 13).at(12, 0, 0),
            user: UserId(7),
            ip,
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn protocol_accessors() {
        let v6 = rec("2001:db8::1".parse().unwrap());
        let v4 = rec("192.0.2.1".parse().unwrap());
        assert!(v6.is_v6());
        assert!(!v4.is_v6());
        assert_eq!(v6.ipv6(), Some("2001:db8::1".parse().unwrap()));
        assert_eq!(v4.ipv6(), None);
    }

    #[test]
    fn ip_keys_do_not_collide_across_families() {
        let v4 = ip_key("192.0.2.1".parse().unwrap());
        // An IPv6 address engineered to fold to the same low 32 bits.
        let v6 = ip_key("::c000:201".parse().unwrap());
        assert_ne!(v4, v6);
        // Distinct v4s get distinct keys.
        assert_ne!(
            ip_key("10.0.0.1".parse().unwrap()),
            ip_key("10.0.0.2".parse().unwrap())
        );
    }

    #[test]
    fn record_is_small() {
        assert!(std::mem::size_of::<RequestRecord>() <= 40);
    }
}
