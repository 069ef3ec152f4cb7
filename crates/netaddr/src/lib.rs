//! IP address and prefix substrate for the IPv6 user-level study.
//!
//! Everything in the study is keyed by addresses and prefixes: the paper
//! aggregates IPv6 addresses at /112, /96, /80, /76, /72, /68, /64, /60, /56,
//! /52, /48, /44, /40, /36 and /32 (§3.1), classifies interface identifiers
//! (§4.4), and fingerprints outlier address structures (§6.1.3). This crate
//! provides those primitives:
//!
//! - [`prefix`] — [`Ipv4Prefix`] / [`Ipv6Prefix`]: masked, canonical CIDR
//!   prefixes with containment and aggregation arithmetic.
//! - [`trie`] — a binary radix trie keyed by prefixes, supporting exact
//!   lookups and cover queries; the engine behind the blocklists of §7.2.
//! - [`aggregate`] — [`AggregationTrie`]: the path-compressed counting trie
//!   behind the one-pass Figure-11 granularity sweep and entropy-guided
//!   variable-length cuts.
//! - [`entropy`] — Entropy/IP-style nybble-entropy profiling of IID
//!   populations (randomized vs structured).
//! - [`iid`] — interface-identifier classification: EUI-64 `ff:fe` MAC
//!   embeddings (RFC 7707), Teredo (RFC 4380), 6to4 (RFC 3056), the
//!   low-bits-only gateway signature of §6.1.3, and randomized IIDs
//!   (RFC 4941).
//! - [`mac`] — 48-bit MAC addresses and EUI-64 conversion in both directions.
//!
//! # Example
//!
//! ```
//! use ipv6_study_netaddr::{Ipv6Prefix, iid::IidClass};
//! use std::net::Ipv6Addr;
//!
//! let addr: Ipv6Addr = "2001:db8:1:2:3:4:5:6".parse().unwrap();
//! let p64 = Ipv6Prefix::containing(addr, 64);
//! assert_eq!(p64.to_string(), "2001:db8:1:2::/64");
//! assert!(p64.contains_addr(addr));
//!
//! // A low-entropy structured IID is not classified as MAC-embedded.
//! assert_eq!(IidClass::classify(addr), IidClass::Opaque);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod entropy;
pub mod iid;
pub mod mac;
pub mod prefix;
pub mod trie;

pub use aggregate::{AggCut, AggNode, AggregationTrie};
pub use entropy::EntropyProfile;
pub use iid::IidClass;
pub use mac::MacAddr;
pub use prefix::{Ipv4Prefix, Ipv6Prefix, PrefixParseError};
pub use trie::PrefixTrie;

/// The IPv6 prefix lengths sampled by the study's "IPv6 prefix random
/// sample" dataset (§3.1), longest to shortest, plus /128 (the full address)
/// which several figures plot as a reference series.
pub const STUDY_PREFIX_LENGTHS: [u8; 16] = [
    128, 112, 96, 80, 76, 72, 68, 64, 60, 56, 52, 48, 44, 40, 36, 32,
];
