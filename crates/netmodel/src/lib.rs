//! Internet model substrate: the synthetic world whose telemetry the study
//! analyzes.
//!
//! The paper's findings are driven by *address-assignment mechanics* — NAT
//! and CGN churn on IPv4; SLAAC privacy extensions (RFC 4941), temporary
//! DHCPv6 (RFC 8415), prefix delegation, and per-device mobile /64s on IPv6
//! — composed with a realistic population of networks. This crate builds
//! that world:
//!
//! - [`kind`] — network kinds: residential, mobile, enterprise, hosting.
//! - [`epoch`] — renewal-process arithmetic: every lease/assignment has a
//!   per-entity period and phase, making "which address epoch is entity X
//!   in on day D" an O(1) pure function. Address lifespans (Figures 5–6)
//!   emerge from these periods.
//! - [`conf`] — per-network IPv4/IPv6 assignment policies.
//! - [`network`] — [`Network`]: one ASN with its policies; answers
//!   "what address does this attachment get on this day?" deterministically.
//! - [`countries`] — the country table: platform-population weights, IPv6
//!   deployment per network kind, lockdown dates (the COVID-19 calendar of
//!   §4.1/Appendix B), and secular deployment ramps (Belarus).
//! - [`world`] — [`World`]: the full network population, including the
//!   named ASNs the paper's tables surface (high-IPv6 carriers of Table 1,
//!   the gateway-mode mobile carrier behind §6.1.3's mega-populated
//!   addresses, Indonesian mega-CGNs, and hosting/VPN providers).
//!
//! Everything is hash-driven (see `ipv6_study_stats::dist`): the world and
//! all addresses are pure functions of `(seed, ids, date)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conf;
pub mod countries;
pub mod epoch;
pub mod kind;
pub mod network;
pub mod world;

pub use conf::{V4Conf, V4Mode, V6Conf, V6Mode};
pub use countries::CountryProfile;
pub use kind::NetworkKind;
pub use network::{AttachKeys, Attachment, Network, NetworkError, NetworkId};
pub use world::World;
