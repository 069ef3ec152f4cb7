//! Telemetry-platform substrate for the IPv6 user-level study.
//!
//! The paper's methodology (§3.1) observes *authenticated HTTP requests* at
//! a large online platform and builds four dataset types by deterministic
//! attribute sampling. This crate is that platform's data layer, rebuilt
//! from scratch:
//!
//! - [`time`] — the study's calendar: [`time::SimDate`] /
//!   [`time::Timestamp`] over 2020, with weekday and
//!   study-window constants (Jan 23 – Apr 19; the Apr 13–19 focus week).
//! - [`ids`] — entity identifiers shared across the workspace: users,
//!   devices, households, ASNs, countries.
//! - [`record`] — the request telemetry schema: timestamp, user id, source
//!   IP, ASN, country — exactly the five fields the paper collects (stored,
//!   the last two live in the address's table entry).
//! - [`sampler`] — the four deterministic samplers: request random sample,
//!   user random sample, IP random sample, and per-length IPv6 prefix
//!   random samples.
//! - [`intern`] — global entity intern tables built at freeze time:
//!   [`intern::IpTable`] (dense [`intern::IpId`]s with each address's ASN
//!   and country and precomputed /64 /56 /48 prefix ids) and
//!   [`intern::UserTable`].
//! - [`columns`] — the columnar (struct-of-arrays) record layout:
//!   [`columns::ColumnStore`] and the borrowed [`columns::ColumnSlice`]
//!   window every frozen query returns.
//! - [`store`] — the row-format request store (tests and ad-hoc
//!   pipelines) and the frozen columnar store every analysis reads.
//! - [`sink`] — the [`sink::RequestSink`] consumer trait that simulator
//!   crates emit into, its closure adapter, and the production
//!   [`sink::ShardSink`] that applies the §3.1 samplers in-stream and
//!   seals segments.
//! - [`segment`] — dictionary-coded segments, the one format every row
//!   takes between the sim and the frozen columns: what shards seal,
//!   what the state dir keeps per day, and the atomic write every
//!   state-dir file goes through.
//! - [`run`] — the freeze: one ordered list of segments, history first,
//!   frozen by one verified read, one key ranking and one gather per
//!   family.
//! - [`spill`] — bounded out-of-core storage: spill sessions and their
//!   files, typed storage errors and I/O fault injection.
//! - [`labels`] — the abusive-account label dataset with creation/detection
//!   dates (the paper's labels are lifetime-censored by detection; ours
//!   record both dates so analyses can reproduce that censoring).
//! - [`dataset`] — [`dataset::StudyDatasets`]: routes a
//!   simulated request stream into all sampled datasets in one pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod dataset;
pub mod ids;
pub mod intern;
pub mod kernels;
pub mod labels;
pub mod record;
pub mod run;
pub mod sampler;
pub mod segment;
pub mod sink;
pub mod spill;
pub mod store;
pub mod time;

pub use columns::{ColumnSlice, ColumnStore, OwnedColumns, RecordView};
pub use dataset::{FrozenDatasets, StudyDatasets};
pub use ids::{Asn, Country, DeviceId, HouseholdId, UserId};
pub use intern::{EntityTables, IpId, IpTable, UserTable};
pub use kernels::{
    radix_sort_perm_keys, radix_sort_perm_u32, radix_sort_records_by_ts, radix_sort_u32,
    radix_sort_u64, U32Key,
};
pub use labels::{AbuseInfo, AbuseLabels};
pub use record::RequestRecord;
pub use run::{freeze_families, Families, Family, FrozenFamilies};
pub use sampler::Samplers;
pub use segment::{
    read_checkpoint_segment, remove_temp_files, write_atomic, write_checkpoint_segment,
    write_segment, Segment,
};
pub use sink::{FnSink, RequestSink, SealStats, ShardPayload, ShardSink, SpillTarget};
pub use spill::{
    IoOp, MemGauge, SpillError, SpillFaultPlan, SpillPolicy, SpillSession, SpillStats, StorageMode,
    DEFAULT_IO_RETRIES, DEFAULT_SEGMENT_ROWS,
};
pub use store::{FrozenStore, RequestStore};
pub use time::{DateRange, SimDate, Timestamp};
