//! Out-of-core storage: bounded, crash-safe spill of shard segments to
//! disk.
//!
//! Every row reaches the freeze as a section of a dictionary-coded
//! segment (see [`crate::segment`]). Under [`StorageMode::InMemory`] a
//! shard seals one segment at its end and keeps the bytes, about 12 a
//! row. Under [`StorageMode::Spill`] it seals a segment whenever a family
//! has staged `segment_rows` rows and appends it to the shard attempt's
//! spill file in the [`SpillSession`] directory, so peak memory no longer
//! grows with the population. The freeze reads each spilled segment
//! once, checking its header against the one written and every checksum.
//!
//! # Fault safety
//!
//! Nothing on the I/O path panics. Every fallible operation returns a
//! typed [`SpillError`]:
//!
//! * [`SpillError::Io`] — an operating-system error (create/write/flush/
//!   open/seek/read), with the path and operation that failed. Segment
//!   appends are all-or-nothing: a failed write truncates the file back
//!   to its length before the segment and is retried up to
//!   [`SpillPolicy::max_io_retries`] times before surfacing, so a
//!   transient error never leaves a torn segment behind.
//! * [`SpillError::Corrupt`] — data failed verification at read time: a
//!   header that differs from the one written, a truncated (torn)
//!   segment, a checksum mismatch, or a local id out of range. Reported
//!   with path, section and byte offset.
//! * [`SpillError::Budget`] — admitting the next segment would exceed
//!   the session's [`SpillPolicy::disk_budget_bytes`]. The driver maps
//!   this to a policy-governed degradation instead of filling the disk.
//! * [`SpillError::Attributes`] — a row gave an address another (ASN,
//!   country) pair than the one it was interned with. Segments keep one
//!   pair per address (see [`crate::segment`]), and the simulator is
//!   deterministic, so this is a bug to report, never to retry.
//!
//! Torn writes and flipped bytes are therefore *detected*, never decoded
//! into figures. A failed attempt's spill file is deleted by
//! [`SpillSession::remove_attempt`]; the whole session directory is
//! removed when the [`SpillSession`] drops — on success and on failure
//! paths alike.
//!
//! Deterministic I/O fault injection for chaos tests rides on
//! [`SpillFaultPlan`]: every decision is a pure function of (seed, stream
//! id, op index, io attempt), where the stream id hashes the file name —
//! which encodes shard and attempt — and the op index counts a file's
//! appends or names a read's byte offset, so injected faults are
//! byte-reproducible at any thread count.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipv6_study_stats::dist::uniform01;
use ipv6_study_stats::hash::{stable_hash64, StableHasher};

use crate::ids::{Asn, Country};
use crate::intern::attrs_str;
use crate::segment::Segment;

/// Default rows a family stages before its shard seals a spill segment.
/// Chosen so a shard's staging stays a few megabytes across all dataset
/// families while each segment's header and dictionary stay a small
/// share of its rows.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Default op-level retry budget for a failed spill read or write.
pub const DEFAULT_IO_RETRIES: u32 = 2;

/// Where a study keeps its segments between the sim phase and the
/// freeze.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Each shard keeps one segment in memory until the freeze. Peak
    /// memory is O(retained records).
    #[default]
    InMemory,
    /// Shards stream every dataset family into bounded segments on disk;
    /// peak memory is O(`segment_rows` × families × worker threads),
    /// independent of the population.
    Spill {
        /// Parent directory for the per-run spill session directory;
        /// `None` uses [`std::env::temp_dir`]. The session directory is
        /// removed when the run completes (or fails).
        dir: Option<PathBuf>,
        /// Rows a family stages in memory before its shard appends a
        /// segment to disk. Must be non-zero.
        segment_rows: usize,
    },
}

impl StorageMode {
    /// The spill mode with default parameters (temp dir,
    /// [`DEFAULT_SEGMENT_ROWS`]).
    pub fn spill() -> Self {
        StorageMode::Spill {
            dir: None,
            segment_rows: DEFAULT_SEGMENT_ROWS,
        }
    }

    /// Whether this mode spills to disk.
    pub fn is_spill(&self) -> bool {
        matches!(self, StorageMode::Spill { .. })
    }

    /// Short machine-readable label (`"memory"` / `"spill"`), echoed into
    /// run reports.
    pub fn label(&self) -> &'static str {
        match self {
            StorageMode::InMemory => "memory",
            StorageMode::Spill { .. } => "spill",
        }
    }
}

/// The I/O operation a [`SpillError::Io`] failed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoOp {
    /// Creating a file or a directory.
    Create,
    /// Appending a segment or writing a file.
    Write,
    /// Flushing buffered bytes to the OS.
    Flush,
    /// Opening a file for reading.
    Open,
    /// Seeking to a segment or rolling a torn append back.
    Seek,
    /// Reading a header, dictionary, section or file.
    Read,
    /// Renaming a finished temporary file into place.
    Rename,
    /// Removing a file.
    Remove,
}

impl IoOp {
    /// Lower-case operation name for messages.
    pub fn as_str(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Flush => "flush",
            IoOp::Open => "open",
            IoOp::Seek => "seek",
            IoOp::Read => "read",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
        }
    }
}

/// A typed storage-layer failure. Cheap to clone and comparable, so it
/// can ride inside higher-level error enums and test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpillError {
    /// The operating system refused an I/O operation (after the op-level
    /// retry budget was spent).
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Which operation failed.
        op: IoOp,
        /// The OS error class.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the underlying error.
        detail: String,
    },
    /// Stored data failed verification: a bad or changed header, a torn
    /// (truncated) segment, a checksum mismatch, a non-ascending
    /// dictionary, an out-of-range local id, or a history row outside its
    /// day (see [`crate::segment`]); or a state-dir manifest that does
    /// not parse or lacks a field.
    Corrupt {
        /// File holding the bad bytes.
        path: PathBuf,
        /// Where in a segment: 0 is the header and dictionary, `k` the
        /// k-th section.
        run: usize,
        /// Absolute byte offset of the bad data within the file.
        offset: u64,
        /// What failed to verify.
        reason: String,
    },
    /// Admitting the next segment would exceed the session's disk
    /// budget.
    Budget {
        /// The configured [`SpillPolicy::disk_budget_bytes`].
        budget_bytes: u64,
        /// The on-disk total the write would have reached.
        attempted_bytes: u64,
    },
    /// A row gave an address another (ASN, country) pair than the one
    /// the address was interned with: every address has one.
    Attributes {
        /// The address.
        ip: IpAddr,
        /// The pair it was interned with.
        first: (Asn, Country),
        /// The pair the row gave it.
        then: (Asn, Country),
    },
}

impl SpillError {
    /// The [`SpillError::Io`] of `op` on `path` failing with `e`.
    pub fn io(path: &Path, op: IoOp, e: &std::io::Error) -> Self {
        SpillError::Io {
            path: path.to_path_buf(),
            op,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }

    /// Whether a shard-level retry could plausibly clear this error.
    /// Io errors are transient-capable; corruption, budget overruns and
    /// an address's second pair are not fixed by re-running the same
    /// work.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SpillError::Io { .. })
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io {
                path,
                op,
                kind,
                detail,
            } => write!(
                f,
                "{} {} failed ({kind:?}): {detail}",
                op.as_str(),
                path.display()
            ),
            SpillError::Corrupt {
                path,
                run,
                offset,
                reason,
            } => write!(
                f,
                "corrupt data in {} (run {run}, byte offset {offset}): {reason}",
                path.display()
            ),
            SpillError::Budget {
                budget_bytes,
                attempted_bytes,
            } => write!(
                f,
                "disk budget exceeded: write would reach {attempted_bytes} bytes \
                 (budget {budget_bytes})"
            ),
            SpillError::Attributes { ip, first, then } => write!(
                f,
                "address {ip} came as {} after {}: an address has one (ASN, country)",
                attrs_str(*then),
                attrs_str(*first)
            ),
        }
    }
}

impl std::error::Error for SpillError {}

/// Deterministic I/O fault script for chaos tests. Every decision is a
/// pure function of `(seed, stream id, op index, io attempt)` — the
/// stream id hashes the spill file name, which encodes shard and attempt
/// — so the same faults fire at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillFaultPlan {
    /// Study seed mixed into every roll.
    pub seed: u64,
    /// Probability that a segment append op is faulted.
    pub write_fail_rate: f64,
    /// Probability that a segment read op is faulted.
    pub read_fail_rate: f64,
    /// Of faulted writes, the fraction that tear a short prefix of the
    /// segment onto disk before failing (exercising the rollback path).
    pub short_write_rate: f64,
    /// Probability that a successfully written segment gets one byte
    /// flipped afterwards (detected later by the read-side checks as
    /// [`SpillError::Corrupt`], never repaired).
    pub corrupt_rate: f64,
    /// How many consecutive io attempts a faulted op fails before
    /// succeeding; values above the retry budget make the op error out.
    pub fail_attempts: u32,
}

impl Default for SpillFaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            write_fail_rate: 0.0,
            read_fail_rate: 0.0,
            short_write_rate: 0.0,
            corrupt_rate: 0.0,
            fail_attempts: 1,
        }
    }
}

impl SpillFaultPlan {
    /// Uniform roll in [0,1) for one (domain, stream, op) triple.
    fn roll(&self, domain: u64, stream: u64, op: u64) -> f64 {
        let mut h = StableHasher::new(domain);
        h.write_u64(self.seed).write_u64(stream).write_u64(op);
        uniform01(h.finish())
    }

    /// The injected failure for write op `op` on `stream` at `io_attempt`,
    /// if any: `Some(short_bytes)` tears that many segment bytes onto disk
    /// first; `Some(0)` fails cleanly.
    fn write_failure(&self, stream: u64, op: u64, io_attempt: u32, len: usize) -> Option<usize> {
        if io_attempt >= self.fail_attempts
            || self.roll(0x5346_5057, stream, op) >= self.write_fail_rate
        {
            return None;
        }
        if self.roll(0x5346_5053, stream, op) < self.short_write_rate {
            let mut h = StableHasher::new(0x5346_504C);
            h.write_u64(self.seed).write_u64(stream).write_u64(op);
            Some((h.finish() % len.max(1) as u64) as usize)
        } else {
            Some(0)
        }
    }

    /// Whether read op `op` on `stream` is faulted at `io_attempt`.
    pub(crate) fn read_failure(&self, stream: u64, op: u64, io_attempt: u32) -> bool {
        io_attempt < self.fail_attempts && self.roll(0x5346_5052, stream, op) < self.read_fail_rate
    }

    /// The byte to flip after write op `op`, if this segment is selected
    /// for corruption.
    fn corrupt_offset(&self, stream: u64, op: u64, len: u64) -> Option<u64> {
        if len == 0 || self.roll(0x5346_5043, stream, op) >= self.corrupt_rate {
            return None;
        }
        let mut h = StableHasher::new(0x5346_504F);
        h.write_u64(self.seed).write_u64(stream).write_u64(op);
        Some(h.finish() % len)
    }

    /// Whether every rate is zero (the plan can be dropped).
    pub fn is_inert(&self) -> bool {
        self.write_fail_rate == 0.0 && self.read_fail_rate == 0.0 && self.corrupt_rate == 0.0
    }
}

/// Session-wide storage policy: op-level retry budget, optional disk
/// budget, optional fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillPolicy {
    /// How many times a failed read/write op is retried in place before
    /// surfacing as [`SpillError::Io`].
    pub max_io_retries: u32,
    /// Hard cap on the session's total on-disk bytes; `None` is
    /// unlimited. Exceeding it surfaces [`SpillError::Budget`].
    pub disk_budget_bytes: Option<u64>,
    /// Deterministic fault injection for chaos tests; `None` is a clean
    /// session.
    pub faults: Option<SpillFaultPlan>,
}

impl Default for SpillPolicy {
    fn default() -> Self {
        Self {
            max_io_retries: DEFAULT_IO_RETRIES,
            disk_budget_bytes: None,
            faults: None,
        }
    }
}

/// Snapshot of a session's storage-fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Read/write ops that failed once and were retried in place.
    pub io_retries: u64,
    /// Spilled segments that failed verification.
    pub checksum_failures: u64,
    /// Spilled segment bytes the freeze's one read verified.
    pub bytes_verified: u64,
    /// Current on-disk bytes across every live spill file.
    pub bytes_written: u64,
}

/// Shared mutable state of one session: the policy plus fault counters,
/// handed by `Arc` to every spill file and spilled segment.
#[derive(Debug, Default)]
pub(crate) struct SpillShared {
    pub(crate) policy: SpillPolicy,
    pub(crate) io_retries: AtomicU64,
    pub(crate) checksum_failures: AtomicU64,
    pub(crate) bytes_verified: AtomicU64,
    bytes_written: AtomicU64,
}

impl SpillShared {
    fn stats(&self) -> SpillStats {
        SpillStats {
            io_retries: self.io_retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            bytes_verified: self.bytes_verified.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Releases `len` bytes of on-disk accounting (saturating — a failed
    /// rollback can leave the file longer than the accounted segments).
    fn release_bytes(&self, len: u64) {
        let mut cur = self.bytes_written.load(Ordering::Relaxed);
        while let Err(actual) = self.bytes_written.compare_exchange_weak(
            cur,
            cur.saturating_sub(len),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = actual;
        }
    }
}

/// Stable per-file stream id for fault keying: hashes the file name,
/// which encodes `(shard, attempt)`.
pub(crate) fn stream_id(path: &Path) -> u64 {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    stable_hash64(0x5354_524D, name.as_bytes()) // "STRM"
}

/// A shared high-water-mark gauge over the bytes the sim phase holds in
/// memory for the freeze: every shard's staged rows (12 bytes each), its
/// dictionary's entries (each key and its id, and each address's ASN and
/// country) and its sealed in-memory segments. Frozen
/// columnar output, intern tables, and the freeze's own staging are
/// excluded — the gauge measures what *scales with work in flight*,
/// which is what the out-of-core pipeline bounds.
#[derive(Debug, Default)]
pub struct MemGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemGauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a sink's current byte count: adjusts the shared total by
    /// the delta against what this sink last published (tracked in
    /// `published`, one counter per shard attempt) and raises the peak.
    pub fn publish(&self, published: &AtomicU64, now: u64) {
        let prev = published.swap(now, Ordering::Relaxed);
        let cur = if now >= prev {
            self.current.fetch_add(now - prev, Ordering::Relaxed) + (now - prev)
        } else {
            self.current.fetch_sub(prev - now, Ordering::Relaxed) - (prev - now)
        };
        self.peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Releases everything an attempt had published — called when the
    /// attempt panics and its buffers are discarded by the unwind.
    pub fn release(&self, published: &AtomicU64) {
        let prev = published.swap(0, Ordering::Relaxed);
        self.current.fetch_sub(prev, Ordering::Relaxed);
    }

    /// The current published total.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The high-water mark across the run so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Monotonic discriminator so concurrent sessions in one process never
/// collide on a directory name.
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One run's private spill directory. Each shard attempt's spill file
/// is created lazily on its first segment; the directory (and
/// everything in it) is removed on drop, so a completed — or aborted —
/// run leaves nothing behind.
#[derive(Debug)]
pub struct SpillSession {
    dir: PathBuf,
    shared: Arc<SpillShared>,
}

impl SpillSession {
    /// Creates a fresh, uniquely-named session directory under `parent`
    /// (or the system temp dir) with the default [`SpillPolicy`].
    pub fn create(parent: Option<&Path>) -> std::io::Result<Self> {
        Self::create_with(parent, SpillPolicy::default())
    }

    /// Creates a session with an explicit storage policy (retry budget,
    /// disk budget, fault plan).
    pub fn create_with(parent: Option<&Path>, policy: SpillPolicy) -> std::io::Result<Self> {
        let parent = parent
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let n = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("ipv6-spill-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            shared: Arc::new(SpillShared {
                policy,
                ..SpillShared::default()
            }),
        })
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the session's storage-fault counters.
    pub fn stats(&self) -> SpillStats {
        self.shared.stats()
    }

    /// The spill file of one shard attempt.
    fn attempt_path(&self, shard: usize, attempt: u32) -> PathBuf {
        self.dir.join(format!("s{shard:05}-a{attempt:02}.seg"))
    }

    /// The spill file one `(shard, attempt)` appends its segments to.
    pub(crate) fn spill_file(&self, shard: usize, attempt: u32) -> SpillFile {
        let path = self.attempt_path(shard, attempt);
        SpillFile {
            stream: stream_id(&path),
            path,
            file: None,
            len: 0,
            write_ops: 0,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Best-effort removal of the spill file a failed attempt wrote, so
    /// a retried shard starts from a clean directory and a completed run
    /// holds only the files of successful attempts. Removed bytes are
    /// released back to the disk budget.
    pub fn remove_attempt(&self, shard: usize, attempt: u32) {
        let path = self.attempt_path(shard, attempt);
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(&path).is_ok() {
            self.shared.release_bytes(len);
        }
    }
}

impl Drop for SpillSession {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A shard attempt's spill file and its write state. Segments are
/// appended whole; the file is created lazily on the first, so a shard
/// that seals nothing costs nothing. Appends are all-or-nothing: on any
/// write failure (real or injected) the file is truncated back to its
/// length before the segment and the whole segment is retried up to the
/// policy's op-retry budget, after which the error surfaces as a typed
/// [`SpillError`].
#[derive(Debug)]
pub(crate) struct SpillFile {
    path: PathBuf,
    stream: u64,
    file: Option<File>,
    len: u64,
    write_ops: u64,
    shared: Arc<SpillShared>,
}

impl SpillFile {
    /// Admits a sealed segment against the disk budget, appends it, and
    /// returns its handle, closed until the freeze reads it.
    pub(crate) fn append(&mut self, segment: &[u8]) -> Result<Segment, SpillError> {
        let len = segment.len() as u64;
        // Disk-budget admission: reserve the segment before writing; the
        // reservation is released again on failure (and by
        // `remove_attempt` when a failed attempt's file is deleted).
        let prev = self.shared.bytes_written.fetch_add(len, Ordering::Relaxed);
        if let Some(budget) = self.shared.policy.disk_budget_bytes {
            if prev + len > budget {
                self.shared.release_bytes(len);
                return Err(SpillError::Budget {
                    budget_bytes: budget,
                    attempted_bytes: prev + len,
                });
            }
        }
        let offset = self.len;
        if let Err(e) = self.write(segment) {
            self.shared.release_bytes(len);
            return Err(e);
        }
        self.len += len;
        Segment::spilled(&self.path, offset, segment, &self.shared, self.stream)
    }

    /// Writes `bytes` at the current end of file, rolling a torn write
    /// back and retrying within the op budget.
    fn write(&mut self, bytes: &[u8]) -> Result<(), SpillError> {
        let op = self.write_ops;
        self.write_ops += 1;
        let start = self.len;
        let Self {
            path,
            stream,
            file,
            shared,
            ..
        } = self;
        let f = match file {
            Some(f) => f,
            None => file
                .insert(File::create(&*path).map_err(|e| SpillError::io(path, IoOp::Create, &e))?),
        };
        let faults = shared.policy.faults.as_ref();
        let mut io_attempt = 0u32;
        loop {
            let result =
                match faults.and_then(|p| p.write_failure(*stream, op, io_attempt, bytes.len())) {
                    Some(short) => {
                        // Tear `short` bytes onto disk, then report the
                        // injected transient failure.
                        let _ = f.write_all(&bytes[..short]);
                        Err(std::io::Error::new(
                            std::io::ErrorKind::Interrupted,
                            "injected transient write fault",
                        ))
                    }
                    None => f.write_all(bytes),
                };
            let Err(e) = result else { break };
            // All-or-nothing: drop whatever prefix landed.
            f.set_len(start)
                .map_err(|t| SpillError::io(path, IoOp::Write, &t))?;
            f.seek(SeekFrom::Start(start))
                .map_err(|t| SpillError::io(path, IoOp::Seek, &t))?;
            if io_attempt >= shared.policy.max_io_retries {
                return Err(SpillError::io(path, IoOp::Write, &e));
            }
            shared.io_retries.fetch_add(1, Ordering::Relaxed);
            io_attempt += 1;
        }
        // Deterministic post-write corruption (chaos tests): flip one
        // byte so the read-side checks must catch it.
        if let Some(off) = faults.and_then(|p| p.corrupt_offset(*stream, op, bytes.len() as u64)) {
            let flipped = [bytes[off as usize] ^ 0xA5];
            f.seek(SeekFrom::Start(start + off))
                .map_err(|e| SpillError::io(path, IoOp::Seek, &e))?;
            f.write_all(&flipped)
                .map_err(|e| SpillError::io(path, IoOp::Write, &e))?;
            f.seek(SeekFrom::Start(start + bytes.len() as u64))
                .map_err(|e| SpillError::io(path, IoOp::Seek, &e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country, UserId};
    use crate::record::RequestRecord;
    use crate::run::{freeze_families, Family};
    use crate::sink::{Sealer, SpillTarget};
    use crate::time::{SimDate, Timestamp};

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    /// A sealer of the request family: spilled under `(shard 4, attempt
    /// 1)` at `segment_rows` when `session` is given, else in memory.
    fn sealer(session: Option<&SpillSession>, segment_rows: usize) -> Sealer {
        let target = session.map(|session| SpillTarget {
            session,
            shard: 4,
            attempt: 1,
            segment_rows,
        });
        Sealer::new(vec![Family::Request], target)
    }

    /// Stages `r` in the sealer's first family.
    fn keep(sealer: &mut Sealer, r: &RequestRecord) {
        let ids = sealer.intern(r).unwrap();
        sealer.keep(0, r, ids);
    }

    /// Seals `records` as the request family; returns the segments.
    fn seal(mut sealer: Sealer, records: &[RequestRecord]) -> Result<Vec<Segment>, SpillError> {
        for r in records {
            keep(&mut sealer, r);
            sealer.end_record()?;
        }
        sealer.seal()?;
        Ok(sealer.into_segments())
    }

    #[test]
    fn injected_write_faults_retry_to_identical_bytes() {
        let records: Vec<RequestRecord> = (0..50)
            .map(|i| rec(i, (i % 7) as u32, "2001:db8::1"))
            .collect();
        let write = |policy: SpillPolicy| {
            let session = SpillSession::create_with(None, policy).unwrap();
            let segments = seal(sealer(Some(&session), 8), &records).unwrap();
            assert_eq!(segments.len(), 7);
            let bytes = std::fs::read(session.dir().join("s00004-a01.seg")).unwrap();
            (bytes, session.stats())
        };
        let (clean, clean_stats) = write(SpillPolicy::default());
        assert_eq!(clean_stats.io_retries, 0);
        let (faulted, faulted_stats) = write(SpillPolicy {
            faults: Some(SpillFaultPlan {
                seed: 99,
                write_fail_rate: 0.9,
                short_write_rate: 0.5,
                fail_attempts: 1,
                ..SpillFaultPlan::default()
            }),
            ..SpillPolicy::default()
        });
        assert!(faulted_stats.io_retries > 0, "faults must have fired");
        assert_eq!(clean, faulted, "retried writes must be byte-identical");
    }

    #[test]
    fn exhausted_retry_budget_surfaces_a_typed_io_error() {
        let policy = SpillPolicy {
            max_io_retries: 1,
            faults: Some(SpillFaultPlan {
                seed: 3,
                write_fail_rate: 1.0,
                fail_attempts: u32::MAX, // never recovers
                ..SpillFaultPlan::default()
            }),
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let records = [rec(1, 0, "10.0.0.1"), rec(2, 1, "10.0.0.1")];
        let err = seal(sealer(Some(&session), 2), &records).unwrap_err();
        assert!(
            matches!(err, SpillError::Io { op: IoOp::Write, kind, .. }
                if kind == std::io::ErrorKind::Interrupted),
            "{err:?}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn disk_budget_is_enforced_and_released_by_remove_attempt() {
        let records = [rec(1, 0, "10.0.0.1"), rec(2, 1, "10.0.0.1")];
        // The bytes of one two-row segment.
        let segment = seal(sealer(None, usize::MAX), &records).unwrap()[0].bytes();
        let policy = SpillPolicy {
            disk_budget_bytes: Some(segment), // exactly one segment
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let mut w = sealer(Some(&session), 2);
        for r in &records {
            keep(&mut w, r);
            w.end_record().unwrap(); // the first segment fits
        }
        assert_eq!(session.stats().bytes_written, segment);
        let err = seal(w, &records).unwrap_err();
        assert!(
            matches!(err, SpillError::Budget { budget_bytes, attempted_bytes }
                if budget_bytes == segment && attempted_bytes == 2 * segment),
            "{err:?}"
        );
        assert!(!err.is_retryable(), "budget overruns are not transient");
        session.remove_attempt(4, 1);
        assert_eq!(
            session.stats().bytes_written,
            0,
            "removed files release their budget"
        );
    }

    #[test]
    fn session_cleans_up_on_drop_and_remove_attempt_is_selective() {
        let parent = std::env::temp_dir().join(format!("ipv6-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&parent).unwrap();
        let dir;
        {
            let session = SpillSession::create(Some(&parent)).unwrap();
            dir = session.dir().to_path_buf();
            for attempt in [0, 1] {
                let target = SpillTarget {
                    session: &session,
                    shard: 3,
                    attempt,
                    segment_rows: 2,
                };
                let w = Sealer::new(vec![Family::Pair], Some(target));
                assert_eq!(seal(w, &[rec(1, 0, "10.0.0.1")]).unwrap().len(), 1);
            }
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
            session.remove_attempt(3, 0);
            let left: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(left, vec!["s00003-a01.seg".to_string()]);
        }
        assert!(!dir.exists(), "session dir removed on drop");
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn empty_shard_writes_no_file() {
        let session = SpillSession::create(None).unwrap();
        assert!(seal(sealer(Some(&session), 64), &[]).unwrap().is_empty());
        assert_eq!(std::fs::read_dir(session.dir()).unwrap().count(), 0);
        // Freezing nothing is empty stores over empty tables.
        let frozen = freeze_families(Vec::new(), &[64]).unwrap();
        assert!(frozen.stores.request.is_empty());
        assert!(frozen.stores.prefixes[&64].is_empty());
        assert_eq!((frozen.rows, frozen.tables.bytes()), (0, 0));
    }

    /// The memory sealer seals one segment at the end and holds its bytes;
    /// the spilling one holds only its staged rows and dictionary. Both
    /// keep emission order, and both freeze to the timestamp order.
    #[test]
    fn memory_and_spill_sealers_freeze_the_same_rows() {
        let records: Vec<RequestRecord> = (0..10)
            .map(|i| rec(i, (9 - i) as u32, "2001:db8::1"))
            .collect();
        let mut memory = sealer(None, usize::MAX);
        for r in &records {
            keep(&mut memory, r);
        }
        // 10 staged rows, one address (with its ASN and country) and ten
        // users in the dictionary.
        let address = std::mem::size_of::<(u128, u32)>() + std::mem::size_of::<(Asn, Country)>();
        let dict = address + 10 * std::mem::size_of::<(u64, u32)>();
        assert_eq!(memory.bytes(), (10 * 12 + dict) as u64);
        memory.seal().unwrap();
        let memory = memory.into_segments();
        assert_eq!(memory.len(), 1);

        let session = SpillSession::create(None).unwrap();
        let mut spilled = sealer(Some(&session), 4);
        for r in &records {
            keep(&mut spilled, r);
            spilled.end_record().unwrap();
        }
        let dict = address + 2 * std::mem::size_of::<(u64, u32)>();
        assert_eq!(
            spilled.bytes(),
            (2 * 12 + dict) as u64,
            "8 of 10 rows on disk"
        );
        spilled.seal().unwrap();
        assert_eq!(spilled.bytes(), 0);
        let spilled = spilled.into_segments();
        assert_eq!(spilled.len(), 3);

        let frozen = |segments: Vec<Segment>| {
            let frozen = freeze_families(segments, &[]).unwrap().stores.request;
            frozen.all().records().collect::<Vec<_>>()
        };
        let mut sorted = records.clone();
        sorted.reverse();
        assert_eq!(frozen(memory), sorted, "frozen by timestamp");
        assert_eq!(frozen(spilled), sorted, "frozen by timestamp");
    }

    #[test]
    fn gauge_tracks_peak_across_publishers() {
        let g = MemGauge::new();
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        g.publish(&a, 100);
        g.publish(&b, 50);
        assert_eq!(g.current(), 150);
        g.publish(&a, 20); // shrink after a flush
        assert_eq!(g.current(), 70);
        assert_eq!(g.peak(), 150);
        g.release(&b);
        assert_eq!(g.current(), 20);
        assert_eq!(g.peak(), 150, "peak never decreases");
    }

    #[test]
    fn storage_mode_helpers() {
        assert_eq!(StorageMode::default(), StorageMode::InMemory);
        assert_eq!(StorageMode::InMemory.label(), "memory");
        let s = StorageMode::spill();
        assert!(s.is_spill());
        assert_eq!(s.label(), "spill");
        assert_eq!(
            s,
            StorageMode::Spill {
                dir: None,
                segment_rows: DEFAULT_SEGMENT_ROWS
            }
        );
    }
}
