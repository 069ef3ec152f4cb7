//! The run model: every dataset family is an ordered list of
//! timestamp-sorted runs, and one k-way merge freezes it.
//!
//! A [`Run`] is one timestamp-sorted stretch of rows, wherever the rows
//! live:
//!
//! - in memory: a shard's family under
//!   [`StorageMode::InMemory`](crate::StorageMode::InMemory), one run per
//!   shard and family;
//! - a framed run in a spill segment file
//!   ([`StorageMode::Spill`](crate::StorageMode::Spill), one run per
//!   `segment_rows` staged rows);
//! - a checkpoint day file, which is a single frame ([`Run::checkpoint`]);
//! - a day range of an existing [`FrozenStore`] ([`Run::frozen`]).
//!
//! [`FamilyRuns`] holds one ordered list per dataset family. Freezing it
//! takes two passes: a [`KeyCollector`] interns the keys of every run,
//! then [`merge_runs`] k-way merges each family's runs into columns
//! encoded against those tables.
//!
//! # Determinism (merge-by-concatenation)
//!
//! A family's canonical order is a *stable* sort by timestamp of its
//! rows in emission order, with shards concatenated in plan order. The
//! runs reproduce it exactly:
//!
//! 1. each run is stable-sorted when it is sealed, so equal timestamps
//!    keep emission order;
//! 2. runs partition a shard's emission stream contiguously, and the
//!    shards' lists concatenate in plan order, so a run's position in
//!    its family list is order-isomorphic to its place in the
//!    concatenated stream;
//! 3. the merge pops by `(timestamp, run position)`, which is exactly
//!    the stable sort's tie-break.
//!
//! History runs (checkpoint days, frozen day ranges) come first in a
//! list and hold strictly earlier days than the runs of newly simulated
//! days, so the merge appends the new days after the history.
//!
//! Intern tables depend only on the distinct key *sets* (sort + dedup
//! erase arrival order), so the key pass builds the same tables for any
//! split of the same rows into runs.
//!
//! # Frames
//!
//! On disk a run is a frame: a [`RUN_HEADER_BYTES`]-byte header (magic
//! `SPR1`, row count, xxHash64 chain checksum) followed by
//! [`SPILL_ROW_BYTES`]-byte rows. Both passes re-derive the checksum as
//! they stream a frame. A bad header, a torn frame, an unknown row tag
//! or a checksum mismatch surfaces as [`SpillError::Corrupt`] naming the
//! file, run and byte offset, and fails the freeze: damaged bytes never
//! reach a figure, and nothing here panics.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ipv6_study_stats::hash::stable_hash64;

use crate::columns::{ColumnStore, RecordView};
use crate::ids::{Asn, Country, UserId};
use crate::intern::{EntityTables, IpTable, UserTable};
use crate::record::RequestRecord;
use crate::spill::{stream_id, IoOp, SpillError, SpillShared};
use crate::store::FrozenStore;
use crate::time::{DateRange, Timestamp};

/// Bytes of one encoded row: timestamp (4) + user (8) + family tag (1) +
/// address (16, IPv4 in the first four bytes) + ASN (4) + country (2).
pub const SPILL_ROW_BYTES: usize = 35;

/// Bytes of the frame header: magic (4) + row count (8) + checksum (8).
pub const RUN_HEADER_BYTES: usize = 20;

/// Frame magic marking the start of every framed run.
const RUN_MAGIC: u32 = u32::from_le_bytes(*b"SPR1");

/// Seed of the per-run xxHash64 chain checksum
/// (`acc' = xxh64(acc, row_bytes)`).
const CHECKSUM_SEED: u64 = 0x5350_4C43; // "SPLC"

/// Reads a little-endian u32 from the first four bytes of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian u64 from the first eight bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Reads a little-endian u128 from the first sixteen bytes of `b`.
fn le_u128(b: &[u8]) -> u128 {
    let mut w = [0u8; 16];
    w.copy_from_slice(&b[..16]);
    u128::from_le_bytes(w)
}

/// Encodes one record into the fixed 35-byte row format.
fn encode_row(r: &RequestRecord, buf: &mut [u8; SPILL_ROW_BYTES]) {
    buf[0..4].copy_from_slice(&r.ts.secs().to_le_bytes());
    buf[4..12].copy_from_slice(&r.user.raw().to_le_bytes());
    match r.ip {
        IpAddr::V4(a) => {
            buf[12] = 4;
            buf[13..17].copy_from_slice(&u32::from(a).to_le_bytes());
            buf[17..29].fill(0);
        }
        IpAddr::V6(a) => {
            buf[12] = 6;
            buf[13..29].copy_from_slice(&u128::from(a).to_le_bytes());
        }
    }
    buf[29..33].copy_from_slice(&r.asn.0.to_le_bytes());
    buf[33..35].copy_from_slice(&r.country.0);
}

/// Decodes one 35-byte row back into a record; `Err` carries the unknown
/// family tag.
fn decode_row(buf: &[u8; SPILL_ROW_BYTES]) -> Result<RequestRecord, u8> {
    let ip = match buf[12] {
        4 => IpAddr::V4(std::net::Ipv4Addr::from(le_u32(&buf[13..17]))),
        6 => IpAddr::V6(std::net::Ipv6Addr::from(le_u128(&buf[13..29]))),
        tag => return Err(tag),
    };
    Ok(RequestRecord {
        ts: Timestamp::from_secs(le_u32(&buf[0..4])),
        user: UserId(le_u64(&buf[4..12])),
        ip,
        asn: Asn(le_u32(&buf[29..33])),
        country: Country([buf[33], buf[34]]),
    })
}

/// Encodes `rows`, in the given order, as one frame; returns the frame
/// and its chain checksum.
pub(crate) fn encode_frame(rows: &[RequestRecord]) -> (Vec<u8>, u64) {
    let mut frame = Vec::with_capacity(RUN_HEADER_BYTES + rows.len() * SPILL_ROW_BYTES);
    frame.extend_from_slice(&RUN_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]); // checksum patched below
    let mut buf = [0u8; SPILL_ROW_BYTES];
    let mut checksum = CHECKSUM_SEED;
    for r in rows {
        encode_row(r, &mut buf);
        checksum = stable_hash64(checksum, &buf);
        frame.extend_from_slice(&buf);
    }
    frame[12..20].copy_from_slice(&checksum.to_le_bytes());
    (frame, checksum)
}

/// Checks a frame header's magic; returns its row count and checksum.
fn parse_header(hdr: &[u8; RUN_HEADER_BYTES]) -> Result<(u64, u64), String> {
    let magic = le_u32(&hdr[0..4]);
    if magic != RUN_MAGIC {
        return Err(format!("bad run magic {magic:#010x}"));
    }
    Ok((le_u64(&hdr[4..12]), le_u64(&hdr[12..20])))
}

/// Where a framed run sits in its file, and what its header must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunMeta {
    /// Byte offset of the frame header.
    pub offset: u64,
    /// Rows in the frame.
    pub rows: u64,
    /// The frame's chain checksum.
    pub checksum: u64,
}

/// One framed run: its file, its index among the file's runs, its
/// verification data, and the session state its reads report to.
#[derive(Debug, Clone)]
pub(crate) struct FramedRun {
    pub path: Arc<Path>,
    pub index: usize,
    pub meta: RunMeta,
    pub shared: Arc<SpillShared>,
}

impl FramedRun {
    /// A verification failure at `offset`, counted as a checksum failure.
    fn corrupt(&self, offset: u64, reason: String) -> SpillError {
        self.shared
            .checksum_failures
            .fetch_add(1, Ordering::Relaxed);
        SpillError::Corrupt {
            path: self.path.to_path_buf(),
            run: self.index,
            offset,
            reason,
        }
    }

    /// Maps a failed read at `offset`: a short file is a torn frame.
    fn read_error(&self, e: &std::io::Error, offset: u64) -> SpillError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            self.corrupt(offset, "unexpected end of file (torn write?)".into())
        } else {
            SpillError::io(&self.path, IoOp::Read, e)
        }
    }
}

/// Where a run's rows live.
#[derive(Debug)]
enum Source {
    Rows(Vec<RequestRecord>),
    Framed(FramedRun),
    Frozen(FrozenStore, DateRange),
}

/// One timestamp-sorted run of rows: in memory, framed on disk, or a day
/// range of a frozen store (see the module docs). The constructors admit
/// only sorted rows.
#[derive(Debug)]
pub struct Run(Source);

impl Run {
    /// A run over rows already stable-sorted by timestamp.
    pub(crate) fn sorted_rows(rows: Vec<RequestRecord>) -> Self {
        Run(Source::Rows(rows))
    }

    /// A framed run on disk.
    pub(crate) fn framed(run: FramedRun) -> Self {
        Run(Source::Framed(run))
    }

    /// The rows of a frozen store on `days`.
    pub fn frozen(store: FrozenStore, days: DateRange) -> Self {
        Run(Source::Frozen(store, days))
    }

    /// Opens a checkpoint day file (see [`write_checkpoint_segment`]) as
    /// a run. The header and the framed length are checked against the
    /// file here; the rows and checksum are verified as the run streams.
    /// The file must hold timestamp-sorted rows, as a state dir's day
    /// files do.
    pub fn checkpoint(path: &Path) -> Result<Self, SpillError> {
        let run = FramedRun {
            path: Arc::from(path),
            index: 0,
            meta: RunMeta {
                offset: 0,
                rows: 0,
                checksum: 0,
            },
            shared: Arc::default(),
        };
        let mut file = File::open(path).map_err(|e| SpillError::io(path, IoOp::Open, &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| SpillError::io(path, IoOp::Open, &e))?
            .len();
        let mut hdr = [0u8; RUN_HEADER_BYTES];
        file.read_exact(&mut hdr)
            .map_err(|e| run.read_error(&e, 0))?;
        let (rows, checksum) = parse_header(&hdr).map_err(|reason| run.corrupt(0, reason))?;
        // Check the framed length against the file before trusting the
        // header's row count with an allocation.
        let framed_len = RUN_HEADER_BYTES as u128 + u128::from(rows) * SPILL_ROW_BYTES as u128;
        if framed_len != u128::from(file_len) {
            return Err(run.corrupt(
                4,
                format!(
                    "header claims {rows} rows ({framed_len} bytes) but file is {file_len} bytes"
                ),
            ));
        }
        Ok(Run::framed(FramedRun {
            meta: RunMeta {
                offset: 0,
                rows,
                checksum,
            },
            ..run
        }))
    }

    /// Rows in the run.
    pub fn rows(&self) -> u64 {
        match &self.0 {
            Source::Rows(rows) => rows.len() as u64,
            Source::Framed(run) => run.meta.rows,
            Source::Frozen(store, days) => store.in_range(*days).len() as u64,
        }
    }

    /// Streams every row to `f` in run order, verifying a frame as it
    /// goes.
    pub fn for_each(&self, mut f: impl FnMut(RequestRecord)) -> Result<(), SpillError> {
        let mut cursor = self.cursor()?;
        while let Some(r) = cursor.next()? {
            f(r);
        }
        Ok(())
    }

    fn cursor(&self) -> Result<Cursor<'_>, SpillError> {
        Ok(match &self.0 {
            Source::Rows(rows) => Cursor::Rows(rows.iter()),
            Source::Framed(run) => Cursor::Framed(FrameCursor::open(run)?),
            Source::Frozen(store, days) => Cursor::Frozen(store.in_range(*days).records()),
        })
    }

    /// The error for a row whose keys the key pass did not intern. Only a
    /// frame whose bytes changed between the two passes can produce one.
    fn missing_key(&self) -> SpillError {
        let reason = "row keys missing from the intern tables (file changed between passes?)";
        match &self.0 {
            Source::Framed(run) => run.corrupt(run.meta.offset, reason.into()),
            Source::Rows(_) | Source::Frozen(..) => SpillError::Corrupt {
                path: PathBuf::from("<memory>"),
                run: 0,
                offset: 0,
                reason: reason.into(),
            },
        }
    }
}

/// A run's streaming read position.
enum Cursor<'r> {
    Rows(std::slice::Iter<'r, RequestRecord>),
    Framed(FrameCursor<'r>),
    Frozen(RecordView<'r>),
}

impl Cursor<'_> {
    fn next(&mut self) -> Result<Option<RequestRecord>, SpillError> {
        match self {
            Cursor::Rows(rows) => Ok(rows.next().copied()),
            Cursor::Framed(frame) => frame.next(),
            Cursor::Frozen(view) => Ok(view.next()),
        }
    }
}

/// Streams one framed run: every read goes through the session's fault
/// plan, and the chain checksum is folded as rows pass and checked at the
/// end of the run.
struct FrameCursor<'r> {
    run: &'r FramedRun,
    reader: BufReader<File>,
    stream: u64,
    ops: u64,
    row: u64,
    checksum: u64,
}

impl<'r> FrameCursor<'r> {
    /// Opens the run's file at its frame and checks the header against
    /// what the run expects.
    fn open(run: &'r FramedRun) -> Result<Self, SpillError> {
        let meta = run.meta;
        let mut file =
            File::open(&run.path).map_err(|e| SpillError::io(&run.path, IoOp::Open, &e))?;
        if meta.offset > 0 {
            file.seek(SeekFrom::Start(meta.offset))
                .map_err(|e| SpillError::io(&run.path, IoOp::Seek, &e))?;
        }
        let mut cursor = Self {
            run,
            reader: BufReader::new(file),
            stream: stream_id(&run.path),
            // Op indices restart per cursor; basing them on the run's row
            // position keeps fault keying distinct across a file's runs.
            ops: meta.offset / SPILL_ROW_BYTES as u64,
            row: 0,
            checksum: CHECKSUM_SEED,
        };
        let mut hdr = [0u8; RUN_HEADER_BYTES];
        cursor.read_op(&mut hdr, meta.offset)?;
        let (rows, checksum) =
            parse_header(&hdr).map_err(|reason| run.corrupt(meta.offset, reason))?;
        if rows != meta.rows {
            return Err(run.corrupt(
                meta.offset,
                format!("header rows {rows} != expected rows {}", meta.rows),
            ));
        }
        if checksum != meta.checksum {
            return Err(run.corrupt(
                meta.offset,
                format!(
                    "header checksum {checksum:#018x} != expected checksum {:#018x}",
                    meta.checksum
                ),
            ));
        }
        Ok(cursor)
    }

    /// One read op. Injected faults are decided before the data moves, so
    /// an op-level retry simply re-issues the same read.
    fn read_op(&mut self, buf: &mut [u8], offset: u64) -> Result<(), SpillError> {
        let op = self.ops;
        self.ops += 1;
        let shared = &self.run.shared;
        if let Some(plan) = shared.policy.faults.as_ref() {
            let mut io_attempt = 0u32;
            while plan.read_failure(self.stream, op, io_attempt) {
                if io_attempt >= shared.policy.max_io_retries {
                    return Err(SpillError::Io {
                        path: self.run.path.to_path_buf(),
                        op: IoOp::Read,
                        kind: std::io::ErrorKind::Interrupted,
                        detail: "injected transient read fault".into(),
                    });
                }
                shared.io_retries.fetch_add(1, Ordering::Relaxed);
                io_attempt += 1;
            }
        }
        self.reader
            .read_exact(buf)
            .map_err(|e| self.run.read_error(&e, offset))
    }

    fn next(&mut self) -> Result<Option<RequestRecord>, SpillError> {
        let meta = self.run.meta;
        if self.row >= meta.rows {
            if self.row == meta.rows {
                self.row += 1;
                if self.checksum != meta.checksum {
                    return Err(self.run.corrupt(
                        meta.offset,
                        format!(
                            "run checksum mismatch: computed {:#018x}, expected {:#018x}",
                            self.checksum, meta.checksum
                        ),
                    ));
                }
                self.run
                    .shared
                    .bytes_verified
                    .fetch_add(meta.rows * SPILL_ROW_BYTES as u64, Ordering::Relaxed);
            }
            return Ok(None);
        }
        let offset = meta.offset + RUN_HEADER_BYTES as u64 + self.row * SPILL_ROW_BYTES as u64;
        self.row += 1;
        let mut buf = [0u8; SPILL_ROW_BYTES];
        self.read_op(&mut buf, offset)?;
        self.checksum = stable_hash64(self.checksum, &buf);
        decode_row(&buf).map(Some).map_err(|tag| {
            // The family-tag byte.
            self.run
                .corrupt(offset + 12, format!("unknown family tag {tag}"))
        })
    }
}

/// Every dataset family as an ordered list of timestamp-sorted runs: what
/// a shard hands back, what the driver concatenates in plan order, and
/// what the freeze consumes.
#[derive(Debug, Default)]
pub struct FamilyRuns {
    /// Record random sample (§3.1).
    pub request: Vec<Run>,
    /// User random sample (§3.1).
    pub user: Vec<Run>,
    /// IP random sample (§3.1).
    pub ip: Vec<Run>,
    /// Per-length IPv6 prefix random samples.
    pub prefixes: BTreeMap<u8, Vec<Run>>,
    /// Full-fidelity abuse stream.
    pub abuse: Vec<Run>,
    /// Full-fidelity pair-window stream (the last study days).
    pub pair: Vec<Run>,
}

impl FamilyRuns {
    /// Empty lists, with one prefix family per length in `prefix_lengths`.
    pub fn new(prefix_lengths: &[u8]) -> Self {
        Self {
            prefixes: prefix_lengths.iter().map(|&l| (l, Vec::new())).collect(),
            ..Self::default()
        }
    }

    /// Appends `other`'s runs after this list's, family by family. A
    /// run's position is its merge tie-break, so append in plan order.
    pub fn append(&mut self, other: FamilyRuns) {
        self.request.extend(other.request);
        self.user.extend(other.user);
        self.ip.extend(other.ip);
        for (len, runs) in other.prefixes {
            self.prefixes.entry(len).or_default().extend(runs);
        }
        self.abuse.extend(other.abuse);
        self.pair.extend(other.pair);
    }

    /// Every run of every family.
    pub fn iter(&self) -> impl Iterator<Item = &Run> {
        self.request
            .iter()
            .chain(&self.user)
            .chain(&self.ip)
            .chain(self.prefixes.values().flatten())
            .chain(&self.abuse)
            .chain(&self.pair)
    }
}

/// Accumulates the distinct entity keys of a record stream with periodic
/// sort+dedup compaction, then builds the shared [`EntityTables`].
///
/// `EntityTables` construction is order-independent given the same key
/// sets, so tables built here are bit-identical however the rows are
/// split into runs — the linchpin of storage-mode determinism.
#[derive(Debug, Default)]
pub struct KeyCollector {
    v4: Vec<u32>,
    v6: Vec<u128>,
    users: Vec<u64>,
    compact_at: usize,
}

/// Compaction floor: below this many buffered keys, dedup isn't worth it.
const COMPACT_FLOOR: usize = 1 << 20;

impl KeyCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self {
            compact_at: COMPACT_FLOOR,
            ..Self::default()
        }
    }

    /// Adds one record's keys.
    pub fn add(&mut self, rec: &RequestRecord) {
        match rec.ip {
            IpAddr::V4(a) => self.v4.push(u32::from(a)),
            IpAddr::V6(a) => self.v6.push(u128::from(a)),
        }
        self.users.push(rec.user.raw());
        if self.v4.len() + self.v6.len() + self.users.len() > self.compact_at {
            self.compact();
        }
    }

    /// Adds every record of a run (a frame is verified as it streams).
    pub fn add_run(&mut self, run: &Run) -> Result<(), SpillError> {
        run.for_each(|r| self.add(&r))
    }

    fn compact(&mut self) {
        crate::kernels::radix_sort_u32(&mut self.v4);
        self.v4.dedup();
        self.v6.sort_unstable();
        self.v6.dedup();
        crate::kernels::radix_sort_u64(&mut self.users);
        self.users.dedup();
        let len = self.v4.len() + self.v6.len() + self.users.len();
        self.compact_at = (len * 2).max(COMPACT_FLOOR);
    }

    /// Builds the shared intern tables from the collected keys.
    pub fn into_tables(self) -> EntityTables {
        EntityTables {
            ips: IpTable::from_keys(self.v4, self.v6),
            users: UserTable::from_keys(self.users),
        }
    }
}

/// K-way merges one family's runs into a timestamp-sorted
/// [`FrozenStore`] encoded against `tables`, consuming the runs.
///
/// Ties pop by position in `runs`, the canonical order's stable
/// tie-break (see the module docs). One cursor is open per non-empty
/// run and no run is re-buffered. `tables` must hold every key of every
/// run, which a [`KeyCollector`] pass over the same runs guarantees; a
/// row whose keys are missing fails the merge as corrupt.
pub fn merge_runs(runs: Vec<Run>, tables: &Arc<EntityTables>) -> Result<FrozenStore, SpillError> {
    let total: u64 = runs.iter().map(Run::rows).sum();
    let mut cols = ColumnStore::with_capacity(total as usize);
    // `fronts[i]` is cursor `i`'s next row; the heap holds its key.
    let mut cursors = Vec::new();
    let mut fronts = Vec::new();
    let mut heap = BinaryHeap::new();
    for run in runs.iter().filter(|r| r.rows() > 0) {
        let mut cursor = run.cursor()?;
        if let Some(front) = cursor.next()? {
            heap.push(Reverse((front.ts.secs(), cursors.len())));
            cursors.push((cursor, run));
            fronts.push(front);
        }
    }
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((_, i)) = *top;
        let (cursor, run) = &mut cursors[i];
        if !cols.try_push_encoded(&fronts[i], tables) {
            return Err(run.missing_key());
        }
        match cursor.next()? {
            Some(next) => {
                // Replacing the top sifts once, and not at all while this
                // run stays the minimum.
                *top = Reverse((next.ts.secs(), i));
                fronts[i] = next;
            }
            None => {
                PeekMut::pop(top);
            }
        }
    }
    Ok(FrozenStore::from_sorted_parts(cols, Arc::clone(tables)))
}

/// Writes `rows`, in the given order, to `path` as one frame: the
/// incremental engine's checkpoint day file. A state dir's day files hold
/// canonical (timestamp-sorted) day slices, which is what lets
/// [`Run::checkpoint`] open them as runs.
pub fn write_checkpoint_segment(path: &Path, rows: &[RequestRecord]) -> Result<(), SpillError> {
    let (frame, _) = encode_frame(rows);
    let mut f = File::create(path).map_err(|e| SpillError::io(path, IoOp::Create, &e))?;
    f.write_all(&frame)
        .map_err(|e| SpillError::io(path, IoOp::Write, &e))?;
    f.sync_all()
        .map_err(|e| SpillError::io(path, IoOp::Flush, &e))?;
    Ok(())
}

/// Reads a checkpoint day file written by [`write_checkpoint_segment`]
/// back in order, verifying the length framing and chain checksum. Torn,
/// truncated or padded files surface as [`SpillError::Corrupt`], never as
/// silently wrong rows.
pub fn read_checkpoint_segment(path: &Path) -> Result<Vec<RequestRecord>, SpillError> {
    let run = Run::checkpoint(path)?;
    // The row count was checked against the file length.
    let mut rows = Vec::with_capacity(run.rows() as usize);
    run.for_each(|r| rows.push(r))?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{RunWriter, SpillSession};
    use crate::store::RequestStore;
    use crate::time::SimDate;

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    /// Seals `records` into runs of `segment_rows` rows: in memory when
    /// `session` is `None`, else spilled under `(shard, attempt 0)`.
    fn runs_of(
        session: Option<&SpillSession>,
        shard: usize,
        segment_rows: usize,
        records: &[RequestRecord],
    ) -> Vec<Run> {
        let mut w = match session {
            Some(s) => s.writer(shard, 0, "request", segment_rows),
            None => RunWriter::in_memory(),
        };
        for &r in records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        w.into_runs()
    }

    fn framed(run: &Run) -> &FramedRun {
        match &run.0 {
            Source::Framed(f) => f,
            other => panic!("expected a framed run, got {other:?}"),
        }
    }

    fn collect(runs: &[Run]) -> Result<EntityTables, SpillError> {
        let mut keys = KeyCollector::new();
        for run in runs {
            keys.add_run(run)?;
        }
        Ok(keys.into_tables())
    }

    #[test]
    fn row_codec_round_trips_both_families() {
        let mut buf = [0u8; SPILL_ROW_BYTES];
        for r in [
            rec(7, 0, "2001:db8::1"),
            rec(u64::MAX, 3, "10.0.0.1"),
            rec(0, 86_400, "::"),
            rec(1, 12, "255.255.255.255"),
        ] {
            encode_row(&r, &mut buf);
            assert_eq!(decode_row(&buf), Ok(r));
        }
    }

    #[test]
    fn corrupt_tag_is_a_typed_error_not_a_panic() {
        let mut buf = [0u8; SPILL_ROW_BYTES];
        encode_row(&rec(1, 0, "10.0.0.1"), &mut buf);
        buf[12] = 9;
        assert_eq!(decode_row(&buf), Err(9));
    }

    #[test]
    fn checkpoint_segment_round_trips_in_order() {
        let dir = std::env::temp_dir().join(format!("ipv6-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day-roundtrip.seg");
        // Deliberately NOT timestamp-sorted: the checkpoint codec must
        // preserve the caller's order exactly.
        let rows = vec![
            rec(3, 9, "2001:db8::3"),
            rec(1, 0, "10.0.0.1"),
            rec(2, 9, "2001:db8::2"),
        ];
        write_checkpoint_segment(&path, &rows).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), rows);
        // A checkpoint file is exactly one frame of the shared codec.
        assert_eq!(std::fs::read(&path).unwrap(), encode_frame(&rows).0);

        write_checkpoint_segment(&path, &[]).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_segment_detects_corruption_truncation_and_padding() {
        let dir = std::env::temp_dir().join(format!("ipv6-ckpt-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day-corrupt.seg");
        let rows = vec![rec(1, 0, "10.0.0.1"), rec(2, 1, "2001:db8::2")];
        write_checkpoint_segment(&path, &rows).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        bad[RUN_HEADER_BYTES + 3] ^= 0xA5;
        std::fs::write(&path, &bad).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("checksum mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Torn write -> length framing failure, not an allocation guess.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("but file is")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Trailing garbage is also a framing failure.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 5]);
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(
            read_checkpoint_segment(&path).unwrap_err(),
            SpillError::Corrupt { .. }
        ));

        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("bad run magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An on-disk bad tag reports path + run index + byte offset through
    /// the typed error.
    #[test]
    fn corrupt_tag_on_disk_reports_path_run_and_offset() {
        let session = SpillSession::create(None).unwrap();
        let records = [
            rec(1, 0, "10.0.0.1"),
            rec(2, 1, "10.0.0.2"),
            rec(3, 2, "10.0.0.3"),
        ];
        let runs = runs_of(Some(&session), 0, 2, &records);
        let path = framed(&runs[1]).path.to_path_buf();
        // Flip the second run's first row tag (run 1 starts after the
        // first 2-row frame).
        let run1_offset = (RUN_HEADER_BYTES + 2 * SPILL_ROW_BYTES) as u64;
        let tag_offset = run1_offset + RUN_HEADER_BYTES as u64 + 12;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[tag_offset as usize] = 9;
        std::fs::write(&path, &bytes).unwrap();

        match collect(&runs).unwrap_err() {
            SpillError::Corrupt {
                path: at,
                run,
                offset,
                reason,
            } => {
                assert_eq!(at, path);
                assert_eq!(run, 1);
                assert_eq!(offset, tag_offset);
                assert!(reason.contains("unknown family tag 9"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(session.stats().checksum_failures, 1);
    }

    #[test]
    fn flipped_payload_byte_fails_the_run_checksum() {
        let session = SpillSession::create(None).unwrap();
        let records: Vec<RequestRecord> = (0..10u64)
            .map(|i| rec(i, i as u32, "2001:db8::1"))
            .collect();
        let runs = runs_of(Some(&session), 0, 64, &records);
        let tables = Arc::new(collect(&runs).unwrap());
        let path = framed(&runs[0]).path.to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a non-tag payload byte: the chain checksum must catch it.
        bytes[RUN_HEADER_BYTES + 3 * SPILL_ROW_BYTES + 5] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let err = collect(&runs).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { run: 0, ref reason, .. }
                if reason.contains("checksum mismatch")),
            "{err:?}"
        );
        // The merge pass detects it too: a changed key fails the lookup,
        // an unchanged one the checksum at the end of the run.
        let err = merge_runs(runs, &tables).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn truncated_file_is_reported_as_torn_write() {
        let session = SpillSession::create(None).unwrap();
        let records: Vec<RequestRecord> = (0..8u64).map(|i| rec(i, i as u32, "10.0.0.1")).collect();
        let runs = runs_of(Some(&session), 0, 64, &records);
        let path = framed(&runs[0]).path.to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let err = collect(&runs).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { ref reason, .. }
                if reason.contains("torn write")),
            "{err:?}"
        );
    }

    /// Two "shards" with ties across and within both, split into several
    /// runs, merge to exactly the stable sort of their plan-order
    /// concatenation — held in memory or spilled.
    #[test]
    fn merge_reproduces_the_stable_concatenation_sort() {
        let shard_a = vec![
            rec(1, 10, "2001:db8::1"),
            rec(2, 5, "2001:db8::2"),
            rec(3, 10, "10.0.0.1"), // ties with user 1
            rec(4, 1, "2001:db8::3"),
            rec(5, 10, "2001:db8::4"), // crosses a run boundary
        ];
        let shard_b = vec![rec(6, 10, "10.0.0.2"), rec(7, 0, "2001:db8::5")];
        let mut reference = RequestStore::new();
        for &r in shard_a.iter().chain(shard_b.iter()) {
            reference.push(r);
        }

        let session = SpillSession::create(None).unwrap();
        for spill in [None, Some(&session)] {
            let mut runs = runs_of(spill, 0, 3, &shard_a);
            runs.extend(runs_of(spill, 1, 3, &shard_b));
            let expected_runs = if spill.is_some() { 3 } else { 2 };
            assert_eq!(runs.len(), expected_runs);
            let tables = Arc::new(collect(&runs).unwrap());
            let frozen = merge_runs(runs, &tables).unwrap();
            assert_eq!(
                frozen.all().records().collect::<Vec<_>>(),
                reference.all(),
                "k-way merge must equal the stable concatenation sort (spill: {})",
                spill.is_some()
            );
            // Merged columns are exactly sized (the bytes() contract).
            assert_eq!(frozen.bytes(), frozen.len() * 18);
        }
        // Both verified read passes counted the spilled payload bytes.
        assert_eq!(
            session.stats().bytes_verified,
            2 * 7 * SPILL_ROW_BYTES as u64
        );
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// A frozen day range and an empty checkpoint file are runs like any
    /// other: the history precedes newer runs and empty runs change
    /// nothing.
    #[test]
    fn frozen_and_empty_runs_merge_with_populated_ones() {
        let early: Vec<RequestRecord> = (0..4).map(|i| rec(i, i as u32, "10.0.0.1")).collect();
        let late: Vec<RequestRecord> = (0..3)
            .map(|i| rec(i + 9, 86_400 + i as u32, "2001:db8::9"))
            .collect();
        let history = {
            let mut s = RequestStore::new();
            for &r in &early {
                s.push(r);
            }
            s.freeze()
        };
        let dir = std::env::temp_dir().join(format!("ipv6-run-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.seg");
        write_checkpoint_segment(&empty, &[]).unwrap();

        let mut runs = vec![
            Run::frozen(history, DateRange::single(SimDate::ymd(4, 13))),
            Run::checkpoint(&empty).unwrap(),
        ];
        runs.extend(runs_of(None, 0, 2, &late));
        assert_eq!(runs.iter().map(Run::rows).sum::<u64>(), 7);
        let tables = Arc::new(collect(&runs).unwrap());
        let merged = merge_runs(runs, &tables).unwrap();
        let expected: Vec<RequestRecord> = early.iter().chain(&late).copied().collect();
        assert_eq!(merged.all().records().collect::<Vec<_>>(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_collector_matches_in_memory_table_build() {
        let records: Vec<RequestRecord> = (0..500)
            .map(|i| {
                rec(
                    i % 37,
                    i as u32,
                    if i % 3 == 0 {
                        "192.0.2.9"
                    } else {
                        "2001:db8:9::1"
                    },
                )
            })
            .collect();
        let mut keys = KeyCollector::new();
        for r in &records {
            keys.add(r);
        }
        assert_eq!(keys.into_tables(), EntityTables::from_records(&records));
    }
}
