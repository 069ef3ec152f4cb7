//! The run model: every dataset family is an ordered list of runs in
//! emission order, and one columnar freeze turns them into frozen stores.
//!
//! A [`Run`] is one stretch of rows in the order they were emitted,
//! wherever the rows live:
//!
//! - in memory: a shard's family under
//!   [`StorageMode::InMemory`](crate::StorageMode::InMemory), one run per
//!   shard and family;
//! - a framed run in a spill segment file
//!   ([`StorageMode::Spill`](crate::StorageMode::Spill), one run per
//!   `segment_rows` staged rows);
//! - a day range of an existing [`FrozenStore`] ([`Run::frozen`]);
//! - a section of a state dir's day segment
//!   ([`Segment::into_runs`](crate::segment::Segment::into_runs)): one
//!   family's canonical rows of one day, dictionary-coded.
//!
//! [`FamilyRuns`] holds one ordered list per dataset family, and
//! [`freeze_families`] turns it into one [`FrozenStore`] per family in
//! three steps:
//!
//! 1. **read** — every segment's dictionary is read, verified and
//!    interned once, and every other run is streamed exactly once (a
//!    frame's checksum is verified as it streams) and dropped once read.
//!    Each key is interned on first sight into a provisional id, and each
//!    streamed row lands in its family's exact-capacity staging columns
//!    (18 bytes a row);
//! 2. **intern** — the distinct keys are ranked once, which builds the
//!    shared [`EntityTables`] and, per key family (v4, v6, user), a
//!    provisional → dense id remap; each segment's local → dense tables
//!    follow from it;
//! 3. **gather** — per family, exact-size frozen columns take the
//!    segment sections first, read one by one through a reused buffer,
//!    verified and mapped through their segment's local → dense tables.
//!    Then the stable LSB radix argsort of the staged timestamps orders
//!    the other runs' rows, and every staged column is gathered through
//!    it (ids through the remap) after them, and dropped once gathered.
//!
//! # Determinism (stable sort of the plan-order concatenation)
//!
//! A family's canonical order is a *stable* sort by timestamp of its
//! rows in emission order, with shards concatenated in plan order. Runs
//! partition a shard's emission stream contiguously and keep its order,
//! and the shards' lists concatenate in plan order, so reading a family's
//! runs in list order yields exactly that concatenation — however the
//! rows were split into runs. The gather's argsort is stable, so it
//! reproduces the canonical order exactly.
//!
//! History runs (segment sections, frozen day ranges) come first in a
//! list, hold canonical rows, and hold strictly earlier days than the
//! runs of newly simulated days, so the sort keeps the history as it was
//! and appends the new days after it. Segment sections skip the sort
//! altogether: they are gathered as they lie, ahead of a family's other
//! runs, which the gather licenses by checking that every section row
//! lies inside its segment's day, that the history never goes back in
//! time, and that the first sorted suffix row is not earlier than the
//! history's last.
//!
//! Intern tables depend only on the distinct key *sets* (the ranking
//! sorts them), so the tables and every dense id are the same for any
//! split of the same rows into runs and any read order.
//!
//! # Frames
//!
//! On disk a spilled run is a frame: a [`RUN_HEADER_BYTES`]-byte header
//! (magic `SPR1`, row count, xxHash64 chain checksum) followed by
//! [`SPILL_ROW_BYTES`]-byte rows. The read re-derives the checksum as it
//! streams a frame. A bad header, a torn frame, an unknown row tag or a
//! checksum mismatch surfaces as [`SpillError::Corrupt`] naming the file,
//! run and byte offset, and fails the freeze: damaged bytes never reach
//! a figure, and nothing here panics. Segments are verified the same way
//! (see [`crate::segment`]).

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::fs::File;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{Read, Seek, SeekFrom};
use std::net::IpAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipv6_study_stats::hash::stable_hash64;

use crate::columns::ColumnStore;
use crate::ids::{Asn, Country, UserId};
use crate::intern::{EntityTables, IpId, IpTable, UserTable};
use crate::record::RequestRecord;
use crate::segment::{Section, Segment};
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
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian u64 from the first eight bytes of `b`.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Reads a little-endian u128 from the first sixteen bytes of `b`.
pub(crate) fn le_u128(b: &[u8]) -> u128 {
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

/// Decodes one 35-byte row (the first [`SPILL_ROW_BYTES`] of `buf`) back
/// into a record; `Err` carries the unknown family tag.
fn decode_row(buf: &[u8]) -> Result<RequestRecord, u8> {
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
    /// Section `.1` (0-based) of a day segment.
    Section(Arc<Segment>, usize),
}

/// One run of rows in emission order: in memory, framed on disk, a day
/// range of a frozen store, or a section of a day segment (see the
/// module docs).
#[derive(Debug)]
pub struct Run(Source);

impl Run {
    /// A run over rows held in memory.
    pub(crate) fn in_memory(rows: Vec<RequestRecord>) -> Self {
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

    /// Section `index` (0-based) of `segment`.
    pub(crate) fn section(segment: &Arc<Segment>, index: usize) -> Self {
        Run(Source::Section(Arc::clone(segment), index))
    }

    /// Rows in the run.
    pub fn rows(&self) -> u64 {
        match &self.0 {
            Source::Rows(rows) => rows.len() as u64,
            Source::Framed(run) => run.meta.rows,
            Source::Frozen(store, days) => store.in_range(*days).len() as u64,
            Source::Section(segment, index) => segment.section_rows(*index),
        }
    }

    /// Streams every row to `f` in run order, verifying a frame or
    /// section as it goes.
    pub fn for_each(&self, f: impl FnMut(RequestRecord)) -> Result<(), SpillError> {
        match &self.0 {
            Source::Rows(rows) => rows.iter().copied().for_each(f),
            Source::Framed(run) => run.for_each(f)?,
            Source::Frozen(store, days) => store.in_range(*days).records().for_each(f),
            Source::Section(segment, index) => {
                segment.records(*index..*index + 1)?.into_iter().for_each(f);
            }
        }
        Ok(())
    }
}

/// Rows one read call moves into a framed run's block buffer (64 KiB,
/// rounded down to whole rows).
const READ_BLOCK_ROWS: usize = (64 << 10) / SPILL_ROW_BYTES;

impl FramedRun {
    /// Streams the frame's rows to `f` in order. The header is checked
    /// against [`RunMeta`]; rows move in blocks of [`READ_BLOCK_ROWS`],
    /// and each row's tag and chain checksum are verified as it passes,
    /// the checksum finally against the header's. A short file fails at
    /// the first incomplete row, after every complete row before it.
    fn for_each(&self, mut f: impl FnMut(RequestRecord)) -> Result<(), SpillError> {
        let meta = self.meta;
        let mut reader = FrameReader::open(self)?;
        let payload = meta.offset + RUN_HEADER_BYTES as u64;
        let rows_per_block = (meta.rows as usize).min(READ_BLOCK_ROWS);
        let mut block = vec![0u8; rows_per_block * SPILL_ROW_BYTES];
        let mut checksum = CHECKSUM_SEED;
        let mut row = 0u64;
        while row < meta.rows {
            let want = (meta.rows - row).min(rows_per_block as u64) as usize * SPILL_ROW_BYTES;
            let got = reader.fill(&mut block[..want])?;
            for bytes in block[..got].chunks_exact(SPILL_ROW_BYTES) {
                let offset = payload + row * SPILL_ROW_BYTES as u64;
                reader.fault_op()?;
                checksum = stable_hash64(checksum, bytes);
                let rec = decode_row(bytes).map_err(|tag| {
                    self.corrupt(offset + 12, format!("unknown family tag {tag}"))
                })?;
                f(rec);
                row += 1;
            }
            if got < want {
                reader.fault_op()?;
                let offset = payload + row * SPILL_ROW_BYTES as u64;
                return Err(self.corrupt(offset, "unexpected end of file (torn write?)".into()));
            }
        }
        if checksum != meta.checksum {
            return Err(self.corrupt(
                meta.offset,
                format!(
                    "run checksum mismatch: computed {checksum:#018x}, expected {:#018x}",
                    meta.checksum
                ),
            ));
        }
        self.shared
            .bytes_verified
            .fetch_add(meta.rows * SPILL_ROW_BYTES as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// One framed run's open file. Every read op — the header, then one per
/// row — goes through the session's fault plan, keyed by the op's index.
struct FrameReader<'r> {
    run: &'r FramedRun,
    file: File,
    stream: u64,
    ops: u64,
}

impl<'r> FrameReader<'r> {
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
        let mut reader = Self {
            run,
            file,
            stream: stream_id(&run.path),
            // Op indices restart per reader; basing them on the run's row
            // position keeps fault keying distinct across a file's runs.
            ops: meta.offset / SPILL_ROW_BYTES as u64,
        };
        let mut hdr = [0u8; RUN_HEADER_BYTES];
        reader.fault_op()?;
        reader
            .file
            .read_exact(&mut hdr)
            .map_err(|e| run.read_error(&e, meta.offset))?;
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
        Ok(reader)
    }

    /// Rolls the fault plan for the next read op. Injected faults are
    /// decided before the data moves, so an op-level retry re-issues the
    /// same read; past the retry budget the op fails.
    fn fault_op(&mut self) -> Result<(), SpillError> {
        let op = self.ops;
        self.ops += 1;
        let shared = &self.run.shared;
        let Some(plan) = shared.policy.faults.as_ref() else {
            return Ok(());
        };
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
        Ok(())
    }

    /// Reads into `buf` until it is full or the file ends; returns the
    /// bytes read.
    fn fill(&mut self, buf: &mut [u8]) -> Result<usize, SpillError> {
        let mut n = 0;
        while n < buf.len() {
            match self.file.read(&mut buf[n..]) {
                Ok(0) => break,
                Ok(k) => n += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SpillError::io(&self.run.path, IoOp::Read, &e)),
            }
        }
        Ok(n)
    }
}

/// One dataset family: the key of a [`Families`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Record random sample.
    Request,
    /// User random sample.
    User,
    /// IP random sample.
    Ip,
    /// The IPv6 prefix random sample of one length.
    Prefix(u8),
    /// Full-fidelity abuse stream.
    Abuse,
    /// Full-fidelity pair-window stream.
    Pair,
}

/// One value per dataset family: the runs a shard hands back and the
/// freeze consumes ([`FamilyRuns`]), and the frozen stores it produces.
#[derive(Debug, Default)]
pub struct Families<T> {
    /// Record random sample (§3.1).
    pub request: T,
    /// User random sample (§3.1).
    pub user: T,
    /// IP random sample (§3.1).
    pub ip: T,
    /// Per-length IPv6 prefix random samples.
    pub prefixes: BTreeMap<u8, T>,
    /// Full-fidelity abuse stream.
    pub abuse: T,
    /// Full-fidelity pair-window stream (the last study days).
    pub pair: T,
}

/// Every dataset family as an ordered list of runs: what a shard hands
/// back, what the driver concatenates in plan order, and what the freeze
/// consumes.
pub type FamilyRuns = Families<Vec<Run>>;

impl<T> Families<T> {
    /// Applies `f` to every family in turn (request, user, ip, prefixes
    /// by ascending length, abuse, pair), stopping at the first error.
    pub fn try_map<U, E>(self, mut f: impl FnMut(T) -> Result<U, E>) -> Result<Families<U>, E> {
        Ok(Families {
            request: f(self.request)?,
            user: f(self.user)?,
            ip: f(self.ip)?,
            prefixes: self
                .prefixes
                .into_iter()
                .map(|(len, v)| Ok((len, f(v)?)))
                .collect::<Result<_, E>>()?,
            abuse: f(self.abuse)?,
            pair: f(self.pair)?,
        })
    }

    /// Applies `f` to every family in turn.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Families<U> {
        let mapped: Result<_, Infallible> = self.try_map(|v| Ok(f(v)));
        mapped.unwrap_or_else(|never| match never {})
    }

    /// Every family, in the order [`Families::try_map`] visits them.
    pub fn keys(&self) -> Vec<Family> {
        let mut keys = vec![Family::Request, Family::User, Family::Ip];
        keys.extend(self.prefixes.keys().map(|&len| Family::Prefix(len)));
        keys.extend([Family::Abuse, Family::Pair]);
        keys
    }
}

impl<T: Default> Families<T> {
    /// The value of `family`; a prefix length not yet present starts
    /// empty.
    pub fn family_mut(&mut self, family: Family) -> &mut T {
        match family {
            Family::Request => &mut self.request,
            Family::User => &mut self.user,
            Family::Ip => &mut self.ip,
            Family::Prefix(len) => self.prefixes.entry(len).or_default(),
            Family::Abuse => &mut self.abuse,
            Family::Pair => &mut self.pair,
        }
    }
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
    /// run's position places its rows in the concatenation the freeze
    /// stable-sorts, so append in plan order.
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
}

/// What [`freeze_families`] produces: one frozen store per family over
/// shared intern tables, and what each of its steps measured.
#[derive(Debug)]
pub struct FrozenFamilies {
    /// The frozen stores, timestamp-sorted and densely encoded.
    pub stores: Families<FrozenStore>,
    /// The intern tables every store is encoded against.
    pub tables: Arc<EntityTables>,
    /// Rows frozen.
    pub rows: u64,
    /// Rows the read staged: every row but the segment sections'.
    pub staged: u64,
    /// Wall of the verified read, which interns every segment dictionary
    /// and stages and interns every other run's rows.
    pub read_wall: Duration,
    /// Wall of ranking the distinct keys into the tables and remaps.
    pub intern_wall: Duration,
    /// Wall of gathering every family: the segment sections as they lie,
    /// then the staged rows in radix order.
    pub gather_wall: Duration,
}

/// One family after the read: its segment sections, as (segment slot,
/// section index) in list order, and its other runs' staged rows.
struct Staged {
    sections: Vec<(usize, usize)>,
    cols: ColumnStore,
}

/// Freezes every family's runs into timestamp-sorted, densely encoded
/// stores over one set of shared intern tables: one verified read, one
/// ranking of the distinct keys, one gather per family (see the module
/// docs). Each run is dropped as soon as it is read.
///
/// The stores equal a [`RequestStore`](crate::RequestStore) stable sort
/// of each family's rows in list order, encoded against
/// [`EntityTables::build`] over every family's rows, provided each
/// family's segment sections come first in its list (a family's sections
/// are gathered ahead of its other runs wherever they sit). A run that
/// fails verification fails the freeze, and so do segment sections whose
/// rows would not be in order as they lie.
pub fn freeze_families(runs: FamilyRuns) -> Result<FrozenFamilies, SpillError> {
    let t_read = Instant::now();
    let mut interner = Interner::default();
    let mut segments = Segments::default();
    let mut buf = Vec::new();
    let mut staged_rows = 0u64;
    let staged = runs.try_map(|runs| {
        let mut sections = Vec::new();
        let mut others = Vec::new();
        for run in runs {
            match run.0 {
                Source::Section(segment, index) => {
                    sections.push((segments.intern(segment, &mut interner, &mut buf)?, index));
                }
                source => others.push(Run(source)),
            }
        }
        let n: u64 = others.iter().map(Run::rows).sum();
        staged_rows += n;
        // Every source knows its row count up front, so no column ever
        // grows.
        let mut cols = ColumnStore::with_capacity(n as usize);
        for run in others {
            run.for_each(|r| interner.stage(&r, &mut cols))?;
        }
        Ok(Staged { sections, cols })
    })?;
    let read_wall = t_read.elapsed();

    let t_intern = Instant::now();
    let (tables, remap) = interner.rank();
    let tables = Arc::new(tables);
    let segments = segments.densify(&remap);
    let intern_wall = t_intern.elapsed();

    let t_gather = Instant::now();
    let mut rows = 0u64;
    let stores = staged.try_map(|staged| {
        let store = remap.gather(staged, &segments, &mut buf, &tables)?;
        rows += store.len() as u64;
        Ok(store)
    })?;
    Ok(FrozenFamilies {
        stores,
        tables,
        rows,
        staged: staged_rows,
        read_wall,
        intern_wall,
        gather_wall: t_gather.elapsed(),
    })
}

/// Hashes the interner's integer keys with one folded multiply per
/// 64-bit word. The interner's maps are probed, never iterated into
/// output (ranking sorts their keys), so the hash needs spread, not
/// stability, and a full xxHash64 per key would cost more than the rest
/// of a row's staging. Keys come from this program's own simulator, so
/// no caller can craft them to collide.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    /// An odd 64-bit constant (the fractional bits of π).
    const MUL: u64 = 0x243f_6a88_85a3_08d3;
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.0 ^ v) * u128::from(Self::MUL);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

/// A provisional-id map of one key family.
type KeyIds<K> = HashMap<K, u32, BuildHasherDefault<KeyHasher>>;

/// Provisional ids for the keys read so far, assigned in first-sight
/// order: one id space per key family.
#[derive(Debug, Default)]
struct Interner {
    v4: KeyIds<u32>,
    v6: KeyIds<u128>,
    users: KeyIds<u64>,
}

/// The provisional id of `key`, assigning the next one on first sight.
fn provisional<K: Hash + Eq>(ids: &mut KeyIds<K>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

impl Interner {
    /// Appends `r` to `cols` under provisional ids. A provisional address
    /// id keeps the family bit; its index counts within the family.
    fn stage(&mut self, r: &RequestRecord, cols: &mut ColumnStore) {
        let ip = match r.ip {
            IpAddr::V4(a) => IpId::new(false, provisional(&mut self.v4, u32::from(a)) as usize),
            IpAddr::V6(a) => IpId::new(true, provisional(&mut self.v6, u128::from(a)) as usize),
        };
        cols.ts.push(r.ts);
        cols.ip.push(ip);
        cols.user.push(provisional(&mut self.users, r.user.raw()));
        cols.asn.push(r.asn);
        cols.country.push(r.country);
    }

    /// Ranks every key family's distinct keys once: the shared tables,
    /// and the remap from provisional to dense ids.
    fn rank(self) -> (EntityTables, Remap) {
        let (v4, v4_dense) = rank_keys(self.v4);
        let (v6, v6_dense) = rank_keys(self.v6);
        let (users, user_dense) = rank_keys(self.users);
        // The tables index each key family's distinct keys in ascending
        // order, so a key's rank is its dense index.
        let ips = v4_dense
            .iter()
            .map(|&d| IpId::new(false, d as usize))
            .chain(v6_dense.iter().map(|&d| IpId::new(true, d as usize)))
            .collect();
        let tables = EntityTables {
            ips: IpTable::from_keys(v4, v6),
            users: UserTable::from_keys(users),
        };
        let remap = Remap {
            ips,
            v6_base: v4_dense.len(),
            users: user_dense,
        };
        (tables, remap)
    }
}

/// A key family's distinct keys in ascending order, and the rank of each
/// provisional id among them.
fn rank_keys<K: Ord + Copy>(ids: KeyIds<K>) -> (Vec<K>, Vec<u32>) {
    let mut by_key: Vec<(K, u32)> = ids.into_iter().collect();
    // Keys are distinct, so the map's iteration order cannot show.
    by_key.sort_unstable();
    let mut dense = vec![0; by_key.len()];
    for (rank, &(_, id)) in by_key.iter().enumerate() {
        dense[id as usize] = rank as u32;
    }
    (by_key.into_iter().map(|(key, _)| key).collect(), dense)
}

/// Provisional → dense ids: the v4 family's dense address ids, then the
/// v6 family's from `v6_base`, and the dense user ids.
#[derive(Debug)]
struct Remap {
    ips: Vec<IpId>,
    v6_base: usize,
    users: Vec<u32>,
}

impl Remap {
    /// One family's frozen store: its segment sections as they lie, each
    /// verified and mapped through its segment's local → dense tables,
    /// then its staged rows in canonical order — the stable radix argsort
    /// of the staged timestamps, every column gathered through it with
    /// ids through the remap. All columns are exactly sized; each staged
    /// column is dropped once gathered.
    ///
    /// The sections' rows must lie inside their segment's day and never
    /// go back in time, and the first staged row in order must not
    /// precede the sections' last, or the gather fails: that is what
    /// makes skipping the sort of the sections exact.
    fn gather(
        &self,
        staged: Staged,
        segments: &[(Arc<Segment>, LocalIds<IpId>)],
        buf: &mut Vec<u8>,
        tables: &Arc<EntityTables>,
    ) -> Result<FrozenStore, SpillError> {
        let Staged {
            sections,
            cols: rest,
        } = staged;
        let history: u64 = sections
            .iter()
            .map(|&(slot, index)| segments[slot].0.section_rows(index))
            .sum();
        // Sections fill all five columns at once, so those start at their
        // final size. Otherwise each column is allocated as it is
        // gathered, after the staged column before it was dropped, which
        // keeps the freeze's heap smaller.
        let mut cols = if sections.is_empty() {
            ColumnStore::default()
        } else {
            ColumnStore::with_capacity(history as usize + rest.len())
        };
        let mut last: Option<LastRow> = None;
        for &(slot, index) in &sections {
            let (segment, ids) = &segments[slot];
            let section = segment.read_section(index, buf)?;
            let start = cols.len();
            cols.ts.extend(section.ts());
            section.ips(&ids.v4, &ids.v6, &mut cols.ip)?;
            section.users(&ids.users, &mut cols.user)?;
            cols.asn.extend(section.asns());
            cols.country.extend(section.countries());
            check_in_order(&section, slot, index, &cols.ts[start..], &mut last)?;
        }

        let perm = crate::kernels::radix_sort_perm_u32(&rest.ts);
        if let (Some(last), Some(&first)) = (last, perm.first()) {
            let first = rest.ts[first as usize];
            if first < last.ts {
                let segment = &segments[last.slot].0;
                return Err(segment.corrupt(
                    last.index + 1,
                    segment.ts_offset(last.index, last.row),
                    format!(
                        "history row at {} is later than the first new row at {first}",
                        last.ts
                    ),
                ));
            }
        }
        let ColumnStore {
            ts,
            ip,
            user,
            asn,
            country,
        } = rest;
        gather_into(&perm, ts, &mut cols.ts, |ts| ts);
        gather_into(&perm, ip, &mut cols.ip, |id| {
            self.ips[id.index() + usize::from(id.is_v6()) * self.v6_base]
        });
        gather_into(&perm, user, &mut cols.user, |u| self.users[u as usize]);
        gather_into(&perm, asn, &mut cols.asn, |asn| asn);
        gather_into(&perm, country, &mut cols.country, |c| c);
        Ok(FrozenStore::from_sorted_parts(cols, Arc::clone(tables)))
    }
}

/// `col` permuted by `perm` through `f`, appended to `out` (grown to
/// exactly fit); `col` is dropped on return.
fn gather_into<T: Copy, U>(perm: &[u32], col: Vec<T>, out: &mut Vec<U>, f: impl Fn(T) -> U) {
    out.reserve_exact(perm.len());
    out.extend(perm.iter().map(|&i| f(col[i as usize])));
}

/// The last history row a family's gather has taken, and where it lies.
#[derive(Debug, Clone, Copy)]
struct LastRow {
    ts: Timestamp,
    slot: usize,
    index: usize,
    row: usize,
}

/// Checks the timestamps `ts` that section `index` of the segment in
/// `slot` just gave a family: each inside the segment's day, and none
/// earlier than the family's history row before it.
fn check_in_order(
    section: &Section<'_>,
    slot: usize,
    index: usize,
    ts: &[Timestamp],
    last: &mut Option<LastRow>,
) -> Result<(), SpillError> {
    let bounds = section.day_bounds();
    for (row, &t) in ts.iter().enumerate() {
        let reason = match (bounds, *last) {
            (Some((lo, hi)), _) if t < lo || t > hi => Some(format!(
                "row timestamp {t} lies outside the day {lo} – {hi}"
            )),
            (_, Some(prev)) if t < prev.ts => Some(format!(
                "row timestamp {t} precedes the history row before it at {}",
                prev.ts
            )),
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(section.corrupt_ts(row, reason));
        }
        *last = Some(LastRow {
            ts: t,
            slot,
            index,
            row,
        });
    }
    Ok(())
}

/// One segment's dictionary, as ids: local v4, v6 and user ids index it.
#[derive(Debug, Default)]
struct LocalIds<I> {
    v4: Vec<I>,
    v6: Vec<I>,
    users: Vec<u32>,
}

/// The segments a freeze reads, each with its dictionary interned once:
/// local → provisional ids, until the ranking turns them into local →
/// dense ids.
#[derive(Debug, Default)]
struct Segments {
    slots: HashMap<*const Segment, usize>,
    list: Vec<(Arc<Segment>, LocalIds<u32>)>,
}

impl Segments {
    /// The slot of `segment`, reading, verifying and interning its
    /// dictionary on first sight.
    fn intern(
        &mut self,
        segment: Arc<Segment>,
        interner: &mut Interner,
        buf: &mut Vec<u8>,
    ) -> Result<usize, SpillError> {
        let key = Arc::as_ptr(&segment);
        if let Some(&slot) = self.slots.get(&key) {
            return Ok(slot);
        }
        let dict = segment.read_dictionary(buf)?;
        let ids = LocalIds {
            v4: dict
                .v4
                .into_iter()
                .map(|k| provisional(&mut interner.v4, k))
                .collect(),
            v6: dict
                .v6
                .into_iter()
                .map(|k| provisional(&mut interner.v6, k))
                .collect(),
            users: dict
                .users
                .into_iter()
                .map(|k| provisional(&mut interner.users, k))
                .collect(),
        };
        let slot = self.list.len();
        self.slots.insert(key, slot);
        self.list.push((segment, ids));
        Ok(slot)
    }

    /// Every segment with its local → dense ids.
    fn densify(self, remap: &Remap) -> Vec<(Arc<Segment>, LocalIds<IpId>)> {
        let ip = |p: u32| remap.ips[p as usize];
        self.list
            .into_iter()
            .map(|(segment, ids)| {
                let dense = LocalIds {
                    v4: ids.v4.into_iter().map(ip).collect(),
                    v6: ids
                        .v6
                        .into_iter()
                        .map(|p| ip(p + remap.v6_base as u32))
                        .collect(),
                    users: ids
                        .users
                        .into_iter()
                        .map(|p| remap.users[p as usize])
                        .collect(),
                };
                (segment, dense)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::ColumnSlice;
    use crate::spill::{RunWriter, SpillSession};
    use crate::store::RequestStore;
    use crate::time::SimDate;
    use ipv6_study_stats::testgen::TestGen;

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

    /// Freezes `runs` as the request family, the only non-empty one.
    fn freeze_one(runs: Vec<Run>) -> Result<FrozenStore, SpillError> {
        let runs = FamilyRuns {
            request: runs,
            ..FamilyRuns::default()
        };
        Ok(freeze_families(runs)?.stores.request)
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

        match freeze_one(runs).unwrap_err() {
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
        let path = framed(&runs[0]).path.to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a non-tag payload byte: the chain checksum must catch it.
        bytes[RUN_HEADER_BYTES + 3 * SPILL_ROW_BYTES + 5] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let err = freeze_one(runs).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { run: 0, ref reason, .. }
                if reason.contains("checksum mismatch")),
            "{err:?}"
        );
        let stats = session.stats();
        assert_eq!((stats.checksum_failures, stats.bytes_verified), (1, 0));
    }

    #[test]
    fn truncated_file_is_reported_as_torn_write() {
        let session = SpillSession::create(None).unwrap();
        let records: Vec<RequestRecord> = (0..8u64).map(|i| rec(i, i as u32, "10.0.0.1")).collect();
        let runs = runs_of(Some(&session), 0, 64, &records);
        let path = framed(&runs[0]).path.to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let err = freeze_one(runs).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { ref reason, .. }
                if reason.contains("torn write")),
            "{err:?}"
        );
    }

    /// Two "shards" with ties across and within both, split into several
    /// unsorted runs, freeze to exactly the stable sort of their
    /// plan-order concatenation — held in memory or spilled.
    #[test]
    fn freeze_reproduces_the_stable_concatenation_sort() {
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
            let frozen = freeze_one(runs).unwrap();
            assert_eq!(
                frozen.all().records().collect::<Vec<_>>(),
                reference.all(),
                "the freeze must equal the stable concatenation sort (spill: {})",
                spill.is_some()
            );
            // Frozen columns are exactly sized (the bytes() contract).
            assert_eq!(frozen.bytes(), frozen.len() * 18);
        }
        // The one verified read counted the spilled payload bytes once.
        assert_eq!(session.stats().bytes_verified, 7 * SPILL_ROW_BYTES as u64);
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// A frozen day range and an empty segment section are runs like any
    /// other: the history precedes newer runs and empty runs change
    /// nothing.
    #[test]
    fn frozen_and_empty_runs_freeze_with_populated_ones() {
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
        let day = SimDate::ymd(4, 13);
        let tables = Arc::clone(history.tables());
        let none = ColumnSlice::empty(&tables);
        crate::segment::write_segment(&empty, &tables, &[(Family::Request, none)]).unwrap();

        let mut runs = vec![Run::frozen(history, DateRange::single(day))];
        let segment = Segment::open(&empty, day, &[Family::Request]).unwrap();
        runs.extend(segment.into_runs().into_iter().map(|(_, run)| run));
        runs.extend(runs_of(None, 0, 2, &late));
        assert_eq!(runs.iter().map(Run::rows).sum::<u64>(), 7);
        let frozen = freeze_one(runs).unwrap();
        let expected: Vec<RequestRecord> = early.iter().chain(&late).copied().collect();
        assert_eq!(frozen.all().records().collect::<Vec<_>>(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A random row: few users, addresses, ASNs and countries, and
    /// timestamps on a coarse grid over two days, so ties are heavy.
    fn random_row(g: &mut TestGen) -> RequestRecord {
        let ip = if g.below(3) == 0 {
            IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 | g.below(12) as u32))
        } else {
            IpAddr::from(std::net::Ipv6Addr::from(
                0x2001_0db8_u128 << 96 | u128::from(g.below(4)) << 64 | u128::from(g.below(9)),
            ))
        };
        RequestRecord {
            ts: Timestamp::from_secs(
                SimDate::ymd(4, 13).start().secs() + g.below(12) as u32 * 14_400,
            ),
            user: UserId(g.below(30) << 40 | g.below(3)),
            ip,
            asn: Asn(64_496 + g.below(3) as u32),
            country: [Country::new("US"), Country::new("DE")][g.below(2) as usize],
        }
    }

    /// One family: up to five stretches of random rows, each in a random
    /// source (in memory, spilled in frames of random size, or a day
    /// range of a frozen store), some empty. Returns the runs and the rows
    /// they yield, in order.
    fn random_family(
        g: &mut TestGen,
        session: &SpillSession,
        files: &mut usize,
    ) -> (Vec<Run>, Vec<RequestRecord>) {
        let (mut runs, mut yields) = (Vec::new(), Vec::new());
        for _ in 0..g.below(6) {
            let len = g.below(40) as usize;
            let rows = g.vec_of(len, random_row);
            *files += 1;
            match g.below(3) {
                0 => runs.push(Run::in_memory(rows.clone())),
                1 => {
                    let segment_rows = 1 + g.below(8) as usize;
                    runs.extend(runs_of(Some(session), *files, segment_rows, &rows));
                }
                _ => {
                    let mut store = RequestStore::new();
                    for &r in &rows {
                        store.push(r);
                    }
                    let days = if g.below(2) == 0 {
                        DateRange::single(SimDate::ymd(4, 14))
                    } else {
                        DateRange::new(SimDate::ymd(4, 13), SimDate::ymd(4, 14))
                    };
                    let store = store.freeze();
                    yields.extend(store.in_range(days).records());
                    runs.push(Run::frozen(store, days));
                    continue;
                }
            }
            yields.extend(rows);
        }
        (runs, yields)
    }

    /// The freeze equals the reference — a `RequestStore` stable sort of
    /// each family's rows in run order, encoded against
    /// `EntityTables::from_records` over every family with `freeze_with`
    /// — for random families of unsorted runs from every row source, with
    /// heavy timestamp ties and empty runs, and sizes every column
    /// exactly. (Segment sections hold sorted days; the next test pins
    /// them to this row path.)
    #[test]
    fn freeze_equals_the_reference_over_random_runs_from_every_source() {
        let session = SpillSession::create(None).unwrap();
        let mut g = TestGen::new(0x4652_5A31); // "FRZ1"
        let mut files = 0;
        for case in 0..40 {
            let mut yields = Vec::new();
            let runs = FamilyRuns::new(&[48, 64]).map(|_| {
                let (runs, rows) = random_family(&mut g, &session, &mut files);
                yields.push(rows);
                runs
            });
            let total: usize = yields.iter().map(Vec::len).sum();
            let frozen = freeze_families(runs).unwrap();

            let all: Vec<RequestRecord> = yields.iter().flatten().copied().collect();
            let tables = Arc::new(EntityTables::from_records(&all));
            assert_eq!(*frozen.tables, *tables, "case {case}: tables");
            assert_eq!(frozen.rows, total as u64, "case {case}: rows read");
            let mut family = 0;
            frozen.stores.map(|store| {
                let mut reference = RequestStore::new();
                for &r in &yields[family] {
                    reference.push(r);
                }
                let reference = reference.freeze_with(Arc::clone(&tables));
                assert_eq!(store.all(), reference.all(), "case {case}, family {family}");
                assert_eq!(
                    store.bytes(),
                    store.len() * 18,
                    "case {case}: exact columns"
                );
                family += 1;
            });
            assert_eq!(family, 7);
        }
        assert_eq!(session.stats().checksum_failures, 0);
    }

    /// A random row on `day`: timestamps piled on the day's first and
    /// last seconds and on a coarse grid between, so ties are heavy at
    /// the day's boundaries; `v4` and `v6` say which families may appear.
    fn random_day_row(g: &mut TestGen, day: SimDate, v4: bool, v6: bool) -> RequestRecord {
        let sec = match g.below(4) {
            0 => 0,
            1 => 86_399,
            _ => g.below(8) as u32 * 10_800,
        };
        let ip = if v4 && (!v6 || g.below(3) == 0) {
            IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 | g.below(12) as u32))
        } else {
            IpAddr::from(std::net::Ipv6Addr::from(
                0x2001_0db8_u128 << 96 | u128::from(g.below(4)) << 64 | u128::from(g.below(9)),
            ))
        };
        RequestRecord {
            ts: Timestamp::from_secs(day.start().secs() + sec),
            ip,
            ..random_row(g)
        }
    }

    /// Random multi-day histories written as day segments by the state
    /// dir's writer, then frozen with memory and spilled suffix runs,
    /// equal the row-path freeze of the same rows: tables, every column,
    /// and exact column sizes. Histories include empty sections and empty
    /// days, v4-only and v6-only days, a pair family that covers only the
    /// last days, ties at both day boundaries, and suffix rows tied with
    /// the history's last second.
    #[test]
    fn segment_histories_freeze_like_the_row_path() {
        use crate::segment::write_segment;
        let session = SpillSession::create(None).unwrap();
        let dir = std::env::temp_dir().join(format!("ipv6-run-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut g = TestGen::new(0x5345_4731); // "SEG1"
        let first = SimDate::ymd(4, 6);
        let template = FamilyRuns::new(&[48, 64]);
        let families = template.keys();
        let main: Vec<Family> = families
            .iter()
            .copied()
            .filter(|&f| f != Family::Pair)
            .collect();
        let mut files = 0;
        for case in 0..30 {
            let days = g.below(6) as u16;
            let pair_days = g.below(3) as u16;
            let in_pair = |d: u16| d + pair_days >= days;
            // Each family's history rows, day by day in canonical order.
            let mut history: Vec<Vec<RequestRecord>> = vec![Vec::new(); families.len()];
            for d in 0..days {
                let day = first + d;
                let (v4, v6) = [(true, true), (true, false), (false, true)][g.below(3) as usize];
                let empty_day = g.below(5) == 0;
                for (k, &family) in families.iter().enumerate() {
                    if family == Family::Pair && !in_pair(d) {
                        continue;
                    }
                    let n = if empty_day || g.below(4) == 0 {
                        0
                    } else {
                        g.below(30)
                    };
                    let mut rows = g.vec_of(n as usize, |g| random_day_row(g, day, v4, v6));
                    rows.sort_by_key(|r| r.ts);
                    history[k].extend(rows);
                }
            }
            let all: Vec<RequestRecord> = history.iter().flatten().copied().collect();
            let tables = Arc::new(EntityTables::from_records(&all));
            let stores: Vec<FrozenStore> = history
                .iter()
                .map(|rows| {
                    let mut store = RequestStore::new();
                    rows.iter().for_each(|&r| store.push(r));
                    store.freeze_with(Arc::clone(&tables))
                })
                .collect();
            let store =
                |family: Family| &stores[families.iter().position(|&f| f == family).unwrap()];

            let mut segmented = FamilyRuns::new(&[48, 64]);
            for d in 0..days {
                let day = first + d;
                let mut write = |name: String, fams: &[Family]| {
                    let path = dir.join(name);
                    let sections: Vec<_> =
                        fams.iter().map(|&f| (f, store(f).on_day(day))).collect();
                    write_segment(&path, &tables, &sections).unwrap();
                    for (family, run) in Segment::open(&path, day, fams).unwrap().into_runs() {
                        segmented.family_mut(family).push(run);
                    }
                };
                write(format!("case{case}-day{d}.seg"), &main);
                if in_pair(d) {
                    write(format!("case{case}-day{d}.pair.seg"), &[Family::Pair]);
                }
            }

            // The suffix: stretches of unsorted rows on the two days after
            // the history or on the last history day's last second.
            let mut rows_only = FamilyRuns::new(&[48, 64]);
            for (k, &family) in families.iter().enumerate() {
                rows_only
                    .family_mut(family)
                    .push(Run::in_memory(history[k].clone()));
                for _ in 0..g.below(3) {
                    let n = g.below(25) as usize;
                    let rows = g.vec_of(n, |g| {
                        if days > 0 && g.below(5) == 0 {
                            let last = first + (days - 1);
                            RequestRecord {
                                ts: Timestamp::from_secs(last.start().secs() + 86_399),
                                ..random_row(g)
                            }
                        } else {
                            let day = first + days + g.below(2) as u16;
                            random_day_row(g, day, true, true)
                        }
                    });
                    files += 1;
                    let runs = if g.below(2) == 0 {
                        vec![Run::in_memory(rows.clone())]
                    } else {
                        runs_of(Some(&session), files, 1 + g.below(8) as usize, &rows)
                    };
                    segmented.family_mut(family).extend(runs);
                    rows_only.family_mut(family).push(Run::in_memory(rows));
                }
            }

            let got = freeze_families(segmented).unwrap();
            let want = freeze_families(rows_only).unwrap();
            assert_eq!(*got.tables, *want.tables, "case {case}: tables");
            assert_eq!(got.rows, want.rows, "case {case}: rows");
            let mut want_stores = Vec::new();
            want.stores.map(|s| want_stores.push(s));
            let mut k = 0;
            got.stores.map(|store| {
                assert_eq!(store.all(), want_stores[k].all(), "case {case}, family {k}");
                assert_eq!(
                    store.bytes(),
                    store.len() * 18,
                    "case {case}: exact columns"
                );
                k += 1;
            });
            assert_eq!(k, families.len());
        }
        assert_eq!(session.stats().checksum_failures, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
