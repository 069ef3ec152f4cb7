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
//! - a checkpoint day file, which is a single frame ([`Run::checkpoint`]);
//! - a day range of an existing [`FrozenStore`] ([`Run::frozen`]).
//!
//! [`FamilyRuns`] holds one ordered list per dataset family, and
//! [`freeze_families`] turns it into one [`FrozenStore`] per family in
//! three steps:
//!
//! 1. **read** — every run is streamed exactly once (a frame's checksum
//!    is verified as it streams) and dropped once read. Each key is
//!    interned on first sight into a provisional id, and each row lands
//!    in its family's exact-capacity staging columns (18 bytes a row);
//! 2. **intern** — the distinct keys are ranked once, which builds the
//!    shared [`EntityTables`] and, per key family (v4, v6, user), a
//!    provisional → dense id remap;
//! 3. **gather** — per family, the stable LSB radix argsort of the
//!    timestamp column orders the rows, and every column is gathered
//!    through it (ids through the remap) into exact-size frozen columns.
//!    Each staging column is dropped once gathered.
//!
//! # Determinism (stable sort of the plan-order concatenation)
//!
//! A family's canonical order is a *stable* sort by timestamp of its
//! rows in emission order, with shards concatenated in plan order. Runs
//! partition a shard's emission stream contiguously and keep its order,
//! and the shards' lists concatenate in plan order, so reading a family's
//! runs in list order yields exactly that concatenation — however the
//! rows were split into runs. The gather's argsort is stable, so it
//! reproduces the canonical order exactly; it is the only place rows are
//! ordered between emission and the frozen stores.
//!
//! History runs (checkpoint days, frozen day ranges) come first in a
//! list, hold canonical rows, and hold strictly earlier days than the
//! runs of newly simulated days, so the sort keeps the history as it was
//! and appends the new days after it.
//!
//! Intern tables depend only on the distinct key *sets* (the ranking
//! sorts them), so the tables and every dense id are the same for any
//! split of the same rows into runs and any read order.
//!
//! # Frames
//!
//! On disk a run is a frame: a [`RUN_HEADER_BYTES`]-byte header (magic
//! `SPR1`, row count, xxHash64 chain checksum) followed by
//! [`SPILL_ROW_BYTES`]-byte rows. The read re-derives the checksum as it
//! streams a frame. A bad header, a torn frame, an unknown row tag or a
//! checksum mismatch surfaces as [`SpillError::Corrupt`] naming the file,
//! run and byte offset, and fails the freeze: damaged bytes never reach
//! a figure, and nothing here panics.

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::fs::File;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
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
}

/// One run of rows in emission order: in memory, framed on disk, or a
/// day range of a frozen store (see the module docs).
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

    /// Opens a checkpoint day file (see [`write_checkpoint_segment`]) as
    /// a run. The header and the framed length are checked against the
    /// file here; the rows and checksum are verified as the run streams.
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
    pub fn for_each(&self, f: impl FnMut(RequestRecord)) -> Result<(), SpillError> {
        match &self.0 {
            Source::Rows(rows) => rows.iter().copied().for_each(f),
            Source::Framed(run) => run.for_each(f)?,
            Source::Frozen(store, days) => store.in_range(*days).records().for_each(f),
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
    /// Rows read, which is rows frozen.
    pub rows: u64,
    /// Wall of the verified read, which stages and interns every row.
    pub read_wall: Duration,
    /// Wall of ranking the distinct keys into the tables and remaps.
    pub intern_wall: Duration,
    /// Wall of ordering and gathering every family.
    pub gather_wall: Duration,
}

/// Freezes every family's runs into timestamp-sorted, densely encoded
/// stores over one set of shared intern tables: one verified read, one
/// ranking of the distinct keys, one radix-ordered gather per family (see
/// the module docs). Each run is dropped as soon as it is read.
///
/// The stores equal a [`RequestStore`](crate::RequestStore) stable sort
/// of each family's rows in list order, encoded against
/// [`EntityTables::build`] over every family's rows. A run that fails
/// verification fails the freeze.
pub fn freeze_families(runs: FamilyRuns) -> Result<FrozenFamilies, SpillError> {
    let t_read = Instant::now();
    let mut interner = Interner::default();
    let mut rows = 0u64;
    let staged = runs.try_map(|runs| {
        let n: u64 = runs.iter().map(Run::rows).sum();
        rows += n;
        // Every source knows its row count up front (a checkpoint's was
        // checked against its file length), so no column ever grows.
        let mut cols = ColumnStore::with_capacity(n as usize);
        for run in runs {
            run.for_each(|r| interner.stage(&r, &mut cols))?;
        }
        Ok(cols)
    })?;
    let read_wall = t_read.elapsed();

    let t_intern = Instant::now();
    let (tables, remap) = interner.rank();
    let tables = Arc::new(tables);
    let intern_wall = t_intern.elapsed();

    let t_gather = Instant::now();
    let stores = staged.map(|cols| remap.gather(cols, &tables));
    Ok(FrozenFamilies {
        stores,
        tables,
        rows,
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
    /// Orders one family's staged rows canonically and encodes them
    /// densely: the stable radix argsort of the timestamp column, then
    /// every column gathered through it into an exact-size column. Each
    /// staged column is dropped once gathered.
    fn gather(&self, staged: ColumnStore, tables: &Arc<EntityTables>) -> FrozenStore {
        let perm = crate::kernels::radix_sort_perm_u32(&staged.ts);
        let ColumnStore {
            ts,
            ip,
            user,
            asn,
            country,
        } = staged;
        let cols = ColumnStore {
            ts: gather(&perm, ts, |ts| ts),
            ip: gather(&perm, ip, |id| {
                self.ips[id.index() + usize::from(id.is_v6()) * self.v6_base]
            }),
            user: gather(&perm, user, |u| self.users[u as usize]),
            asn: gather(&perm, asn, |asn| asn),
            country: gather(&perm, country, |c| c),
        };
        FrozenStore::from_sorted_parts(cols, Arc::clone(tables))
    }
}

/// `col` permuted by `perm` through `f`, exactly sized; `col` is dropped
/// on return.
fn gather<T: Copy, U>(perm: &[u32], col: Vec<T>, f: impl Fn(T) -> U) -> Vec<U> {
    perm.iter().map(|&i| f(col[i as usize])).collect()
}

/// Writes `rows`, in the given order, to `path` as one frame: the
/// incremental engine's checkpoint day file, which [`Run::checkpoint`]
/// opens as a run. A state dir's day files hold canonical day slices.
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

    /// A frozen day range and an empty checkpoint file are runs like any
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
        write_checkpoint_segment(&empty, &[]).unwrap();

        let mut runs = vec![
            Run::frozen(history, DateRange::single(SimDate::ymd(4, 13))),
            Run::checkpoint(&empty).unwrap(),
        ];
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
    /// source (in memory, spilled in frames of random size, a checkpoint
    /// file, or a day range of a frozen store), some empty. Returns the
    /// runs and the rows they yield, in order.
    fn random_family(
        g: &mut TestGen,
        session: &SpillSession,
        dir: &Path,
        files: &mut usize,
    ) -> (Vec<Run>, Vec<RequestRecord>) {
        let (mut runs, mut yields) = (Vec::new(), Vec::new());
        for _ in 0..g.below(6) {
            let len = g.below(40) as usize;
            let rows = g.vec_of(len, random_row);
            *files += 1;
            match g.below(4) {
                0 => runs.push(Run::in_memory(rows.clone())),
                1 => {
                    let segment_rows = 1 + g.below(8) as usize;
                    runs.extend(runs_of(Some(session), *files, segment_rows, &rows));
                }
                2 => {
                    let path = dir.join(format!("day{files}.seg"));
                    write_checkpoint_segment(&path, &rows).unwrap();
                    runs.push(Run::checkpoint(&path).unwrap());
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
    /// — for random families of unsorted runs from every source, with
    /// heavy timestamp ties and empty runs, and sizes every column
    /// exactly.
    #[test]
    fn freeze_equals_the_reference_over_random_runs_from_every_source() {
        let session = SpillSession::create(None).unwrap();
        let dir = std::env::temp_dir().join(format!("ipv6-run-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut g = TestGen::new(0x4652_5A31); // "FRZ1"
        let mut files = 0;
        for case in 0..40 {
            let mut yields = Vec::new();
            let runs = FamilyRuns::new(&[48, 64]).map(|_| {
                let (runs, rows) = random_family(&mut g, &session, &dir, &mut files);
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
