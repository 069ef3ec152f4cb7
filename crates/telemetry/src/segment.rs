//! Dictionary-coded segments: the one format every row takes between the
//! sim and the frozen columns.
//!
//! A segment keeps rows in the frozen columns' own shape, with ids local
//! to the segment, so the freeze reads every row through one codec (see
//! [`crate::run`]). Segments come from three places, and whoever makes
//! one marks it as history or as emitted:
//!
//! - a shard sink seals its retained rows into emitted segments
//!   ([`crate::sink`]): one at the end of the shard in memory, or one
//!   each time a family has staged `segment_rows` rows when spilling,
//!   appended to the shard attempt's spill file;
//! - the state dir keeps one history segment per day
//!   (`days/day<NNN>.seg`, plus a pair segment), opened by
//!   [`Segment::open`];
//! - an in-process extension encodes the same day segments from the old
//!   study's stores in memory ([`Segment::encoded`]).
//!
//! Two encoders share the one layout writer: the row → segment encoder
//! (the sink's staging, and [`write_checkpoint_segment`]) interns each
//! row's keys on first sight and ranks them at the seal; the frozen →
//! segment encoder ([`write_segment`], [`Segment::encoded`]) reads a
//! day's dictionary off its sorted dense ids.
//!
//! # Format
//!
//! One segment holds one or more dataset families, all integers
//! little-endian:
//!
//! ```text
//! offset   bytes       field
//! 0        4           magic "DSG4"
//! 4        4 + 4 + 4   dictionary sizes: v4, v6 and user keys
//! 16       4           section count s
//! 20       8           dictionary checksum (xxHash64)
//! 28       20 × s      section table: family code (4), rows (8),
//!                      section checksum (8)
//! 28+20s   …           dictionary: the sorted distinct v4 entries (10 B:
//!                      key 4, asn 4, country 2), v6 entries (22 B: key
//!                      16, asn 4, country 2) and user keys (8 B) of
//!                      every section
//! …        12 × rows   one section per table entry, column by column:
//!                      ts (4), ip local id (4), user local id (4)
//! ```
//!
//! A local address id keeps [`IpId`]'s family bit, and its
//! low 31 bits index the segment's v4 or v6 entries; a local user id
//! indexes its user keys. This is phone-number-style addressing: ids stay
//! short and local to a segment, and the freeze builds one local → global
//! table per segment, so it hashes dictionary keys, never a row.
//!
//! An address's ASN and country are attributes of the address, not of a
//! request: every address is allocated from one network's pool. So they
//! sit in its dictionary entry, once per segment, and a row is three ids.
//! The row → segment encoder records an address's pair when it first
//! interns it and refuses a row that gives it another
//! ([`SpillError::Attributes`]); the freeze refuses a segment whose entry
//! disagrees with an earlier segment's ([`SpillError::Corrupt`]).
//!
//! # Verification
//!
//! Nothing here panics. Every failure is a [`SpillError::Corrupt`] that
//! names the file, the section (`run` 0 is the header and dictionary,
//! `k` the k-th section) and the byte offset:
//!
//! - opening checks the magic, the header and section table against the
//!   segment's length (so a torn or padded file fails before any count
//!   is trusted with an allocation), every family code, and the families
//!   against the ones the caller expects; a spilled segment's header on
//!   disk must equal the one its writer recorded;
//! - the dictionary and every section carry their own checksum, checked
//!   as they are read;
//! - each dictionary key family must be strictly ascending, and every
//!   local id must index it: lookups are bounds-checked, never trusted.
//!
//! Reads of a spilled segment go through its session's fault plan and
//! count toward its `io_retries`, `checksum_failures` and
//! `bytes_verified`. The codec keeps rows in the order written. The
//! timestamp checks that let the freeze skip sorting a history (every row
//! inside its segment's day, non-decreasing) belong to the freeze.
//!
//! Every state-dir file, a segment or the manifest, is written through
//! [`write_atomic`]: a file exists under its name only once complete.

use std::cell::OnceCell;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ipv6_study_stats::hash::stable_hash64;

use crate::columns::{ColumnSlice, ColumnStore};
use crate::ids::{Asn, Country, UserId};
use crate::intern::{attrs_str, rank_keys, Attrs, Conflict, EntityTables, Interner, IpId, V6_BIT};
use crate::kernels::radix_sort_u32;
use crate::record::RequestRecord;
use crate::run::Family;
use crate::spill::{IoOp, SpillError, SpillShared};
use crate::time::{DateRange, SimDate, Timestamp};

/// Bytes of one row across a section's three columns.
pub(crate) const ROW_BYTES: usize = 12;

/// Bytes of a v4, a v6 and a user dictionary entry.
const ENTRY_WIDTHS: [usize; 3] = [10, 22, 8];

/// Magic opening every segment.
const MAGIC: u32 = u32::from_le_bytes(*b"DSG4");

/// Header bytes: magic, three dictionary sizes, section count,
/// dictionary checksum.
const HEADER_BYTES: usize = 28;

/// Bytes of one section-table entry: family code, rows, checksum.
const ENTRY_BYTES: usize = 20;

/// Seed of the dictionary checksum.
const DICT_SEED: u64 = 0x4453_4431; // "DSD1"

/// Seed of every section checksum.
const SECTION_SEED: u64 = 0x4453_5331; // "DSS1"

/// Suffix of the temporary file [`write_atomic`] renames into place.
const TEMP_SUFFIX: &str = ".tmp";

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

/// Reads an address's attributes from the first six bytes of `b`.
fn le_attrs(b: &[u8]) -> Attrs {
    (Asn(le_u32(b)), Country([b[4], b[5]]))
}

/// Bytes of a dictionary of `keys` (v4, v6 and user) entries.
fn dictionary_bytes(keys: [usize; 3]) -> usize {
    keys.iter().zip(ENTRY_WIDTHS).map(|(n, w)| n * w).sum()
}

/// `Ok` when record `r` carries `first`, the attributes its address was
/// interned with; else the [`SpillError::Attributes`] naming both.
pub(crate) fn same_attrs(r: &RequestRecord, first: Attrs) -> Result<(), SpillError> {
    if first == (r.asn, r.country) {
        return Ok(());
    }
    Err(SpillError::Attributes {
        ip: r.ip,
        first,
        then: (r.asn, r.country),
    })
}

/// A family's code in the section table.
fn family_code(family: Family) -> u32 {
    match family {
        Family::Request => 1,
        Family::User => 2,
        Family::Ip => 3,
        Family::Abuse => 4,
        Family::Pair => 5,
        Family::Prefix(len) => 0x100 | u32::from(len),
    }
}

/// The family a section-table code names, if any.
fn family_of(code: u32) -> Option<Family> {
    Some(match code {
        1 => Family::Request,
        2 => Family::User,
        3 => Family::Ip,
        4 => Family::Abuse,
        5 => Family::Pair,
        c if c >> 8 == 1 => Family::Prefix(c as u8),
        _ => return None,
    })
}

/// The one layout writer: both encoders write a segment through it, part
/// by part — the dictionary, then each section in table order.
struct LayoutWriter {
    out: Vec<u8>,
    /// The next section's table entry.
    next: usize,
}

impl LayoutWriter {
    /// A segment of `keys` dictionary keys (v4, v6, user), `sections`
    /// sections and `rows` rows in all; its header and an empty section
    /// table are written.
    fn new(keys: [usize; 3], sections: usize, rows: usize) -> Self {
        let dict_start = HEADER_BYTES + ENTRY_BYTES * sections;
        let dict_len = dictionary_bytes(keys);
        let mut out = Vec::with_capacity(dict_start + dict_len + ROW_BYTES * rows);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        for count in [keys[0], keys[1], keys[2], sections] {
            out.extend_from_slice(&(count as u32).to_le_bytes());
        }
        out.resize(dict_start, 0); // checksum and section table patched later
        Self { out, next: 0 }
    }

    /// Writes the dictionary: every key family strictly ascending, each
    /// address with its attributes, with as many keys as
    /// [`LayoutWriter::new`] was told.
    fn dictionary(
        &mut self,
        v4: impl Iterator<Item = (u32, Attrs)>,
        v6: impl Iterator<Item = (u128, Attrs)>,
        users: impl Iterator<Item = u64>,
    ) {
        let start = self.out.len();
        let out = &mut self.out;
        let mut entry = |key: &[u8], (asn, country): Attrs| {
            out.extend_from_slice(key);
            out.extend_from_slice(&asn.0.to_le_bytes());
            out.extend_from_slice(&country.0);
        };
        v4.for_each(|(k, a)| entry(&k.to_le_bytes(), a));
        v6.for_each(|(k, a)| entry(&k.to_le_bytes(), a));
        users.for_each(|k| out.extend_from_slice(&k.to_le_bytes()));
        let sum = stable_hash64(DICT_SEED, &self.out[start..]);
        self.out[20..28].copy_from_slice(&sum.to_le_bytes());
    }

    /// Writes the next section: `family`'s rows column by column, with
    /// `ips` and `users` the rows' local ids.
    fn section(
        &mut self,
        family: Family,
        ts: &[Timestamp],
        ips: impl Iterator<Item = u32>,
        users: impl Iterator<Item = u32>,
    ) {
        let start = self.out.len();
        let out = &mut self.out;
        ts.iter()
            .for_each(|t| out.extend_from_slice(&t.secs().to_le_bytes()));
        ips.for_each(|id| out.extend_from_slice(&id.to_le_bytes()));
        users.for_each(|id| out.extend_from_slice(&id.to_le_bytes()));
        let sum = stable_hash64(SECTION_SEED, &out[start..]);
        let entry = HEADER_BYTES + ENTRY_BYTES * self.next;
        out[entry..entry + 4].copy_from_slice(&family_code(family).to_le_bytes());
        out[entry + 4..entry + 12].copy_from_slice(&(ts.len() as u64).to_le_bytes());
        out[entry + 12..entry + 20].copy_from_slice(&sum.to_le_bytes());
        self.next += 1;
    }

    fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// The frozen → segment encoder: `sections` as one segment; every slice
/// must be encoded against `tables`.
fn encode(tables: &EntityTables, sections: &[(Family, ColumnSlice<'_>)]) -> Vec<u8> {
    // Dense ids are order-isomorphic to keys (v4 ids below v6 ids), so
    // the sorted distinct ids list the dictionary in key order.
    let mut ips: Vec<u32> = sections
        .iter()
        .flat_map(|(_, s)| s.ip_ids().iter().map(|id| id.raw()))
        .collect();
    radix_sort_u32(&mut ips);
    ips.dedup();
    let mut users: Vec<u32> = sections
        .iter()
        .flat_map(|(_, s)| s.users_dense().iter().copied())
        .collect();
    radix_sort_u32(&mut users);
    users.dedup();
    let n4 = ips.partition_point(|&raw| raw & V6_BIT == 0);
    let (v4_keys, v6_keys) = (tables.ips.v4_keys(), tables.ips.v6_keys());
    let user_keys = tables.users.keys();

    // Dense → local: one slot per dense address (v4, then v6) and user.
    let slot =
        |raw: u32| (raw & !V6_BIT) as usize + if raw & V6_BIT == 0 { 0 } else { v4_keys.len() };
    let mut ip_local = vec![0u32; v4_keys.len() + v6_keys.len()];
    for (local, &raw) in ips.iter().enumerate() {
        ip_local[slot(raw)] = if local < n4 {
            local as u32
        } else {
            V6_BIT | (local - n4) as u32
        };
    }
    let mut user_local = vec![0u32; user_keys.len()];
    for (local, &dense) in users.iter().enumerate() {
        user_local[dense as usize] = local as u32;
    }

    let rows = sections.iter().map(|(_, s)| s.len()).sum();
    let mut w = LayoutWriter::new([n4, ips.len() - n4, users.len()], sections.len(), rows);
    let attrs = |raw: u32| tables.ips.attrs(IpId::from_raw(raw));
    w.dictionary(
        ips[..n4]
            .iter()
            .map(|&raw| (v4_keys[raw as usize], attrs(raw))),
        ips[n4..]
            .iter()
            .map(|&raw| (v6_keys[(raw & !V6_BIT) as usize], attrs(raw))),
        users.iter().map(|&dense| user_keys[dense as usize]),
    );
    for (family, s) in sections {
        w.section(
            *family,
            s.ts(),
            s.ip_ids().iter().map(|id| ip_local[slot(id.raw())]),
            s.users_dense().iter().map(|&u| user_local[u as usize]),
        );
    }
    w.finish()
}

/// Rows staged for one segment under a first-sight dictionary: the row →
/// segment encoder behind every shard sink and
/// [`write_checkpoint_segment`]. A row's keys are interned once, however
/// many families keep it, and its address's attributes with them; the
/// seal ranks the dictionary into ascending keys and relabels every id
/// to its rank.
#[derive(Debug)]
pub(crate) struct Staging {
    dict: Interner,
    families: Vec<(Family, ColumnStore)>,
    rows: usize,
}

impl Staging {
    /// Empty staging for `families`, in section order.
    pub(crate) fn new(families: impl IntoIterator<Item = Family>) -> Self {
        Self {
            dict: Interner::default(),
            families: families
                .into_iter()
                .map(|f| (f, ColumnStore::default()))
                .collect(),
            rows: 0,
        }
    }

    /// The local ids of `r`'s address and user, interned on first sight;
    /// fails when `r` gives its address other attributes than its first
    /// sighting did.
    pub(crate) fn intern(&mut self, r: &RequestRecord) -> Result<(IpId, u32), SpillError> {
        let (ip, first) = self.intern_ip(r.ip, (r.asn, r.country));
        same_attrs(r, first)?;
        Ok((ip, self.intern_user(r.user)))
    }

    /// The local id of address `ip`, interned with attributes `attrs` on
    /// first sight, and the attributes it was interned with.
    pub(crate) fn intern_ip(&mut self, ip: IpAddr, attrs: Attrs) -> (IpId, Attrs) {
        self.dict.intern_ip(ip, attrs)
    }

    /// The local id of `user`, interned on first sight.
    pub(crate) fn intern_user(&mut self, user: UserId) -> u32 {
        self.dict.intern_user(user)
    }

    /// Appends `r`, under the local `ids` [`Staging::intern`] gave it, to
    /// family `k` (its index in [`Staging::new`]'s order); returns the
    /// rows that family now stages.
    pub(crate) fn push(&mut self, k: usize, r: &RequestRecord, (ip, user): (IpId, u32)) -> usize {
        let cols = &mut self.families[k].1;
        cols.ts.push(r.ts);
        cols.ip.push(ip);
        cols.user.push(user);
        self.rows += 1;
        cols.len()
    }

    /// Rows staged, over every family.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes held: 12 a staged row, and the dictionary's entries.
    pub(crate) fn bytes(&self) -> u64 {
        (self.rows * ROW_BYTES) as u64 + self.dict.bytes()
    }

    /// Encodes the staged rows as one segment, one section per family in
    /// order, and starts over empty (keeping the buffers).
    pub(crate) fn seal(&mut self) -> Vec<u8> {
        let (v4, v4_attrs, v4_rank) = self.dict.v4.drain_ranked();
        let (v6, v6_attrs, v6_rank) = self.dict.v6.drain_ranked();
        let (users, user_rank) = rank_keys(self.dict.users.drain());
        let keys = [v4.len(), v6.len(), users.len()];
        let mut w = LayoutWriter::new(keys, self.families.len(), self.rows);
        w.dictionary(
            v4.into_iter().zip(v4_attrs),
            v6.into_iter().zip(v6_attrs),
            users.into_iter(),
        );
        for (family, cols) in &mut self.families {
            let local = |id: &IpId| {
                if id.is_v6() {
                    V6_BIT | v6_rank[id.index()]
                } else {
                    v4_rank[id.index()]
                }
            };
            w.section(
                *family,
                &cols.ts,
                cols.ip.iter().map(local),
                cols.user.iter().map(|&u| user_rank[u as usize]),
            );
            cols.clear();
        }
        self.rows = 0;
        w.finish()
    }
}

/// Writes `sections` (one family's rows each, every slice encoded
/// against `tables`, in the given order) to `path` as one segment,
/// through [`write_atomic`]. Returns the bytes written.
pub fn write_segment(
    path: &Path,
    tables: &EntityTables,
    sections: &[(Family, ColumnSlice<'_>)],
) -> Result<u64, SpillError> {
    let bytes = encode(tables, sections);
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// The temporary file [`write_atomic`] writes before renaming it to
/// `path`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TEMP_SUFFIX);
    path.with_file_name(name)
}

/// Writes `bytes` to `path` so that `path` only ever holds a complete
/// file: write a temporary file in the same directory, `sync_all` it,
/// rename it over `path`, then fsync the directory so the rename is
/// durable too. A failure leaves `path` as it was; its temporary file is
/// removed when possible, and otherwise by the next
/// [`remove_temp_files`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
    let tmp = temp_path(path);
    let written = File::create(&tmp)
        .map_err(|e| SpillError::io(&tmp, IoOp::Create, &e))
        .and_then(|mut f| {
            f.write_all(bytes)
                .map_err(|e| SpillError::io(&tmp, IoOp::Write, &e))?;
            f.sync_all()
                .map_err(|e| SpillError::io(&tmp, IoOp::Flush, &e))
        })
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| SpillError::io(path, IoOp::Rename, &e)));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| SpillError::io(dir, IoOp::Flush, &e))
}

/// Removes the temporary files an interrupted [`write_atomic`] left in
/// `dir`; a missing `dir` has none.
pub fn remove_temp_files(dir: &Path) -> Result<(), SpillError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(SpillError::io(dir, IoOp::Open, &e)),
    };
    for entry in entries {
        let path = entry
            .map_err(|e| SpillError::io(dir, IoOp::Read, &e))?
            .path();
        if path.to_string_lossy().ends_with(TEMP_SUFFIX) {
            fs::remove_file(&path).map_err(|e| SpillError::io(&path, IoOp::Remove, &e))?;
        }
    }
    Ok(())
}

/// Where one section sits, and what its table entry says.
#[derive(Debug, Clone, Copy)]
struct SectionMeta {
    family: Family,
    rows: u64,
    checksum: u64,
    /// Byte offset of the section's first column in the segment.
    offset: u64,
}

/// A segment's header and section table, checked against its length.
#[derive(Debug)]
struct Layout {
    bytes: u64,
    /// Dictionary sizes: v4, v6 and user keys.
    keys: [u64; 3],
    dict_checksum: u64,
    sections: Vec<SectionMeta>,
}

impl Layout {
    /// The layout of the segment `bytes`, named `path` in errors.
    fn of(path: &Path, bytes: &[u8]) -> Result<Self, SpillError> {
        Self::read(path, bytes.len() as u64, |at, len| {
            Ok(bytes[at as usize..at as usize + len].to_vec())
        })
    }

    /// Bytes of the header and section table.
    fn table_end(&self) -> u64 {
        (HEADER_BYTES + ENTRY_BYTES * self.sections.len()) as u64
    }

    /// Checks the magic, the family codes and the header and section
    /// table of a `bytes`-byte segment at `path` against its length;
    /// `read(offset, len)` returns its bytes at `offset`.
    fn read(
        path: &Path,
        bytes: u64,
        mut read: impl FnMut(u64, usize) -> Result<Vec<u8>, SpillError>,
    ) -> Result<Self, SpillError> {
        let corrupt = |offset: u64, reason: String| SpillError::Corrupt {
            path: path.to_path_buf(),
            run: 0,
            offset,
            reason,
        };
        if bytes < HEADER_BYTES as u64 {
            return Err(corrupt(
                bytes,
                format!("header needs {HEADER_BYTES} bytes but file is {bytes} bytes"),
            ));
        }
        let hdr = read(0, HEADER_BYTES)?;
        let magic = le_u32(&hdr);
        if magic != MAGIC {
            return Err(corrupt(0, format!("bad segment magic {magic:#010x}")));
        }
        let keys = [4, 8, 12].map(|at| u64::from(le_u32(&hdr[at..])));
        let count = u64::from(le_u32(&hdr[16..]));
        let table_end = HEADER_BYTES as u64 + ENTRY_BYTES as u64 * count;
        if table_end > bytes {
            return Err(corrupt(
                16,
                format!(
                    "{count} sections need a table to byte {table_end} but file is {bytes} bytes"
                ),
            ));
        }
        let table = read(HEADER_BYTES as u64, table_end as usize - HEADER_BYTES)?;
        // u128 sums: a damaged count cannot overflow the length check.
        let mut end = u128::from(table_end)
            + (keys.iter().zip(ENTRY_WIDTHS))
                .map(|(&n, w)| u128::from(n) * w as u128)
                .sum::<u128>();
        let mut sections = Vec::with_capacity(count as usize);
        for (k, entry) in table.chunks_exact(ENTRY_BYTES).enumerate() {
            let code = le_u32(entry);
            let family = family_of(code).ok_or_else(|| {
                corrupt(
                    (HEADER_BYTES + ENTRY_BYTES * k) as u64,
                    format!("section {} has unknown family code {code:#x}", k + 1),
                )
            })?;
            let rows = le_u64(&entry[4..]);
            sections.push(SectionMeta {
                family,
                rows,
                checksum: le_u64(&entry[12..]),
                offset: end as u64,
            });
            end += u128::from(rows) * ROW_BYTES as u128;
        }
        if end != u128::from(bytes) {
            return Err(corrupt(
                end.min(u128::from(bytes)) as u64,
                format!("header and section table describe {end} bytes but file is {bytes} bytes"),
            ));
        }
        Ok(Self {
            bytes,
            keys,
            dict_checksum: le_u64(&hdr[20..]),
            sections,
        })
    }
}

/// Where a segment's bytes are.
#[derive(Debug)]
enum Source {
    /// Held in memory.
    Memory(Vec<u8>),
    /// A state-dir file, open from the start.
    File(File),
    /// Appended to a spill file; see [`Spilled`].
    Spilled(Spilled),
}

/// A segment appended to a spill file. Its file stays closed until the
/// freeze reads it; every read goes through the session's fault plan.
#[derive(Debug)]
struct Spilled {
    /// Byte offset of the segment in the file.
    offset: u64,
    /// The header and section table as written, which the file must hold.
    header: Box<[u8]>,
    shared: Arc<SpillShared>,
    /// The file's fault-plan stream.
    stream: u64,
    file: OnceCell<File>,
}

/// What a segment holds, as marked by whoever opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Canonical rows of one day, which the freeze gathers as they lie.
    History(SimDate),
    /// Rows in emission order, which the freeze stages and sorts.
    Emitted,
}

/// One segment: its checked header and section table, where its bytes
/// are, and whether it holds history or emitted rows. Its sections stay
/// where they are until the freeze reads them.
#[derive(Debug)]
pub struct Segment {
    /// Names the segment in errors: its file, or what made it.
    path: PathBuf,
    source: Source,
    role: Role,
    layout: Layout,
}

/// A segment's dictionary: its sorted distinct keys, and each address's
/// attributes.
#[derive(Debug)]
pub(crate) struct Dictionary {
    pub v4: Vec<u32>,
    pub v6: Vec<u128>,
    pub users: Vec<u64>,
    pub v4_attrs: Vec<Attrs>,
    pub v6_attrs: Vec<Attrs>,
}

impl Segment {
    /// Opens the state-dir segment at `path` as the history of day
    /// `day`, and checks that its sections hold exactly `families`, in
    /// order. Only the header and section table are read; the freeze
    /// verifies the rest.
    pub fn open(path: &Path, day: SimDate, families: &[Family]) -> Result<Self, SpillError> {
        let segment = Self::open_file(path, Role::History(day))?;
        let found: Vec<Family> = segment.layout.sections.iter().map(|s| s.family).collect();
        if let Some(k) =
            (0..found.len().max(families.len())).find(|&k| found.get(k) != families.get(k))
        {
            return Err(segment.corrupt(
                0,
                (HEADER_BYTES + ENTRY_BYTES * k) as u64,
                format!("sections hold {found:?}, expected {families:?}"),
            ));
        }
        Ok(segment)
    }

    /// Opens the segment file at `path` and checks its layout.
    fn open_file(path: &Path, role: Role) -> Result<Self, SpillError> {
        let mut file = File::open(path).map_err(|e| SpillError::io(path, IoOp::Open, &e))?;
        let bytes = file
            .metadata()
            .map_err(|e| SpillError::io(path, IoOp::Open, &e))?
            .len();
        let layout = Layout::read(path, bytes, |_, len| {
            let mut buf = vec![0u8; len];
            file.read_exact(&mut buf)
                .map_err(|e| SpillError::io(path, IoOp::Read, &e))?;
            Ok(buf)
        })?;
        Ok(Self {
            path: path.to_path_buf(),
            source: Source::File(file),
            role,
            layout,
        })
    }

    /// A segment over `bytes` in memory.
    fn in_memory(path: PathBuf, role: Role, bytes: Vec<u8>) -> Result<Self, SpillError> {
        let layout = Layout::of(&path, &bytes)?;
        Ok(Self {
            path,
            source: Source::Memory(bytes),
            role,
            layout,
        })
    }

    /// The day segment [`write_segment`] would write to `path`, encoded
    /// from `sections` (every slice encoded against `tables`) and held in
    /// memory as the history of day `day`.
    pub fn encoded(
        path: &Path,
        day: SimDate,
        tables: &EntityTables,
        sections: &[(Family, ColumnSlice<'_>)],
    ) -> Result<Self, SpillError> {
        Self::in_memory(
            path.to_path_buf(),
            Role::History(day),
            encode(tables, sections),
        )
    }

    /// An emitted segment held in memory, named `name` in errors.
    pub(crate) fn emitted(name: PathBuf, bytes: Vec<u8>) -> Result<Self, SpillError> {
        Self::in_memory(name, Role::Emitted, bytes)
    }

    /// The emitted segment `bytes` that were appended to the spill file
    /// at `path` at `offset`; `stream` keys the file's fault plan.
    pub(crate) fn spilled(
        path: &Path,
        offset: u64,
        bytes: &[u8],
        shared: &Arc<SpillShared>,
        stream: u64,
    ) -> Result<Self, SpillError> {
        let layout = Layout::of(path, bytes)?;
        let header = bytes[..layout.table_end() as usize].into();
        Ok(Self {
            path: path.to_path_buf(),
            source: Source::Spilled(Spilled {
                offset,
                header,
                shared: Arc::clone(shared),
                stream,
                file: OnceCell::new(),
            }),
            role: Role::Emitted,
            layout,
        })
    }

    /// The segment's size in bytes.
    pub fn bytes(&self) -> u64 {
        self.layout.bytes
    }

    /// Each section's family and rows, in table order.
    pub fn sections(&self) -> impl Iterator<Item = (Family, u64)> + '_ {
        self.layout.sections.iter().map(|s| (s.family, s.rows))
    }

    /// Whether the segment holds a day of history rather than emitted
    /// rows.
    pub fn is_history(&self) -> bool {
        matches!(self.role, Role::History(_))
    }

    /// Byte offset of the segment in its file.
    fn base(&self) -> u64 {
        match &self.source {
            Source::Spilled(s) => s.offset,
            Source::Memory(_) | Source::File(_) => 0,
        }
    }

    /// Rows in section `index` (0-based).
    pub(crate) fn section_rows(&self, index: usize) -> u64 {
        self.layout.sections.get(index).map_or(0, |s| s.rows)
    }

    /// Byte offset, in the segment, of row `row`'s timestamp in section
    /// `index`.
    pub(crate) fn ts_offset(&self, index: usize, row: usize) -> u64 {
        (self.layout.sections.get(index)).map_or(0, |s| s.offset + 4 * row as u64)
    }

    /// A verification failure at `offset` in the segment (reported as an
    /// offset in its file); `run` 0 is the header and dictionary, `k` the
    /// k-th section. A spilled segment counts it as a checksum failure.
    pub(crate) fn corrupt(&self, run: usize, offset: u64, reason: String) -> SpillError {
        if let Source::Spilled(s) = &self.source {
            s.shared.checksum_failures.fetch_add(1, Ordering::Relaxed);
        }
        SpillError::Corrupt {
            path: self.path.clone(),
            run,
            offset: self.base() + offset,
            reason,
        }
    }

    /// Reads `len` bytes at `offset` in the segment, into `buf` (grown as
    /// needed, never shrunk) unless they are in memory, and returns them.
    /// A spilled read rolls the fault plan first, keyed by the read's
    /// offset in the file.
    fn read_at<'b>(
        &'b self,
        run: usize,
        offset: u64,
        len: usize,
        buf: &'b mut Vec<u8>,
    ) -> Result<&'b [u8], SpillError> {
        let torn = |e: std::io::Error| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                self.corrupt(run, offset, "unexpected end of file (torn write?)".into())
            } else {
                SpillError::io(&self.path, IoOp::Read, &e)
            }
        };
        let mut file = match &self.source {
            Source::Memory(bytes) => {
                return (bytes.get(offset as usize..offset as usize + len))
                    .ok_or_else(|| self.corrupt(run, offset, "read past the segment".into()));
            }
            _ if len == 0 => return Ok(&[]),
            Source::File(file) => file,
            Source::Spilled(s) => {
                self.fault_op(s, s.offset + offset)?;
                match s.file.get() {
                    Some(file) => file,
                    None => {
                        let file = File::open(&self.path)
                            .map_err(|e| SpillError::io(&self.path, IoOp::Open, &e))?;
                        s.file.get_or_init(|| file)
                    }
                }
            }
        };
        if buf.len() < len {
            buf.resize(len, 0);
        }
        file.seek(SeekFrom::Start(self.base() + offset))
            .map_err(|e| SpillError::io(&self.path, IoOp::Seek, &e))?;
        file.read_exact(&mut buf[..len]).map_err(torn)?;
        Ok(&buf[..len])
    }

    /// Rolls the fault plan for the read op `op` of a spilled segment.
    /// Injected faults are decided before the data moves, so an op-level
    /// retry re-issues the same read; past the retry budget the op fails.
    fn fault_op(&self, s: &Spilled, op: u64) -> Result<(), SpillError> {
        let Some(plan) = s.shared.policy.faults.as_ref() else {
            return Ok(());
        };
        let mut io_attempt = 0u32;
        while plan.read_failure(s.stream, op, io_attempt) {
            if io_attempt >= s.shared.policy.max_io_retries {
                return Err(SpillError::Io {
                    path: self.path.clone(),
                    op: IoOp::Read,
                    kind: std::io::ErrorKind::Interrupted,
                    detail: "injected transient read fault".into(),
                });
            }
            s.shared.io_retries.fetch_add(1, Ordering::Relaxed);
            io_attempt += 1;
        }
        Ok(())
    }

    /// Reads and verifies the dictionary: its checksum, and every key
    /// family strictly ascending. A spilled segment first checks its
    /// header on disk against the one written.
    pub(crate) fn read_dictionary(&self, buf: &mut Vec<u8>) -> Result<Dictionary, SpillError> {
        if let Source::Spilled(s) = &self.source {
            let on_disk = self.read_at(0, 0, s.header.len(), buf)?;
            if let Some(at) = (0..s.header.len()).find(|&i| on_disk[i] != s.header[i]) {
                return Err(self.corrupt(
                    0,
                    at as u64,
                    "header on disk differs from the header written".into(),
                ));
            }
        }
        let start = self.layout.table_end();
        let [n4, n6, nu] = self.layout.keys.map(|n| n as usize);
        let [w4, w6, wu] = ENTRY_WIDTHS;
        let bytes = self.read_at(0, start, dictionary_bytes([n4, n6, nu]), buf)?;
        let sum = stable_hash64(DICT_SEED, bytes);
        if sum != self.layout.dict_checksum {
            return Err(self.corrupt(
                0,
                start,
                format!(
                    "dictionary checksum mismatch: computed {sum:#018x}, expected {:#018x}",
                    self.layout.dict_checksum
                ),
            ));
        }
        let (v4, rest) = bytes.split_at(w4 * n4);
        let (v6, users) = rest.split_at(w6 * n6);
        let v6_start = start + v4.len() as u64;
        let users_start = v6_start + v6.len() as u64;
        Ok(Dictionary {
            v4: self.ascending("v4", start, w4, v4.chunks_exact(w4).map(le_u32))?,
            v6: self.ascending("v6", v6_start, w6, v6.chunks_exact(w6).map(le_u128))?,
            users: self.ascending("user", users_start, wu, users.chunks_exact(wu).map(le_u64))?,
            v4_attrs: v4.chunks_exact(w4).map(|e| le_attrs(&e[4..])).collect(),
            v6_attrs: v6.chunks_exact(w6).map(|e| le_attrs(&e[16..])).collect(),
        })
    }

    /// Collects one dictionary key family of `width`-byte entries
    /// starting at byte `start`, failing at the first key not above the
    /// one before it.
    fn ascending<K: Ord + Copy>(
        &self,
        what: &str,
        start: u64,
        width: usize,
        keys: impl ExactSizeIterator<Item = K>,
    ) -> Result<Vec<K>, SpillError> {
        let mut out: Vec<K> = Vec::with_capacity(keys.len());
        for (i, key) in keys.enumerate() {
            if out.last().is_some_and(|&prev| prev >= key) {
                return Err(self.corrupt(
                    0,
                    start + (width * i) as u64,
                    format!("dictionary {what} key {i} is not above the key before it"),
                ));
            }
            out.push(key);
        }
        Ok(out)
    }

    /// The [`SpillError::Corrupt`] for a dictionary entry of `dict`, this
    /// segment's, whose attributes disagree with the ones an earlier
    /// segment gave its address: at the entry's attribute bytes.
    pub(crate) fn conflict(&self, dict: &Dictionary, c: Conflict) -> SpillError {
        let [w4, w6, _] = ENTRY_WIDTHS;
        let (what, addr, attrs, at): (_, IpAddr, _, _) = if c.v6 {
            let at = w4 * dict.v4.len() + w6 * c.entry + 16;
            (
                "v6",
                Ipv6Addr::from(dict.v6[c.entry]).into(),
                dict.v6_attrs[c.entry],
                at,
            )
        } else {
            (
                "v4",
                Ipv4Addr::from(dict.v4[c.entry]).into(),
                dict.v4_attrs[c.entry],
                w4 * c.entry + 4,
            )
        };
        self.corrupt(
            0,
            self.layout.table_end() + at as u64,
            format!(
                "dictionary {what} entry {} gives {addr} {}, but an earlier segment gave it {}",
                c.entry,
                attrs_str(attrs),
                attrs_str(c.first)
            ),
        )
    }

    /// Reads section `index` (0-based) and verifies its checksum.
    pub(crate) fn read_section<'b>(
        &'b self,
        index: usize,
        buf: &'b mut Vec<u8>,
    ) -> Result<Section<'b>, SpillError> {
        let meta = (self.layout.sections.get(index).copied())
            .ok_or_else(|| self.corrupt(0, 16, format!("no section {} in the table", index + 1)))?;
        let run = index + 1;
        let bytes = self.read_at(run, meta.offset, meta.rows as usize * ROW_BYTES, buf)?;
        let sum = stable_hash64(SECTION_SEED, bytes);
        if sum != meta.checksum {
            return Err(self.corrupt(
                run,
                meta.offset,
                format!(
                    "section {run} ({:?}) checksum mismatch: computed {sum:#018x}, expected {:#018x}",
                    meta.family, meta.checksum
                ),
            ));
        }
        Ok(Section {
            segment: self,
            run,
            offset: meta.offset,
            rows: meta.rows as usize,
            bytes,
        })
    }

    /// Counts a fully read spilled segment's bytes as verified.
    pub(crate) fn verified(&self) {
        if let Source::Spilled(s) = &self.source {
            (s.shared.bytes_verified).fetch_add(self.layout.bytes, Ordering::Relaxed);
        }
    }

    /// Decodes every section back into records through the dictionary,
    /// in order.
    fn records(&self) -> Result<Vec<RequestRecord>, SpillError> {
        let mut buf = Vec::new();
        let dict = self.read_dictionary(&mut buf)?;
        let entry = |ip: IpAddr, (asn, country): Attrs| (ip, asn, country);
        let v4: Vec<_> = (dict.v4.iter().zip(&dict.v4_attrs))
            .map(|(&a, &attrs)| entry(Ipv4Addr::from(a).into(), attrs))
            .collect();
        let v6: Vec<_> = (dict.v6.iter().zip(&dict.v6_attrs))
            .map(|(&a, &attrs)| entry(Ipv6Addr::from(a).into(), attrs))
            .collect();
        let users: Vec<UserId> = dict.users.into_iter().map(UserId).collect();
        let rows = self.sections().map(|(_, rows)| rows).sum::<u64>();
        let mut out = Vec::with_capacity(rows as usize);
        for k in 0..self.layout.sections.len() {
            let section = self.read_section(k, &mut buf)?;
            let (mut ips, mut us) = (Vec::new(), Vec::new());
            section.ips(&v4, &v6, &mut ips)?;
            section.users(&users, &mut us)?;
            out.extend(
                section
                    .ts()
                    .zip(ips)
                    .zip(us)
                    .map(|((ts, (ip, asn, country)), user)| RequestRecord {
                        ts,
                        user,
                        ip,
                        asn,
                        country,
                    }),
            );
        }
        Ok(out)
    }
}

/// One verified section's bytes, column by column.
pub(crate) struct Section<'b> {
    segment: &'b Segment,
    /// The section's `run` number in errors (1-based).
    run: usize,
    /// Byte offset of the section in its segment.
    offset: u64,
    rows: usize,
    bytes: &'b [u8],
}

impl<'b> Section<'b> {
    /// The first and last timestamps of a history segment's day.
    pub(crate) fn day_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        match self.segment.role {
            Role::History(day) => Some(DateRange::single(day).ts_bounds()),
            Role::Emitted => None,
        }
    }

    /// A failed timestamp check at `row`.
    pub(crate) fn corrupt_ts(&self, row: usize, reason: String) -> SpillError {
        self.corrupt_at(0, row, reason)
    }

    /// Column `k` of the three 4-byte columns (ts, ip, user).
    fn column(&self, k: usize) -> &'b [u8] {
        &self.bytes[4 * self.rows * k..4 * self.rows * (k + 1)]
    }

    /// The timestamps, in order.
    pub(crate) fn ts(&self) -> impl Iterator<Item = Timestamp> + 'b {
        self.column(0)
            .chunks_exact(4)
            .map(|b| Timestamp::from_secs(le_u32(b)))
    }

    /// Appends each row's address through `v4` or `v6`, by the local id's
    /// family bit; an id past its table fails.
    pub(crate) fn ips<T: Copy>(
        &self,
        v4: &[T],
        v6: &[T],
        out: &mut Vec<T>,
    ) -> Result<(), SpillError> {
        self.map_ids(1, "address", out, |raw| {
            let table = if raw & V6_BIT == 0 { v4 } else { v6 };
            table.get((raw & !V6_BIT) as usize).copied()
        })
    }

    /// Appends each row's user through `users`; an id past it fails.
    pub(crate) fn users<T: Copy>(&self, users: &[T], out: &mut Vec<T>) -> Result<(), SpillError> {
        self.map_ids(2, "user", out, |local| users.get(local as usize).copied())
    }

    /// Appends `lookup` of each local id in 4-byte column `k`; an id the
    /// lookup misses fails.
    fn map_ids<T>(
        &self,
        k: usize,
        what: &str,
        out: &mut Vec<T>,
        lookup: impl Fn(u32) -> Option<T>,
    ) -> Result<(), SpillError> {
        for (row, b) in self.column(k).chunks_exact(4).enumerate() {
            let local = le_u32(b);
            let Some(v) = lookup(local) else {
                let reason = format!("{what} local id {local:#x} is out of range");
                return Err(self.corrupt_at(k, row, reason));
            };
            out.push(v);
        }
        Ok(())
    }

    /// A verification failure at `row` of 4-byte column `k`.
    fn corrupt_at(&self, k: usize, row: usize, reason: String) -> SpillError {
        let offset = self.offset + (4 * (self.rows * k + row)) as u64;
        self.segment.corrupt(self.run, offset, reason)
    }
}

/// Writes `rows`, in the given order, to `path` as a one-section segment
/// (the request family) whose dictionary is exactly the rows' keys,
/// through [`write_atomic`]: the row → segment encoder the shard sinks
/// use, on rows from anywhere. Rows that give one address two (ASN,
/// country) pairs are a [`SpillError::Attributes`], and nothing is
/// written.
pub fn write_checkpoint_segment(path: &Path, rows: &[RequestRecord]) -> Result<(), SpillError> {
    let mut staging = Staging::new([Family::Request]);
    for r in rows {
        let ids = staging.intern(r)?;
        staging.push(0, r, ids);
    }
    write_atomic(path, &staging.seal())
}

/// Reads back every section of the segment at `path`, in order, through
/// its dictionary. Every check but the freeze's timestamp checks
/// applies: torn, truncated or padded files, flipped bytes, and ids out
/// of range surface as [`SpillError::Corrupt`], never as silently wrong
/// rows.
pub fn read_checkpoint_segment(path: &Path) -> Result<Vec<RequestRecord>, SpillError> {
    Segment::open_file(path, Role::Emitted)?.records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::freeze_families;
    use crate::spill::{SpillPolicy, SpillSession};
    use crate::store::RequestStore;
    use ipv6_study_stats::testgen::TestGen;

    /// The day every test segment holds.
    fn day() -> SimDate {
        SimDate::ymd(4, 13)
    }

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        let ip = ip.parse().unwrap();
        let (asn, country) = crate::record::test_attrs(ip);
        RequestRecord {
            ts: Timestamp::from_secs(day().start().secs() + sec),
            user: UserId(user),
            ip,
            asn,
            country,
        }
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipv6-seg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_segment_round_trips_in_order() {
        let dir = scratch("roundtrip");
        let path = dir.join("day-roundtrip.seg");
        // Deliberately NOT timestamp-sorted: the codec must preserve the
        // caller's order exactly.
        let rows = vec![
            rec(3, 9, "2001:db8::3"),
            rec(1, 0, "10.0.0.1"),
            rec(2, 9, "2001:db8::2"),
        ];
        write_checkpoint_segment(&path, &rows).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), rows);
        // One section: header and table entry, a dictionary of 1 v4, 2 v6
        // and 3 user entries, then 12 bytes a row.
        let dict = 10 + 2 * 22 + 3 * 8;
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            HEADER_BYTES + ENTRY_BYTES + dict + 3 * ROW_BYTES
        );
        // The atomic write leaves no temporary file behind.
        assert!(!temp_path(&path).exists());

        write_checkpoint_segment(&path, &[]).unwrap();
        assert_eq!(read_checkpoint_segment(&path).unwrap(), Vec::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rows that give one address two (ASN, country) pairs are a typed
    /// `Attributes` error, and nothing is written.
    #[test]
    fn checkpoint_segment_refuses_an_address_with_two_pairs() {
        let dir = scratch("pairs");
        let path = dir.join("two-pairs.seg");
        let first = rec(1, 0, "10.0.0.1");
        let then = RequestRecord {
            asn: Asn(1),
            ..rec(2, 5, "10.0.0.1")
        };
        let rows = [first, rec(3, 1, "2001:db8::3"), then];
        let err = write_checkpoint_segment(&path, &rows).unwrap_err();
        assert_eq!(
            err,
            SpillError::Attributes {
                ip: first.ip,
                first: (first.asn, first.country),
                then: (Asn(1), first.country),
            }
        );
        assert!(!path.exists() && !temp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_segment_detects_corruption_truncation_and_padding() {
        let dir = scratch("chaos");
        let path = dir.join("day-corrupt.seg");
        let rows = vec![rec(1, 0, "10.0.0.1"), rec(2, 1, "2001:db8::2")];
        write_checkpoint_segment(&path, &rows).unwrap();
        let good = fs::read(&path).unwrap();

        // Flipped section byte -> checksum mismatch.
        let mut bad = good.clone();
        bad[good.len() - 2 * ROW_BYTES + 3] ^= 0xA5;
        fs::write(&path, &bad).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("checksum mismatch")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Torn write -> length framing failure, not an allocation guess.
        fs::write(&path, &good[..good.len() - 7]).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("but file is")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Trailing garbage is also a framing failure.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 5]);
        fs::write(&path, &padded).unwrap();
        assert!(matches!(
            read_checkpoint_segment(&path).unwrap_err(),
            SpillError::Corrupt { .. }
        ));

        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        fs::write(&path, &bad_magic).unwrap();
        match read_checkpoint_segment(&path).unwrap_err() {
            SpillError::Corrupt { reason, .. } => assert!(reason.contains("bad segment magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recomputes the dictionary and every section checksum, so that only
    /// a structural check can catch a damaged file.
    fn rechecksum(bytes: &mut [u8]) {
        let keys = [4, 8, 12].map(|at| le_u32(&bytes[at..]) as usize);
        let sections = le_u32(&bytes[16..]) as usize;
        let dict = HEADER_BYTES + ENTRY_BYTES * sections;
        let mut at = dict + dictionary_bytes(keys);
        let sum = stable_hash64(DICT_SEED, &bytes[dict..at]);
        bytes[20..28].copy_from_slice(&sum.to_le_bytes());
        for k in 0..sections {
            let entry = HEADER_BYTES + ENTRY_BYTES * k;
            let len = le_u64(&bytes[entry + 4..]) as usize * ROW_BYTES;
            let sum = stable_hash64(SECTION_SEED, &bytes[at..at + len]);
            bytes[entry + 12..entry + 20].copy_from_slice(&sum.to_le_bytes());
            at += len;
        }
    }

    /// The day's two sections: the request family, then the abuse family.
    const FAMILIES: [Family; 2] = [Family::Request, Family::Abuse];

    /// `rows` as one emitted request segment, sealed in memory.
    fn emitted(rows: &[RequestRecord]) -> Segment {
        let mut staging = Staging::new([Family::Request]);
        for r in rows {
            let ids = staging.intern(r).unwrap();
            staging.push(0, r, ids);
        }
        Segment::emitted("emitted".into(), staging.seal()).unwrap()
    }

    /// Freezes the segment at `path` as the history of a request suffix
    /// of `suffix` rows.
    fn freeze(path: &Path, suffix: Vec<RequestRecord>) -> Result<(), SpillError> {
        let history = Segment::open(path, day(), &FAMILIES)?;
        freeze_families(vec![history, emitted(&suffix)], &[]).map(drop)
    }

    /// Every check of the segment format and of the freeze's gather fails
    /// with a typed `Corrupt` naming the file, the section and the byte
    /// offset of the damage; an intact file freezes.
    #[test]
    fn every_segment_check_fails_with_a_typed_error_naming_the_file() {
        let dir = scratch("checks");
        let path = dir.join("day103.seg");
        let request = vec![
            rec(1, 0, "10.0.0.1"),
            rec(2, 60, "2001:db8::2"),
            rec(3, 86_399, "2001:db8::1"),
        ];
        let abuse = vec![rec(2, 5, "10.0.0.2"), rec(4, 7, "2001:db8::2")];
        let all: Vec<RequestRecord> = request.iter().chain(&abuse).copied().collect();
        let tables = Arc::new(EntityTables::from_records(&all));
        let store = |rows: &[RequestRecord]| {
            let mut s = RequestStore::new();
            rows.iter().for_each(|&r| s.push(r));
            s.freeze_with(Arc::clone(&tables))
        };
        let (req, abu) = (store(&request), store(&abuse));
        let sections = [(Family::Request, req.all()), (Family::Abuse, abu.all())];
        write_segment(&path, &tables, &sections).unwrap();
        let good = fs::read(&path).unwrap();
        // 2 v4, 2 v6 and 4 user entries after a two-entry table.
        let dict = HEADER_BYTES + 2 * ENTRY_BYTES;
        let users = dict + 2 * 10 + 2 * 22;
        let first = users + 4 * 8;
        let second = first + 3 * ROW_BYTES;
        let next_day = Timestamp::from_secs(day().start().secs() + 86_400);
        let suffix = |at: Timestamp| {
            vec![RequestRecord {
                ts: at,
                ..request[0]
            }]
        };
        freeze(&path, suffix(next_day)).unwrap();

        let check = |bytes: &[u8], suffix_at: Timestamp, run: usize, offset: usize, what: &str| {
            fs::write(&path, bytes).unwrap();
            match freeze(&path, suffix(suffix_at)) {
                Err(SpillError::Corrupt {
                    path: at,
                    run: r,
                    offset: o,
                    reason,
                }) => {
                    assert_eq!(at, path, "{what}: names the file");
                    assert_eq!((r, o), (run, offset as u64), "{what}: {reason}");
                    reason
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        };
        let damaged = |edit: &dyn Fn(&mut Vec<u8>), rechecksummed: bool| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            if rechecksummed {
                rechecksum(&mut bytes);
            }
            bytes
        };

        let flipped = damaged(&|b| b[dict + 1] ^= 0x10, false);
        let reason = check(&flipped, next_day, 0, dict, "flipped dictionary byte");
        assert!(reason.contains("dictionary checksum mismatch"), "{reason}");
        // The checksum covers each entry's ASN and country too.
        for at in [dict + 5, dict + 10 + 8, dict + 20 + 22 + 17] {
            let flipped = damaged(&|b| b[at] ^= 0x10, false);
            let reason = check(&flipped, next_day, 0, dict, "flipped attribute byte");
            assert!(reason.contains("dictionary checksum mismatch"), "{reason}");
        }

        let flipped = damaged(&|b| b[second + 9] ^= 0x01, false);
        let reason = check(&flipped, next_day, 2, second, "flipped section byte");
        assert!(
            reason.contains("section 2 (Abuse) checksum mismatch"),
            "{reason}"
        );

        // A table row count one too high or one too low for the file.
        let rows_at = HEADER_BYTES + 4;
        let longer = damaged(&|b| b[rows_at] += 1, false);
        let reason = check(
            &longer,
            next_day,
            0,
            good.len(),
            "table longer than the file",
        );
        assert!(reason.contains("but file is"), "{reason}");
        let shorter = damaged(&|b| b[rows_at] -= 1, false);
        let reason = check(
            &shorter,
            next_day,
            0,
            good.len() - ROW_BYTES,
            "table shorter than the file",
        );
        assert!(reason.contains("but file is"), "{reason}");

        // Swapped user keys, re-checksummed.
        let swapped = damaged(
            &|b| {
                let (a, rest) = b[users..users + 16].split_at_mut(8);
                a.swap_with_slice(rest);
            },
            true,
        );
        let reason = check(&swapped, next_day, 0, users + 8, "non-ascending dictionary");
        assert!(reason.contains("dictionary user key 1"), "{reason}");

        // The first request row's address id points one past the v6 keys.
        let ip_col = first + 4 * 3;
        let past = damaged(
            &|b| b[ip_col..ip_col + 4].copy_from_slice(&(V6_BIT | 2).to_le_bytes()),
            true,
        );
        let reason = check(&past, next_day, 1, ip_col, "out-of-range address id");
        assert!(
            reason.contains("address local id 0x80000002 is out of range"),
            "{reason}"
        );
        let user_col = second + 4 * 2 * 2 + 4;
        let past = damaged(
            &|b| b[user_col..user_col + 4].copy_from_slice(&4u32.to_le_bytes()),
            true,
        );
        let reason = check(&past, next_day, 2, user_col, "out-of-range user id");
        assert!(
            reason.contains("user local id 0x4 is out of range"),
            "{reason}"
        );

        // The last request row moved one second into the next day.
        let last_ts = first + 4 * 2;
        let outside = damaged(
            &|b| b[last_ts..last_ts + 4].copy_from_slice(&next_day.secs().to_le_bytes()),
            true,
        );
        let reason = check(&outside, next_day, 1, last_ts, "row outside its day");
        assert!(reason.contains("outside the day"), "{reason}");

        // The last request row moved back before the one ahead of it.
        let earlier = (day().start().secs() + 30).to_le_bytes();
        let backwards = damaged(&|b| b[last_ts..last_ts + 4].copy_from_slice(&earlier), true);
        let reason = check(&backwards, next_day, 1, last_ts, "row back in time");
        assert!(
            reason.contains("precedes the history row before it"),
            "{reason}"
        );

        // An intact history followed by a new row earlier than its last.
        let early = Timestamp::from_secs(day().start().secs() + 100);
        let reason = check(&good, early, 1, last_ts, "new row before the history");
        assert!(reason.contains("later than the first new row"), "{reason}");

        // Sections of other families than expected, and an unknown code.
        fs::write(&path, &good).unwrap();
        let err = Segment::open(&path, day(), &[Family::Request, Family::User]).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { ref path, run: 0, offset, .. }
                if *path == dir.join("day103.seg") && offset == (HEADER_BYTES + ENTRY_BYTES) as u64),
            "{err:?}"
        );
        let unknown = damaged(&|b| b[HEADER_BYTES + 1] = 0x7f, false);
        fs::write(&path, &unknown).unwrap();
        let err = Segment::open(&path, day(), &FAMILIES).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { ref reason, offset: 28, .. }
                if reason.contains("unknown family code")),
            "{err:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A fixed row set: unsorted, both address families, repeated keys,
    /// each address with its own ASN and country.
    fn pinned_rows() -> Vec<RequestRecord> {
        let mut g = TestGen::new(0x5049_4E31); // "PIN1"
        g.vec_of(300, |g| {
            let ts = Timestamp::from_secs(day().start().secs() + g.below(86_400) as u32);
            let user = UserId(g.below(40) << 33 | g.below(5));
            let ip = if g.below(3) == 0 {
                IpAddr::from(Ipv4Addr::from(0x0a00_0000 | g.below(50) as u32))
            } else {
                IpAddr::from(Ipv6Addr::from(
                    0x2001_0db8_u128 << 96 | u128::from(g.below(7)) << 64 | u128::from(g.below(60)),
                ))
            };
            let (asn, country) = crate::record::test_attrs(ip);
            RequestRecord {
                ts,
                user,
                ip,
                asn,
                country,
            }
        })
    }

    /// `write_checkpoint_segment` writes the `DSG4` bytes the frozen →
    /// segment encoder writes for the same rows in the same order (the
    /// two encoders share only the layout writer): length and digest
    /// pinned.
    #[test]
    fn checkpoint_segment_bytes_are_pinned() {
        let dir = scratch("pin");
        let path = dir.join("pinned.seg");
        let rows = pinned_rows();
        write_checkpoint_segment(&path, &rows).unwrap();
        let bytes = fs::read(&path).unwrap();
        let owned = crate::columns::OwnedColumns::from_records(&rows);
        let frozen = encode(
            owned.as_slice().tables(),
            &[(Family::Request, owned.as_slice())],
        );
        assert!(bytes == frozen, "the two encoders agree");
        assert_eq!(bytes.len(), 8834);
        assert_eq!(stable_hash64(0x5049_4E32, &bytes), 0xf45c_4bbd_0e7e_6b74);
        assert_eq!(read_checkpoint_segment(&path).unwrap(), rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Sealed `rows` (request family) appended to a spill file of
    /// `session`: the segment handle and the file it lives in.
    fn spilled(session: &SpillSession, bytes: &[u8]) -> (Segment, PathBuf) {
        let mut file = session.spill_file(2, 0);
        let first = file.append(&emitted_bytes(&pinned_rows()[..5])).unwrap();
        drop(first);
        let segment = file.append(bytes).unwrap();
        let path = session.dir().join("s00002-a00.seg");
        (segment, path)
    }

    /// `rows` sealed as one request segment's bytes.
    fn emitted_bytes(rows: &[RequestRecord]) -> Vec<u8> {
        let mut staging = Staging::new([Family::Request]);
        for r in rows {
            let ids = staging.intern(r).unwrap();
            staging.push(0, r, ids);
        }
        staging.seal()
    }

    /// Damage to a spilled segment, found by the freeze's one read, is a
    /// typed `Corrupt` naming the spill file, the section and the byte
    /// offset in the file; it counts one checksum failure and verifies
    /// nothing. The segment under test is the file's second, so every
    /// offset includes the first's length.
    #[test]
    fn spilled_segment_damage_is_a_typed_error_naming_file_section_and_offset() {
        let rows = pinned_rows();
        let good = emitted_bytes(&rows);
        let offset = emitted_bytes(&rows[..5]).len();
        // The one section is the segment's last 300 rows.
        let section = good.len() - 300 * ROW_BYTES;
        let expect = |bytes: &[u8], flip: Option<usize>, run: usize, at: usize, what: &str| {
            let session = SpillSession::create(None).unwrap();
            let (segment, path) = spilled(&session, bytes);
            if let Some(i) = flip {
                let mut on_disk = fs::read(&path).unwrap();
                on_disk[offset + i] ^= 0x10;
                fs::write(&path, &on_disk).unwrap();
            }
            let err = freeze_families(vec![segment], &[]).unwrap_err();
            let stats = session.stats();
            assert_eq!(
                (stats.checksum_failures, stats.bytes_verified),
                (1, 0),
                "{what}"
            );
            match err {
                SpillError::Corrupt {
                    path: p,
                    run: r,
                    offset: o,
                    reason,
                } => {
                    assert_eq!(p, path, "{what}: names the spill file");
                    assert_eq!((r, o), (run, (offset + at) as u64), "{what}: {reason}");
                    reason
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        };

        // A flipped section byte fails the section's checksum.
        let reason = expect(&good, Some(section + 7), 1, section, "flipped section byte");
        assert!(reason.contains("checksum mismatch"), "{reason}");
        // A flipped header byte differs from the header written.
        let reason = expect(&good, Some(6), 0, 6, "flipped header byte");
        assert!(
            reason.contains("differs from the header written"),
            "{reason}"
        );
        // An address id one past the v6 keys, re-checksummed before the
        // append so that only the id check can catch it.
        let mut past = good.clone();
        let ip_col = section + 4 * 300 + 4 * 3;
        let n6 = le_u32(&good[8..]);
        past[ip_col..ip_col + 4].copy_from_slice(&(V6_BIT | n6).to_le_bytes());
        rechecksum(&mut past);
        let reason = expect(&past, None, 1, ip_col, "out-of-range address id");
        assert!(reason.contains("is out of range"), "{reason}");
    }

    /// A spill file cut short is a torn write, found by the read of the
    /// first section past the cut.
    #[test]
    fn truncated_spill_file_is_reported_as_torn_write() {
        let session = SpillSession::create(None).unwrap();
        let (segment, path) = spilled(&session, &emitted_bytes(&pinned_rows()));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = freeze_families(vec![segment], &[]).unwrap_err();
        assert!(
            matches!(err, SpillError::Corrupt { run: 1, ref reason, .. }
                if reason.contains("torn write")),
            "{err:?}"
        );
        assert_eq!(session.stats().bytes_verified, 0);
    }

    /// Transient read faults on a spilled segment are retried in place:
    /// the freeze reads the same rows and counts the retries.
    #[test]
    fn injected_read_faults_retry_transparently() {
        let policy = SpillPolicy {
            faults: Some(crate::spill::SpillFaultPlan {
                seed: 7,
                read_fail_rate: 0.6,
                fail_attempts: 1,
                ..Default::default()
            }),
            ..SpillPolicy::default()
        };
        let session = SpillSession::create_with(None, policy).unwrap();
        let rows = pinned_rows();
        let (segment, _) = spilled(&session, &emitted_bytes(&rows));
        let bytes = segment.bytes();
        let frozen = freeze_families(vec![segment], &[]).unwrap().stores.request;
        let mut sorted = rows.clone();
        sorted.sort_by_key(|r| r.ts);
        assert_eq!(frozen.all().records().collect::<Vec<_>>(), sorted);
        let stats = session.stats();
        assert!(stats.io_retries > 0, "read faults must have fired");
        assert_eq!(stats.bytes_verified, bytes);
    }
}
