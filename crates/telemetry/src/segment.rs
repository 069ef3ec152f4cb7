//! Dictionary-coded day segments: the state dir's on-disk day format.
//!
//! A warm resume appends one day to a long history that an earlier run
//! already froze in canonical order. A segment keeps a day in the frozen
//! columns' own shape, with ids local to the file, so the freeze can
//! gather it straight into frozen columns without decoding, hashing or
//! sorting a history row (see [`crate::run`]).
//!
//! # Format
//!
//! One file holds one day of one or more dataset families, all integers
//! little-endian:
//!
//! ```text
//! offset   bytes       field
//! 0        4           magic "DSG3"
//! 4        4 + 4 + 4   dictionary sizes: v4, v6 and user keys
//! 16       4           section count s
//! 20       8           dictionary checksum (xxHash64)
//! 28       20 × s      section table: family code (4), rows (8),
//!                      section checksum (8)
//! 28+20s   …           dictionary: the sorted distinct v4 (4 B), v6
//!                      (16 B) and user (8 B) keys of every section
//! …        18 × rows   one section per table entry, column by column:
//!                      ts (4), ip local id (4), user local id (4),
//!                      asn (4), country (2)
//! ```
//!
//! A local address id keeps [`IpId`](crate::IpId)'s family bit, and its
//! low 31 bits index the file's v4 or v6 keys; a local user id indexes
//! its user keys. This is phone-number-style addressing: ids stay short
//! and local to a day, and the freeze builds one monotone local → dense
//! table per file. The writer needs no hashing either: frozen dense ids
//! are order-isomorphic to their keys, so a day's sorted distinct ids
//! already list its dictionary in key order.
//!
//! # Verification
//!
//! Nothing here panics. Every failure is a [`SpillError::Corrupt`] that
//! names the file, the section (`run` 0 is the header and dictionary,
//! `k` the k-th section) and the byte offset:
//!
//! - [`Segment::open`] checks the magic, the header and section table
//!   against the file length (so a torn or padded file fails before any
//!   count is trusted with an allocation), every family code, and the
//!   families against the ones the caller expects;
//! - the dictionary and every section carry their own checksum, checked
//!   as they are read;
//! - each dictionary key family must be strictly ascending, and every
//!   local id must index it: lookups are bounds-checked, never trusted.
//!
//! The codec keeps rows in the order written. The timestamp checks that
//! let the freeze skip sorting a history (every row inside its file's
//! day, non-decreasing) belong to the freeze.
//!
//! Every state-dir file, a segment or the manifest, is written through
//! [`write_atomic`]: a file exists under its name only once complete.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipv6_study_stats::hash::stable_hash64;

use crate::columns::{ColumnSlice, ColumnStore};
use crate::ids::{Asn, Country, UserId};
use crate::intern::{EntityTables, V6_BIT};
use crate::kernels::radix_sort_u32;
use crate::record::RequestRecord;
use crate::run::{le_u128, le_u32, le_u64, Family, Run};
use crate::spill::{IoOp, SpillError};
use crate::time::{DateRange, SimDate, Timestamp};

/// Bytes of one row across a section's five columns.
const ROW_BYTES: usize = 18;

/// Magic opening every segment file.
const MAGIC: u32 = u32::from_le_bytes(*b"DSG3");

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

/// Encodes `sections` as one segment; every slice must be encoded
/// against `tables`.
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

    let rows: usize = sections.iter().map(|(_, s)| s.len()).sum();
    let dict_start = HEADER_BYTES + ENTRY_BYTES * sections.len();
    let dict_len = 4 * n4 + 16 * (ips.len() - n4) + 8 * users.len();
    let mut out = Vec::with_capacity(dict_start + dict_len + ROW_BYTES * rows);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    for count in [n4, ips.len() - n4, users.len(), sections.len()] {
        out.extend_from_slice(&(count as u32).to_le_bytes());
    }
    out.resize(dict_start, 0); // checksums and section table patched below
    for &raw in &ips[..n4] {
        out.extend_from_slice(&v4_keys[raw as usize].to_le_bytes());
    }
    for &raw in &ips[n4..] {
        out.extend_from_slice(&v6_keys[(raw & !V6_BIT) as usize].to_le_bytes());
    }
    for &dense in &users {
        out.extend_from_slice(&user_keys[dense as usize].to_le_bytes());
    }
    let dict_sum = stable_hash64(DICT_SEED, &out[dict_start..]);
    out[20..28].copy_from_slice(&dict_sum.to_le_bytes());

    for (k, (family, s)) in sections.iter().enumerate() {
        let start = out.len();
        for ts in s.ts() {
            out.extend_from_slice(&ts.secs().to_le_bytes());
        }
        for id in s.ip_ids() {
            out.extend_from_slice(&ip_local[slot(id.raw())].to_le_bytes());
        }
        for &user in s.users_dense() {
            out.extend_from_slice(&user_local[user as usize].to_le_bytes());
        }
        for asn in s.asns() {
            out.extend_from_slice(&asn.0.to_le_bytes());
        }
        for country in s.countries() {
            out.extend_from_slice(&country.0);
        }
        let sum = stable_hash64(SECTION_SEED, &out[start..]);
        let entry = HEADER_BYTES + ENTRY_BYTES * k;
        out[entry..entry + 4].copy_from_slice(&family_code(*family).to_le_bytes());
        out[entry + 4..entry + 12].copy_from_slice(&(s.len() as u64).to_le_bytes());
        out[entry + 12..entry + 20].copy_from_slice(&sum.to_le_bytes());
    }
    out
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
    /// Byte offset of the section's first column.
    offset: u64,
}

/// A segment file, opened and checked against its length. Its rows stay
/// on disk until the freeze reads them.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: File,
    /// The day every row must fall on, checked by the freeze.
    day: Option<SimDate>,
    bytes: u64,
    /// Dictionary sizes: v4, v6 and user keys.
    keys: [u64; 3],
    dict_checksum: u64,
    sections: Vec<SectionMeta>,
}

/// A segment's dictionary: its sorted distinct keys.
#[derive(Debug)]
pub(crate) struct Dictionary {
    pub v4: Vec<u32>,
    pub v6: Vec<u128>,
    pub users: Vec<u64>,
}

impl Segment {
    /// Opens the segment at `path` holding day `day`, and checks that its
    /// sections hold exactly `families`, in order. Only the header and
    /// section table are read; the freeze verifies the rest.
    pub fn open(path: &Path, day: SimDate, families: &[Family]) -> Result<Self, SpillError> {
        let segment = Self::open_any(path, Some(day))?;
        let found: Vec<Family> = segment.sections.iter().map(|s| s.family).collect();
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

    /// Opens any segment: checks the magic, the family codes and the
    /// header and section table against the file length.
    fn open_any(path: &Path, day: Option<SimDate>) -> Result<Self, SpillError> {
        let corrupt = |offset: u64, reason: String| SpillError::Corrupt {
            path: path.to_path_buf(),
            run: 0,
            offset,
            reason,
        };
        let mut file = File::open(path).map_err(|e| SpillError::io(path, IoOp::Open, &e))?;
        let bytes = file
            .metadata()
            .map_err(|e| SpillError::io(path, IoOp::Open, &e))?
            .len();
        if bytes < HEADER_BYTES as u64 {
            return Err(corrupt(
                bytes,
                format!("header needs {HEADER_BYTES} bytes but file is {bytes} bytes"),
            ));
        }
        let mut hdr = [0u8; HEADER_BYTES];
        file.read_exact(&mut hdr)
            .map_err(|e| SpillError::io(path, IoOp::Read, &e))?;
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
        let mut table = vec![0u8; table_end as usize - HEADER_BYTES];
        file.read_exact(&mut table)
            .map_err(|e| SpillError::io(path, IoOp::Read, &e))?;
        // u128 sums: a damaged count cannot overflow the length check.
        let mut end = u128::from(table_end)
            + u128::from(keys[0]) * 4
            + u128::from(keys[1]) * 16
            + u128::from(keys[2]) * 8;
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
            path: path.to_path_buf(),
            file,
            day,
            bytes,
            keys,
            dict_checksum: le_u64(&hdr[20..]),
            sections,
        })
    }

    /// The file's size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One run per section, with the section's family, sharing the open
    /// segment.
    pub fn into_runs(self) -> Vec<(Family, Run)> {
        let families: Vec<Family> = self.sections.iter().map(|s| s.family).collect();
        let segment = Arc::new(self);
        families
            .into_iter()
            .enumerate()
            .map(|(k, family)| (family, Run::section(&segment, k)))
            .collect()
    }

    /// Rows in section `index` (0-based).
    pub(crate) fn section_rows(&self, index: usize) -> u64 {
        self.sections.get(index).map_or(0, |s| s.rows)
    }

    /// Byte offset of row `row`'s timestamp in section `index`.
    pub(crate) fn ts_offset(&self, index: usize, row: usize) -> u64 {
        self.sections
            .get(index)
            .map_or(0, |s| s.offset + 4 * row as u64)
    }

    /// A verification failure in this file; `run` 0 is the header and
    /// dictionary, `k` the k-th section.
    pub(crate) fn corrupt(&self, run: usize, offset: u64, reason: String) -> SpillError {
        SpillError::Corrupt {
            path: self.path.clone(),
            run,
            offset,
            reason,
        }
    }

    /// Reads `len` bytes at `offset` into `buf` (grown as needed, never
    /// shrunk) and returns them.
    fn read_at<'b>(
        &self,
        run: usize,
        offset: u64,
        len: usize,
        buf: &'b mut Vec<u8>,
    ) -> Result<&'b [u8], SpillError> {
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| SpillError::io(&self.path, IoOp::Seek, &e))?;
        file.read_exact(&mut buf[..len]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                self.corrupt(run, offset, "unexpected end of file (torn write?)".into())
            } else {
                SpillError::io(&self.path, IoOp::Read, &e)
            }
        })?;
        Ok(&buf[..len])
    }

    /// Reads and verifies the dictionary: its checksum, and every key
    /// family strictly ascending.
    pub(crate) fn read_dictionary(&self, buf: &mut Vec<u8>) -> Result<Dictionary, SpillError> {
        let start = (HEADER_BYTES + ENTRY_BYTES * self.sections.len()) as u64;
        let [n4, n6, nu] = self.keys.map(|n| n as usize);
        let bytes = self.read_at(0, start, 4 * n4 + 16 * n6 + 8 * nu, buf)?;
        let sum = stable_hash64(DICT_SEED, bytes);
        if sum != self.dict_checksum {
            return Err(self.corrupt(
                0,
                start,
                format!(
                    "dictionary checksum mismatch: computed {sum:#018x}, expected {:#018x}",
                    self.dict_checksum
                ),
            ));
        }
        let (v4, rest) = bytes.split_at(4 * n4);
        let (v6, users) = rest.split_at(16 * n6);
        let v6_start = start + v4.len() as u64;
        let users_start = v6_start + v6.len() as u64;
        Ok(Dictionary {
            v4: self.ascending("v4", start, v4.chunks_exact(4).map(le_u32))?,
            v6: self.ascending("v6", v6_start, v6.chunks_exact(16).map(le_u128))?,
            users: self.ascending("user", users_start, users.chunks_exact(8).map(le_u64))?,
        })
    }

    /// Collects one dictionary key family starting at byte `start`,
    /// failing at the first key not above the one before it.
    fn ascending<K: Ord + Copy>(
        &self,
        what: &str,
        start: u64,
        keys: impl ExactSizeIterator<Item = K>,
    ) -> Result<Vec<K>, SpillError> {
        let width = std::mem::size_of::<K>() as u64;
        let mut out: Vec<K> = Vec::with_capacity(keys.len());
        for (i, key) in keys.enumerate() {
            if out.last().is_some_and(|&prev| prev >= key) {
                return Err(self.corrupt(
                    0,
                    start + width * i as u64,
                    format!("dictionary {what} key {i} is not above the key before it"),
                ));
            }
            out.push(key);
        }
        Ok(out)
    }

    /// Reads section `index` (0-based) into `buf` and verifies its
    /// checksum.
    pub(crate) fn read_section<'b>(
        &'b self,
        index: usize,
        buf: &'b mut Vec<u8>,
    ) -> Result<Section<'b>, SpillError> {
        let meta =
            self.sections.get(index).copied().ok_or_else(|| {
                self.corrupt(0, 16, format!("no section {} in the table", index + 1))
            })?;
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

    /// Decodes sections `range` (0-based) back into records through the
    /// dictionary, in order.
    pub(crate) fn records(&self, range: Range<usize>) -> Result<Vec<RequestRecord>, SpillError> {
        let mut buf = Vec::new();
        let dict = self.read_dictionary(&mut buf)?;
        let v4: Vec<IpAddr> = dict.v4.iter().map(|&a| Ipv4Addr::from(a).into()).collect();
        let v6: Vec<IpAddr> = dict.v6.iter().map(|&a| Ipv6Addr::from(a).into()).collect();
        let users: Vec<UserId> = dict.users.into_iter().map(UserId).collect();
        let rows = range.clone().map(|k| self.section_rows(k)).sum::<u64>();
        let mut out = Vec::with_capacity(rows as usize);
        for k in range {
            let section = self.read_section(k, &mut buf)?;
            let (mut ips, mut us) = (Vec::new(), Vec::new());
            section.ips(&v4, &v6, &mut ips)?;
            section.users(&users, &mut us)?;
            let rows = section.ts().zip(ips).zip(us).zip(section.asns());
            out.extend(
                rows.zip(section.countries())
                    .map(|((((ts, ip), user), asn), country)| RequestRecord {
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
    offset: u64,
    rows: usize,
    bytes: &'b [u8],
}

impl<'b> Section<'b> {
    /// The first and last timestamps of the segment's day, when it has
    /// one.
    pub(crate) fn day_bounds(&self) -> Option<(Timestamp, Timestamp)> {
        self.segment.day.map(|d| DateRange::single(d).ts_bounds())
    }

    /// A failed timestamp check at `row`.
    pub(crate) fn corrupt_ts(&self, row: usize, reason: String) -> SpillError {
        self.corrupt_at(0, row, reason)
    }

    /// Column `k` of the four 4-byte columns (ts, ip, user, asn).
    fn column(&self, k: usize) -> &'b [u8] {
        &self.bytes[4 * self.rows * k..4 * self.rows * (k + 1)]
    }

    /// The timestamps, in order.
    pub(crate) fn ts(&self) -> impl Iterator<Item = Timestamp> + 'b {
        self.column(0)
            .chunks_exact(4)
            .map(|b| Timestamp::from_secs(le_u32(b)))
    }

    /// The ASNs, in order.
    pub(crate) fn asns(&self) -> impl Iterator<Item = Asn> + 'b {
        self.column(3).chunks_exact(4).map(|b| Asn(le_u32(b)))
    }

    /// The countries, in order.
    pub(crate) fn countries(&self) -> impl Iterator<Item = Country> + 'b {
        self.bytes[16 * self.rows..]
            .chunks_exact(2)
            .map(|b| Country([b[0], b[1]]))
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
/// through [`write_atomic`]. The codec the state dir uses, on rows from
/// anywhere.
pub fn write_checkpoint_segment(path: &Path, rows: &[RequestRecord]) -> Result<(), SpillError> {
    let tables = Arc::new(EntityTables::from_records(rows));
    let cols = ColumnStore::encode(rows.iter(), &tables);
    let section = cols.slice(0..cols.len(), &tables);
    write_segment(path, &tables, &[(Family::Request, section)]).map(drop)
}

/// Reads back every section of the segment at `path`, in order, through
/// its dictionary. Every check but the freeze's timestamp checks
/// applies: torn, truncated or padded files, flipped bytes, and ids out
/// of range surface as [`SpillError::Corrupt`], never as silently wrong
/// rows.
pub fn read_checkpoint_segment(path: &Path) -> Result<Vec<RequestRecord>, SpillError> {
    let segment = Segment::open_any(path, None)?;
    segment.records(0..segment.sections.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{freeze_families, FamilyRuns};
    use crate::store::RequestStore;

    /// The day every test segment holds.
    fn day() -> SimDate {
        SimDate::ymd(4, 13)
    }

    fn rec(user: u64, sec: u32, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: Timestamp::from_secs(day().start().secs() + sec),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
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
        // and 3 user keys, then 18 bytes a row.
        let dict = 4 + 2 * 16 + 3 * 8;
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
        let mut at = dict + 4 * keys[0] + 16 * keys[1] + 8 * keys[2];
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

    /// Freezes the segment at `path` as the history of a request suffix
    /// of `suffix` rows.
    fn freeze(path: &Path, suffix: Vec<RequestRecord>) -> Result<(), SpillError> {
        let mut runs = FamilyRuns::default();
        for (family, run) in Segment::open(path, day(), &FAMILIES)?.into_runs() {
            runs.family_mut(family).push(run);
        }
        runs.request.push(Run::in_memory(suffix));
        freeze_families(runs).map(drop)
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
        // 2 v4, 2 v6 and 4 user keys after a two-entry table.
        let dict = HEADER_BYTES + 2 * ENTRY_BYTES;
        let users = dict + 2 * 4 + 2 * 16;
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
            good.len() - 18,
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
}
