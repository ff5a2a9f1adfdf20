//! One-file body store that reuses space in place.
//!
//! The paper's one-file-per-entry layout ([`crate::store::DiskStore`])
//! allocates an inode for every insert and releases one for every
//! eviction; under churn that — not the bytes written — is most of what
//! a miss costs. This store keeps every body in **one data file** behind
//! one long-lived descriptor, along the lines of the gffice dircache
//! ("have everything in one place"): a put is one `pwritev` into a free
//! extent, a delete one small write over the record's header, a get
//! one `pread`.
//!
//! On-disk format (all integers big-endian). The file is a run of
//! **extents**, each a multiple of [`ALIGN`] bytes, each starting with a
//! record:
//!
//! ```text
//! extent        = record , body? , zero padding to ALIGN
//! record        = header(21) , payload
//! header        = kind u8 | seq u64 | payload_len u32
//!               | payload_crc u32 | header_crc u32      (crc of bytes 0..17)
//! payload(Put)  = key_len u32 | key | digest[16] | ct_len u32 | ct
//!               | exec_micros u64 | expiry_flag u8 | expiry u64 | created u64
//!               | body_len u64          (body_len body bytes follow the record)
//! payload(Free) = len u64               (this extent is free for len bytes)
//! ```
//!
//! The body is covered by the 128-bit digest the caller already computed
//! (`put_digested`), so a put makes no second pass over it. `Put` records
//! are kind 3; kind 2, the earlier format with a 32-byte SHA-256, no
//! longer decodes, so such a file opens empty and its space is reused.
//! In memory there is a `key → slot` index and an ordered map of all
//! extents; a put takes the **best-fitting** free extent (smallest that
//! fits, lowest offset among equals), always from its start, and hands
//! the remainder back; a freed extent is **coalesced** with free
//! neighbours, and a free extent at the end of the file is **trimmed**
//! off it. With no free extent that fits, the file grows by exactly one
//! extent. When the contents shrink (smaller bodies replacing larger
//! ones) the holes are in the middle, so while more than 1/16 of the
//! file is free each put also **moves the last record** into a hole, and
//! the tail it vacates is trimmed: the file's length follows its live
//! bytes down.
//!
//! Crash argument. A record is written only into space no index entry
//! points to, so a torn write can damage nothing that was acknowledged;
//! recovery accepts a record only if header CRC, payload CRC and body
//! digest all hold. A re-put writes the new version (higher `seq`)
//! elsewhere before it frees the old one, so a crash leaves old, new, or
//! both — and of two valid records for one key the higher `seq` wins (a
//! moved record keeps its `seq`: either copy will do). Freeing always
//! overwrites the record's *own* header with a `Free` record, and
//! recovery does the same to every valid-looking record it does not
//! index, so no stale header survives to resurrect a deleted key. With
//! `fsync` on, the data is `fdatasync`ed before a put or a delete
//! returns.
//!
//! What recovery trusts: a `Free` record only lets it skip ahead — one
//! that this store wrote never covers a live record, because space is
//! always taken from the start of a maximal free extent, which overwrites
//! any older `Free` record there before anything lands behind it. Past a
//! header that does not verify it steps [`ALIGN`] bytes at a time, which
//! reads old body bytes as candidate records; those are rejected unless
//! two CRCs and a 128-bit hash agree, so only content crafted to look
//! like a record (or a forged `Free` record) could mislead it — which no
//! hash could prevent, since the forger writes the digest too.

use crate::digest::{Digest, DigestStream};
use crate::key::CacheKey;
use crate::store::{HeaderMeta, RecoveredEntry, Store, StoreMetrics};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::{self, IoSlice};
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the data file under the store's root.
pub const DATA_FILE: &str = "bodies.swseg";
/// Fixed record-header length in bytes.
pub const REC_HEADER_LEN: usize = 21;
/// Extent granularity: every extent starts and ends on a multiple.
pub const ALIGN: u64 = 64;
/// Upper bound on a `Put` record without its body (header, key,
/// content type, fixed fields). Puts beyond it are refused; recovery
/// never buffers more than this for a record it has not verified.
pub const MAX_HEAD: usize = 64 * 1024;

const KIND_PUT: u8 = 3;
const KIND_FREE: u8 = 4;

/// Body bytes recovery hashes per step (a multiple of the digest's
/// 64-byte stripe).
const SCAN_CHUNK: usize = 64 * 1024;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven. Implemented
/// here because the workspace builds offline with no checksum crates.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/IEEE of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// One decoded record (public so the proptests can round-trip the
/// on-disk format directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A live entry; `body_len` body bytes follow the record.
    Put {
        seq: u64,
        key: CacheKey,
        digest: Digest,
        meta: HeaderMeta,
        body_len: u64,
    },
    /// A free extent of `len` bytes starting at this record.
    Free { len: u64 },
}

/// Encode a record: 21-byte checksummed header plus payload.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    match rec {
        Record::Put {
            seq,
            key,
            digest,
            meta,
            body_len,
        } => encode_put(*seq, key, digest, meta, *body_len),
        Record::Free { len } => frame(KIND_FREE, 0, &len.to_be_bytes()),
    }
}

fn encode_put(
    seq: u64,
    key: &CacheKey,
    digest: &Digest,
    meta: &HeaderMeta,
    body_len: u64,
) -> Vec<u8> {
    let k = key.as_str().as_bytes();
    let ct = meta.content_type.as_bytes();
    let mut p = Vec::with_capacity(4 + k.len() + 16 + 4 + ct.len() + 33);
    p.extend_from_slice(&(k.len() as u32).to_be_bytes());
    p.extend_from_slice(k);
    p.extend_from_slice(digest.as_bytes());
    p.extend_from_slice(&(ct.len() as u32).to_be_bytes());
    p.extend_from_slice(ct);
    p.extend_from_slice(&meta.exec_micros.to_be_bytes());
    p.push(meta.expires_unix.is_some() as u8);
    p.extend_from_slice(&meta.expires_unix.unwrap_or(0).to_be_bytes());
    p.extend_from_slice(&meta.created_unix.to_be_bytes());
    p.extend_from_slice(&body_len.to_be_bytes());
    frame(KIND_PUT, seq, &p)
}

fn frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER_LEN + payload.len());
    out.push(kind);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    let header_crc = crc32(&out[..17]);
    out.extend_from_slice(&header_crc.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payload length a header announces, if its own checksum holds.
fn header_payload_len(header: &[u8]) -> Option<usize> {
    let header = header.get(..REC_HEADER_LEN)?;
    let stored = u32::from_be_bytes(header[17..21].try_into().ok()?);
    (crc32(&header[..17]) == stored)
        .then(|| u32::from_be_bytes(header[9..13].try_into().expect("4 bytes")) as usize)
}

/// Decode one record from the front of `bytes`. Returns the record and
/// the bytes consumed (a `Put`'s body is not part of either); `None` on
/// a truncated tail or any checksum / structure mismatch. Never panics,
/// whatever the input.
pub fn decode_record(bytes: &[u8]) -> Option<(Record, usize)> {
    let payload_len = header_payload_len(bytes)?;
    let kind = bytes[0];
    let seq = u64::from_be_bytes(bytes[1..9].try_into().ok()?);
    let payload_crc = u32::from_be_bytes(bytes[13..17].try_into().ok()?);
    let consumed = REC_HEADER_LEN.checked_add(payload_len)?;
    let payload = bytes.get(REC_HEADER_LEN..consumed)?;
    if crc32(payload) != payload_crc {
        return None;
    }
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let s = payload.get(*at..at.checked_add(n)?)?;
        *at += n;
        Some(s)
    };
    let u64_at = |at: &mut usize| Some(u64::from_be_bytes(take(at, 8)?.try_into().ok()?));
    let len_at = |at: &mut usize| Some(u32::from_be_bytes(take(at, 4)?.try_into().ok()?) as usize);
    let mut at = 0usize;
    let rec = match kind {
        KIND_PUT => {
            let key_len = len_at(&mut at)?;
            let key = CacheKey::new(std::str::from_utf8(take(&mut at, key_len)?).ok()?);
            let digest = Digest(take(&mut at, 16)?.try_into().ok()?);
            let ct_len = len_at(&mut at)?;
            let content_type = std::str::from_utf8(take(&mut at, ct_len)?)
                .ok()?
                .to_string();
            let exec_micros = u64_at(&mut at)?;
            let has_expiry = take(&mut at, 1)?[0];
            let expires_raw = u64_at(&mut at)?;
            let created_unix = u64_at(&mut at)?;
            let body_len = u64_at(&mut at)?;
            Record::Put {
                seq,
                key,
                digest,
                meta: HeaderMeta {
                    content_type,
                    exec_micros,
                    expires_unix: (has_expiry == 1).then_some(expires_raw),
                    created_unix,
                },
                body_len,
            }
        }
        KIND_FREE => Record::Free {
            len: u64_at(&mut at)?,
        },
        _ => return None,
    };
    (at == payload.len()).then_some((rec, consumed))
}

/// Construction parameters for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// `fdatasync` every put and delete before acking.
    pub fsync: bool,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { fsync: true }
    }
}

fn round_up(n: u64) -> u64 {
    n.div_ceil(ALIGN) * ALIGN
}

/// When more than one part in this many of the file is free, a put also
/// moves the file's last record into a free extent (see
/// [`SegmentStore::squeeze`]). Steady churn of one size mix leaves a few
/// percent free and stays under it; a shift to smaller bodies does not.
const SQUEEZE: u64 = 16;

/// Where a live key's record lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    off: u64,
    /// Record plus body, without the padding.
    len: u64,
    /// Record alone: the body starts this far into the extent.
    head: u32,
    /// The version of the key's content: of two records for one key the
    /// higher wins. A moved record keeps its `seq`.
    seq: u64,
    /// Unique per indexing and never stored, so an unchanged slot means
    /// untouched bytes.
    stamp: u64,
}

impl Slot {
    fn extent(&self) -> u64 {
        round_up(self.len)
    }
}

/// The key index and the ordered extent map. Extents handed out by
/// [`alloc`](Space::alloc) and not yet indexed or released are in
/// neither; they lie below `end`, so nothing trims or reuses them.
#[derive(Default)]
struct Space {
    /// A B-tree: smaller than a hash table with room for insert/evict
    /// churn at a fixed population (see `churn.rs`), and never rebuilt.
    index: BTreeMap<CacheKey, Slot>,
    /// Extents by offset → (length, key of the live record or `None` for
    /// free). Never two free extents adjacent, never a free one ending
    /// at `end`.
    extents: BTreeMap<u64, (u64, Option<CacheKey>)>,
    /// The free extents as (length, offset), for best fit.
    by_len: BTreeSet<(u64, u64)>,
    /// Where the last extent ends and the file grows.
    end: u64,
    live_bytes: u64,
    free_bytes: u64,
    stamps: u64,
}

impl Space {
    fn take_free(&mut self, off: u64, len: u64) {
        self.extents.remove(&off);
        self.by_len.remove(&(len, off));
        self.free_bytes -= len;
    }

    /// An extent of exactly `need` bytes: the start of the best-fitting
    /// free extent or, if `grow`, new space at the end of the file. Also
    /// returns what is left of a larger free extent, which the caller
    /// gives back with [`release`](Space::release) once its own write —
    /// which ends in the remainder's `Free` record — has landed.
    fn alloc(&mut self, need: u64, grow: bool) -> Option<(u64, u64)> {
        if let Some((len, off)) = self.by_len.range((need, 0)..).next().copied() {
            self.take_free(off, len);
            return Some((off, len - need));
        }
        grow.then(|| {
            let off = self.end;
            self.end += need;
            (off, 0)
        })
    }

    /// Return `[off, off + len)` to the free map, merged with free
    /// neighbours. True when it reached the end of the file instead,
    /// which has moved `end` down: the caller truncates.
    fn release(&mut self, mut off: u64, mut len: u64) -> bool {
        if let Some((&prev, &(prev_len, None))) = self.extents.range(..off).next_back() {
            if prev + prev_len == off {
                self.take_free(prev, prev_len);
                off = prev;
                len += prev_len;
            }
        }
        if let Some(&(next_len, None)) = self.extents.get(&(off + len)) {
            self.take_free(off + len, next_len);
            len += next_len;
        }
        if off + len == self.end {
            self.end = off;
            return true;
        }
        self.extents.insert(off, (len, None));
        self.by_len.insert((len, off));
        self.free_bytes += len;
        false
    }

    /// Index `key` at `slot`; the slot it occupied before, if any, is the
    /// caller's to retire.
    fn set_live(&mut self, key: &CacheKey, mut slot: Slot) -> Option<Slot> {
        let old = self.unset_live(key);
        self.stamps += 1;
        slot.stamp = self.stamps;
        self.extents
            .insert(slot.off, (slot.extent(), Some(key.clone())));
        self.live_bytes += slot.extent();
        self.index.insert(key.clone(), slot);
        old
    }

    fn unset_live(&mut self, key: &CacheKey) -> Option<Slot> {
        let slot = self.index.remove(key)?;
        self.extents.remove(&slot.off);
        self.live_bytes -= slot.extent();
        Some(slot)
    }

    /// The file's last record, when enough of the file is free and some
    /// free extent can take it.
    fn tail_to_move(&self) -> Option<(CacheKey, Slot)> {
        if self.free_bytes * SQUEEZE <= self.end {
            return None;
        }
        let (&off, (len, key)) = self.extents.last_key_value()?;
        // An extent still being written may lie behind it.
        if off + len != self.end {
            return None;
        }
        self.by_len.range((*len, 0)..).next()?;
        let key = key.as_ref()?;
        Some((key.clone(), self.index[key]))
    }
}

extern "C" {
    /// `pwritev(2)` (`std` has it only behind an unstable feature), so a
    /// put writes record and body in one call without first copying the
    /// body behind the record. The 64-bit `off_t` this declares is what
    /// every 64-bit Unix has.
    fn pwritev(fd: i32, iov: *const IoSlice<'_>, iovcnt: i32, offset: i64) -> isize;
}
const _: () = assert!(usize::BITS == 64, "pwritev is declared with a 64-bit off_t");

/// One-file body store with in-place reuse. See the module docs.
pub struct SegmentStore {
    root: PathBuf,
    fsync: bool,
    file: fs::File,
    space: Mutex<Space>,
    next_seq: AtomicU64,
    fsyncs: AtomicU64,
    /// Test hook: the next data write fails before touching the file.
    #[cfg(test)]
    fail_next_write: std::sync::atomic::AtomicBool,
}

impl SegmentStore {
    /// Open (creating if needed) a store rooted at `root`, durable.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<SegmentStore> {
        Self::open_with(root, SegmentConfig::default())
    }

    /// Open with explicit tuning. Scans the data file once, in bounded
    /// memory, to rebuild the index and the extent map.
    pub fn open_with(root: impl Into<PathBuf>, cfg: SegmentConfig) -> io::Result<SegmentStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(root.join(DATA_FILE))?;
        let store = SegmentStore {
            root,
            fsync: cfg.fsync,
            file,
            space: Mutex::new(Space::default()),
            next_seq: AtomicU64::new(1),
            fsyncs: AtomicU64::new(0),
            #[cfg(test)]
            fail_next_write: std::sync::atomic::AtomicBool::new(false),
        };
        store.recover_file()?;
        if store.fsync {
            // The data file's directory entry (and anything recovery
            // rewrote) must not be newer than what the first ack implies.
            store.file.sync_data()?;
            fs::File::open(&store.root)?.sync_all()?;
        }
        Ok(store)
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every settled extent in file order as (offset, length, live), for
    /// tests and diagnostics: on an idle store they tile the file.
    pub fn extents(&self) -> Vec<(u64, u64, bool)> {
        let space = self.space.lock();
        space
            .extents
            .iter()
            .map(|(&off, (len, key))| (off, *len, key.is_some()))
            .collect()
    }

    /// One `pwritev` of `parts` laid end to end, made durable when
    /// configured.
    fn write(&self, mut off: u64, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
        #[cfg(test)]
        if self.fail_next_write.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected write failure"));
        }
        // A short count (possible, if rare, on a regular file) is
        // finished by further calls.
        while !parts.is_empty() {
            // SAFETY: `IoSlice` is guaranteed ABI-compatible with `iovec`,
            // the slices it borrows outlive the call, and the descriptor
            // is open for as long as `self.file` is.
            let n = unsafe {
                pwritev(
                    self.file.as_raw_fd(),
                    parts.as_ptr(),
                    parts.len() as i32,
                    off as i64,
                )
            };
            match n {
                n if n > 0 => {
                    IoSlice::advance_slices(&mut parts, n as usize);
                    off += n as u64;
                }
                0 => return Err(io::ErrorKind::WriteZero.into()),
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
        if self.fsync {
            self.file.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Free an extent no index entry points to any more: first on disk,
    /// so its header stops describing a live record before the space can
    /// be handed out again, then in the extent map.
    fn retire(&self, off: u64, len: u64) -> io::Result<()> {
        let marker = encode_record(&Record::Free { len });
        let written = self.write(off, &mut [IoSlice::new(&marker)]);
        self.release(&mut self.space.lock(), off, len)?;
        written
    }

    /// [`Space::release`], cutting the file where that freed its tail —
    /// under the lock, so no append starts at the new end before the
    /// file ends there.
    fn release(&self, space: &mut Space, off: u64, len: u64) -> io::Result<()> {
        if space.release(off, len) {
            self.file.set_len(space.end)?;
        }
        Ok(())
    }

    /// Write a record for `key` and index it. `moving: None` is a put: it
    /// may grow the file, and of two racing puts the higher `seq` stays,
    /// as it would after a recovery that found both. `moving: Some(slot)`
    /// copies that slot's record (same `seq`) into existing free space
    /// only, and indexes the copy only if the key still lives in `slot`
    /// once the copy has landed.
    fn write_record(
        &self,
        key: &CacheKey,
        meta: &HeaderMeta,
        digest: &Digest,
        body: &[u8],
        moving: Option<Slot>,
    ) -> io::Result<()> {
        let seq = match moving {
            Some(from) => from.seq,
            None => self.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        let buf = encode_put(seq, key, digest, meta, body.len() as u64);
        let head = buf.len();
        if head > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "key and content type exceed the record bound",
            ));
        }
        let mut slot = Slot {
            off: 0,
            len: (head + body.len()) as u64,
            head: head as u32,
            seq,
            stamp: 0,
        };
        let need = slot.extent();
        let Some((off, spare)) = self.space.lock().alloc(need, moving.is_none()) else {
            return Ok(());
        };
        slot.off = off;

        // Record, body and — when a larger extent was split — the
        // remainder's `Free` record right behind the padding: one write,
        // the body from where it lies.
        let mut tail = Vec::new();
        if spare > 0 {
            tail.resize((need - slot.len) as usize, 0);
            tail.extend_from_slice(&encode_record(&Record::Free { len: spare }));
        }
        let mut parts = [IoSlice::new(&buf), IoSlice::new(body), IoSlice::new(&tail)];
        if let Err(e) = self.write(off, &mut parts) {
            // Whatever reached the file must not verify later; the whole
            // extent goes back. `retire`'s own write may fail too — then
            // the first error is still the one to report.
            let _ = self.retire(off, need + spare);
            return Err(e);
        }

        let mut space = self.space.lock();
        if spare > 0 {
            self.release(&mut space, off + need, spare)?;
        }
        let superseded = match (space.index.get(key), moving) {
            (Some(current), None) => current.seq > seq,
            (current, Some(from)) => current != Some(&from),
            (None, None) => false,
        };
        let loser = if superseded {
            Some(slot)
        } else {
            space.set_live(key, slot)
        };
        drop(space);
        match loser {
            Some(old) => self.retire(old.off, old.extent()),
            None => Ok(()),
        }
    }

    /// Read `slot`'s record and body whole.
    fn read_slot(&self, slot: &Slot) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; slot.len as usize];
        self.file.read_exact_at(&mut buf, slot.off)?;
        Ok(buf)
    }

    /// Let the file shrink after its contents have: while more than
    /// 1/[`SQUEEZE`] of it is free, move its last record into the
    /// best-fitting free extent, so that freeing the old copy trims the
    /// tail. One record per call; crash-safe like a re-put (the copy
    /// lands before the original is freed, and both carry one `seq`).
    fn squeeze(&self) -> io::Result<()> {
        let Some((key, slot)) = self.space.lock().tail_to_move() else {
            return Ok(());
        };
        let buf = self.read_slot(&slot)?;
        match decode_record(&buf) {
            Some((Record::Put { meta, digest, .. }, head)) if head == slot.head as usize => {
                self.write_record(&key, &meta, &digest, &buf[head..], Some(slot))
            }
            // Unreadable where it lies: `get` will say so; nothing to move.
            _ => Ok(()),
        }
    }

    /// Rebuild index and extent map from the data file. Reads through a
    /// fixed window; steps [`ALIGN`] bytes past anything that does not
    /// verify, so a torn or corrupt header costs that extent only.
    fn recover_file(&self) -> io::Result<()> {
        let file_len = self.file.metadata()?.len();
        let mut window = Window::new(&self.file, file_len);
        let mut index: HashMap<CacheKey, Slot> = HashMap::new();
        // Offsets of records whose header verifies but which are not
        // indexed (torn body, or another copy of an indexed key).
        let mut dropped: Vec<u64> = Vec::new();
        let mut max_seq = 0u64;
        let mut at = 0u64;
        while at < file_len {
            at += match window.record_at(at)? {
                Scanned::Junk => ALIGN,
                Scanned::Free(len) => len,
                Scanned::Torn => {
                    dropped.push(at);
                    ALIGN
                }
                Scanned::Live(key, slot) => {
                    max_seq = max_seq.max(slot.seq);
                    match index.get(&key) {
                        Some(kept) if kept.seq >= slot.seq => dropped.push(at),
                        _ => {
                            if let Some(older) = index.insert(key, slot) {
                                dropped.push(older.off);
                            }
                        }
                    }
                    slot.extent()
                }
            };
        }

        // Everything between live extents is free; what follows the last
        // one is cut off.
        let mut space = Space::default();
        let mut live: Vec<(CacheKey, Slot)> = index.into_iter().collect();
        live.sort_unstable_by_key(|(_, slot)| slot.off);
        for (key, slot) in live {
            let gap_at = space.end;
            space.end = slot.off + slot.extent();
            if slot.off > gap_at {
                space.release(gap_at, slot.off - gap_at);
            }
            space.set_live(&key, slot);
        }
        if file_len > space.end {
            self.file.set_len(space.end)?;
        }
        // A dropped record claims one ALIGN step only: that much is
        // certainly not part of a live extent.
        let tombstone = encode_record(&Record::Free { len: ALIGN });
        for off in dropped.into_iter().filter(|&off| off < space.end) {
            self.file.write_all_at(&tombstone, off)?;
        }
        self.next_seq.store(max_seq + 1, Ordering::Relaxed);
        *self.space.lock() = space;
        Ok(())
    }
}

/// What recovery found at one offset.
enum Scanned {
    /// Nothing that verifies.
    Junk,
    /// A `Free` record covering this many bytes.
    Free(u64),
    /// A `Put` record whose body is cut short or fails its digest.
    Torn,
    /// A verified record and body.
    Live(CacheKey, Slot),
}

/// A fixed-size read window over the data file: recovery's only buffer.
struct Window<'a> {
    file: &'a fs::File,
    file_len: u64,
    buf: Vec<u8>,
    start: u64,
    filled: usize,
}

impl<'a> Window<'a> {
    fn new(file: &'a fs::File, file_len: u64) -> Window<'a> {
        Window {
            file,
            file_len,
            buf: vec![0u8; (2 * MAX_HEAD.max(SCAN_CHUNK) as u64).min(file_len) as usize],
            start: 0,
            filled: 0,
        }
    }

    /// `n` bytes at `off` (at most half the window), `None` past the end
    /// of the file.
    fn get(&mut self, off: u64, n: usize) -> io::Result<Option<&[u8]>> {
        if off.checked_add(n as u64).is_none_or(|e| e > self.file_len) {
            return Ok(None);
        }
        if off < self.start || off + n as u64 > self.start + self.filled as u64 {
            self.start = off;
            self.filled = (self.buf.len() as u64).min(self.file_len - off) as usize;
            self.file
                .read_exact_at(&mut self.buf[..self.filled], self.start)?;
        }
        let at = (off - self.start) as usize;
        Ok(Some(&self.buf[at..at + n]))
    }

    fn record_at(&mut self, at: u64) -> io::Result<Scanned> {
        let Some(payload_len) = self.get(at, REC_HEADER_LEN)?.and_then(header_payload_len) else {
            return Ok(Scanned::Junk);
        };
        let head = REC_HEADER_LEN + payload_len;
        if head > MAX_HEAD {
            return Ok(Scanned::Junk);
        }
        let Some((rec, _)) = self.get(at, head)?.and_then(decode_record) else {
            return Ok(Scanned::Junk);
        };
        match rec {
            Record::Free { len } => {
                let fits = len >= ALIGN
                    && len % ALIGN == 0
                    && at
                        .checked_add(len)
                        .is_some_and(|e| e <= round_up(self.file_len));
                Ok(if fits {
                    Scanned::Free(len)
                } else {
                    Scanned::Junk
                })
            }
            Record::Put {
                seq,
                key,
                digest,
                body_len,
                ..
            } => {
                let mut stream = DigestStream::new();
                let mut pos = at + head as u64;
                let mut left = body_len;
                while left > SCAN_CHUNK as u64 {
                    let Some(chunk) = self.get(pos, SCAN_CHUNK)? else {
                        return Ok(Scanned::Torn);
                    };
                    stream.blocks(chunk);
                    pos += SCAN_CHUNK as u64;
                    left -= SCAN_CHUNK as u64;
                }
                match self.get(pos, left as usize)? {
                    Some(rest) if stream.finish(rest) == digest => Ok(Scanned::Live(
                        key,
                        Slot {
                            off: at,
                            len: head as u64 + body_len,
                            head: head as u32,
                            seq,
                            stamp: 0,
                        },
                    )),
                    _ => Ok(Scanned::Torn),
                }
            }
        }
    }
}

impl Store for SegmentStore {
    fn put_described(&self, key: &CacheKey, meta: &HeaderMeta, body: &[u8]) -> io::Result<()> {
        self.put_digested(key, meta, &Digest::of(body), body)
    }

    fn put_digested(
        &self,
        key: &CacheKey,
        meta: &HeaderMeta,
        digest: &Digest,
        body: &[u8],
    ) -> io::Result<()> {
        self.write_record(key, meta, digest, body, None)?;
        // The put stands whatever becomes of the move: a failure there
        // leaves the file longer than it need be, and the next put tries
        // again.
        let _ = self.squeeze();
        Ok(())
    }

    fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>> {
        Ok(self.get_digested(key)?.0)
    }

    fn get_digested(&self, key: &CacheKey) -> io::Result<(Vec<u8>, Option<Digest>)> {
        loop {
            let Some(slot) = self.space.lock().index.get(key).copied() else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no body for {key}"),
                ));
            };
            let read = self.read_slot(&slot);
            // The bytes are this key's only if its slot stood still while
            // they were read: an extent is rewritten only after the index
            // entry pointing at it is gone, and a stamp never repeats.
            if self.space.lock().index.get(key) != Some(&slot) {
                continue;
            }
            let mut buf = read?;
            return match decode_record(&buf) {
                Some((
                    Record::Put {
                        seq,
                        key: k,
                        digest,
                        ..
                    },
                    head,
                )) if k == *key && seq == slot.seq && head == slot.head as usize => {
                    buf.drain(..head);
                    Ok((buf, Some(digest)))
                }
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "segment record failed verification",
                )),
            };
        }
    }

    fn delete(&self, key: &CacheKey) -> io::Result<()> {
        let Some(slot) = self.space.lock().unset_live(key) else {
            return Ok(());
        };
        self.retire(slot.off, slot.extent())
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.space.lock().index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.space.lock().index.len()
    }

    fn recover(&self) -> Vec<RecoveredEntry> {
        let slots: Vec<Slot> = self.space.lock().index.values().copied().collect();
        let mut head = Vec::new();
        let mut out: Vec<RecoveredEntry> = slots
            .iter()
            .filter_map(|slot| {
                head.resize(slot.head as usize, 0);
                self.file.read_exact_at(&mut head, slot.off).ok()?;
                match decode_record(&head)? {
                    (Record::Put { key, meta, seq, .. }, _) if seq == slot.seq => {
                        Some(RecoveredEntry {
                            key,
                            content_type: meta.content_type,
                            exec_micros: meta.exec_micros,
                            expires_unix: meta.expires_unix,
                            created_unix: meta.created_unix,
                            size: slot.len - slot.head as u64,
                        })
                    }
                    _ => None,
                }
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    fn metrics(&self) -> StoreMetrics {
        let space = self.space.lock();
        StoreMetrics {
            kind: "segment",
            file_bytes: space.end,
            live_bytes: space.live_bytes,
            free_bytes: space.free_bytes,
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::unix_now;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "swala-segstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn open(root: &Path) -> SegmentStore {
        SegmentStore::open_with(root, SegmentConfig { fsync: false }).unwrap()
    }

    fn meta() -> HeaderMeta {
        HeaderMeta {
            content_type: "text/html".into(),
            exec_micros: 1000,
            expires_unix: None,
            created_unix: unix_now(),
        }
    }

    fn key(i: usize) -> CacheKey {
        CacheKey::new(format!("/k?i={i:04}"))
    }

    /// Extents as (offset, length, live), checked to tile the file with
    /// no two free ones adjacent.
    fn tiling(s: &SegmentStore) -> Vec<(u64, u64, bool)> {
        let extents = s.extents();
        let mut at = 0;
        for (i, &(off, len, live)) in extents.iter().enumerate() {
            assert_eq!(off, at, "gap or overlap before extent {i}: {extents:?}");
            assert!(len > 0 && len % ALIGN == 0, "{extents:?}");
            assert!(
                live || i == 0 || extents[i - 1].2,
                "adjacent free: {extents:?}"
            );
            at = off + len;
        }
        assert_eq!(at, s.metrics().file_bytes);
        assert!(extents.last().is_none_or(|e| e.2), "free tail: {extents:?}");
        extents
    }

    #[test]
    fn store_semantics() {
        let root = tmp_root("sem");
        let s = open(&root);
        let k = CacheKey::new("/cgi-bin/adl?id=1&ms=40");
        assert!(!s.contains(&k));
        assert_eq!(s.get(&k).unwrap_err().kind(), io::ErrorKind::NotFound);
        s.put(&k, b"result-body").unwrap();
        assert!(s.contains(&k));
        assert_eq!(s.get(&k).unwrap(), b"result-body");
        assert_eq!(s.len(), 1);
        s.put(&k, b"v2").unwrap();
        assert_eq!(s.get(&k).unwrap(), b"v2");
        assert_eq!(
            s.get_digested(&k).unwrap(),
            (b"v2".to_vec(), Some(Digest::of(b"v2"))),
            "the digest recorded at put comes back with the body"
        );
        assert_eq!(s.len(), 1);
        s.delete(&k).unwrap();
        s.delete(&k).unwrap();
        assert!(!s.contains(&k));
        assert!(s.is_empty());
        assert_eq!(s.metrics().file_bytes, 0, "an empty store is an empty file");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn record_roundtrip() {
        let recs = [
            Record::Put {
                seq: 8,
                key: CacheKey::new("/k?q=1"),
                digest: Digest::of(b"x"),
                meta: HeaderMeta {
                    content_type: "t/x".into(),
                    exec_micros: 123,
                    expires_unix: Some(456),
                    created_unix: 789,
                },
                body_len: 1,
            },
            Record::Free { len: 4096 },
        ];
        for rec in recs {
            let bytes = encode_record(&rec);
            let (back, used) = decode_record(&bytes).unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, bytes.len());
        }
        assert!(encode_record(&Record::Free { len: u64::MAX }).len() <= ALIGN as usize);
    }

    #[test]
    fn persists_across_reopen() {
        let root = tmp_root("reopen");
        {
            let s = open(&root);
            for i in 0..20 {
                s.put_described(&key(i), &meta(), format!("body{i}").as_bytes())
                    .unwrap();
            }
            s.put(&key(3), b"rewritten").unwrap();
            s.delete(&key(5)).unwrap();
        }
        let s = open(&root);
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(&key(3)).unwrap(), b"rewritten");
        assert!(!s.contains(&key(5)), "a deleted key stays deleted");
        assert_eq!(s.get(&key(7)).unwrap(), b"body7");
        tiling(&s);
        s.put(&CacheKey::new("/new"), b"fresh").unwrap();
        assert_eq!(s.get(&CacheKey::new("/new")).unwrap(), b"fresh");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn churn_at_capacity_reuses_space_in_place() {
        let root = tmp_root("reuse");
        let s = open(&root);
        let body = vec![7u8; 4096];
        for i in 0..50 {
            s.put(&key(i), &body).unwrap();
        }
        s.put(&key(50), &body).unwrap();
        let full = s.metrics().file_bytes;
        s.delete(&key(0)).unwrap();
        for i in 51..1000 {
            s.put(&key(i), &body).unwrap();
            assert_eq!(s.metrics().file_bytes, full, "put {i} grew the file");
            s.delete(&key(i - 50)).unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.live_bytes + m.free_bytes, m.file_bytes);
        // The last record's padding is never written.
        let on_disk = fs::metadata(root.join(DATA_FILE)).unwrap().len();
        assert_eq!(round_up(on_disk), m.file_bytes);
        tiling(&s);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn free_extents_split_coalesce_and_trim() {
        let root = tmp_root("extents");
        let s = open(&root);
        let (a, b, c, d) = (key(1), key(2), key(3), key(4));
        s.put(&a, &vec![1u8; 4000]).unwrap();
        s.put(&b, &vec![2u8; 1000]).unwrap();
        s.put(&c, &vec![3u8; 4000]).unwrap();
        let before = tiling(&s);
        assert_eq!(before.len(), 3);
        // A hole opens where `a` was; a smaller record takes its start
        // and the rest stays free.
        s.delete(&a).unwrap();
        s.put(&d, &vec![4u8; 1000]).unwrap();
        let split = tiling(&s);
        assert_eq!(split.len(), 4, "{split:?}");
        assert_eq!(
            (split[0].0, split[0].2),
            (0, true),
            "best fit from the start"
        );
        assert!(!split[1].2, "remainder is free: {split:?}");
        assert_eq!(split[0].1 + split[1].1, before[0].1);
        // Freeing it again merges the two pieces back into one extent.
        s.delete(&d).unwrap();
        let merged = tiling(&s);
        assert_eq!(
            (merged[0].1, merged[0].2),
            (before[0].1, false),
            "{merged:?}"
        );
        // Freeing the middle merges three ways; freeing the tail cuts the
        // file back to nothing.
        s.delete(&b).unwrap();
        assert_eq!(tiling(&s).len(), 2);
        s.delete(&c).unwrap();
        assert!(tiling(&s).is_empty());
        assert_eq!(fs::metadata(root.join(DATA_FILE)).unwrap().len(), 0);
        // Everything still works across a reopen of a file with holes.
        s.put(&a, &vec![1u8; 4000]).unwrap();
        s.put(&b, &vec![2u8; 1000]).unwrap();
        s.put(&c, &[3u8; 100]).unwrap();
        s.delete(&a).unwrap();
        let live = tiling(&s);
        drop(s);
        let s = open(&root);
        assert_eq!(tiling(&s), live);
        assert_eq!(s.get(&b).unwrap(), vec![2u8; 1000]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn torn_tail_and_truncation_cost_only_the_last_record() {
        let root = tmp_root("torn");
        {
            let s = open(&root);
            s.put(&key(1), b"alpha").unwrap();
            s.put(&key(2), &vec![9u8; 3000]).unwrap();
        }
        let path = root.join(DATA_FILE);
        let whole = fs::read(&path).unwrap();
        // Cut inside the second record's body: a torn append.
        fs::write(&path, &whole[..whole.len() - 1000]).unwrap();
        let s = open(&root);
        assert_eq!(s.len(), 1, "the acked first entry survives");
        assert_eq!(s.get(&key(1)).unwrap(), b"alpha");
        assert_eq!(tiling(&s).len(), 1, "the torn tail is trimmed");
        s.put(&key(3), b"gamma").unwrap();
        drop(s);
        let s = open(&root);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&key(3)).unwrap(), b"gamma");
        // Garbage where a store should be is an empty store.
        drop(s);
        fs::write(&path, b"not a segment at all, just some bytes".repeat(10)).unwrap();
        let s = open(&root);
        assert_eq!((s.len(), s.metrics().file_bytes), (0, 0));
        s.put(&key(4), b"y").unwrap();
        assert_eq!(s.get(&key(4)).unwrap(), b"y");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn bit_flip_in_a_body_drops_that_record_at_reopen() {
        let root = tmp_root("flip");
        {
            let s = open(&root);
            s.put(&key(1), &vec![7u8; 512]).unwrap();
            s.put(&key(2), &vec![8u8; 512]).unwrap();
        }
        let path = root.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[300] ^= 0x40; // inside the first body
        fs::write(&path, &bytes).unwrap();
        let s = open(&root);
        assert_eq!(s.get(&key(1)).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(s.get(&key(2)).unwrap(), vec![8u8; 512]);
        tiling(&s);
        let _ = fs::remove_dir_all(root);
    }

    /// A crash between a re-put's write and the freeing of the old
    /// version leaves both on disk: the newer wins, and the loser is
    /// overwritten so that deleting the key later cannot bring it back.
    #[test]
    fn both_versions_on_disk_resolve_to_the_newer_for_good() {
        let root = tmp_root("reput");
        let path = root.join(DATA_FILE);
        let k = key(1);
        {
            let s = open(&root);
            s.put(&k, &vec![1u8; 2000]).unwrap();
            // Large enough that the hole the re-put leaves is too small a
            // share of the file for the new version to be moved into it.
            s.put(&key(2), &vec![9u8; 100_000]).unwrap();
            let old_start = fs::read(&path).unwrap()[..ALIGN as usize].to_vec();
            s.put(&k, &vec![2u8; 2000]).unwrap();
            assert!(!s.extents()[0].2, "the old version's extent is free");
            // Undo the `Free` record over the old version's header: the
            // state a crash before that write would have left.
            s.file.write_all_at(&old_start, 0).unwrap();
        }
        let s = open(&root);
        assert_eq!(s.get(&k).unwrap(), vec![2u8; 2000]);
        assert_eq!(s.len(), 2);
        tiling(&s);
        s.delete(&k).unwrap();
        drop(s);
        let s = open(&root);
        assert!(!s.contains(&k), "a deleted key never resurrects");
        assert_eq!(s.get(&key(2)).unwrap(), vec![9u8; 100_000]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn failed_write_keeps_the_previous_version_and_frees_the_extent() {
        let root = tmp_root("failwrite");
        let s = open(&root);
        let k = key(1);
        s.put(&k, b"version one").unwrap();
        s.put(&key(2), b"tail").unwrap();
        let before = tiling(&s);
        s.fail_next_write.store(true, Ordering::SeqCst);
        assert!(s.put(&k, &vec![2u8; 5000]).is_err());
        assert_eq!(s.get(&k).unwrap(), b"version one");
        assert_eq!(tiling(&s), before, "the extent went back");
        // Into a hole, too: the split-off remainder must come back whole.
        s.put(&key(3), &vec![3u8; 4000]).unwrap();
        s.put(&key(4), b"new tail").unwrap();
        s.delete(&key(3)).unwrap();
        let holed = tiling(&s);
        s.fail_next_write.store(true, Ordering::SeqCst);
        assert!(s.put(&k, &[2u8; 100]).is_err());
        assert_eq!(tiling(&s), holed);
        assert_eq!(s.get(&k).unwrap(), b"version one");
        drop(s);
        let s = open(&root);
        assert_eq!(s.get(&k).unwrap(), b"version one");
        assert_eq!(s.len(), 3);
        let _ = fs::remove_dir_all(root);
    }

    /// The index says `k` lives in an extent whose bytes say otherwise
    /// (what a reader that lost a race with delete-then-reuse would see
    /// if nothing else caught it): an error, never the other key's body.
    #[test]
    fn get_verifies_the_key_in_the_record_it_read() {
        let root = tmp_root("wrongkey");
        let s = open(&root);
        let (k, other) = (key(1), key(2));
        s.put_described(&k, &meta(), &vec![1u8; 300]).unwrap();
        let forged = encode_put(9, &other, &Digest::of(&[2u8; 300]), &meta(), 300);
        s.file.write_all_at(&forged, 0).unwrap();
        assert_eq!(s.get(&k).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn file_shrinks_after_a_shift_to_smaller_bodies() {
        let root = tmp_root("squeeze");
        let s = open(&root);
        for i in 0..100 {
            s.put(&key(i), &vec![1u8; 16 * 1024]).unwrap();
        }
        let big = s.metrics().file_bytes;
        // One record moves per put, so the file follows its contents
        // down over the next turnover, not at once.
        for i in 0..300 {
            s.put(&key(100 + i), &vec![2u8; 1024]).unwrap();
            s.delete(&key(i)).unwrap();
        }
        let m = s.metrics();
        assert!(m.file_bytes < big / 8, "{m:?} after {big}");
        assert!(m.free_bytes * SQUEEZE <= m.file_bytes + 2048, "{m:?}");
        for i in 300..400 {
            assert_eq!(s.get(&key(i)).unwrap(), vec![2u8; 1024]);
        }
        tiling(&s);
        let _ = fs::remove_dir_all(root);
    }

    /// A `Put` record in the earlier format — kind 2, a 32-byte SHA-256 —
    /// built by hand with valid CRCs: it opens as no entry, its body is
    /// never served, and its space goes to the next put.
    #[test]
    fn an_earlier_format_record_opens_empty_and_its_space_is_reused() {
        let root = tmp_root("kind2");
        let body = [0x5au8; 300];
        // SHA-256 of `body`.
        let sha256 = "dd128ff0ec9391a9bbfbe5df89898c568e39e0cce1104a4add8be7fb53ea9a76";
        let k = key(1);
        let ct = b"text/html";
        let mut payload = Vec::new();
        payload.extend_from_slice(&(k.as_str().len() as u32).to_be_bytes());
        payload.extend_from_slice(k.as_str().as_bytes());
        payload.extend((0..32).map(|i| u8::from_str_radix(&sha256[2 * i..2 * i + 2], 16).unwrap()));
        payload.extend_from_slice(&(ct.len() as u32).to_be_bytes());
        payload.extend_from_slice(ct);
        payload.extend_from_slice(&1000u64.to_be_bytes());
        payload.push(0);
        payload.extend_from_slice(&0u64.to_be_bytes());
        payload.extend_from_slice(&unix_now().to_be_bytes());
        payload.extend_from_slice(&(body.len() as u64).to_be_bytes());
        let mut file = vec![2u8];
        file.extend_from_slice(&1u64.to_be_bytes());
        file.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        file.extend_from_slice(&crc32(&payload).to_be_bytes());
        file.extend_from_slice(&crc32(&file[..17]).to_be_bytes());
        assert!(header_payload_len(&file).is_some(), "the header verifies");
        file.extend_from_slice(&payload);
        file.extend_from_slice(&body);
        file.resize(round_up(file.len() as u64) as usize, 0);
        let old_len = file.len() as u64;
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(DATA_FILE), &file).unwrap();

        let s = open(&root);
        assert!(s.is_empty());
        assert!(s.recover().is_empty());
        assert_eq!(s.get(&k).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(s.metrics().file_bytes, 0, "the old record's space is free");
        s.put(&key(2), &body).unwrap();
        assert!(
            matches!(tiling(&s)[..], [(0, len, true)] if len <= old_len),
            "the put landed in its place"
        );
        drop(s);
        let s = open(&root);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&key(2)).unwrap(), body);
        assert!(!s.contains(&k));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn recovery_roundtrips_metadata() {
        let root = tmp_root("recmeta");
        let described = HeaderMeta {
            content_type: "text/html".into(),
            exec_micros: 1_600_000,
            expires_unix: Some(9_999_999_999),
            created_unix: 901_627_200,
        };
        {
            let s = open(&root);
            s.put_described(&CacheKey::new("/cgi-bin/a?x=1"), &described, b"body-a")
                .unwrap();
        }
        let s = open(&root);
        let recovered = s.recover();
        assert_eq!(recovered.len(), 1);
        let a = &recovered[0];
        assert_eq!(a.key.as_str(), "/cgi-bin/a?x=1");
        assert_eq!(a.content_type, described.content_type);
        assert_eq!(a.exec_micros, described.exec_micros);
        assert_eq!(a.expires_unix, described.expires_unix);
        assert_eq!(a.created_unix, described.created_unix);
        assert_eq!(a.size, 6);
        assert_eq!(s.get(&a.key).unwrap(), b"body-a");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fsync_knob_counts_durability_work() {
        let root = tmp_root("fsync");
        let s = SegmentStore::open(&root).unwrap();
        s.put(&key(1), b"x").unwrap();
        assert_eq!(s.metrics().fsyncs, 1, "one data sync per put");
        s.delete(&key(1)).unwrap();
        assert_eq!(s.metrics().fsyncs, 2, "and one per delete");
        assert_eq!(s.metrics().kind, "segment");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn oversized_key_is_refused() {
        let root = tmp_root("bigkey");
        let s = open(&root);
        let k = CacheKey::new("k".repeat(MAX_HEAD));
        assert_eq!(
            s.put(&k, b"x").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(s.is_empty() && tiling(&s).is_empty());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn concurrent_access() {
        let root = tmp_root("conc");
        let s = open(&root);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = CacheKey::new(format!("/t{t}?i={i}"));
                        s.put(&k, format!("{t}-{i}").repeat(1 + i % 7).as_bytes())
                            .unwrap();
                        assert_eq!(
                            s.get(&k).unwrap(),
                            format!("{t}-{i}").repeat(1 + i % 7).as_bytes()
                        );
                        if i % 3 == 0 {
                            s.delete(&k).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(s.len(), 4 * 133);
        tiling(&s);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
