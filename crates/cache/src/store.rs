//! Body stores: where cached CGI results physically live.
//!
//! §4.1: "we store only the cache directory in main memory, and use a
//! separate operating system file to store the results of each cached
//! request. Thus, every cache fetch in effect becomes a file fetch."
//! [`DiskStore`] is that layout, a library type no server opens: a node
//! with a cache directory runs [`crate::segstore::SegmentStore`].
//! [`MemStore`] backs diskless nodes, unit tests and the deterministic
//! simulator where file I/O would only add noise.
//!
//! Disk files are *self-describing*: a small header carries the key and
//! the metadata the directory needs, so a restarted node can rebuild its
//! directory from the store (warm restart — an extension beyond the
//! paper, whose nodes started cold).

use crate::digest::Digest;
use crate::entry::{unix_now, EntryMeta};
use crate::key::CacheKey;
use crate::node::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::{self, IoSlice, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Magic bytes + version for the disk-entry header.
const MAGIC: &[u8; 4] = b"SWC1";

/// A point-in-time view of a store's internals, for the metrics
/// registry. Stores that don't track a field report
/// zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Implementation name ("files", "segment", "mem").
    pub kind: &'static str,
    /// Length of the data file (segment store only).
    pub file_bytes: u64,
    /// Bytes of extents holding live records.
    pub live_bytes: u64,
    /// Bytes of free extents inside the data file, awaiting reuse.
    pub free_bytes: u64,
    /// Durability syncs issued.
    pub fsyncs: u64,
}

/// Metadata recovered from a disk entry's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredEntry {
    pub key: CacheKey,
    pub content_type: String,
    pub exec_micros: u64,
    pub expires_unix: Option<u64>,
    pub created_unix: u64,
    /// Body length in bytes.
    pub size: u64,
}

impl RecoveredEntry {
    /// Rebuild directory metadata for `owner` at logical time `seq`.
    pub fn into_meta(self, owner: NodeId, seq: u64) -> EntryMeta {
        EntryMeta {
            key: self.key,
            owner,
            size: self.size,
            content_type: self.content_type.into(),
            exec_micros: self.exec_micros,
            expires_unix: self.expires_unix,
            created_unix: self.created_unix,
            hits: 0,
            last_access_seq: seq,
            insert_seq: seq,
            gds_credit: 0.0,
        }
    }
}

/// Abstract body store.
pub trait Store: Send + Sync {
    /// Persist `body` for `key`, replacing any previous content.
    fn put(&self, key: &CacheKey, body: &[u8]) -> io::Result<()> {
        let meta = HeaderMeta {
            content_type: "application/octet-stream".to_string(),
            exec_micros: 0,
            expires_unix: None,
            created_unix: unix_now(),
        };
        self.put_described(key, &meta, body)
    }
    /// Persist `body` with descriptive metadata (enables recovery).
    fn put_described(&self, key: &CacheKey, meta: &HeaderMeta, body: &[u8]) -> io::Result<()>;
    /// [`put_described`](Store::put_described) with the body's content
    /// digest precomputed by the caller, so a store that records it as
    /// the body's integrity value doesn't hash twice. Others ignore it.
    fn put_digested(
        &self,
        key: &CacheKey,
        meta: &HeaderMeta,
        digest: &Digest,
        body: &[u8],
    ) -> io::Result<()> {
        let _ = digest;
        self.put_described(key, meta, body)
    }
    /// [`put_digested`](Store::put_digested) of `meta`'s body, described
    /// by `meta` itself: a store that encodes the description where it
    /// lies need not copy it into a [`HeaderMeta`] first.
    fn put_entry(&self, meta: &EntryMeta, digest: &Digest, body: &[u8]) -> io::Result<()> {
        self.put_digested(&meta.key, &meta.into(), digest, body)
    }
    /// Fetch the body for `key`; `NotFound` if absent.
    fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>>;
    /// [`get`](Store::get), with the body's content digest where the
    /// store recorded one at [`put_digested`](Store::put_digested) — so
    /// a caller that needs it doesn't hash the body again. `None` from
    /// stores that keep no digest.
    fn get_digested(&self, key: &CacheKey) -> io::Result<(Vec<u8>, Option<Digest>)> {
        Ok((self.get(key)?, None))
    }
    /// Delete `key`'s body. Deleting an absent key is not an error
    /// (delete broadcasts may race with purges).
    fn delete(&self, key: &CacheKey) -> io::Result<()>;
    /// True when a body exists for `key`.
    fn contains(&self, key: &CacheKey) -> bool;
    /// Number of stored bodies.
    fn len(&self) -> usize;
    /// True when the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Enumerate recoverable entries (empty for stores that don't
    /// persist metadata).
    fn recover(&self) -> Vec<RecoveredEntry> {
        Vec::new()
    }
    /// Internals snapshot for metrics; stores report what they track.
    fn metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
}

/// The describable subset of [`EntryMeta`] written into entry headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderMeta {
    pub content_type: String,
    pub exec_micros: u64,
    pub expires_unix: Option<u64>,
    pub created_unix: u64,
}

impl From<&EntryMeta> for HeaderMeta {
    fn from(m: &EntryMeta) -> Self {
        HeaderMeta {
            content_type: m.content_type.to_string(),
            exec_micros: m.exec_micros,
            expires_unix: m.expires_unix,
            created_unix: m.created_unix,
        }
    }
}

/// One-file-per-entry store under a root directory.
///
/// File names are the key's stable FNV hash in hex (plus a `.swc`
/// suffix) so they are reproducible across restarts and safe regardless
/// of what bytes the key contains. Two keys can share a hash, so slots
/// form a *probe chain* (`{hash}.swc`, `{hash}-1.swc`, …) and every
/// read verifies the header key before serving — a colliding key is
/// `NotFound`, never somebody else's body. Writes go to a temp file and
/// rename into place, so a concurrent reader never observes a torn
/// body; with `fsync` on (the default) the temp file is `sync_all`ed
/// before the rename and the directory entry after, so an acked put
/// survives power loss.
pub struct DiskStore {
    root: PathBuf,
    /// Durability knob: sync file data before rename and the directory
    /// entry after. Off lets benches trade crash-safety for speed.
    fsync: bool,
    /// Temp-name serial. Atomic, so concurrent inserts write their temp
    /// files fully in parallel instead of serialising on a lock.
    serial: AtomicU64,
    /// Serialises only the exists/rename/remove windows that keep
    /// `count` consistent with the directory contents — a few
    /// metadata syscalls, not the body write.
    count_lock: Mutex<()>,
    /// Entry count, maintained on every mutation so `len()` is O(1)
    /// instead of a directory scan per call.
    count: AtomicUsize,
    /// `sync_all` calls issued, for [`StoreMetrics`].
    fsyncs: AtomicU64,
}

/// Where [`DiskStore::find_slot`]'s walk of a probe chain ended.
enum Slot {
    /// This slot stores the key.
    Held(usize),
    /// The key is absent; this is the chain's first missing slot.
    Free(usize),
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`, with
    /// durable (fsynced) writes. The entry count is established with a
    /// single scan here; afterwards `len()` never touches the
    /// filesystem. Temp files orphaned by a crash mid-put are reaped.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        Self::open_with_fsync(root, true)
    }

    /// [`open`](DiskStore::open) with the durability knob explicit.
    pub fn open_with_fsync(root: impl Into<PathBuf>, fsync: bool) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Self::sweep_orphan_temps(&root);
        let count = Self::scan_count(&root);
        Ok(DiskStore {
            root,
            fsync,
            serial: AtomicU64::new(0),
            count_lock: Mutex::new(()),
            count: AtomicUsize::new(count),
            fsyncs: AtomicU64::new(0),
        })
    }

    /// Remove `.tmp-{pid}-{serial}` files left by a crash between the
    /// temp write and the rename. Harmless to the committed entries
    /// (those already carry their final names) but they leak disk and
    /// would distort `scan_count` if ever miscounted.
    fn sweep_orphan_temps(root: &Path) {
        let Ok(rd) = fs::read_dir(root) else { return };
        for entry in rd.filter_map(|e| e.ok()) {
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    fn scan_count(root: &Path) -> usize {
        fs::read_dir(root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "swc"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Slot `n` of `key`'s probe chain. Slot 0 carries the bare hash
    /// name; colliding keys occupy `-1`, `-2`, … suffixes.
    fn candidate(&self, key: &CacheKey, n: usize) -> PathBuf {
        let hash = key.stable_hash();
        if n == 0 {
            self.root.join(format!("{hash:016x}.swc"))
        } else {
            self.root.join(format!("{hash:016x}-{n}.swc"))
        }
    }

    #[cfg(test)]
    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.candidate(key, 0)
    }

    /// Read just enough of `path` to learn which key it stores.
    /// `Ok(None)` = file exists but is not a decodable entry.
    fn header_key_at(path: &Path) -> io::Result<Option<String>> {
        let mut f = fs::File::open(path)?;
        let mut fixed = [0u8; 8];
        if f.read_exact(&mut fixed).is_err() || &fixed[..4] != MAGIC {
            return Ok(None);
        }
        let key_len = u32::from_be_bytes(fixed[4..8].try_into().expect("4 bytes")) as usize;
        if key_len > 1 << 20 {
            return Ok(None);
        }
        let mut key = vec![0u8; key_len];
        if f.read_exact(&mut key).is_err() {
            return Ok(None);
        }
        Ok(String::from_utf8(key).ok())
    }

    /// Walk `key`'s probe chain; `Held(n)` is the slot whose header key
    /// matches, `Free(n)` the missing slot that ends the chain without a
    /// match — the first one a new entry for `key` may take. Undecodable
    /// files occupy their slot but can never match.
    fn find_slot(&self, key: &CacheKey) -> io::Result<Slot> {
        for n in 0.. {
            let path = self.candidate(key, n);
            match Self::header_key_at(&path) {
                Ok(Some(k)) if k == key.as_str() => return Ok(Slot::Held(n)),
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Slot::Free(n)),
                Err(e) => return Err(e),
            }
        }
        unreachable!("probe chain is bounded by the first missing slot")
    }

    fn bump_fsyncs(&self, n: u64) {
        self.fsyncs.fetch_add(n, Ordering::Relaxed);
    }

    /// Flush the root directory entry itself (makes a just-renamed or
    /// just-removed name durable).
    fn sync_root(&self) -> io::Result<()> {
        fs::File::open(&self.root)?.sync_all()?;
        self.bump_fsyncs(1);
        Ok(())
    }

    fn encode_header(key: &CacheKey, meta: &HeaderMeta) -> Vec<u8> {
        let mut h = Vec::with_capacity(64 + key.as_str().len());
        h.extend_from_slice(MAGIC);
        h.extend_from_slice(&(key.as_str().len() as u32).to_be_bytes());
        h.extend_from_slice(key.as_str().as_bytes());
        h.extend_from_slice(&(meta.content_type.len() as u32).to_be_bytes());
        h.extend_from_slice(meta.content_type.as_bytes());
        h.extend_from_slice(&meta.exec_micros.to_be_bytes());
        match meta.expires_unix {
            Some(e) => {
                h.push(1);
                h.extend_from_slice(&e.to_be_bytes());
            }
            None => {
                h.push(0);
                h.extend_from_slice(&0u64.to_be_bytes());
            }
        }
        h.extend_from_slice(&meta.created_unix.to_be_bytes());
        h
    }

    /// Parse a header; returns the recovered fields and the body offset.
    fn decode_header(bytes: &[u8]) -> Option<(RecoveredEntry, usize)> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*at..*at + n)?;
            *at += n;
            Some(s)
        };
        if take(&mut at, 4)? != MAGIC {
            return None;
        }
        let key_len = u32::from_be_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
        let key = std::str::from_utf8(take(&mut at, key_len)?)
            .ok()?
            .to_string();
        let ct_len = u32::from_be_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
        let content_type = std::str::from_utf8(take(&mut at, ct_len)?)
            .ok()?
            .to_string();
        let exec_micros = u64::from_be_bytes(take(&mut at, 8)?.try_into().ok()?);
        let has_expiry = take(&mut at, 1)?[0];
        let expires_raw = u64::from_be_bytes(take(&mut at, 8)?.try_into().ok()?);
        let created_unix = u64::from_be_bytes(take(&mut at, 8)?.try_into().ok()?);
        let size = (bytes.len() - at) as u64;
        Some((
            RecoveredEntry {
                key: CacheKey::new(key),
                content_type,
                exec_micros,
                expires_unix: (has_expiry == 1).then_some(expires_raw),
                created_unix,
                size,
            },
            at,
        ))
    }
}

impl Store for DiskStore {
    fn put_described(&self, key: &CacheKey, meta: &HeaderMeta, body: &[u8]) -> io::Result<()> {
        let serial = self.serial.fetch_add(1, Ordering::Relaxed) + 1;
        let tmp = self
            .root
            .join(format!(".tmp-{}-{serial}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            // Header and body in one write; a short count (possible, if
            // rare, on a regular file) is finished piecewise.
            let header = Self::encode_header(key, meta);
            let written = f.write_vectored(&[IoSlice::new(&header), IoSlice::new(body)])?;
            if written < header.len() + body.len() {
                f.write_all(&header[written.min(header.len())..])?;
                f.write_all(&body[written.saturating_sub(header.len())..])?;
            }
            f.flush()?;
            // An ack must mean "on the platter", not "in the page
            // cache": sync the data before the rename publishes it.
            if self.fsync {
                f.sync_all()?;
                self.bump_fsyncs(1);
            }
        }
        // Hold the count lock across probe+rename so a racing put of
        // the same key cannot double-increment the count, and so two
        // colliding keys cannot claim one free slot.
        let _guard = self.count_lock.lock();
        // An absent key takes the first free slot, past the occupied ones
        // that belong to colliding or corrupt entries.
        let (slot, existed) = match self.find_slot(key)? {
            Slot::Held(n) => (n, true),
            Slot::Free(n) => (n, false),
        };
        fs::rename(&tmp, self.candidate(key, slot))?;
        if self.fsync {
            self.sync_root()?;
        }
        if !existed {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>> {
        // Walk the probe chain, verifying the decoded header key on
        // every read: a hash collision serves `NotFound` (or the right
        // slot further down the chain), never another key's body.
        for n in 0..usize::MAX {
            let mut f = fs::File::open(self.candidate(key, n))?;
            let mut bytes = Vec::new();
            f.read_to_end(&mut bytes)?;
            let (recovered, body_at) = Self::decode_header(&bytes)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt cache entry"))?;
            if recovered.key == *key {
                bytes.drain(..body_at);
                return Ok(bytes);
            }
        }
        unreachable!("probe chain is bounded by the first missing slot")
    }

    fn delete(&self, key: &CacheKey) -> io::Result<()> {
        let _guard = self.count_lock.lock();
        let Slot::Held(n) = self.find_slot(key)? else {
            return Ok(()); // deleting an absent key is not an error
        };
        fs::remove_file(self.candidate(key, n))?;
        // Keep the probe chain contiguous: move the chain's last member
        // down into the hole so later probes still terminate correctly.
        let mut last = n;
        while self.candidate(key, last + 1).exists() {
            last += 1;
        }
        if last > n {
            fs::rename(self.candidate(key, last), self.candidate(key, n))?;
        }
        if self.fsync {
            self.sync_root()?;
        }
        self.count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    fn contains(&self, key: &CacheKey) -> bool {
        matches!(self.find_slot(key), Ok(Slot::Held(_)))
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            kind: "files",
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            ..StoreMetrics::default()
        }
    }

    fn recover(&self) -> Vec<RecoveredEntry> {
        let Ok(rd) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in rd.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "swc") {
                continue;
            }
            // Corrupt or foreign files are skipped, not fatal: a warm
            // restart must never be worse than a cold one.
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Some((recovered, _)) = Self::decode_header(&bytes) {
                out.push(recovered);
            }
        }
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

/// In-memory store for tests and simulation.
#[derive(Default)]
pub struct MemStore {
    map: Mutex<HashMap<CacheKey, Vec<u8>>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for MemStore {
    fn put_described(&self, key: &CacheKey, _meta: &HeaderMeta, body: &[u8]) -> io::Result<()> {
        self.map.lock().insert(key.clone(), body.to_vec());
        Ok(())
    }

    fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>> {
        self.map
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no body for {key}")))
    }

    fn delete(&self, key: &CacheKey) -> io::Result<()> {
        self.map.lock().remove(key);
        Ok(())
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.map.lock().contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.lock().len()
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            kind: "mem",
            ..StoreMetrics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "swala-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn exercise(store: &dyn Store) {
        let k = CacheKey::new("/cgi-bin/adl?id=1&ms=40");
        assert!(!store.contains(&k));
        assert!(store.get(&k).is_err());
        store.put(&k, b"result-body").unwrap();
        assert!(store.contains(&k));
        assert_eq!(store.get(&k).unwrap(), b"result-body");
        assert_eq!(store.len(), 1);
        // Overwrite.
        store.put(&k, b"v2").unwrap();
        assert_eq!(store.get(&k).unwrap(), b"v2");
        assert_eq!(store.len(), 1);
        // Delete is idempotent.
        store.delete(&k).unwrap();
        store.delete(&k).unwrap();
        assert!(!store.contains(&k));
        assert!(store.is_empty());
    }

    #[test]
    fn mem_store_semantics() {
        exercise(&MemStore::new());
    }

    #[test]
    fn disk_store_semantics() {
        let root = tmp_root("sem");
        exercise(&DiskStore::open(&root).unwrap());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn disk_store_persists_across_reopen() {
        let root = tmp_root("reopen");
        let k = CacheKey::new("/persist?x=1");
        {
            let s = DiskStore::open(&root).unwrap();
            s.put(&k, b"durable").unwrap();
        }
        let s2 = DiskStore::open(&root).unwrap();
        assert_eq!(s2.get(&k).unwrap(), b"durable");
        assert_eq!(s2.len(), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn disk_store_distinct_keys_distinct_files() {
        let root = tmp_root("distinct");
        let s = DiskStore::open(&root).unwrap();
        for i in 0..20 {
            s.put(
                &CacheKey::new(format!("/k?i={i}")),
                format!("body{i}").as_bytes(),
            )
            .unwrap();
        }
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(
                s.get(&CacheKey::new(format!("/k?i={i}"))).unwrap(),
                format!("body{i}").as_bytes()
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn disk_store_large_body() {
        let root = tmp_root("large");
        let s = DiskStore::open(&root).unwrap();
        let k = CacheKey::new("/big");
        let body: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        s.put(&k, &body).unwrap();
        assert_eq!(s.get(&k).unwrap(), body);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn concurrent_disk_access() {
        use std::sync::Arc;
        let root = tmp_root("conc");
        let s = Arc::new(DiskStore::open(&root).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let k = CacheKey::new(format!("/t{t}?i={i}"));
                    s.put(&k, format!("{t}-{i}").as_bytes()).unwrap();
                    assert_eq!(s.get(&k).unwrap(), format!("{t}-{i}").as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 200);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn recovery_roundtrips_metadata() {
        let root = tmp_root("recover");
        {
            let s = DiskStore::open(&root).unwrap();
            s.put_described(
                &CacheKey::new("/cgi-bin/a?x=1"),
                &HeaderMeta {
                    content_type: "text/html".into(),
                    exec_micros: 1_600_000,
                    expires_unix: Some(9_999_999_999),
                    created_unix: 901_627_200,
                },
                b"body-a",
            )
            .unwrap();
            s.put_described(
                &CacheKey::new("/cgi-bin/b"),
                &HeaderMeta {
                    content_type: "application/pdf".into(),
                    exec_micros: 50_000,
                    expires_unix: None,
                    created_unix: 901_627_201,
                },
                b"body-bb",
            )
            .unwrap();
        }
        let s = DiskStore::open(&root).unwrap();
        let recovered = s.recover();
        assert_eq!(recovered.len(), 2);
        let a = &recovered[0];
        assert_eq!(a.key.as_str(), "/cgi-bin/a?x=1");
        assert_eq!(a.content_type, "text/html");
        assert_eq!(a.exec_micros, 1_600_000);
        assert_eq!(a.expires_unix, Some(9_999_999_999));
        assert_eq!(a.size, 6);
        let b = &recovered[1];
        assert_eq!(b.key.as_str(), "/cgi-bin/b");
        assert_eq!(b.expires_unix, None);
        assert_eq!(b.size, 7);
        // Bodies still readable after recovery.
        assert_eq!(s.get(&a.key).unwrap(), b"body-a");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn recovery_skips_corrupt_files() {
        let root = tmp_root("corrupt");
        let s = DiskStore::open(&root).unwrap();
        s.put(&CacheKey::new("/good"), b"fine").unwrap();
        fs::write(root.join("deadbeefdeadbeef.swc"), b"not a header").unwrap();
        fs::write(root.join("unrelated.txt"), b"ignore me").unwrap();
        let recovered = s.recover();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].key.as_str(), "/good");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_body_read_is_invalid_data() {
        let root = tmp_root("badread");
        let s = DiskStore::open(&root).unwrap();
        let k = CacheKey::new("/x");
        fs::write(s.path_for(&k), b"garbage").unwrap();
        let err = s.get(&k).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn disk_len_tracks_mutations_without_scanning() {
        let root = tmp_root("lencount");
        // Foreign files present before open are not counted.
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("unrelated.txt"), b"ignore").unwrap();
        let s = DiskStore::open(&root).unwrap();
        assert_eq!(s.len(), 0);
        let a = CacheKey::new("/a");
        let b = CacheKey::new("/b");
        s.put(&a, b"1").unwrap();
        s.put(&b, b"2").unwrap();
        assert_eq!(s.len(), 2);
        // Overwrite does not change the count.
        s.put(&a, b"1v2").unwrap();
        assert_eq!(s.len(), 2);
        // Deleting an absent key does not underflow.
        s.delete(&CacheKey::new("/missing")).unwrap();
        assert_eq!(s.len(), 2);
        s.delete(&a).unwrap();
        s.delete(&a).unwrap();
        assert_eq!(s.len(), 1);
        // Reopen re-establishes the count from disk.
        drop(s);
        let s2 = DiskStore::open(&root).unwrap();
        assert_eq!(s2.len(), 1);
        let _ = fs::remove_dir_all(root);
    }

    /// Two distinct keys with the same 64-bit FNV-1a hash (verified:
    /// both map to 0x4eac0c95540867e4). Any change to `stable_hash`
    /// invalidates the pair and this helper's assertion catches it.
    fn colliding_keys() -> (CacheKey, CacheKey) {
        let a = CacheKey::new("8yn0iYCKYHlIj4-BwPqk");
        let b = CacheKey::new("GReLUrM4wMqfg9yzV3KQ");
        assert_eq!(a.stable_hash(), b.stable_hash(), "collision pair broke");
        (a, b)
    }

    #[test]
    fn colliding_keys_do_not_clobber_each_other() {
        // Regression: files are named by the key's 64-bit hash, and the
        // old get() never compared the decoded header key against the
        // requested one — two colliding keys overwrote each other's file
        // and served the wrong body.
        let root = tmp_root("collide");
        let s = DiskStore::open(&root).unwrap();
        let (a, b) = colliding_keys();
        s.put(&a, b"body-of-a").unwrap();
        // Before b is written, a read of b must be NotFound, not a's body.
        assert_eq!(s.get(&b).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert!(!s.contains(&b));
        s.put(&b, b"body-of-b").unwrap();
        assert_eq!(s.get(&a).unwrap(), b"body-of-a");
        assert_eq!(s.get(&b).unwrap(), b"body-of-b");
        assert_eq!(s.len(), 2);
        // Overwrites land in the right slot.
        s.put(&a, b"body-of-a-v2").unwrap();
        assert_eq!(s.get(&a).unwrap(), b"body-of-a-v2");
        assert_eq!(s.get(&b).unwrap(), b"body-of-b");
        assert_eq!(s.len(), 2);
        // Both survive recovery with their own keys.
        let recovered = s.recover();
        assert_eq!(recovered.len(), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn deleting_a_chain_member_keeps_the_rest_reachable() {
        let root = tmp_root("collide-del");
        let s = DiskStore::open(&root).unwrap();
        let (a, b) = colliding_keys();
        s.put(&a, b"body-of-a").unwrap();
        s.put(&b, b"body-of-b").unwrap();
        // Deleting the chain head moves the tail down into the hole, so
        // the survivor stays reachable (probes stop at a missing slot).
        s.delete(&a).unwrap();
        assert_eq!(s.len(), 1);
        assert!(!s.contains(&a));
        assert_eq!(s.get(&b).unwrap(), b"body-of-b");
        // And across a reopen.
        drop(s);
        let s = DiskStore::open(&root).unwrap();
        assert_eq!(s.get(&b).unwrap(), b"body-of-b");
        assert_eq!(s.len(), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn open_sweeps_orphaned_temp_files() {
        let root = tmp_root("orphans");
        fs::create_dir_all(&root).unwrap();
        // A crash mid-put leaves the temp file behind; a foreign pid's
        // orphan counts too.
        fs::write(root.join(".tmp-12345-7"), b"half-written").unwrap();
        fs::write(root.join(format!(".tmp-{}-1", std::process::id())), b"ours").unwrap();
        let s = DiskStore::open(&root).unwrap();
        assert_eq!(s.len(), 0);
        assert!(!root.join(".tmp-12345-7").exists(), "orphan reaped");
        // A fresh put reuses the serial space without tripping over
        // the (now removed) leftovers.
        s.put(&CacheKey::new("/x"), b"y").unwrap();
        assert_eq!(s.get(&CacheKey::new("/x")).unwrap(), b"y");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fsync_knob_counts_durability_work() {
        let root = tmp_root("fsync");
        let s = DiskStore::open_with_fsync(&root, true).unwrap();
        s.put(&CacheKey::new("/durable"), b"x").unwrap();
        // One data sync + one directory sync per put.
        assert_eq!(s.metrics().fsyncs, 2);
        assert_eq!(s.metrics().kind, "files");
        let off = DiskStore::open_with_fsync(tmp_root("nofsync"), false).unwrap();
        off.put(&CacheKey::new("/fast"), b"x").unwrap();
        assert_eq!(off.metrics().fsyncs, 0);
        let _ = fs::remove_dir_all(root);
        let _ = fs::remove_dir_all(off.root());
    }

    #[test]
    fn mem_store_has_no_recovery() {
        let s = MemStore::new();
        s.put(&CacheKey::new("/x"), b"y").unwrap();
        assert!(s.recover().is_empty());
    }

    #[test]
    fn recovered_entry_into_meta() {
        let r = RecoveredEntry {
            key: CacheKey::new("/k"),
            content_type: "t".into(),
            exec_micros: 5,
            expires_unix: None,
            created_unix: 7,
            size: 11,
        };
        let m = r.into_meta(NodeId(3), 42);
        assert_eq!(m.owner, NodeId(3));
        assert_eq!(m.size, 11);
        assert_eq!(m.insert_seq, 42);
        assert_eq!(m.hits, 0);
    }
}
