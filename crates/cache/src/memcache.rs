//! Bounded in-memory body tier layered over the [`Store`](crate::store::Store).
//!
//! The paper stores every cached body as a file and leans on the OS page
//! cache to make repeat fetches cheap. That still costs an `open` +
//! `read` + allocation per hit. This tier keeps the hottest bodies in
//! memory as `Arc<[u8]>` so a warm local hit performs **zero syscalls
//! and zero copies**: the response holds a clone of the `Arc`, not a
//! duplicate buffer.
//!
//! Bodies are keyed by their content [`Digest`]: keys map to digests and
//! digests map (refcounted) to the actual bytes, so N keys sharing one
//! body hold a single allocation and the byte budget counts it once.
//! The digest is not collision-resistant, so a key shares a resident
//! body only when the bytes are equal too; a key whose body merely
//! hashes alike is not admitted and is served from the store.
//! [`MemCache::insert`] reports when an insert deduplicated against a
//! resident body, feeding the `mem_dedup_hits` counter.
//!
//! The tier is strictly a read accelerator — the disk store stays the
//! source of truth. [`Bodies`](crate::bodies::Bodies) owns both: a body
//! enters the tier at its first read from the store (a *promotion*), and
//! leaves it when its entry leaves the local table or a put replaces it.
//! A lookup consults the directory before this tier, so a body can
//! never be served after its entry is gone.
//!
//! Every [`remove`](MemCache::remove) bumps a removal *generation*. A
//! promotion reads it before its store read and is admitted only if it
//! is unchanged ([`promote`](MemCache::promote)), so bytes read before
//! an invalidate and re-insert never land in the tier after them.
//!
//! Eviction is LRU over a *byte* budget (the directory's entry-count
//! capacity is about metadata; body bytes are what memory pressure is
//! made of). Evicting a key only releases bytes once no other key
//! references the same body. Bodies larger than the whole budget are
//! simply not admitted — they stay disk-only rather than wiping the
//! tier (unless the bytes are already resident via another key, in
//! which case sharing them is free).

use crate::churn::reserve_one;
use crate::digest::Digest;
use crate::key::CacheKey;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use swala_obs::Gauge;

/// A bounded-bytes LRU map of cache bodies, deduplicated by digest.
pub struct MemCache {
    budget: usize,
    /// Resident bytes — a shared [`Gauge`] rather than a plain field so
    /// the metrics registry reads the live value and debug builds catch
    /// any double-decrement. Only mutated under `inner`'s lock, so the
    /// gauge is always consistent with `bodies`. Counts each unique
    /// body once, however many keys share it.
    bytes: Arc<Gauge>,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Key → (digest of its body, current recency stamp).
    entries: HashMap<CacheKey, (Digest, u64)>,
    /// Digest → (shared body, number of keys referencing it).
    bodies: HashMap<Digest, (Arc<[u8]>, usize)>,
    /// Recency order: lowest stamp = least recently used.
    recency: BTreeMap<u64, CacheKey>,
    /// Monotonic stamp source.
    tick: u64,
    /// Removal generation: bumped by every `remove`.
    generation: u64,
}

impl Inner {
    /// Drop `key`'s mapping (if any) and release its body reference.
    /// Returns the bytes freed (0 while other keys still share the body).
    fn unlink(&mut self, key: &CacheKey) -> u64 {
        let Some((digest, stamp)) = self.entries.remove(key) else {
            return 0;
        };
        self.recency.remove(&stamp);
        let (_, refs) = self.bodies.get_mut(&digest).expect("entry has a body");
        *refs -= 1;
        if *refs == 0 {
            let (body, _) = self.bodies.remove(&digest).expect("just seen");
            body.len() as u64
        } else {
            0
        }
    }
}

impl MemCache {
    /// A tier holding at most `budget` body bytes.
    pub fn new(budget: usize) -> MemCache {
        MemCache {
            budget,
            bytes: Arc::new(Gauge::new()),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bodies: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                generation: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Fetch a body, marking its key most recently used.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        self.get_or_generation(key).ok()
    }

    /// [`get`](Self::get), or on a miss the removal generation to hand
    /// [`promote`](Self::promote) once the body is read from the store.
    pub fn get_or_generation(&self, key: &CacheKey) -> Result<Arc<[u8]>, u64> {
        let mut inner = self.inner.lock();
        let tick = inner.tick + 1;
        inner.tick = tick;
        let generation = inner.generation;
        let Some((digest, stamp)) = inner.entries.get_mut(key) else {
            return Err(generation);
        };
        let digest = *digest;
        let old = std::mem::replace(stamp, tick);
        inner.recency.remove(&old);
        inner.recency.insert(tick, key.clone());
        let (body, _) = inner.bodies.get(&digest).expect("entry has a body");
        Ok(Arc::clone(body))
    }

    /// Insert (or replace) a body, evicting least-recently-used keys
    /// until the budget holds. `digest` must be the digest of `body`
    /// (the caller has it from the write path; recomputing here would
    /// hash every populate twice).
    ///
    /// Returns `true` when the bytes were already resident via another
    /// key — a dedup hit: the insert cost an index entry, not a copy.
    /// When another body with this digest is resident, `key` is not
    /// admitted.
    pub fn insert(&self, key: &CacheKey, digest: Digest, body: Arc<[u8]>) -> bool {
        self.admit(&mut self.inner.lock(), key, digest, body)
    }

    /// [`insert`](Self::insert) a body read from the store, unless a key
    /// was removed since [`get_or_generation`](Self::get_or_generation)
    /// returned `generation`: the read may then predate an invalidate
    /// and re-insert, and the tier must never hold a body older than
    /// the store's. Returns `true` on a dedup hit, as `insert` does.
    pub fn promote(
        &self,
        key: &CacheKey,
        digest: Digest,
        body: Arc<[u8]>,
        generation: u64,
    ) -> bool {
        let mut inner = self.inner.lock();
        inner.generation == generation && self.admit(&mut inner, key, digest, body)
    }

    fn admit(&self, inner: &mut Inner, key: &CacheKey, digest: Digest, body: Arc<[u8]>) -> bool {
        // Unlink any previous mapping first so a same-key replace
        // neither double-counts bytes nor reads as a dedup hit.
        let freed = inner.unlink(key);
        if freed > 0 {
            self.bytes.sub(freed);
        }
        let shared = match inner.bodies.get(&digest) {
            Some((resident, _)) if resident[..] != body[..] => return false,
            resident => resident.is_some(),
        };
        let needed = if shared { 0 } else { body.len() };
        if needed > self.budget {
            return false;
        }
        while self.bytes.get() as usize + needed > self.budget {
            let Some((&oldest, _)) = inner.recency.iter().next() else {
                break;
            };
            let victim = inner.recency[&oldest].clone();
            let freed = inner.unlink(&victim);
            if freed > 0 {
                self.bytes.sub(freed);
            }
        }
        let tick = inner.tick + 1;
        inner.tick = tick;
        match inner.bodies.get_mut(&digest) {
            Some((_, refs)) => *refs += 1,
            None => {
                self.bytes.add(body.len() as u64);
                reserve_one(&mut inner.bodies);
                inner.bodies.insert(digest, (body, 1));
            }
        }
        reserve_one(&mut inner.entries);
        inner.entries.insert(key.clone(), (digest, tick));
        inner.recency.insert(tick, key.clone());
        shared
    }

    /// Drop a key (entry deleted/evicted/expired in the directory). The
    /// body itself stays resident while other keys still share it.
    pub fn remove(&self, key: &CacheKey) {
        let mut inner = self.inner.lock();
        inner.generation += 1;
        let freed = inner.unlink(key);
        if freed > 0 {
            self.bytes.sub(freed);
        }
    }

    /// Bytes currently held (lock-free: reads the gauge). Unique body
    /// bytes — shared bodies count once.
    pub fn bytes(&self) -> usize {
        self.bytes.get().max(0) as usize
    }

    /// Shared handle on the resident-bytes gauge, for registry hookup.
    pub fn bytes_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> CacheKey {
        CacheKey::new(s)
    }

    fn body(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    fn insert(m: &MemCache, k: &CacheKey, b: Arc<[u8]>) -> bool {
        m.insert(k, Digest::of(&b), b)
    }

    /// Keys mapped.
    fn keys(m: &MemCache) -> usize {
        m.inner.lock().entries.len()
    }

    /// Unique bodies resident.
    fn bodies(m: &MemCache) -> usize {
        m.inner.lock().bodies.len()
    }

    #[test]
    fn insert_get_remove() {
        let m = MemCache::new(100);
        let k = key("/a");
        assert!(m.get(&k).is_none());
        insert(&m, &k, body("hello"));
        assert_eq!(m.bytes(), 5);
        assert_eq!(&m.get(&k).unwrap()[..], b"hello");
        m.remove(&k);
        assert!(m.get(&k).is_none());
        assert_eq!(m.bytes(), 0);
        // Removing again is harmless.
        m.remove(&k);
        assert_eq!(keys(&m), 0);
    }

    #[test]
    fn get_returns_same_allocation() {
        let m = MemCache::new(100);
        let k = key("/a");
        let b = body("shared");
        insert(&m, &k, Arc::clone(&b));
        assert!(Arc::ptr_eq(&m.get(&k).unwrap(), &b));
    }

    #[test]
    fn evicts_lru_to_budget() {
        let m = MemCache::new(10);
        insert(&m, &key("/a"), body("aaaa")); // 4
        insert(&m, &key("/b"), body("bbbb")); // 8
                                              // Touch /a so /b becomes the LRU victim.
        m.get(&key("/a"));
        insert(&m, &key("/c"), body("cccc")); // would be 12 → evict /b
        assert!(m.get(&key("/b")).is_none());
        assert!(m.get(&key("/a")).is_some());
        assert!(m.get(&key("/c")).is_some());
        assert_eq!(m.bytes(), 8);
    }

    #[test]
    fn replace_updates_bytes() {
        let m = MemCache::new(10);
        let k = key("/a");
        insert(&m, &k, body("aaaa"));
        insert(&m, &k, body("bb"));
        assert_eq!(m.bytes(), 2);
        assert_eq!(keys(&m), 1);
        assert_eq!(&m.get(&k).unwrap()[..], b"bb");
    }

    #[test]
    fn oversized_bodies_are_not_admitted() {
        let m = MemCache::new(4);
        insert(&m, &key("/small"), body("ok"));
        insert(&m, &key("/big"), body("too large for tier"));
        assert!(m.get(&key("/big")).is_none());
        // The resident small entry survives the rejected insert.
        assert!(m.get(&key("/small")).is_some());
        assert_eq!(m.bytes(), 2);
    }

    #[test]
    fn bytes_never_exceed_budget() {
        let m = MemCache::new(32);
        for i in 0..100 {
            insert(&m, &key(&format!("/k{i}")), body(&"x".repeat(1 + i % 9)));
            assert!(m.bytes() <= 32, "bytes {} over budget", m.bytes());
        }
    }

    #[test]
    fn shared_bodies_count_once_and_report_dedup() {
        let m = MemCache::new(100);
        let b = body("the one body");
        assert!(!insert(&m, &key("/a"), Arc::clone(&b)), "first copy is new");
        for i in 0..9 {
            assert!(
                insert(&m, &key(&format!("/dup{i}")), Arc::clone(&b)),
                "copy {i} should dedup"
            );
        }
        assert_eq!(keys(&m), 10);
        assert_eq!(bodies(&m), 1);
        assert_eq!(m.bytes(), b.len());
        // All keys serve the same allocation.
        assert!(Arc::ptr_eq(&m.get(&key("/a")).unwrap(), &b));
        assert!(Arc::ptr_eq(&m.get(&key("/dup3")).unwrap(), &b));
    }

    #[test]
    fn body_survives_until_last_sharer_leaves() {
        let m = MemCache::new(100);
        let b = body("shared");
        insert(&m, &key("/a"), Arc::clone(&b));
        insert(&m, &key("/b"), Arc::clone(&b));
        m.remove(&key("/a"));
        assert_eq!(m.bytes(), b.len(), "body still referenced by /b");
        assert!(m.get(&key("/b")).is_some());
        m.remove(&key("/b"));
        assert_eq!(m.bytes(), 0);
        assert_eq!(bodies(&m), 0);
    }

    #[test]
    fn same_key_refresh_is_not_a_dedup_hit() {
        let m = MemCache::new(100);
        let b = body("stable");
        insert(&m, &key("/a"), Arc::clone(&b));
        // Re-populating the same key with the same bytes (store → mem
        // refill) must not inflate the dedup counter.
        assert!(!insert(&m, &key("/a"), Arc::clone(&b)));
        assert_eq!(keys(&m), 1);
        assert_eq!(m.bytes(), b.len());
    }

    #[test]
    fn oversized_body_admitted_when_already_resident() {
        let m = MemCache::new(8);
        let b = body("12345678"); // exactly the budget
        insert(&m, &key("/a"), Arc::clone(&b));
        // A second key sharing those bytes needs zero new bytes, so it
        // is admitted even though len == budget leaves no headroom.
        assert!(insert(&m, &key("/b"), Arc::clone(&b)));
        assert_eq!(keys(&m), 2);
        assert_eq!(m.bytes(), 8);
    }

    /// Two bodies under one digest (a collision, forged here): each key
    /// gets its own bytes or nothing, never the other key's.
    #[test]
    fn a_digest_collision_never_shares_another_keys_bytes() {
        let m = MemCache::new(100);
        let digest = Digest::of(b"first");
        assert!(!m.insert(&key("/a"), digest, body("first")));
        assert!(!m.insert(&key("/b"), digest, body("second")));
        assert_eq!(&m.get(&key("/a")).unwrap()[..], b"first");
        assert!(m.get(&key("/b")).is_none(), "served another key's bytes");
        assert_eq!(m.bytes(), 5);
        // The other order: /b's bytes resident, /a refused.
        m.remove(&key("/a"));
        assert!(!m.insert(&key("/b"), digest, body("second")));
        assert!(!m.insert(&key("/a"), digest, body("first")));
        assert_eq!(&m.get(&key("/b")).unwrap()[..], b"second");
        assert!(m.get(&key("/a")).is_none());
    }

    #[test]
    fn evicting_a_sharer_keeps_bytes_for_the_rest() {
        let m = MemCache::new(10);
        let b = body("aaaaaaaa"); // 8 bytes, shared by two keys
        insert(&m, &key("/a"), Arc::clone(&b));
        insert(&m, &key("/b"), Arc::clone(&b));
        // Inserting 4 fresh bytes must evict keys until they fit; the
        // first eviction (/a) frees nothing because /b still holds the
        // body, so /b goes too.
        insert(&m, &key("/c"), body("cccc"));
        assert!(m.get(&key("/c")).is_some());
        assert!(m.bytes() <= 10);
    }
}
