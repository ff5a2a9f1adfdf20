//! The body tier: a node's body store, the memory tier in front of it
//! ([`MemCache`]) and the timing of every store call, owned by the
//! [`CacheManager`](crate::CacheManager).
//!
//! **The store holds exactly the bodies of the local table's entries,
//! and the memory tier those of them that were read since their put**
//! (as many as its budget keeps). A body comes in with its entry
//! (`Bodies::put`, to the store alone), and enters the memory tier the
//! first time a local hit or a peer's fetch reads it from the store: a
//! result nobody asks for again never holds memory. Every removal from
//! the local table — eviction, invalidation, expiry, a peer's delete
//! notice naming this node, the heal after a failed read — calls
//! `Bodies::remove` once. So a warm restart brings back only live
//! entries, and memory never serves a body whose entry is gone, nor one
//! older than the store's.

use crate::digest::Digest;
use crate::entry::EntryMeta;
use crate::key::CacheKey;
use crate::memcache::MemCache;
use crate::stats::CacheStats;
use crate::store::{RecoveredEntry, Store, StoreMetrics};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use swala_obs::{Histogram, MetricsRegistry, Stage, Trace};

/// Which tier served a local body (telemetry's `local-mem` / `local-disk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyTier {
    /// Served from the in-memory body tier — zero syscalls.
    Memory,
    /// Read from the body store (tier disabled or cold).
    Disk,
}

/// The timed store calls, by index into [`Bodies`]' histograms.
const OPS: [&str; 3] = ["put", "get", "delete"];
const PUT: usize = 0;
const GET: usize = 1;
const DELETE: usize = 2;

/// One node's cached bodies: the store, the memory tier over it, and how
/// long each store call took.
pub struct Bodies {
    /// Shared with the registry's scrape-time gauges.
    store: Arc<dyn Store>,
    /// `None` when disabled (`mem_cache_bytes 0`).
    mem: Option<MemCache>,
    ops: [Arc<Histogram>; 3],
    stats: Arc<CacheStats>,
}

impl Bodies {
    /// Over `store`, with a `mem_bytes` memory tier (0: none).
    pub(crate) fn new(store: Box<dyn Store>, mem_bytes: usize, stats: Arc<CacheStats>) -> Bodies {
        Bodies {
            store: store.into(),
            mem: (mem_bytes > 0).then(|| MemCache::new(mem_bytes)),
            ops: std::array::from_fn(|_| Arc::new(Histogram::new())),
            stats,
        }
    }

    /// Run one store call, recording its duration under `op`.
    fn timed<T>(&self, op: usize, call: impl FnOnce(&dyn Store) -> T) -> T {
        let t0 = Instant::now();
        let out = call(&*self.store);
        self.ops[op].record_duration(t0.elapsed());
        out
    }

    /// Count a memory-tier admission that shared a resident body.
    fn note_admitted(&self, shared: bool) {
        if shared {
            CacheStats::bump(&self.stats.mem_dedup_hits);
        }
    }

    /// Store `body` with a header a warm restart rebuilds `meta` from.
    /// The memory tier takes it at its first read; until then it drops
    /// any older copy of the key.
    pub(crate) fn put(&self, meta: &EntryMeta, body: &[u8]) -> io::Result<()> {
        let put = self.timed(PUT, |s| s.put_entry(meta, &Digest::of(body), body));
        if let Some(mem) = &self.mem {
            mem.remove(&meta.key);
        }
        put
    }

    /// `key`'s body from the memory tier, else the store (promoting it,
    /// under the digest the store recorded where it has one); `None` if
    /// the store read failed. Spans go on `trace`.
    /// The memory-tier span starts at `started`, the instant the
    /// caller's previous span ended.
    pub(crate) fn get(
        &self,
        key: &CacheKey,
        trace: &mut Trace,
        started: Option<Instant>,
    ) -> Option<(Arc<[u8]>, BodyTier)> {
        let mut generation = None;
        if let Some(mem) = &self.mem {
            let cached = mem.get_or_generation(key);
            trace.end_span(Stage::MemTier, started);
            match cached {
                Ok(body) => {
                    CacheStats::bump(&self.stats.mem_hits);
                    return Some((body, BodyTier::Memory));
                }
                Err(seen) => generation = Some(seen),
            }
        }
        CacheStats::bump(&self.stats.store_reads);
        let t0 = trace.start_span();
        let read = self.timed(GET, |s| s.get_digested(key));
        trace.end_span(Stage::StoreRead, t0);
        let (body, digest) = read.ok()?;
        let body: Arc<[u8]> = body.into();
        if let (Some(mem), Some(generation)) = (&self.mem, generation) {
            CacheStats::bump(&self.stats.mem_misses);
            let digest = digest.unwrap_or_else(|| Digest::of(&body));
            self.note_admitted(mem.promote(key, digest, Arc::clone(&body), generation));
        }
        Some((body, BodyTier::Disk))
    }

    /// Drop `key`'s body from the store and the memory tier.
    pub(crate) fn remove(&self, key: &CacheKey) {
        let _ = self.timed(DELETE, |s| s.delete(key));
        if let Some(mem) = &self.mem {
            mem.remove(key);
        }
    }

    /// The store's self-describing entries, for a warm restart.
    pub(crate) fn recover(&self) -> Vec<RecoveredEntry> {
        self.store.recover()
    }

    /// Fill the memory tier with `entries`' bodies after a warm restart,
    /// so the first hits match the pre-crash steady state. Stops
    /// admitting once the tier is full rather than churning its LRU.
    pub(crate) fn warm(&self, entries: &[EntryMeta]) {
        let Some(mem) = &self.mem else { return };
        for meta in entries {
            // Shared bodies cost nothing extra, so the size guard is
            // conservative — at worst it skips a dedup freebie.
            if mem.bytes() + meta.size as usize > mem.budget() {
                continue;
            }
            if let Ok((body, digest)) = self.timed(GET, |s| s.get_digested(&meta.key)) {
                let digest = digest.unwrap_or_else(|| Digest::of(&body));
                self.note_admitted(mem.insert(&meta.key, digest, body.into()));
            }
        }
    }

    /// Bytes currently held by the memory tier.
    pub fn mem_bytes(&self) -> usize {
        self.mem.as_ref().map_or(0, MemCache::bytes)
    }

    /// Number of bodies in the store.
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// The store's self-reported metrics.
    pub fn metrics(&self) -> StoreMetrics {
        self.store.metrics()
    }

    /// How long the store's `put`, `get` and `delete` calls took.
    pub fn op_durations(&self) -> impl Iterator<Item = (&'static str, &Arc<Histogram>)> {
        OPS.into_iter().zip(&self.ops)
    }

    /// Register the memory tier's resident bytes (when it is on), the
    /// store's metrics read at scrape time, and the timed store calls.
    pub fn register_into(&self, reg: &MetricsRegistry) {
        if let Some(mem) = &self.mem {
            let help = "Bytes resident in the in-memory body tier";
            reg.register_gauge("swala_cache_mem_bytes", help, mem.bytes_gauge());
        }
        type Field = fn(StoreMetrics) -> u64;
        let gauges: [(&str, &str, Field); 3] = [
            (
                "swala_store_file_bytes",
                "Length of the body store's data file",
                |m| m.file_bytes,
            ),
            (
                "swala_store_live_bytes",
                "Bytes of extents holding live records in the body store",
                |m| m.live_bytes,
            ),
            (
                "swala_store_free_bytes",
                "Bytes of free extents inside the data file, awaiting reuse",
                |m| m.free_bytes,
            ),
        ];
        for (name, help, field) in gauges {
            let store = Arc::clone(&self.store);
            reg.register_gauge_fn(name, help, move || field(store.metrics()) as i64);
        }
        let help = "The body store's implementation, as the kind label";
        reg.register_gauge_fn_labeled("swala_store_info", help, "kind", self.metrics().kind, || 1);
        let store = Arc::clone(&self.store);
        let help = "Durability syncs issued by the body store";
        reg.register_counter("swala_store_fsyncs", help, move || store.metrics().fsyncs);
        for (op, hist) in self.op_durations() {
            reg.register_histogram_labeled(
                "swala_store_op_duration_microseconds",
                "Duration of body-store calls made by the cache manager",
                "op",
                op,
                Arc::clone(hist),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::store::MemStore;

    fn bodies(mem_bytes: usize) -> Bodies {
        Bodies::new(
            Box::new(MemStore::new()),
            mem_bytes,
            Arc::new(CacheStats::new()),
        )
    }

    fn meta(key: &str, size: u64) -> EntryMeta {
        EntryMeta::new(CacheKey::new(key), NodeId(0), size, "t", 1, None, 1)
    }

    #[test]
    fn a_removed_body_leaves_the_store_and_the_tier() {
        let b = bodies(1 << 10);
        let m = meta("/cgi-bin/a", 4);
        b.put(&m, b"body").unwrap();
        assert_eq!(
            (b.stored(), b.mem_bytes()),
            (1, 0),
            "the put holds no memory"
        );
        let tier = |b: &Bodies| {
            b.get(&m.key, &mut Trace::disabled(), None)
                .map(|(_, tier)| tier)
        };
        assert_eq!(tier(&b), Some(BodyTier::Disk));
        assert_eq!(
            (b.stored(), b.mem_bytes()),
            (1, 4),
            "promoted at its first read"
        );
        assert_eq!(tier(&b), Some(BodyTier::Memory));
        b.remove(&m.key);
        assert_eq!((b.stored(), b.mem_bytes()), (0, 0));
        assert!(b.get(&m.key, &mut Trace::disabled(), None).is_none());
        let counts: Vec<u64> = b.op_durations().map(|(_, h)| h.snapshot().count).collect();
        assert_eq!(counts, [1, 2, 1], "one put, two store reads, one delete");
    }

    #[test]
    fn register_into_serves_the_six_series() {
        let reg = MetricsRegistry::new();
        bodies(1 << 10).register_into(&reg);
        let text = reg.render();
        for name in [
            "swala_cache_mem_bytes",
            "swala_store_file_bytes",
            "swala_store_live_bytes",
            "swala_store_free_bytes",
            "swala_store_fsyncs",
            "swala_store_op_duration_microseconds",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "{name}: {text}");
        }
        // No memory tier, no resident-bytes gauge.
        let reg = MetricsRegistry::new();
        bodies(0).register_into(&reg);
        assert!(!reg.render().contains("swala_cache_mem_bytes"));
    }
}
