//! Cache statistics counters.
//!
//! Counts every event class §4–5 of the paper discusses, including the
//! weak-consistency anomalies it names: *false misses* (a request is
//! re-executed although a usable cached copy exists or is being produced)
//! and *false hits* (the directory pointed at a remote entry that turned
//! out to be deleted).
//!
//! The struct, its snapshot, `snapshot()`, Display plumbing and the
//! metrics-registry hookup are all generated from one field list by
//! [`swala_obs::counters!`], so a new counter cannot be added here but
//! forgotten downstream. Gauges (values that go down, like the memory
//! tier's resident bytes) do **not** belong in this struct — they live
//! in [`swala_obs::Gauge`]s owned by the component they measure.

use std::fmt;

swala_obs::counters! {
    /// Lock-free event counters, shared across request threads.
    pub struct CacheStats => StatsSnapshot {
        /// Directory lookups for cacheable requests.
        lookups: "Directory lookups for cacheable requests",
        /// Hits served from the local store.
        local_hits: "Hits served from the local store",
        /// Hits served by fetching from a remote node's store.
        remote_hits: "Hits served by fetching from a remote node's store",
        /// Cacheable requests that found no directory entry.
        misses: "Cacheable requests that found no directory entry",
        /// Re-executions that a perfectly consistent system would have
        /// avoided (§4.2's false misses).
        false_misses: "Re-executions a consistent system would have avoided (false misses)",
        /// Remote fetches answered "gone" — §4.2's false hits; the request
        /// falls back to local execution.
        false_hits: "Remote fetches answered gone (false hits)",
        /// Requests the rules classified uncacheable.
        uncacheable: "Requests the rules classified uncacheable",
        /// Successful cache insertions.
        inserts: "Successful cache insertions",
        /// Results discarded because they ran under the min-exec threshold
        /// or exceed [`MAX_CACHED_RESULT`](crate::MAX_CACHED_RESULT).
        discards: "Results discarded under the min-exec threshold or too large to cache",
        /// Executions abandoned because the CGI failed or returned non-200.
        aborts: "Executions abandoned (CGI failure or non-200 result)",
        /// Misses that became the single-flight leader for their key.
        coalesce_leads: "Misses that became the single-flight leader for their key",
        /// Misses parked behind an identical in-flight execution.
        coalesce_waits: "Misses parked behind an identical in-flight execution",
        /// Coalesced waits that gave up after the bounded wait elapsed.
        coalesce_timeouts: "Coalesced waits that timed out",
        /// Coalesced waits that fell back to executing (leader failed or
        /// timed out).
        coalesce_fallbacks: "Coalesced waits that fell back to executing",
        /// Entries evicted by the replacement policy.
        evictions: "Entries evicted by the replacement policy",
        /// Eviction-index snapshots examined while choosing victims. Flat
        /// at ~1–3 per eviction whatever the capacity; a climbing ratio to
        /// `evictions` says the index, not the store, makes inserts slow.
        evict_examined: "Eviction-index snapshots examined while choosing victims",
        /// Entries removed by TTL expiry.
        expirations: "Entries removed by TTL expiry",
        /// Insert/delete notices sent to peers: one per notice that has a
        /// home besides this node, however many homes that is (plus each
        /// `NodeDown` repair broadcast).
        broadcasts_sent: "Insert/delete notices sent to peers",
        /// Insert/delete notices applied from peers.
        updates_applied: "Insert/delete notices applied from peers",
        /// Directory entries evicted because their owner was declared dead
        /// (quarantine repair or a peer's `NodeDown` broadcast).
        node_evictions: "Directory entries evicted because their owner was declared dead",
        /// Local hits served from the in-memory body tier (zero disk I/O).
        mem_hits: "Local hits served from the in-memory body tier",
        /// Local hits that had to read the body store (tier enabled but cold).
        mem_misses: "Local hits that had to read the body store",
        /// Body-store read attempts (`Store::get` calls) — flat across warm
        /// memory-tier hits, which is how tests prove the zero-I/O claim.
        store_reads: "Body-store read attempts",
        /// Memory-tier inserts whose body bytes were already resident via
        /// another key (content-digest dedup: an index entry, not a copy).
        mem_dedup_hits: "Memory-tier inserts deduplicated against a resident body",
    }
}

impl StatsSnapshot {
    /// Total hits (local + remote).
    pub fn hits(&self) -> u64 {
        self.local_hits + self.remote_hits
    }

    /// Hit ratio over cacheable lookups, in [0, 1]; 0 when no lookups.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_fields(f)?;
        write!(f, " hits={} hit_ratio={:.3}", self.hits(), self.hit_ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = CacheStats::new();
        CacheStats::bump(&s.lookups);
        CacheStats::bump(&s.lookups);
        CacheStats::bump(&s.local_hits);
        CacheStats::add(&s.remote_hits, 3);
        let snap = s.snapshot();
        assert_eq!(snap.lookups, 2);
        assert_eq!(snap.hits(), 4);
    }

    #[test]
    fn hit_ratio_edge_cases() {
        let mut snap = StatsSnapshot::default();
        assert_eq!(snap.hit_ratio(), 0.0);
        snap.lookups = 10;
        snap.local_hits = 3;
        snap.remote_hits = 2;
        assert!((snap.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_bumps_are_lossless() {
        use std::sync::Arc;
        let s = Arc::new(CacheStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    CacheStats::bump(&s.inserts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().inserts, 80_000);
    }

    #[test]
    fn display_covers_every_field() {
        let s = CacheStats::new();
        CacheStats::bump(&s.false_misses);
        let text = s.snapshot().to_string();
        // Macro-generated Display: every declared counter appears, plus
        // the derived summary fields.
        for field in CacheStats::FIELDS {
            assert!(
                text.contains(&format!("{field}=")),
                "missing {field}: {text}"
            );
        }
        assert!(text.contains("false_misses=1"));
        assert!(text.contains("hit_ratio="));
    }

    #[test]
    fn registry_sees_live_counters() {
        use std::sync::Arc;
        let s = Arc::new(CacheStats::new());
        let reg = swala_obs::MetricsRegistry::new();
        s.register_into(&reg, "swala_cache");
        CacheStats::add(&s.remote_hits, 7);
        let text = reg.render();
        assert!(text.contains("swala_cache_remote_hits 7\n"), "{text}");
        for field in CacheStats::FIELDS {
            assert!(text.contains(&format!("swala_cache_{field} ")), "{field}");
        }
    }
}
