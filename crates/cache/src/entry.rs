//! Cache entry metadata — what the replicated directory stores.

use crate::clock::Clock;
use crate::key::CacheKey;
use crate::node::NodeId;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Metadata about one cached CGI result.
///
/// This is the unit stored in the directory tables and broadcast between
/// nodes on insert. Bodies are *not* here — they live in the owner's disk
/// store (§4.1: "we store only the cache directory in main memory, and
/// use a separate operating system file to store the results of each
/// cached request").
#[derive(Debug, Clone, PartialEq)]
pub struct EntryMeta {
    /// Canonical request identity.
    pub key: CacheKey,
    /// Node whose store holds the body.
    pub owner: NodeId,
    /// Body size in bytes.
    pub size: u64,
    /// `Content-Type` to serve the cached body with.
    pub content_type: String,
    /// CGI execution time that this entry saves, in microseconds.
    /// Replacement policies use it as the recomputation cost.
    pub exec_micros: u64,
    /// Absolute expiry time (Unix seconds); `None` = never expires.
    pub expires_unix: Option<u64>,
    /// Insertion time (Unix seconds), informational.
    pub created_unix: u64,
    /// Number of cache hits served from this entry.
    pub hits: u64,
    /// Logical timestamp of the most recent access (insert counts).
    pub last_access_seq: u64,
    /// Logical timestamp of insertion (FIFO ordering, debugging).
    pub insert_seq: u64,
    /// GreedyDual-Size credit; maintained by [`crate::policy`].
    pub gds_credit: f64,
}

impl EntryMeta {
    /// Create metadata for a fresh insertion, stamped with the host's
    /// wall time.
    pub fn new(
        key: CacheKey,
        owner: NodeId,
        size: u64,
        content_type: impl Into<String>,
        exec_micros: u64,
        ttl: Option<Duration>,
        seq: u64,
    ) -> Self {
        Self::unstamped(key, owner, size, content_type, exec_micros, seq).stamped(&Clock::Real, ttl)
    }

    /// [`new`](Self::new) before [`stamped`](Self::stamped) gives it a
    /// creation time and an expiry.
    pub(crate) fn unstamped(
        key: CacheKey,
        owner: NodeId,
        size: u64,
        content_type: impl Into<String>,
        exec_micros: u64,
        seq: u64,
    ) -> Self {
        EntryMeta {
            key,
            owner,
            size,
            content_type: content_type.into(),
            exec_micros,
            expires_unix: None,
            created_unix: 0,
            hits: 0,
            last_access_seq: seq,
            insert_seq: seq,
            gds_credit: 0.0,
        }
    }

    /// Stamp creation time from `clock`'s wall time, and expiry `ttl`
    /// after it (in whole seconds, at least one).
    pub(crate) fn stamped(mut self, clock: &Clock, ttl: Option<Duration>) -> Self {
        let now = clock.unix_now();
        self.created_unix = now;
        self.expires_unix = ttl.map(|t| now.saturating_add(t.as_secs().max(1)));
        self
    }

    /// Whether the entry has expired at Unix time `now`.
    pub fn is_expired_at(&self, now: u64) -> bool {
        matches!(self.expires_unix, Some(e) if e <= now)
    }

    /// Record a hit at logical time `seq`.
    ///
    /// `last_access_seq` only moves forward: two racing hits may reach
    /// the table out of clock order, and the eviction index relies on an
    /// entry's rank never falling (see [`crate::policy`]).
    pub fn record_hit(&mut self, seq: u64) {
        self.hits += 1;
        self.last_access_seq = self.last_access_seq.max(seq);
    }
}

/// Current Unix time in whole seconds.
pub fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(ttl: Option<Duration>) -> EntryMeta {
        EntryMeta::new(
            CacheKey::new("/cgi-bin/x?a=1"),
            NodeId(2),
            512,
            "text/html",
            40_000,
            ttl,
            7,
        )
    }

    #[test]
    fn fresh_entry_fields() {
        let m = meta(None);
        assert_eq!(m.owner, NodeId(2));
        assert_eq!(m.hits, 0);
        assert_eq!(m.insert_seq, 7);
        assert_eq!(m.last_access_seq, 7);
        assert_eq!(m.expires_unix, None);
        assert!(!m.is_expired_at(u64::MAX));
    }

    #[test]
    fn ttl_expiry() {
        let m = meta(Some(Duration::from_secs(60)));
        let exp = m.expires_unix.unwrap();
        assert!(!m.is_expired_at(exp - 1));
        assert!(m.is_expired_at(exp));
        assert!(m.is_expired_at(exp + 1000));
    }

    #[test]
    fn subsecond_ttl_rounds_up_to_one_second() {
        // A TTL of 10ms must not truncate to "expires immediately at
        // creation second" — it rounds up to 1s granularity.
        let m = meta(Some(Duration::from_millis(10)));
        assert!(!m.is_expired_at(m.created_unix));
    }

    #[test]
    fn record_hit_updates_recency() {
        let mut m = meta(None);
        m.record_hit(42);
        m.record_hit(99);
        assert_eq!(m.hits, 2);
        assert_eq!(m.last_access_seq, 99);
        assert_eq!(m.insert_seq, 7, "insert_seq is immutable");
    }
}
