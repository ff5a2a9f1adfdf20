//! The replicated global cache directory.
//!
//! Every node holds a directory with *one table per cluster node*; table
//! `i` describes what node `i` currently caches. The local node's table is
//! authoritative; remote tables are asynchronously maintained replicas fed
//! by insert/delete broadcasts (§4.2).
//!
//! Locking follows the paper's analysis exactly: "We implement locking at
//! the table level, with read- and write-locks to protect the table, in
//! order to minimize lock contention while maximizing scalability." A
//! lookup takes the tables' read locks one at a time; an insert or delete
//! write-locks a single table. The rejected alternatives (one global lock;
//! per-entry locks) live in [`crate::locking`] for the ablation bench.
//!
//! The local table's lock also covers the replacement policy and its
//! [`VictimIndex`], so a hit's bookkeeping and an eviction's choice see
//! one consistent table without a second lock.

use crate::churn::reserve_one;
use crate::clock::Clock;
use crate::entry::EntryMeta;
use crate::key::{CacheKey, KeyMap};
use crate::node::NodeId;
use crate::policy::{PolicyKind, VictimIndex};
use parking_lot::RwLock;

/// Result of a directory lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Classification {
    /// No node caches this key (or only expired copies exist).
    NotCached,
    /// This node's own store has the body.
    Local(EntryMeta),
    /// A remote node's store has the body.
    Remote(EntryMeta),
}

/// Most updates [`CacheDirectory::apply_updates`] applies under one
/// acquisition of a table's write lock: a peer's frame may carry a few
/// hundred, and a lookup must not wait behind all of them.
pub const APPLY_RUN_MAX: usize = 64;

/// One remote change to the directory, as a peer's notice describes it.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteUpdate {
    /// `meta.owner` now caches `meta.key`.
    Insert(EntryMeta),
    /// `owner` no longer caches `key`.
    Delete { owner: NodeId, key: CacheKey },
}

impl RemoteUpdate {
    /// The node whose table this update changes.
    pub fn owner(&self) -> NodeId {
        match self {
            RemoteUpdate::Insert(meta) => meta.owner,
            RemoteUpdate::Delete { owner, .. } => *owner,
        }
    }

    /// The key this update is about.
    pub fn key(&self) -> &CacheKey {
        match self {
            RemoteUpdate::Insert(meta) => &meta.key,
            RemoteUpdate::Delete { key, .. } => key,
        }
    }
}

/// What [`CacheDirectory::evict_to_capacity`] removed, and what finding
/// it cost.
#[derive(Debug)]
pub struct Eviction {
    /// The evicted entries, in eviction order.
    pub victims: Vec<EntryMeta>,
    /// Index snapshots examined to find them (≥ one per victim).
    pub examined: u64,
}

/// One node's table. Only the local node's is evicted from, so only it
/// carries replacement state.
struct Table {
    entries: KeyMap<EntryMeta>,
    victims: Option<VictimIndex>,
}

impl Table {
    /// Insert or replace `meta` verbatim, keeping the index in step.
    fn insert(&mut self, meta: EntryMeta) -> Option<EntryMeta> {
        if let Some(victims) = &mut self.victims {
            victims.track(&meta, &self.entries);
        }
        reserve_one(&mut self.entries);
        self.entries.insert(meta.key.clone(), meta)
    }

    fn clear(&mut self) {
        self.entries.clear();
        if let Some(victims) = &mut self.victims {
            victims.clear();
        }
    }
}

/// One node's view of the whole cluster's cache contents.
pub struct CacheDirectory {
    local: NodeId,
    /// `tables[i]` = entries cached at node `i`.
    tables: Vec<RwLock<Table>>,
    /// What TTL expiry is judged against.
    clock: Clock,
}

impl CacheDirectory {
    /// Directory for a cluster of `num_nodes`, run at node `local`,
    /// evicting by LRU.
    pub fn new(num_nodes: usize, local: NodeId) -> Self {
        Self::with_policy(num_nodes, local, PolicyKind::Lru)
    }

    /// [`new`](Self::new) with the local table's replacement policy named.
    pub fn with_policy(num_nodes: usize, local: NodeId, policy: PolicyKind) -> Self {
        assert!(num_nodes >= 1, "cluster needs at least one node");
        assert!(local.index() < num_nodes, "local node out of range");
        CacheDirectory {
            local,
            tables: (0..num_nodes)
                .map(|i| {
                    RwLock::new(Table {
                        entries: KeyMap::default(),
                        victims: (i == local.index()).then(|| VictimIndex::new(policy)),
                    })
                })
                .collect(),
            clock: Clock::Real,
        }
    }

    /// Judge TTL expiry against `clock` instead of the host's wall time.
    pub(crate) fn with_clock(self, clock: Clock) -> Self {
        CacheDirectory { clock, ..self }
    }

    /// The clock TTL expiry is judged against.
    pub(crate) fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The node this directory instance belongs to.
    pub fn local_node(&self) -> NodeId {
        self.local
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.tables.len()
    }

    /// Classify `key`: not cached / cached locally / cached remotely.
    ///
    /// The local table is consulted first — a local fetch is always
    /// cheaper than a remote one. Expired entries are treated as absent
    /// (but not removed here; the purge pass owns removal so that file
    /// deletion and delete-broadcasts happen in one place).
    pub fn classify(&self, key: &CacheKey) -> Classification {
        {
            let local = self.tables[self.local.index()].read();
            if let Some(meta) = local.entries.get(key) {
                if self.live(meta) {
                    return Classification::Local(meta.clone());
                }
            }
        }
        self.classify_remote(key)
    }

    /// [`classify`](Self::classify) for a lookup that serves a local
    /// entry it finds: the entry's hit is recorded with the policy at
    /// logical time `seq()`, under the one lock that found it.
    pub fn classify_for_hit(&self, key: &CacheKey, seq: impl FnOnce() -> u64) -> Classification {
        {
            let mut local = self.tables[self.local.index()].write();
            let Table { entries, victims } = &mut *local;
            if let Some(meta) = entries.get_mut(key) {
                if self.live(meta) {
                    match victims {
                        Some(victims) => victims.on_hit(meta, seq()),
                        None => meta.record_hit(seq()),
                    }
                    return Classification::Local(meta.clone());
                }
            }
        }
        self.classify_remote(key)
    }

    /// Whether `meta` has not expired. The clock is read only for an
    /// entry that can expire.
    fn live(&self, meta: &EntryMeta) -> bool {
        meta.expires_unix.is_none() || !meta.is_expired_at(self.clock.unix_now())
    }

    /// The first remote table holding a live entry for `key`.
    fn classify_remote(&self, key: &CacheKey) -> Classification {
        for (i, table) in self.tables.iter().enumerate() {
            if i == self.local.index() {
                continue;
            }
            let t = table.read();
            if let Some(meta) = t.entries.get(key) {
                if self.live(meta) {
                    return Classification::Remote(meta.clone());
                }
            }
        }
        Classification::NotCached
    }

    /// Insert (or replace) `meta` in `node`'s table, as given.
    ///
    /// Returns the replaced entry, if any. Used for applying a remote
    /// node's insert broadcast and for putting back an entry the local
    /// table already admitted (its size, cost and GreedyDual-Size credit
    /// as the policy left them); a *new* local entry goes through
    /// [`insert_fresh`](Self::insert_fresh).
    pub fn insert(&self, node: NodeId, meta: EntryMeta) -> Option<EntryMeta> {
        self.tables[node.index()].write().insert(meta)
    }

    /// Admit a freshly executed result to the local table: the policy's
    /// insert hook runs on it (GreedyDual-Size assigns its credit) under
    /// the table's write lock. Returns the entry as stored, for the
    /// insert notice.
    pub fn insert_fresh(&self, mut meta: EntryMeta) -> EntryMeta {
        let mut t = self.tables[self.local.index()].write();
        let Table { entries, victims } = &mut *t;
        victims
            .as_mut()
            .expect("the local table carries the policy")
            .on_insert(&mut meta, entries);
        reserve_one(entries);
        entries.insert(meta.key.clone(), meta.clone());
        meta
    }

    /// Apply `updates` in order, write-locking each owner's table once
    /// per run of consecutive updates to it, at most [`APPLY_RUN_MAX`] to
    /// a run — a frame off one peer's link is a few such runs. Ends in
    /// the same tables as an [`insert`](Self::insert) or
    /// [`remove`](Self::remove) per update.
    pub fn apply_updates(&self, updates: Vec<RemoteUpdate>) {
        let mut updates = updates.into_iter().peekable();
        while let Some(owner) = updates.peek().map(RemoteUpdate::owner) {
            let mut table = self.tables[owner.index()].write();
            let mut room = APPLY_RUN_MAX;
            while let Some(update) = updates.next_if(|u| room > 0 && u.owner() == owner) {
                room -= 1;
                match update {
                    RemoteUpdate::Insert(meta) => {
                        table.insert(meta);
                    }
                    RemoteUpdate::Delete { key, .. } => {
                        table.entries.remove(&key);
                    }
                }
            }
        }
    }

    /// Remove `key` from `node`'s table; returns the removed entry.
    pub fn remove(&self, node: NodeId, key: &CacheKey) -> Option<EntryMeta> {
        self.tables[node.index()].write().entries.remove(key)
    }

    /// Look up `key` in `node`'s table (unexpired only).
    pub fn get(&self, node: NodeId, key: &CacheKey) -> Option<EntryMeta> {
        let t = self.tables[node.index()].read();
        let now = self.clock.unix_now();
        t.entries
            .get(key)
            .filter(|m| !m.is_expired_at(now))
            .cloned()
    }

    /// Record a hit on an entry in `node`'s table at logical time `seq`,
    /// applying the policy's bookkeeping under the table's write lock.
    ///
    /// Returns false if the entry has vanished meanwhile (racing delete).
    pub fn record_hit(&self, node: NodeId, key: &CacheKey, seq: u64) -> bool {
        let mut t = self.tables[node.index()].write();
        let Table { entries, victims } = &mut *t;
        match (entries.get_mut(key), victims) {
            (Some(meta), Some(victims)) => victims.on_hit(meta, seq),
            (Some(meta), None) => meta.record_hit(seq),
            (None, _) => return false,
        }
        true
    }

    /// Number of entries in `node`'s table.
    pub fn len(&self, node: NodeId) -> usize {
        self.tables[node.index()].read().entries.len()
    }

    /// True when every table is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(|t| t.read().entries.is_empty())
    }

    /// Total entries across all tables.
    pub fn total_len(&self) -> usize {
        self.tables.iter().map(|t| t.read().entries.len()).sum()
    }

    /// Run the policy to bring the local table at or below `capacity`,
    /// returning the evicted entries (the caller deletes their files and
    /// broadcasts the deletions).
    pub fn evict_to_capacity(&self, capacity: usize) -> Eviction {
        let mut t = self.tables[self.local.index()].write();
        let Table { entries, victims } = &mut *t;
        let victims = victims
            .as_mut()
            .expect("the local table carries the policy");
        let examined_before = victims.examined();
        let mut evicted = Vec::new();
        while entries.len() > capacity {
            let Some(victim) = victims.evict_one(entries) else {
                break;
            };
            evicted.push(victim);
        }
        Eviction {
            victims: evicted,
            examined: victims.examined() - examined_before,
        }
    }

    /// Remove expired entries from the *local* table, returning them.
    ///
    /// Expired entries in remote tables are dropped silently (their owner
    /// is responsible for the authoritative delete broadcast; we just stop
    /// advertising them).
    pub fn purge_expired(&self) -> Vec<EntryMeta> {
        let now = self.clock.unix_now();
        let mut out = Vec::new();
        {
            let mut t = self.tables[self.local.index()].write();
            let dead: Vec<CacheKey> = t
                .entries
                .values()
                .filter(|m| m.is_expired_at(now))
                .map(|m| m.key.clone())
                .collect();
            for k in dead {
                if let Some(m) = t.entries.remove(&k) {
                    out.push(m);
                }
            }
        }
        for (i, table) in self.tables.iter().enumerate() {
            if i == self.local.index() {
                continue;
            }
            table.write().entries.retain(|_, m| !m.is_expired_at(now));
        }
        out
    }

    /// Drop every entry in `node`'s table, returning what was removed.
    ///
    /// Directory repair: when `node` is declared dead (quarantined, or a
    /// `NodeDown` broadcast arrived) its replica table is stale by
    /// definition — keeping it only produces false hits against a corpse.
    /// Refusing to clear the *local* table is the caller's job
    /// ([`crate::CacheManager::evict_node`]); this primitive clears any
    /// table.
    pub fn clear_node(&self, node: NodeId) -> Vec<EntryMeta> {
        let mut t = self.tables[node.index()].write();
        let dropped = t.entries.drain().map(|(_, m)| m).collect();
        t.clear();
        dropped
    }

    /// Snapshot of `node`'s table (for directory sync and inspection).
    pub fn snapshot(&self, node: NodeId) -> Vec<EntryMeta> {
        self.tables[node.index()]
            .read()
            .entries
            .values()
            .cloned()
            .collect()
    }

    /// Replace `node`'s table wholesale (directory sync on join).
    pub fn load_snapshot(&self, node: NodeId, entries: Vec<EntryMeta>) {
        let mut t = self.tables[node.index()].write();
        t.clear();
        for e in entries {
            t.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn meta(key: &str, owner: NodeId, seq: u64) -> EntryMeta {
        EntryMeta::new(CacheKey::new(key), owner, 100, "text/html", 1000, None, seq)
    }

    #[test]
    fn classify_prefers_local() {
        let d = CacheDirectory::new(3, NodeId(1));
        let k = CacheKey::new("/cgi-bin/x?1");
        d.insert(NodeId(0), meta("/cgi-bin/x?1", NodeId(0), 1));
        d.insert(NodeId(1), meta("/cgi-bin/x?1", NodeId(1), 2));
        match d.classify(&k) {
            Classification::Local(m) => assert_eq!(m.owner, NodeId(1)),
            other => panic!("expected Local, got {other:?}"),
        }
    }

    #[test]
    fn classify_remote_and_missing() {
        let d = CacheDirectory::new(3, NodeId(0));
        let k = CacheKey::new("/cgi-bin/y?1");
        assert_eq!(d.classify(&k), Classification::NotCached);
        d.insert(NodeId(2), meta("/cgi-bin/y?1", NodeId(2), 1));
        match d.classify(&k) {
            Classification::Remote(m) => assert_eq!(m.owner, NodeId(2)),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn expired_entries_classify_as_missing() {
        let d = CacheDirectory::new(1, NodeId(0));
        let mut m = meta("/e", NodeId(0), 1);
        m.expires_unix = Some(0); // epoch: long expired
        d.insert(NodeId(0), m);
        assert_eq!(d.classify(&CacheKey::new("/e")), Classification::NotCached);
        assert!(d.get(NodeId(0), &CacheKey::new("/e")).is_none());
        // Still physically present until purge.
        assert_eq!(d.len(NodeId(0)), 1);
    }

    #[test]
    fn insert_replace_and_remove() {
        let d = CacheDirectory::new(2, NodeId(0));
        let k = CacheKey::new("/a");
        assert!(d.insert(NodeId(0), meta("/a", NodeId(0), 1)).is_none());
        let replaced = d.insert(NodeId(0), meta("/a", NodeId(0), 2)).unwrap();
        assert_eq!(replaced.insert_seq, 1);
        let removed = d.remove(NodeId(0), &k).unwrap();
        assert_eq!(removed.insert_seq, 2);
        assert!(d.remove(NodeId(0), &k).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn record_hit_updates_and_detects_races() {
        let d = CacheDirectory::new(1, NodeId(0));
        let k = CacheKey::new("/h");
        d.insert(NodeId(0), meta("/h", NodeId(0), 1));
        assert!(d.record_hit(NodeId(0), &k, 50));
        assert_eq!(d.get(NodeId(0), &k).unwrap().hits, 1);
        assert_eq!(d.get(NodeId(0), &k).unwrap().last_access_seq, 50);
        d.remove(NodeId(0), &k);
        assert!(!d.record_hit(NodeId(0), &k, 51));
    }

    #[test]
    fn evict_to_capacity_uses_policy() {
        let d = CacheDirectory::new(1, NodeId(0));
        for i in 0..5 {
            d.insert(NodeId(0), meta(&format!("/k{i}"), NodeId(0), i));
        }
        let evicted = d.evict_to_capacity(3);
        // LRU evicts the two oldest sequence numbers, oldest first.
        let keys: Vec<&str> = evicted.victims.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["/k0", "/k1"]);
        assert_eq!(evicted.examined, 2);
        assert_eq!(d.len(NodeId(0)), 3);
        // Already under capacity: no-op.
        let noop = d.evict_to_capacity(3);
        assert!(noop.victims.is_empty());
        assert_eq!(noop.examined, 0);
    }

    #[test]
    fn purge_returns_local_expired_only() {
        let d = CacheDirectory::new(2, NodeId(0));
        let mut dead_local = meta("/dead-local", NodeId(0), 1);
        dead_local.expires_unix = Some(1);
        let mut dead_remote = meta("/dead-remote", NodeId(1), 2);
        dead_remote.expires_unix = Some(1);
        d.insert(NodeId(0), dead_local);
        d.insert(NodeId(0), meta("/alive", NodeId(0), 3));
        d.insert(NodeId(1), dead_remote);

        let purged = d.purge_expired();
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].key.as_str(), "/dead-local");
        assert_eq!(d.len(NodeId(0)), 1);
        assert_eq!(
            d.len(NodeId(1)),
            0,
            "expired remote metadata dropped silently"
        );
    }

    #[test]
    fn ttl_entries_live_until_expiry() {
        let d = CacheDirectory::new(1, NodeId(0));
        let m = EntryMeta::new(
            CacheKey::new("/ttl"),
            NodeId(0),
            10,
            "t",
            1,
            Some(Duration::from_secs(3600)),
            1,
        );
        d.insert(NodeId(0), m);
        assert!(matches!(
            d.classify(&CacheKey::new("/ttl")),
            Classification::Local(_)
        ));
        assert!(d.purge_expired().is_empty());
    }

    #[test]
    fn snapshot_roundtrip() {
        let d = CacheDirectory::new(2, NodeId(0));
        d.insert(NodeId(1), meta("/s1", NodeId(1), 1));
        d.insert(NodeId(1), meta("/s2", NodeId(1), 2));
        let snap = d.snapshot(NodeId(1));
        assert_eq!(snap.len(), 2);

        let d2 = CacheDirectory::new(2, NodeId(0));
        d2.load_snapshot(NodeId(1), snap);
        assert_eq!(d2.len(NodeId(1)), 2);
        assert!(matches!(
            d2.classify(&CacheKey::new("/s1")),
            Classification::Remote(_)
        ));
    }

    #[test]
    fn clear_node_empties_one_table_only() {
        let d = CacheDirectory::new(3, NodeId(0));
        d.insert(NodeId(0), meta("/mine", NodeId(0), 1));
        d.insert(NodeId(1), meta("/theirs-a", NodeId(1), 2));
        d.insert(NodeId(1), meta("/theirs-b", NodeId(1), 3));
        d.insert(NodeId(2), meta("/other", NodeId(2), 4));

        let dropped = d.clear_node(NodeId(1));
        assert_eq!(dropped.len(), 2);
        assert!(dropped.iter().all(|m| m.owner == NodeId(1)));
        assert_eq!(d.len(NodeId(1)), 0);
        // The other tables are untouched.
        assert_eq!(d.len(NodeId(0)), 1);
        assert_eq!(d.len(NodeId(2)), 1);
        // Entries from the dead node no longer classify as Remote.
        assert_eq!(
            d.classify(&CacheKey::new("/theirs-a")),
            Classification::NotCached
        );
        // Clearing an empty table is a no-op.
        assert!(d.clear_node(NodeId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "local node out of range")]
    fn local_must_be_member() {
        CacheDirectory::new(2, NodeId(5));
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        use std::sync::Arc;
        let d = Arc::new(CacheDirectory::new(4, NodeId(0)));
        let mut handles = Vec::new();
        for node in 0..4u16 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let key = format!("/n{node}/k{i}");
                    d.insert(NodeId(node), meta(&key, NodeId(node), i));
                    let _ = d.classify(&CacheKey::new(&key));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.total_len(), 800);
    }
}
