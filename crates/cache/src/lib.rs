//! # swala-cache
//!
//! The caching subsystem of the Swala distributed Web server: everything
//! §4 of the paper describes except the network (which lives in
//! `swala-proto`) and the HTTP plumbing (in `swala`).
//!
//! Key design points taken from the paper:
//!
//! * **Replicated global directory** ([`directory`]): every node holds one
//!   table *per cluster node*, each recording what that node caches. A
//!   lookup scans all tables under read locks; inserts/deletes write-lock
//!   exactly one table (§4.2's chosen locking granularity — the rejected
//!   alternatives are also implemented, in [`locking`], for the ablation
//!   benches).
//! * **Memory directory, disk bodies** ([`bodies`] over [`store`] or
//!   [`segstore`]): only metadata lives in memory; "every cache fetch in
//!   effect becomes a file fetch" served by the OS page cache — one file
//!   per result in the paper's layout ([`DiskStore`], a library type), one
//!   extent of one data file in the store a node runs ([`SegmentStore`]).
//! * **TTL content consistency** ([`rules`], [`manager`]): per-pattern
//!   time-to-live set by the administrator's configuration file; a purge
//!   pass deletes expired entries.
//! * **Replacement policies** ([`policy`]): the five policies of the
//!   companion technical report \[10\] — LRU, LFU, SIZE, COST and
//!   GreedyDual-Size.
//! * **Statistics** ([`stats`]): hit/miss/false-hit/false-miss counters
//!   that the §5 experiments report.
//! * **One clock** ([`clock`]): TTL expiry and every daemon that paces
//!   itself read a [`Clock`], the host's or a manual one tests advance.
//!
//! Recency/frequency bookkeeping uses *logical sequence numbers* from a
//! per-manager atomic counter rather than wall-clock time, so policy
//! decisions are deterministic and the simulator (`swala-sim`) reproduces
//! the exact same evictions as the live server.

pub mod bodies;
mod churn;
pub mod clock;
pub mod digest;
pub mod directory;
pub mod entry;
pub mod flights;
pub mod flow;
pub mod key;
pub mod locking;
pub mod manager;
pub mod memcache;
pub mod node;
pub mod policy;
pub mod ring;
pub mod rules;
pub mod segstore;
pub mod stats;
pub mod store;

pub use bodies::{Bodies, BodyTier};
pub use clock::{Clock, ManualClock, StopSignal, Waiter};
pub use digest::Digest;
pub use directory::{CacheDirectory, Classification, Eviction, RemoteUpdate};
pub use entry::EntryMeta;
pub use flights::{FlightWaitOutcome, FlightWaiter};
pub use key::CacheKey;
pub use manager::{
    CacheManager, CacheManagerConfig, InsertOutcome, LookupResult, COALESCE_WAIT, HOTKEYS,
    MAX_CACHED_RESULT,
};
pub use memcache::MemCache;
pub use node::NodeId;
pub use policy::{Policy, PolicyKind, VictimIndex};
pub use ring::{DirectoryKind, HashRing, Placement, DEFAULT_VNODES};
pub use rules::{CacheDecision, CacheRules, Rule};
pub use segstore::{crc32, decode_record, encode_record, Record, SegmentConfig, SegmentStore};
pub use stats::CacheStats;
pub use store::{DiskStore, MemStore, Store, StoreMetrics};
