//! # swala-proto
//!
//! The inter-node cache protocol of the Swala distributed Web server.
//!
//! §4.1 describes the "cacher module" with three daemon threads per node:
//!
//! 1. one that *receives information about cache insertions and deletions
//!    from the other nodes* and updates the local directory,
//! 2. one that *listens for cache data requests* from other nodes and
//!    starts a thread per request to return the contents,
//! 3. one that *wakes up every few seconds and deletes expired entries*.
//!
//! §4.2 fixes the consistency model: insert/delete notices are broadcast
//! **asynchronously** — no global locks, no two-phase commit — accepting
//! rare false misses and false hits in exchange for a short critical
//! path.
//!
//! This crate implements that machinery over TCP:
//!
//! * [`wire`] — length-prefixed binary framing and primitive codecs;
//! * [`reader`] — the patient buffered reader every long-lived socket
//!   (cluster and HTTP) is read through: one `recv` per message, one
//!   idle-vs-stall rule;
//! * [`message`] — the message set (hello, insert/delete notices, fetch
//!   request/reply, directory sync and lookup, stats pull);
//! * [`peers`] — the asynchronous broadcast pipeline: per-peer writer
//!   threads fed by bounded drop-oldest queues, self-paced notice
//!   batching, and the cluster [`peers::Broadcaster`];
//! * [`fetch`] — the client side of a remote cache fetch, with bounded
//!   retry and an injectable [`fetch::Dialer`];
//! * [`pool`] — a fixed set of persistent fetch connections per peer, so
//!   a remote hit reuses a warm session instead of paying a TCP handshake;
//! * [`conn_pool`] — the thread pool that serves both of a node's ports;
//! * [`daemon`] — the cache port's service and the purge daemon, bound to
//!   a [`swala_cache::CacheManager`];
//! * [`faults`] — deterministic fault injection across every transport
//!   seam (chaos testing);
//! * [`health`] — per-peer quarantine tracking driven by fetch outcomes.

pub mod conn_pool;
pub mod daemon;
mod epoll;
pub mod faults;
pub mod fetch;
pub mod health;
pub mod message;
pub mod peers;
pub mod pool;
pub mod reader;
pub mod wire;

pub use conn_pool::PoolStats;
pub use daemon::{
    announce, announce_delete, announce_insert, announce_node_down, CacheDaemons, DaemonConfig,
    FRAME_STALL_LIMIT, PURGE_INTERVAL,
};
pub use epoll::raise_nofile_limit;
pub use faults::{AcceptFilter, FaultAction, FaultEvent, FaultInjector, FaultRule};
pub use fetch::{
    default_dialer, request_invalidate, Dialer, FaultStream, FetchOutcome, RetryPolicy,
    StreamFault, FETCH_ATTEMPTS, FETCH_BACKOFF,
};
pub use health::{
    HealthSnapshot, HealthTracker, PeerState, PROBE_INTERVAL, QUARANTINE_AFTER, SUSPECT_AFTER,
};
pub use message::{Message, NodeStats};
pub use peers::{
    BroadcastConfig, Broadcaster, Connector, LinkStats, PeerLink, NOTICE_PACE, NOTICE_PACE_MAX,
    NOTICE_QUEUE_DEPTH,
};
pub use pool::{FetchPool, FetchPoolStats, PeerError, DEFAULT_POOL_SIZE};
pub use reader::{Fill, FrameRead, PatientReader};
pub use wire::{read_frame, write_frame, write_frame_split, ProtoError};
