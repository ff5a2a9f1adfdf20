//! # swala-sim
//!
//! A deterministic, discrete-event model of a Swala cluster's caching
//! behaviour. Where the live cluster (`swala-cluster`) measures
//! wall-clock response times, the simulator counts events *exactly*:
//! hits, misses, evictions, and the weak-consistency anomalies of §4.2
//! (false misses and false hits), under any replacement policy, cache
//! size, node count, request routing and broadcast latency.
//!
//! §5.3's hit-ratio experiments (Tables 5 and 6) are count experiments —
//! "the ability to reuse another node's cache entry … accounts for a
//! large portion of the advantage of cooperative caching" — so the
//! simulator is their authoritative reproduction, with the live cluster
//! as a cross-check. The simulator also powers the ablations: policy
//! comparisons and false-miss/false-hit rates as a function of broadcast
//! delay.
//!
//! There is one model of a node: every simulated node *is* a live
//! [`swala_cache::CacheDirectory`] — classification, hit bookkeeping,
//! replacement policy and eviction are the server's — and every
//! directory notice is a [`swala_cache::RemoteUpdate`] applied by
//! `CacheDirectory::apply_updates`, the cache daemon's receive path.
//! The engine adds only what the network would: routing, notice delay
//! and wire-cost counting.

pub mod engine;
pub mod model;
pub mod queueing;

pub use engine::simulate;
pub use model::{Routing, SimConfig, SimResult};
pub use queueing::{simulate_queueing, QueueConfig, QueueResult};
