//! # swala
//!
//! The Swala distributed Web server — the primary contribution of
//! Holmedahl, Smith & Yang, *Cooperative Caching of Dynamic Content on a
//! Distributed Web Server* (HPDC 1998) — reproduced in Rust.
//!
//! A Swala node is a multi-threaded HTTP server whose request threads
//! "take turns listening on the main port" ([`pool`]); each request is
//! owned by one thread "from parsing to completion". Static files are
//! served from a document root ([`files`]); dynamic requests resolve to
//! CGI programs (`swala-cgi`) and flow through Figure 2's control graph
//! ([`handler`]):
//!
//! ```text
//! cacheable? ──no──▶ execute ──▶ return
//!     │yes
//! cached? ──no──▶ execute, tee to cache file, insert + broadcast
//!     │yes
//! local? ──yes─▶ fetch from local store
//!     │no
//! fetch from remote node ──miss (false hit)──▶ execute locally
//! ```
//!
//! The cooperative machinery — replicated directory, replacement
//! policies, TTL purge, insert/delete broadcast, remote fetch — lives in
//! `swala-cache` and `swala-proto`; this crate binds it to HTTP.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use swala::{ServerOptions, SwalaServer};
//! use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
//!
//! let mut registry = ProgramRegistry::new();
//! registry.register(Arc::new(SimulatedProgram::trace_driven("adl", WorkKind::Spin)));
//!
//! let server = SwalaServer::start_single(ServerOptions::default(), registry).unwrap();
//! println!("listening on http://{}", server.http_addr());
//! // ... send requests ...
//! server.shutdown();
//! ```

pub mod accesslog;
pub mod admin;
pub mod client;
pub mod config;
pub mod files;
pub mod handler;
pub mod monitor;
pub mod pool;
pub mod server;
pub mod stats;
pub mod threads;

pub use client::HttpClient;
pub use config::ServerOptions;
pub use server::{start_cluster, BoundSwala, SwalaServer};
pub use stats::{RequestStats, RequestStatsSnapshot};
pub use swala_proto::{raise_nofile_limit, PoolStats};

// Re-export the pieces examples and benches compose with.
pub use swala_cache::{CacheKey, CacheRules, NodeId, PolicyKind};
pub use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
