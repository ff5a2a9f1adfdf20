//! # swala-cluster
//!
//! Orchestration for multi-node Swala deployments, standing in for the
//! paper's testbed of "six Sun 143-MHz Ultra 1 and two Sun Ultra 2 …
//! connected by a fast (100 Mbit) Ethernet": every node is a full
//! [`swala::SwalaServer`] with its own HTTP listener, cache daemons and
//! disk/memory store, wired over real localhost TCP.
//!
//! * [`cluster`] — bring-up of N nodes from one `ServerOptions` template
//!   (through [`swala::start_cluster`]), warm-up and synchronization
//!   helpers;
//! * [`pseudo`] — §5.2's pseudo-server, "a program which only sends cache
//!   directory updates to a Swala node", used by Table 4 to impose a
//!   controlled update-per-second load without running real peers.

pub mod cluster;
pub mod pseudo;

pub use cluster::{ClusterConfig, SwalaCluster};
pub use pseudo::PseudoServer;
