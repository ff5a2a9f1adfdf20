//! The `swala` server binary.
//!
//! ```text
//! swala <config-file> [--print-config]
//! ```
//!
//! Runs one Swala node from a `swala.conf`-format file (see
//! `ServerOptions::parse`). Peers are named with `peer <id> <cache-addr>`
//! lines, which this binary strips and wires before handing the rest to
//! the library. Runs until killed.
//!
//! Example two-node deployment:
//!
//! ```text
//! # node0.conf                      # node1.conf
//! node 0                            node 1
//! nodes 2                           nodes 2
//! listen 0.0.0.0:8080               listen 0.0.0.0:8081
//! cache_listen 0.0.0.0:9080         cache_listen 0.0.0.0:9081
//! peer 1 127.0.0.1:9081             peer 0 127.0.0.1:9080
//! docroot /srv/www                  docroot /srv/www
//! cache /cgi-bin/* min_ms=50        cache /cgi-bin/* min_ms=50
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use swala::{BoundSwala, ServerOptions};
use swala_cgi::{null_cgi, ProgramRegistry, SimulatedProgram, WorkKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(config_path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: swala <config-file> [--print-config]");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("swala: cannot read {config_path}: {e}");
            std::process::exit(1);
        }
    };

    // `peer <id> <addr>` lines are deployment wiring, handled here.
    let mut peers: Vec<(usize, SocketAddr)> = Vec::new();
    let mut lib_config = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(rest) = line.strip_prefix("peer ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let parsed = match parts.as_slice() {
                [id, addr] => id
                    .parse::<usize>()
                    .ok()
                    .zip(addr.parse::<SocketAddr>().ok()),
                _ => None,
            };
            match parsed {
                Some((id, addr)) => peers.push((id, addr)),
                None => {
                    eprintln!("swala: line {}: bad peer line {line:?}", lineno + 1);
                    std::process::exit(1);
                }
            }
        } else {
            lib_config.push_str(raw);
            lib_config.push('\n');
        }
    }

    let options = match ServerOptions::parse(&lib_config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swala: {config_path}: {e}");
            std::process::exit(1);
        }
    };
    if args.iter().any(|a| a == "--print-config") {
        println!("{options:#?}");
        println!("peers: {peers:?}");
        return;
    }

    let mut peer_addrs: Vec<Option<SocketAddr>> = vec![None; options.num_nodes];
    for (id, addr) in peers {
        if id >= options.num_nodes {
            eprintln!(
                "swala: peer id {id} out of range for {} nodes",
                options.num_nodes
            );
            std::process::exit(1);
        }
        peer_addrs[id] = Some(addr);
    }

    // Default program set; a deployment embedding Swala as a library
    // registers its own programs.
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(null_cgi()));
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Spin,
    )));

    let node = options.node;
    let bound = match BoundSwala::bind(options, registry) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("swala: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let server = match bound.start(peer_addrs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swala: start failed: {e}");
            std::process::exit(1);
        }
    };
    // Announced once the node serves: start() opens descriptors after
    // the listeners are bound, and connections made before it returns
    // can take the ones it still needs.
    eprintln!(
        "swala {node}: http on {}, cache protocol on {}",
        server.http_addr(),
        server.cache_addr()
    );

    // Serve until killed; print a stats line periodically like 1998
    // servers logged to their error_log.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!("swala {node}: {}", server.cache_stats());
    }
}
