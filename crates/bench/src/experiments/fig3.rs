//! Figure 3 — null-CGI response time comparison (§5.1).
//!
//! 24 clients hammer the same `nullcgi` request at five configurations:
//! Enterprise, HTTPd, Swala with caching disabled, Swala fetching from a
//! *remote* cache, and Swala fetching from its *local* cache. The paper's
//! conclusions: Swala-no-cache ≈ HTTPd and faster than Enterprise; a
//! cache fetch beats executing the CGI; remote fetch adds only a small
//! constant over local fetch.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use crate::servers::forked_registry;
use swala::{ServerOptions, SwalaServer};
use swala_baseline::{ForkingServer, ThreadedServer};
use swala_workload::LoadGenerator;

const TARGET: &str = "/cgi-bin/nullcgi";

fn measure(addr: std::net::SocketAddr, clients: usize, per_client: usize) -> f64 {
    let report =
        LoadGenerator::new(clients).run_sampler(&[addr], per_client, 3, |_| TARGET.to_string());
    assert_eq!(report.errors, 0, "nullcgi errors against {addr}");
    report.mean().as_secs_f64() * 1e3
}

pub fn run() -> TableReport {
    let clients = 24;
    let per_client = if scale::quick() { 10 } else { 30 };

    let mut report = TableReport::new(
        "fig3",
        "Null-CGI mean response time (ms), 24 clients",
        &["configuration", "mean (ms)"],
    );

    // Enterprise baseline.
    let enterprise = ThreadedServer::start(None, forked_registry(), 16).expect("enterprise");
    let ent = measure(enterprise.addr(), clients, per_client);
    enterprise.shutdown();
    report.row(vec!["Enterprise".into(), fmt_ms(ent)]);

    // HTTPd baseline.
    let httpd = ForkingServer::start(None, forked_registry()).expect("httpd");
    let h = measure(httpd.addr(), clients, per_client);
    httpd.shutdown();
    report.row(vec!["HTTPd".into(), fmt_ms(h)]);

    // Swala, caching disabled.
    let nocache = SwalaServer::start_single(
        ServerOptions {
            caching_enabled: false,
            pool_size: 16,
            ..Default::default()
        },
        forked_registry(),
    )
    .expect("swala no-cache");
    let nc = measure(nocache.http_addr(), clients, per_client);
    nocache.shutdown();
    report.row(vec!["Swala no cache".into(), fmt_ms(nc)]);

    // Swala, remote fetch: warm node 0, load node 1 (§5.1: "The cache on
    // the first node is initially warmed with the CGI request, and then
    // all the requests from WebStone are sent to the second node").
    let servers = swala::start_cluster(2, |_| {
        (
            ServerOptions {
                pool_size: 16,
                ..Default::default()
            },
            forked_registry(),
        )
    })
    .expect("swala pair");
    {
        let mut warm = swala::HttpClient::new(servers[0].http_addr());
        warm.get(TARGET).expect("warm node 0");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while servers[1].manager().directory().total_len() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "insert notice never arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let remote = measure(servers[1].http_addr(), clients, per_client);
    assert_eq!(
        servers[1].cache_stats().remote_hits as usize,
        clients * per_client,
        "every request must be a remote fetch"
    );
    report.row(vec!["Swala remote cache".into(), fmt_ms(remote)]);

    // Swala, local fetch: node 0 already owns the entry.
    let local = measure(servers[0].http_addr(), clients, per_client);
    for s in servers {
        s.shutdown();
    }
    report.row(vec!["Swala local cache".into(), fmt_ms(local)]);

    report.note("paper: Swala no-cache comparable with HTTPd and faster than Enterprise; cache fetches much cheaper than execution (exact magnitudes lost in the available text)");
    report.note("shape to hold: local < remote < execution; remote − local = small constant; no-cache ≈ HTTPd");
    report
}
