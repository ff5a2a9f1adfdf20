//! Table 4 — replicated-directory maintenance overhead (§5.2).
//!
//! One Swala node is told it belongs to an 8-node cluster; a
//! pseudo-server impersonates the other seven and floods directory
//! updates at a configured rate (UPS) while the node serves 180
//! *uncacheable* 1-paper-second requests. The claim: "the increase in
//! response time on the one-second requests is insignificant" at any
//! realistic update rate.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::time::Instant;
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::CacheRules;
use swala_cgi::WorkKind;
use swala_cluster::cluster::gated_registry;
use swala_cluster::PseudoServer;

pub fn run() -> TableReport {
    let ups_list: &[u64] = if scale::quick() {
        &[0, 400]
    } else {
        &[0, 100, 400, 1600]
    };
    let requests = if scale::quick() { 60 } else { 180 };
    let ms = scale::ms_per_paper_second().round() as u64;

    let mut report = TableReport::new(
        "table4",
        "Replicated-directory maintenance: mean response (ms) of uncacheable requests vs UPS",
        &["UPS", "mean (ms)", "increase"],
    );

    let mut base = None;
    for &ups in ups_list {
        // Fresh node per row: directory size grows with applied updates,
        // and rows must start from the same state.
        let server = SwalaServer::start_single(
            ServerOptions {
                num_nodes: 8,
                pool_size: 4,
                rules: CacheRules::deny_all(), // every request uncacheable
                ..Default::default()
            },
            gated_registry(WorkKind::Sleep, Some(1)),
        )
        .expect("start node");
        let pseudo = PseudoServer::start(server.cache_addr(), 7, ups);

        let mut client = HttpClient::new(server.http_addr());
        let mut total = 0.0;
        for n in 0..requests {
            let t0 = Instant::now();
            let resp = client
                .get(&format!("/cgi-bin/adl?id={n}&ms={ms}"))
                .expect("request");
            assert!(resp.status.is_success());
            total += t0.elapsed().as_secs_f64();
        }
        let mean = total / requests as f64 * 1e3;
        let sent = pseudo.stop();
        if ups > 0 {
            assert!(sent > 0, "pseudo-server sent nothing at {ups} UPS");
            assert!(
                server.cache_stats().updates_applied > 0,
                "no updates applied"
            );
        }
        assert_eq!(server.cache_stats().uncacheable, requests as u64);
        server.shutdown();

        let base = *base.get_or_insert(mean);
        report.row(vec![
            ups.to_string(),
            fmt_ms(mean),
            format!("{:+.2}", mean - base),
        ]);
    }
    report.note("paper: \"the increase in response time on the one-second requests is insignificant\" at every tested UPS");
    report.note(format!(
        "scale: 1 paper-second = {ms} live ms; pseudo-server impersonates 7 peers"
    ));
    report
}
