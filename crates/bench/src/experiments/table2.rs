//! Table 2 — file-fetch mean response time vs. client count (§5.1).
//!
//! WebStone file mix against the three servers. The paper's finding:
//! HTTPd (process-per-request) is 2–7× slower than the threaded servers;
//! Enterprise and Swala are comparable, with Swala pulling ahead at
//! higher client counts.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use swala::{ProgramRegistry, ServerOptions, SwalaServer};
use swala_baseline::{ForkingServer, ThreadedServer};
use swala_workload::{materialize_docroot, FileMix, LoadGenerator};

pub fn run() -> TableReport {
    let clients_list: &[usize] = if scale::quick() {
        &[4, 16]
    } else {
        &[4, 8, 16, 24]
    };
    let per_client = if scale::quick() { 25 } else { 60 };

    let docroot = std::env::temp_dir().join(format!("swala-table2-{}", std::process::id()));
    materialize_docroot(&docroot).expect("materialize WebStone docroot");

    let mut report = TableReport::new(
        "table2",
        "File-fetch mean response time (ms) by client count, WebStone mix",
        &["#clients", "HTTPd", "Enterprise", "Swala", "HTTPd/Swala"],
    );

    for &clients in clients_list {
        // Fresh servers per row so connection backlogs don't leak across
        // client counts.
        let httpd = ForkingServer::start(Some(docroot.clone()), ProgramRegistry::new())
            .expect("start forking server");
        let enterprise = ThreadedServer::start(Some(docroot.clone()), ProgramRegistry::new(), 16)
            .expect("start threaded server");
        let swala = SwalaServer::start_single(
            ServerOptions {
                docroot: Some(docroot.clone()),
                pool_size: 16,
                ..Default::default()
            },
            ProgramRegistry::new(),
        )
        .expect("start swala");

        let run = |addr| {
            LoadGenerator::new(clients).run_sampler(&[addr], per_client, 1998, |rng| {
                FileMix::sample(rng).to_string()
            })
        };
        let httpd_report = run(httpd.addr());
        let ent_report = run(enterprise.addr());
        let swala_report = run(swala.http_addr());

        let ms = |r: &swala_workload::LoadReport| r.mean().as_secs_f64() * 1e3;
        let (h, e, s) = (ms(&httpd_report), ms(&ent_report), ms(&swala_report));
        report.row(vec![
            clients.to_string(),
            fmt_ms(h),
            fmt_ms(e),
            fmt_ms(s),
            format!("{:.1}x", h / s.max(1e-9)),
        ]);
        assert_eq!(
            httpd_report.errors + ent_report.errors + swala_report.errors,
            0
        );

        httpd.shutdown();
        enterprise.shutdown();
        swala.shutdown();
    }
    report.note("paper: HTTPd 2–7x slower than Swala; Enterprise ≈ Swala (slightly faster at few clients, slower at many)");
    report.note("our Enterprise stand-in shares Swala's HTTP machinery, so expect Enterprise ≈ Swala throughout");
    let _ = std::fs::remove_dir_all(docroot);
    report
}
