//! WebStone-style load generation.
//!
//! §5.1 benchmarks file fetching with WebStone and this mix: "a 500 byte
//! file is requested 35% of the time; a 5 Kb file is requested 50%; a
//! 50Kb file is requested 14%; a 500Kb file is requested 0.9%, and a 1Mb
//! file is requested 0.1% of the time." The CGI experiments run "24
//! client processes sending the same request".
//!
//! [`LoadGenerator`] reproduces the tool: N client threads, each with a
//! keep-alive connection, issuing requests and recording wall-clock
//! latency into one [`Histogram`], the summariser the nodes use too; the
//! report carries the mean response time the paper's tables plot,
//! computed from the histogram's exact sum.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use swala::HttpClient;
use swala_obs::{Histogram, HistogramSnapshot};

/// One file class in the WebStone mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Path under the docroot.
    pub path: &'static str,
    /// File size in bytes.
    pub size: usize,
    /// Request probability ×1000 (the weights sum to 1000).
    pub weight_permille: u32,
}

/// The paper's WebStone file mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileMix;

impl FileMix {
    /// The five file classes with the paper's exact weights.
    pub const CLASSES: [FileClass; 5] = [
        FileClass {
            path: "/ws500.txt",
            size: 500,
            weight_permille: 350,
        },
        FileClass {
            path: "/ws5k.txt",
            size: 5 * 1024,
            weight_permille: 500,
        },
        FileClass {
            path: "/ws50k.txt",
            size: 50 * 1024,
            weight_permille: 140,
        },
        FileClass {
            path: "/ws500k.txt",
            size: 500 * 1024,
            weight_permille: 9,
        },
        FileClass {
            path: "/ws1m.txt",
            size: 1024 * 1024,
            weight_permille: 1,
        },
    ];

    /// Sample a path according to the mix.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
        let mut roll = rng.random_range(0..1000u32);
        for class in &Self::CLASSES {
            if roll < class.weight_permille {
                return class.path;
            }
            roll -= class.weight_permille;
        }
        unreachable!("weights sum to 1000")
    }
}

/// Create the WebStone files under `docroot`.
pub fn materialize_docroot(docroot: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(docroot)?;
    for class in &FileMix::CLASSES {
        let rel = class.path.trim_start_matches('/');
        let body: Vec<u8> = (0..class.size).map(|i| b'a' + (i % 26) as u8).collect();
        std::fs::write(docroot.join(rel), body)?;
    }
    Ok(())
}

/// Aggregate result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Latency of every successful request, microseconds.
    pub latency: HistogramSnapshot,
    /// Requests that failed (connect/parse errors, non-2xx).
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Requests completed successfully.
    pub completed: usize,
}

impl LoadReport {
    /// Mean response time: the exact sum over the count, whole
    /// microseconds (zero for a run with no successes).
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.latency.sum / self.latency.count.max(1))
    }

    /// Completed requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Multi-threaded closed-loop load generator.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenerator {
    /// Concurrent client threads (the paper's "client processes").
    pub clients: usize,
}

impl LoadGenerator {
    pub fn new(clients: usize) -> Self {
        assert!(clients > 0);
        LoadGenerator { clients }
    }

    /// Each client issues `per_client` requests, sampling targets from
    /// `sampler` with its own seeded RNG. Clients round-robin over
    /// `addrs`.
    pub fn run_sampler<F>(
        &self,
        addrs: &[SocketAddr],
        per_client: usize,
        seed: u64,
        sampler: F,
    ) -> LoadReport
    where
        F: Fn(&mut StdRng) -> String + Send + Sync,
    {
        assert!(!addrs.is_empty());
        let started = Instant::now();
        let latency = Histogram::new();
        let errors = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let (sampler, latency) = (&sampler, &latency);
                    let addr = addrs[c % addrs.len()];
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
                        let mut client = HttpClient::new(addr);
                        let mut errs = 0usize;
                        for _ in 0..per_client {
                            let target = sampler(&mut rng);
                            let t0 = Instant::now();
                            match client.get(&target) {
                                Ok(resp) if resp.status.is_success() => {
                                    latency.record_duration(t0.elapsed())
                                }
                                _ => errs += 1,
                            }
                        }
                        errs
                    })
                })
                .collect();
            joined_errors(handles)
        });
        finish(&latency, errors, started)
    }

    /// Clients drain a shared list of targets (trace replay): target `i`
    /// goes to whichever client pulls index `i` first, mirroring a
    /// front-end sprayer. Each client sticks to one server address.
    pub fn replay_shared(&self, addrs: &[SocketAddr], targets: &[String]) -> LoadReport {
        assert!(!addrs.is_empty());
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let latency = Histogram::new();
        let errors = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let (next, latency) = (&next, &latency);
                    let addr = addrs[c % addrs.len()];
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr);
                        let mut errs = 0usize;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= targets.len() {
                                break;
                            }
                            let t0 = Instant::now();
                            match client.get(&targets[i]) {
                                Ok(resp) if resp.status.is_success() => {
                                    latency.record_duration(t0.elapsed())
                                }
                                _ => errs += 1,
                            }
                        }
                        errs
                    })
                })
                .collect();
            joined_errors(handles)
        });
        finish(&latency, errors, started)
    }
}

/// Join the client threads, summing the errors each counted.
fn joined_errors(handles: Vec<std::thread::ScopedJoinHandle<'_, usize>>) -> usize {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .sum()
}

fn finish(latency: &Histogram, errors: usize, started: Instant) -> LoadReport {
    let latency = latency.snapshot();
    LoadReport {
        completed: latency.count as usize,
        latency,
        errors,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_weights_sum_to_1000() {
        let total: u32 = FileMix::CLASSES.iter().map(|c| c.weight_permille).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn sampling_matches_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(FileMix::sample(&mut rng)).or_insert(0usize) += 1;
        }
        for class in &FileMix::CLASSES {
            let freq = *counts.get(class.path).unwrap_or(&0) as f64 / n as f64;
            let expected = class.weight_permille as f64 / 1000.0;
            assert!(
                (freq - expected).abs() < 0.01,
                "{}: freq {freq} vs expected {expected}",
                class.path
            );
        }
    }

    #[test]
    fn materialize_creates_correct_sizes() {
        let dir = std::env::temp_dir().join(format!("swala-ws-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        materialize_docroot(&dir).unwrap();
        for class in &FileMix::CLASSES {
            let meta = std::fs::metadata(dir.join(class.path.trim_start_matches('/'))).unwrap();
            assert_eq!(meta.len() as usize, class.size, "{}", class.path);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_generator_against_live_server() {
        use std::sync::Arc;
        use swala::{ProgramRegistry, ServerOptions, SimulatedProgram, SwalaServer, WorkKind};
        let mut registry = ProgramRegistry::new();
        registry.register(Arc::new(SimulatedProgram::trace_driven(
            "adl",
            WorkKind::Spin,
        )));
        let server = SwalaServer::start_single(
            ServerOptions {
                pool_size: 4,
                ..Default::default()
            },
            registry,
        )
        .unwrap();

        let report = LoadGenerator::new(4).run_sampler(&[server.http_addr()], 10, 9, |rng| {
            format!("/cgi-bin/adl?id={}&ms=0", rng.random_range(0..5))
        });
        assert_eq!(report.completed, 40);
        assert_eq!(report.errors, 0);
        assert!(report.mean() > Duration::ZERO);
        assert!(report.latency.p50() <= report.latency.p99());
        assert!(report.throughput() > 0.0);

        let targets: Vec<String> = (0..30)
            .map(|i| format!("/cgi-bin/adl?id={}&ms=0", i % 3))
            .collect();
        let replay = LoadGenerator::new(3).replay_shared(&[server.http_addr()], &targets);
        assert_eq!(replay.completed + replay.errors, 30);
        assert_eq!(replay.errors, 0);
        server.shutdown();
    }

    #[test]
    fn errors_counted_for_dead_server() {
        let report =
            LoadGenerator::new(2).run_sampler(&["127.0.0.1:1".parse().unwrap()], 3, 1, |_| {
                "/x".to_string()
            });
        assert_eq!(report.completed, 0);
        assert_eq!(report.errors, 6);
    }
}
