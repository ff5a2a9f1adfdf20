//! The Netscape-Enterprise-style threaded baseline.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use swala::files::serve_file;
use swala_cgi::{CgiRequest, ProgramRegistry};
use swala_http::{read_request, HttpError, Response, StatusCode};

/// Pooled-thread server without any dynamic-content cache.
///
/// Architecturally this is Swala's HTTP module alone — "this module
/// would comprise the entire Web server if we did not perform caching"
/// (§4.1) — which matches how the paper positions Enterprise: an
/// efficient threaded commercial server that re-executes every CGI.
pub struct ThreadedServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

struct Inner {
    docroot: Option<PathBuf>,
    registry: ProgramRegistry,
    server_name: String,
    port: u16,
}

impl ThreadedServer {
    /// Start with `pool_size` handler threads on an ephemeral port.
    pub fn start(
        docroot: Option<PathBuf>,
        registry: ProgramRegistry,
        pool_size: usize,
    ) -> std::io::Result<Self> {
        assert!(pool_size > 0);
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let inner = Arc::new(Inner {
            docroot,
            registry,
            server_name: "Enterprise-baseline/3.0".to_string(),
            port: addr.port(),
        });
        let mut handles = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let listener = Arc::clone(&listener);
            let inner = Arc::clone(&inner);
            let shutdown = Arc::clone(&shutdown);
            let served = Arc::clone(&served);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("enterprise-{i}"))
                    .spawn(move || loop {
                        let conn = listener.accept();
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let Ok((stream, peer)) = conn else { continue };
                        serve_connection(stream, &peer.to_string(), &inner, &served, &shutdown);
                    })?,
            );
        }
        Ok(ThreadedServer {
            addr,
            shutdown,
            handles,
            served,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedServer {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop();
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    peer: &str,
    inner: &Inner,
    served: &AtomicU64,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let mut idle = Duration::ZERO;
        let req = loop {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            match read_request(&mut reader) {
                Ok(r) => break r,
                Err(HttpError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    idle += Duration::from_millis(100);
                    if idle >= Duration::from_secs(5) {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        let mut resp = if inner.registry.is_dynamic(&req.target.path) {
            match inner.registry.resolve(&req.target.path) {
                Some(Some(program)) => {
                    let cgi = CgiRequest::from_http(&req, peer, &inner.server_name, inner.port);
                    match program.run(&cgi) {
                        Ok(out) => {
                            let mut r = Response::ok(&out.content_type, out.body);
                            r.status = out.status;
                            r
                        }
                        Err(_) => Response::error(StatusCode::INTERNAL_SERVER_ERROR),
                    }
                }
                _ => Response::error(StatusCode::NOT_FOUND),
            }
        } else {
            match &inner.docroot {
                Some(root) => serve_file(root, &req.target.path),
                None => Response::error(StatusCode::NOT_FOUND),
            }
        };
        let keep = req.keep_alive();
        resp.version = req.version;
        resp.set_server(inner.server_name.clone());
        resp.set_keep_alive(keep);
        if resp
            .write_to(&mut writer, req.method.response_has_body())
            .is_err()
        {
            return;
        }
        served.fetch_add(1, Ordering::Relaxed);
        if !keep {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use swala::HttpClient;
    use swala_cgi::{null_cgi, SimulatedProgram, WorkKind};

    fn registry() -> ProgramRegistry {
        let mut r = ProgramRegistry::new();
        r.register(StdArc::new(null_cgi()));
        r.register(StdArc::new(SimulatedProgram::trace_driven(
            "adl",
            WorkKind::Spin,
        )));
        r
    }

    #[test]
    fn keep_alive_and_cgi_reexecution() {
        let server = ThreadedServer::start(None, registry(), 4).unwrap();
        let mut client = HttpClient::new(server.addr());
        let a = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        let b = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        assert_eq!(a.body, b.body);
        assert!(
            a.headers.get("X-Swala-Cache").is_none(),
            "no cache machinery at all"
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.served(), 2);
        server.shutdown();
    }

    #[test]
    fn serves_static_files() {
        let dir = std::env::temp_dir().join(format!("ent-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("e.txt"), "enterprise file").unwrap();
        let server = ThreadedServer::start(Some(dir.clone()), registry(), 2).unwrap();
        let mut client = HttpClient::new(server.addr());
        assert_eq!(client.get("/e.txt").unwrap().body, b"enterprise file");
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pool_handles_concurrency() {
        let server = ThreadedServer::start(None, registry(), 4).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut c = HttpClient::new(addr);
                for i in 0..10 {
                    let r = c
                        .get(&format!("/cgi-bin/adl?id={}&ms=0", t * 10 + i))
                        .unwrap();
                    assert!(r.status.is_success());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let server = ThreadedServer::start(None, registry(), 4).unwrap();
        let _idle = TcpStream::connect(server.addr()).unwrap();
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
