//! The NCSA-HTTPd-style forking baseline.

use crate::forked_cgi::pay_fork_exec_cost;
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

/// Process-per-request server, as NCSA HTTPd 1.5.2 was.
///
/// One acceptor hands each connection to a fresh handler that *first
/// pays a real `fork`+`exec`* — the process creation HTTPd performed per
/// request — then serves exactly one request and closes (HTTP/1.0, no
/// keep-alive). The handler logic itself (parsing, file serving, CGI) is
/// shared with the other servers so that the measured difference is the
/// process model, which is precisely the paper's explanation for
/// HTTPd's numbers.
pub struct ForkingServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

/// Shared immutable state for handlers.
struct Inner {
    docroot: Option<PathBuf>,
    registry: ProgramRegistry,
    server_name: String,
    port: u16,
}

impl ForkingServer {
    /// Start on an ephemeral port.
    pub fn start(docroot: Option<PathBuf>, registry: ProgramRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let inner = Arc::new(Inner {
            docroot,
            registry,
            server_name: "NCSA-HTTPd-baseline/1.5.2".to_string(),
            port: addr.port(),
        });
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let served = Arc::clone(&served);
            std::thread::Builder::new()
                .name("httpd-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let Ok(stream) = conn else { continue };
                        let inner = Arc::clone(&inner);
                        let served = Arc::clone(&served);
                        // A thread carries the per-request "process": it pays
                        // a real process spawn before any work, reproducing
                        // the fork-per-request cost without re-implementing
                        // the whole server as separate binaries.
                        let _ = std::thread::Builder::new()
                            .name("httpd-child".into())
                            .spawn(move || {
                                let _ = pay_fork_exec_cost();
                                handle_one(stream, &inner);
                                served.fetch_add(1, Ordering::Relaxed);
                            });
                    }
                })?
        };
        Ok(ForkingServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            served,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served to completion.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ForkingServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Serve exactly one request, then close (the HTTPd process exits).
fn handle_one(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let req = match read_request(&mut reader) {
        Ok(r) => r,
        Err(HttpError::ConnectionClosed { .. }) | Err(HttpError::Io(_)) => return,
        Err(e) => {
            if let Some(status) = e.response_status() {
                let mut resp = Response::error(status);
                resp.set_keep_alive(false);
                let _ = resp.write_to(&mut writer, true);
            }
            return;
        }
    };
    let mut resp = if inner.registry.is_dynamic(&req.target.path) {
        match inner.registry.resolve(&req.target.path) {
            Some(Some(program)) => {
                let cgi = CgiRequest::from_http(&req, &peer, &inner.server_name, inner.port);
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
    resp.set_server(inner.server_name.clone());
    resp.set_keep_alive(false); // process-per-request: always close
    let _ = resp.write_to(&mut writer, req.method.response_has_body());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use swala::HttpClient;
    use swala_cgi::null_cgi;

    fn registry() -> ProgramRegistry {
        let mut r = ProgramRegistry::new();
        r.register(StdArc::new(null_cgi()));
        r
    }

    #[test]
    fn serves_cgi_and_always_closes() {
        let server = ForkingServer::start(None, registry()).unwrap();
        let mut client = HttpClient::new(server.addr());
        for _ in 0..3 {
            let resp = client.get("/cgi-bin/nullcgi").unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert_eq!(resp.headers.get("Connection"), Some("close"));
            assert!(resp.headers.get("Server").unwrap().contains("NCSA"));
        }
        // Allow handler threads to bump the counter.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.served(), 3);
        server.shutdown();
    }

    #[test]
    fn serves_static_files() {
        let dir = std::env::temp_dir().join(format!("httpd-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("f.txt"), "forked file").unwrap();
        let server = ForkingServer::start(Some(dir.clone()), registry()).unwrap();
        let mut client = HttpClient::new(server.addr());
        assert_eq!(client.get("/f.txt").unwrap().body, b"forked file");
        assert_eq!(
            client.get("/missing").unwrap().status,
            StatusCode::NOT_FOUND
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let server = ForkingServer::start(None, registry()).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..6 {
            handles.push(std::thread::spawn(move || {
                let mut c = HttpClient::new(addr);
                for _ in 0..5 {
                    assert!(c.get("/cgi-bin/nullcgi").unwrap().status.is_success());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }
}
