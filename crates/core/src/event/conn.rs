//! Per-connection state for the event engine: a small state machine plus
//! a resumable response write.
//!
//! The threaded pool dedicates a thread per connection, so its "state" is
//! just the program counter. Here thousands of connections share one loop
//! thread, so each carries its phase explicitly. Idle connections hold no
//! request buffer — that is what makes 10k parked keep-alive clients
//! cheap.

use super::source::Interest;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::time::Instant;
use swala_http::{Request, Response};
use swala_obs::Trace;

/// Where one connection is in its keep-alive request cycle.
pub enum ConnState {
    /// Between requests: waiting for the first byte of the next one.
    /// Expiry closes silently (the threaded pool's idle-wait semantics).
    Idle,
    /// Partial request bytes buffered; `started` stamps the first byte
    /// (it becomes the trace's attempt start). Expiry means a stalled
    /// client: answer 408 and close.
    Reading { started: Instant },
    /// The parsed request is on a worker; interest is errors-only.
    Executing,
    /// A response is draining through nonblocking writes. Boxed so the
    /// thousands of parked (Idle) connections pay a pointer, not the
    /// whole in-flight write.
    Writing(Box<WriteJob>),
}

/// Everything finishing a traced request needs once its response write
/// completes: the ResponseWrite span, the telemetry finish and the
/// access-log line all happen *after* the last byte (threaded ordering).
/// Plain writes (408, parse-error replies) carry no finish context.
pub struct FinishMeta {
    pub req: Request,
    pub trace: Trace,
}

/// Outcome of pushing more response bytes.
pub enum WriteProgress {
    /// Everything (head + body) is on the socket.
    Done,
    /// The socket would block; wait for writability.
    Pending,
    /// The connection is unusable (reset, write-zero).
    Failed,
}

/// A response mid-write. The response is kept whole — the body is
/// borrowed at write time, so a shared (cached) body is never copied, and
/// the access-log line can still read status and length afterwards.
pub struct WriteJob {
    pub resp: Response,
    head: Vec<u8>,
    head_off: usize,
    body_off: usize,
    include_body: bool,
    /// Keep-alive decision for after the write.
    pub keep: bool,
    /// When the first write attempt happened (ResponseWrite span start).
    pub started: Instant,
    pub finish: Option<FinishMeta>,
}

impl WriteJob {
    pub fn new(
        resp: Response,
        include_body: bool,
        keep: bool,
        finish: Option<FinishMeta>,
    ) -> WriteJob {
        WriteJob {
            head: resp.head_bytes(),
            resp,
            head_off: 0,
            body_off: 0,
            include_body,
            keep,
            started: Instant::now(),
            finish,
        }
    }

    /// Push as many bytes as the socket will take right now.
    pub fn advance(&mut self, stream: &mut TcpStream) -> WriteProgress {
        let body: &[u8] = if self.include_body {
            &self.resp.body
        } else {
            &[]
        };
        while self.head_off < self.head.len() || self.body_off < body.len() {
            let result = if self.head_off < self.head.len() && self.body_off < body.len() {
                let slices = [
                    IoSlice::new(&self.head[self.head_off..]),
                    IoSlice::new(&body[self.body_off..]),
                ];
                stream.write_vectored(&slices)
            } else if self.head_off < self.head.len() {
                stream.write(&self.head[self.head_off..])
            } else {
                stream.write(&body[self.body_off..])
            };
            match result {
                Ok(0) => return WriteProgress::Failed,
                Ok(n) => {
                    let head_take = n.min(self.head.len() - self.head_off);
                    self.head_off += head_take;
                    self.body_off += n - head_take;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteProgress::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteProgress::Failed,
            }
        }
        WriteProgress::Done
    }
}

/// One event-engine connection.
pub struct Conn {
    pub stream: TcpStream,
    pub peer: String,
    /// Buffered request bytes (empty whenever the connection is idle).
    pub buf: Vec<u8>,
    pub state: ConnState,
    /// When the current state times out; `None` = no timeout (a request
    /// executing or a response draining is never abandoned by the clock,
    /// matching the threaded pool's blocking write).
    pub deadline: Option<Instant>,
    /// The peer hung up while we were still executing its request: finish
    /// the bookkeeping when the completion arrives, then close.
    pub dead: bool,
    /// What the event source currently watches for us (avoids redundant
    /// `modify` syscalls on state transitions that keep the interest).
    pub interest: Interest,
}

impl Conn {
    pub fn new(stream: TcpStream, peer: String, idle_until: Instant) -> Conn {
        Conn {
            stream,
            peer,
            buf: Vec::new(),
            state: ConnState::Idle,
            deadline: Some(idle_until),
            dead: false,
            interest: Interest::Read,
        }
    }

    pub fn is_idle(&self) -> bool {
        matches!(self.state, ConnState::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A WriteJob against a socket whose peer reads slowly must resume
    /// cleanly and deliver byte-identical output to `write_to`.
    #[test]
    fn write_job_resumes_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // Big enough to overflow the socket buffer and force Pending.
        let body = vec![b'z'; 4 * 1024 * 1024];
        let mut resp = Response::ok("application/octet-stream", body.clone());
        resp.set_keep_alive(false);
        let expected = resp.to_bytes();

        let mut job = WriteJob::new(resp, true, false, None);
        let mut got = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match job.advance(&mut server) {
                WriteProgress::Done => break,
                WriteProgress::Pending => {
                    let n = client.read(&mut chunk).unwrap();
                    got.extend_from_slice(&chunk[..n]);
                }
                WriteProgress::Failed => panic!("write failed"),
            }
        }
        drop(server);
        loop {
            let n = client.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn head_request_sends_no_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let resp = Response::ok("text/plain", "abcdef");
        let mut job = WriteJob::new(resp, false, false, None);
        assert!(matches!(job.advance(&mut server), WriteProgress::Done));
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.contains("Content-Length: 6"));
        assert!(text.ends_with("\r\n\r\n"), "no body bytes after headers");
    }

    #[test]
    fn failed_write_reports_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        // Peer closes without reading; data written after the close draws
        // an RST, so a body too big to buffer must eventually Fail.
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));

        let resp = Response::ok("application/octet-stream", vec![b'x'; 8 * 1024 * 1024]);
        let mut job = WriteJob::new(resp, true, false, None);
        for _ in 0..200 {
            match job.advance(&mut server) {
                WriteProgress::Failed => return,
                WriteProgress::Done => panic!("8 MiB fit a closed peer"),
                WriteProgress::Pending => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        panic!("write against a reset peer never failed");
    }
}
