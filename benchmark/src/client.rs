//! The caller side: one keep-alive HTTP connection and the per-reply
//! output checks.
//!
//! Hand-rolled rather than `swala::HttpClient` so the hit workloads pay
//! one buffer scan per reply (no header map, no body copy) and so the
//! timing marks sit exactly at the socket calls.

use crate::gen::{file_content, Class, Req};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use swala_cgi::{CgiRequest, Program, SimulatedProgram, WorkKind};

/// Socket timeout: far above any reply time these workloads produce, so
/// it only fires when a node has died or wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `X-Swala-Cache` classes the runner counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    None,
    LocalHit,
    RemoteHit,
    Miss,
    Other,
}

impl CacheTag {
    pub const COUNT: usize = 5;

    fn parse(value: &[u8]) -> CacheTag {
        match value {
            b"local-hit" => CacheTag::LocalHit,
            b"remote-hit" => CacheTag::RemoteHit,
            b"miss" => CacheTag::Miss,
            _ => CacheTag::Other,
        }
    }

    pub fn from_name(name: &str) -> CacheTag {
        CacheTag::parse(name.as_bytes())
    }
}

/// When each phase of one round trip ended.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub sent: Instant,
    pub head: Instant,
    pub done: Instant,
}

/// A parsed reply; the body stays in the connection's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    pub status: u16,
    pub content_length: usize,
    pub cache: CacheTag,
    pub body: &'a [u8],
    pub marks: Option<Marks>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(128 * 1024),
        })
    }

    /// Write one request and read its whole reply.
    pub fn roundtrip(&mut self, wire: &[u8], timed: bool) -> io::Result<Reply<'_>> {
        self.stream.write_all(wire)?;
        let sent = timed.then(Instant::now);
        self.buf.clear();
        let head_end = loop {
            let old = self.buf.len();
            self.fill()?;
            // The terminator may straddle two reads.
            if let Some(p) = find_crlfcrlf(&self.buf[old.saturating_sub(3)..]) {
                break old.saturating_sub(3) + p + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(bad("reply header exceeds 64 KiB"));
            }
        };
        let head_at = timed.then(Instant::now);
        let (status, content_length, cache) = parse_head(&self.buf[..head_end])?;
        let body_len = content_length.ok_or_else(|| bad("reply without Content-Length"))?;
        if body_len > 16 * 1024 * 1024 {
            return Err(bad("reply body exceeds 16 MiB"));
        }
        let total = head_end + body_len;
        if self.buf.len() > total {
            return Err(bad("bytes after the reply on an unpipelined connection"));
        }
        if self.buf.len() < total {
            let have = self.buf.len();
            self.buf.resize(total, 0);
            self.stream.read_exact(&mut self.buf[have..])?;
        }
        let marks = match (sent, head_at) {
            (Some(sent), Some(head)) => Some(Marks {
                sent,
                head,
                done: Instant::now(),
            }),
            _ => None,
        };
        Ok(Reply {
            status,
            content_length: body_len,
            cache,
            body: &self.buf[head_end..total],
            marks,
        })
    }

    /// One `read` appended to the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let old = self.buf.len();
        self.buf.resize(old + 16 * 1024, 0);
        let n = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            )),
            _ => Ok(()),
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find_crlfcrlf(hay: &[u8]) -> Option<usize> {
    hay.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> io::Result<(u16, Option<usize>, CacheTag)> {
    let mut lines = head.split(|&b| b == b'\n');
    let status_line = lines.next().unwrap_or(b"");
    // "HTTP/1.1 200 OK"
    let status = status_line
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    let mut cache = CacheTag::None;
    for line in lines {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            content_length = std::str::from_utf8(value)
                .ok()
                .and_then(|v| v.parse::<usize>().ok());
            if content_length.is_none() {
                return Err(bad("malformed Content-Length"));
            }
        } else if name.eq_ignore_ascii_case(b"x-swala-cache") {
            cache = CacheTag::parse(value);
        }
    }
    Ok((status, content_length, cache))
}

/// 64-bit body fingerprint, eight bytes per step (a byte-at-a-time hash
/// of a 4 KiB body would cost a third of a `hit-local` round trip).
pub fn fingerprint(body: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(0x2127_599b_f432_5c37).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 32)
}

/// The body the server must produce for `req`, computed in-process from
/// the same public program the `swala` binary registers (zero cost, so
/// `ms=` does not make the check spin).
pub fn reference_body(req: &Req) -> Vec<u8> {
    match req.class {
        Class::Static => file_content(req.body_len),
        Class::Dynamic => {
            let http = swala_http::Request::get(&req.target).expect("generated target parses");
            let cgi = CgiRequest::from_http(&http, "127.0.0.1:0", "swala-benchmark", 80);
            SimulatedProgram::fixed("adl", Duration::ZERO, WorkKind::Spin, req.body_len)
                .run(&cgi)
                .expect("simulated program cannot fail")
                .body
        }
    }
}

/// Why a reply was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Io,
    Status,
    Length,
    Body,
    CacheClass,
}

impl Failure {
    pub const ALL: [Failure; 5] = [
        Failure::Io,
        Failure::Status,
        Failure::Length,
        Failure::Body,
        Failure::CacheClass,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Failure::Io => "io",
            Failure::Status => "status",
            Failure::Length => "content-length",
            Failure::Body => "body",
            Failure::CacheClass => "cache-class",
        }
    }
}

/// Per-caller reply checker: a key's first body is compared byte for
/// byte with the reference, later ones by fingerprint with the first.
pub struct Verifier {
    first_seen: Vec<Option<u64>>,
    expect_cache: Option<CacheTag>,
}

impl Verifier {
    pub fn new(slots: usize, expect_cache: Option<CacheTag>) -> Verifier {
        Verifier {
            first_seen: vec![None; slots],
            expect_cache,
        }
    }

    /// `timed_window` is false for set-up requests, which are misses
    /// whatever class the timed window expects.
    pub fn check(
        &mut self,
        req: &Req,
        reply: &Reply<'_>,
        timed_window: bool,
    ) -> Result<(), Failure> {
        if reply.status != 200 {
            return Err(Failure::Status);
        }
        if reply.content_length != req.body_len {
            return Err(Failure::Length);
        }
        let known = req.slot.and_then(|s| self.first_seen[s as usize]);
        match known {
            Some(fp) if fp == fingerprint(reply.body) => {}
            Some(_) => return Err(Failure::Body),
            None => {
                if reply.body != reference_body(req).as_slice() {
                    return Err(Failure::Body);
                }
                if let Some(s) = req.slot {
                    self.first_seen[s as usize] = Some(fingerprint(reply.body));
                }
            }
        }
        if timed_window && req.class == Class::Dynamic {
            if let Some(want) = self.expect_cache {
                if reply.cache != want {
                    return Err(Failure::CacheClass);
                }
            }
        }
        Ok(())
    }
}

/// One-shot GET on a fresh connection (scrapes, probes); returns the body.
pub fn get_once(addr: SocketAddr, target: &str) -> io::Result<Vec<u8>> {
    let mut conn = Conn::connect(addr)?;
    let wire = format!("GET {target} HTTP/1.1\r\nHost: swala\r\nConnection: close\r\n\r\n");
    let reply = conn.roundtrip(wire.as_bytes(), false)?;
    if reply.status != 200 {
        return Err(bad(&format!("{target}: status {}", reply.status)));
    }
    Ok(reply.body.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parser_reads_what_the_checks_need() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nX-Swala-Cache: remote-hit\r\ncontent-length: 4096\r\n\r\n";
        let (status, len, cache) = parse_head(head).unwrap();
        assert_eq!((status, len, cache), (200, Some(4096), CacheTag::RemoteHit));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn fingerprint_separates_near_identical_bodies() {
        let a = vec![b'a'; 4096];
        let mut b = a.clone();
        b[4000] = b'b';
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..4095]));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }
}
