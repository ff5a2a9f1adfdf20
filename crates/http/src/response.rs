//! HTTP response construction, serialization and (client-side) parsing.

use crate::body::Body;
use crate::error::{HttpError, Result};
use crate::headers::{parse_header_line, HeaderMap};
use crate::status::StatusCode;
use crate::version::Version;
use std::io::{self, BufRead, IoSlice, Write};

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    pub version: Version,
    pub status: StatusCode,
    pub headers: HeaderMap,
    pub body: Body,
}

impl Response {
    /// A `200 OK` response with the given content type and body.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Response {
        let mut r = Response {
            version: Version::Http10,
            status: StatusCode::OK,
            headers: HeaderMap::new(),
            body: body.into(),
        };
        r.headers.set("Content-Type", content_type);
        r
    }

    /// An error response with a small HTML body.
    pub fn error(status: StatusCode) -> Response {
        let body = format!(
            "<html><head><title>{status}</title></head>\
             <body><h1>{status}</h1><p>Swala server.</p></body></html>\n"
        );
        let mut r = Response::ok("text/html", body);
        r.status = status;
        r
    }

    /// Set the `Connection` header according to the keep-alive decision.
    pub fn set_keep_alive(&mut self, keep: bool) {
        self.headers
            .set("Connection", if keep { "keep-alive" } else { "close" });
    }

    /// Server identification header.
    pub fn set_server(&mut self, name: &str) {
        self.headers.set("Server", name);
    }

    /// Write this response to `out`, framing the body with `Content-Length`.
    ///
    /// Header and body go out through one vectored write, so a shared
    /// (cached) body reaches the socket without ever being copied into a
    /// response-sized buffer — the zero-copy half of the cache hit path.
    ///
    /// When `include_body` is false (HEAD requests) the headers still
    /// advertise the full length but no body bytes are sent.
    pub fn write_to<W: Write>(&self, out: &mut W, include_body: bool) -> Result<()> {
        let head = self.head_bytes();
        let body: &[u8] = if include_body { &self.body } else { &[] };
        write_all_vectored(out, &head, body)?;
        out.flush()?;
        Ok(())
    }

    /// Serialize the status line and headers (through the terminating
    /// blank line) exactly as [`write_to`](Self::write_to) sends them.
    pub fn head_bytes(&self) -> Vec<u8> {
        let mut head = Vec::with_capacity(256);
        // Formatting straight into the Vec cannot fail and allocates no
        // intermediate strings.
        let _ = write!(head, "{} {}\r\n", self.version.as_str(), self.status);
        for h in self.headers.iter() {
            if h.name.eq_ignore_ascii_case("Content-Length") {
                continue; // authoritative value computed below
            }
            head.extend_from_slice(h.name.as_bytes());
            head.extend_from_slice(b": ");
            head.extend_from_slice(h.value.as_bytes());
            head.extend_from_slice(b"\r\n");
        }
        let _ = write!(head, "Content-Length: {}\r\n\r\n", self.body.len());
        head
    }

    /// Serialize to a byte vector (body included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(256 + self.body.len());
        self.write_to(&mut v, true)
            .expect("writing to Vec cannot fail");
        v
    }

    /// Parse a response from `reader` (used by load-generator clients).
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Response> {
        Self::read_from_expecting(reader, true)
    }

    /// Parse a response, optionally without reading a body.
    ///
    /// Pass `expect_body = false` for responses to HEAD requests, whose
    /// `Content-Length` describes the entity that *would* have been sent.
    pub fn read_from_expecting<R: BufRead>(reader: &mut R, expect_body: bool) -> Result<Response> {
        let status_line = read_line(reader)?;
        let mut parts = status_line.splitn(3, ' ');
        let version: Version = parts
            .next()
            .ok_or_else(|| HttpError::BadRequestLine(status_line.clone()))?
            .parse()?;
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::BadRequestLine(status_line.clone()))?;
        // Reason phrase (rest of line) is ignored.
        let mut headers = HeaderMap::new();
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            let h = parse_header_line(&line).ok_or_else(|| HttpError::BadHeader(line.clone()))?;
            headers.append(h.name, h.value);
        }
        let len = if expect_body {
            headers
                .content_length()
                .map_err(HttpError::BadContentLength)?
                .unwrap_or(0)
        } else {
            0
        };
        let mut body = vec![0u8; len];
        if len > 0 {
            reader.read_exact(&mut body)?;
        }
        Ok(Response {
            version,
            status: StatusCode(code),
            headers,
            body: body.into(),
        })
    }
}

/// Write `head` then `body` as one logical stream, preferring a single
/// vectored write. Partial writes are resumed without re-sending bytes;
/// the body buffer is never copied.
fn write_all_vectored<W: Write>(out: &mut W, head: &[u8], body: &[u8]) -> Result<()> {
    let mut head_off = 0usize;
    let mut body_off = 0usize;
    while head_off < head.len() || body_off < body.len() {
        let n = if head_off < head.len() && !body.is_empty() {
            let slices = [IoSlice::new(&head[head_off..]), IoSlice::new(body)];
            out.write_vectored(&slices)?
        } else if head_off < head.len() {
            out.write(&head[head_off..])?
        } else {
            out.write(&body[body_off..])?
        };
        if n == 0 {
            return Err(HttpError::Io(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write response",
            )));
        }
        let head_take = n.min(head.len() - head_off);
        head_off += head_take;
        body_off += n - head_take;
    }
    Ok(())
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String> {
    let mut s = String::new();
    let n = reader.read_line(&mut s)?;
    if n == 0 {
        return Err(HttpError::ConnectionClosed { clean: false });
    }
    while s.ends_with('\n') || s.ends_with('\r') {
        s.pop();
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn ok_roundtrip() {
        let mut r = Response::ok("text/plain", "hello");
        r.set_keep_alive(true);
        r.set_server("swala/0.1");
        let bytes = r.to_bytes();
        let parsed = Response::read_from(&mut BufReader::new(&bytes[..])).unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.body, b"hello");
        assert_eq!(parsed.headers.get("content-type"), Some("text/plain"));
        assert_eq!(parsed.headers.get("server"), Some("swala/0.1"));
        assert!(parsed.headers.keep_alive(parsed.version));
    }

    #[test]
    fn content_length_is_authoritative() {
        let mut r = Response::ok("text/plain", "abc");
        // A stale manual Content-Length must be overridden on the wire.
        r.headers.set("Content-Length", "9999");
        let bytes = r.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(!text.contains("9999"));
    }

    #[test]
    fn head_omits_body_keeps_length() {
        let r = Response::ok("text/plain", "abcdef");
        let mut out = Vec::new();
        r.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 6"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn error_pages_contain_status() {
        let r = Response::error(StatusCode::NOT_FOUND);
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        assert!(body.contains("404 Not Found"));
    }

    #[test]
    fn parse_rejects_truncated() {
        let full = Response::ok("text/plain", "0123456789").to_bytes();
        let cut = &full[..full.len() - 4];
        assert!(Response::read_from(&mut BufReader::new(cut)).is_err());
    }

    #[test]
    fn parse_empty_body() {
        let r = Response::error(StatusCode::NO_CONTENT);
        let mut r = r;
        r.body.clear();
        let parsed = Response::read_from(&mut BufReader::new(&r.to_bytes()[..])).unwrap();
        assert!(parsed.body.is_empty());
        assert_eq!(parsed.status.as_u16(), 204);
    }

    #[test]
    fn shared_body_serves_identical_bytes() {
        use std::sync::Arc;
        let buf: Arc<[u8]> = Arc::from(b"zero-copy-body".as_slice());
        let r = Response::ok("text/plain", Body::from(Arc::clone(&buf)));
        // The response holds the same allocation, not a copy.
        assert!(Arc::ptr_eq(r.body.as_shared().unwrap(), &buf));
        let parsed = Response::read_from(&mut BufReader::new(&r.to_bytes()[..])).unwrap();
        assert_eq!(parsed.body, b"zero-copy-body");
    }

    /// A writer that accepts one byte per call, exercising the partial
    /// write resumption of the vectored path.
    struct TrickleWriter(Vec<u8>);
    impl std::io::Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            for b in bufs {
                if !b.is_empty() {
                    return self.write(b);
                }
            }
            Ok(0)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_are_resumed() {
        let r = Response::ok("text/plain", "slow but complete");
        let mut w = TrickleWriter(Vec::new());
        r.write_to(&mut w, true).unwrap();
        let parsed = Response::read_from(&mut BufReader::new(&w.0[..])).unwrap();
        assert_eq!(parsed.body, b"slow but complete");
    }

    #[test]
    fn sequential_responses_on_one_stream() {
        let a = Response::ok("text/plain", "first").to_bytes();
        let b = Response::ok("text/plain", "second").to_bytes();
        let wire: Vec<u8> = a.into_iter().chain(b).collect();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(Response::read_from(&mut reader).unwrap().body, b"first");
        assert_eq!(Response::read_from(&mut reader).unwrap().body, b"second");
    }
}
