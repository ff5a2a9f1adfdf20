//! HTTP response construction, serialization and (client-side) parsing.

use crate::body::Body;
use crate::date;
use crate::error::{HttpError, Result};
use crate::headers::{parse_header_line, Header, HeaderMap};
use crate::mime;
use crate::status::StatusCode;
use crate::version::Version;
use std::borrow::Cow;
use std::cell::Cell;
use std::io::{self, BufRead, IoSlice, Write};

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    pub version: Version,
    pub status: StatusCode,
    pub headers: HeaderMap<'static>,
    pub body: Body,
}

/// Headers a response starts with room for: the server's own are
/// `Content-Type`, `X-Swala-Cache`, `Server`, `Date` and `Connection`.
const HEADER_ROOM: usize = 6;

thread_local! {
    /// The buffer each thread writes response heads into, reused from
    /// one response to the next.
    static HEAD: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    /// The header list of the last response this thread recycled, for
    /// the next one it builds.
    static SPARE_HEADERS: Cell<Vec<Header<'static>>> = const { Cell::new(Vec::new()) };
}

impl Response {
    /// A `200 OK` response with the given content type and body. A
    /// common content type is held as a `'static` string, not copied,
    /// and the header list is the one the thread last
    /// [`recycle`](Self::recycle)d.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Response {
        let mut entries = SPARE_HEADERS.try_with(Cell::take).unwrap_or_default();
        entries.reserve(HEADER_ROOM);
        let mut r = Response {
            version: Version::Http10,
            status: StatusCode::OK,
            headers: HeaderMap::reusing(entries),
            body: body.into(),
        };
        let content_type = match mime::interned(content_type) {
            Some(known) => Cow::Borrowed(known),
            None => Cow::Owned(content_type.to_string()),
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

    /// Done with the response: its header list is kept for the next
    /// response this thread builds, so a connection loop that recycles
    /// each response allocates no header list in steady state.
    pub fn recycle(mut self) {
        let mut entries = self.headers.take_entries();
        entries.clear();
        if entries.capacity() <= 2 * HEADER_ROOM {
            let _ = SPARE_HEADERS.try_with(|spare| spare.set(entries));
        }
    }

    /// Set the `Connection` header according to the keep-alive decision.
    pub fn set_keep_alive(&mut self, keep: bool) {
        self.headers
            .set("Connection", if keep { "keep-alive" } else { "close" });
    }

    /// Server identification header.
    pub fn set_server(&mut self, name: impl Into<Cow<'static, str>>) {
        self.headers.set("Server", name);
    }

    /// A `Date` header that [`write_to`](Self::write_to) fills with the
    /// time of writing (see [`date::NOW`]).
    pub fn set_date_now(&mut self) {
        self.headers.set("Date", date::NOW);
    }

    /// Write this response to `out`, framing the body with `Content-Length`.
    ///
    /// Header and body go out through one vectored write, so a shared
    /// (cached) body reaches the socket without ever being copied into a
    /// response-sized buffer — the zero-copy half of the cache hit path.
    /// The head is written into a buffer the thread reuses.
    ///
    /// When `include_body` is false (HEAD requests) the headers still
    /// advertise the full length but no body bytes are sent.
    pub fn write_to<W: Write>(&self, out: &mut W, include_body: bool) -> Result<()> {
        let mut head = HEAD.take();
        self.write_head(&mut head);
        let body: &[u8] = if include_body { &self.body } else { &[] };
        let written = write_all_vectored(out, &head, body).and_then(|()| Ok(out.flush()?));
        HEAD.set(head);
        written
    }

    /// Serialize the status line and headers (through the terminating
    /// blank line) exactly as [`write_to`](Self::write_to) sends them.
    pub fn head_bytes(&self) -> Vec<u8> {
        let mut head = Vec::new();
        self.write_head(&mut head);
        head
    }

    /// Replace `head` with this response's status line and headers. The
    /// numbers are formatted by hand and a [`date::NOW`] date comes from
    /// the thread's per-second cache, so nothing here allocates once
    /// `head` has grown to a head's size.
    fn write_head(&self, head: &mut Vec<u8>) {
        head.clear();
        head.extend_from_slice(self.version.as_str().as_bytes());
        head.push(b' ');
        push_decimal(head, self.status.as_u16() as u64);
        head.push(b' ');
        head.extend_from_slice(self.status.reason().as_bytes());
        head.extend_from_slice(b"\r\n");
        for h in self.headers.iter() {
            if h.name.eq_ignore_ascii_case("Content-Length") {
                continue; // authoritative value computed below
            }
            head.extend_from_slice(h.name.as_bytes());
            head.extend_from_slice(b": ");
            if h.value == date::NOW && h.name.eq_ignore_ascii_case("Date") {
                date::with_http_date(|now| head.extend_from_slice(now));
            } else {
                head.extend_from_slice(h.value.as_bytes());
            }
            head.extend_from_slice(b"\r\n");
        }
        head.extend_from_slice(b"Content-Length: ");
        push_decimal(head, self.body.len() as u64);
        head.extend_from_slice(b"\r\n\r\n");
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
            headers.append(h.name.into_owned(), h.value.into_owned());
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

/// Append `n` in decimal, without going through `fmt`.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
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
    fn the_head_writer_formats_like_fmt() {
        for (status, len) in [
            (200u16, 0usize),
            (404, 7),
            (500, 1_000_000),
            (999, 12_345_678_901),
        ] {
            let mut r = Response::ok("text/html", Vec::new());
            r.status = StatusCode(status);
            r.set_server("Swala/0.1");
            r.set_keep_alive(true);
            let mut head = Vec::new();
            r.write_head(&mut head);
            let text = String::from_utf8(head).unwrap();
            let expected = format!(
                "HTTP/1.0 {}\r\nContent-Type: text/html\r\nServer: Swala/0.1\r\n\
                 Connection: keep-alive\r\nContent-Length: 0\r\n\r\n",
                StatusCode(status)
            );
            assert_eq!(text, expected);
            let mut digits = Vec::new();
            push_decimal(&mut digits, len as u64);
            assert_eq!(digits, len.to_string().as_bytes());
        }
    }

    #[test]
    fn a_date_now_header_is_written_as_the_time_of_writing() {
        let mut r = Response::ok("text/plain", "x");
        r.set_date_now();
        r.set_keep_alive(false);
        let text = String::from_utf8(r.to_bytes()).unwrap();
        let line = text.lines().find(|l| l.starts_with("Date: ")).unwrap();
        let unix = date::parse_rfc1123(&line["Date: ".len()..]).expect("an RFC 1123 date");
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        assert!(unix.abs_diff(now) <= 1, "{line}");
        // Before the Connection header, where it was set.
        assert!(text.find("Date: ").unwrap() < text.find("Connection: ").unwrap());
        // A date given as text is written as given.
        r.headers.set("Date", "Sun, 06 Nov 1994 08:49:37 GMT");
        assert!(String::from_utf8(r.to_bytes())
            .unwrap()
            .contains("Date: Sun, 06 Nov 1994 08:49:37 GMT\r\n"));
    }

    #[test]
    fn common_content_types_are_not_copied() {
        let r = Response::ok("text/html", "x");
        let ct = &r.headers.iter().next().unwrap().value;
        assert!(matches!(ct, Cow::Borrowed(_)));
        let r = Response::ok("application/x-custom", "x");
        assert_eq!(r.headers.get("Content-Type"), Some("application/x-custom"));
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
