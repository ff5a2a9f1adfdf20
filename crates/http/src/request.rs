//! HTTP request representation and wire parsing.

use crate::error::{HttpError, Result};
use crate::headers::{parse_header_line, HeaderMap};
use crate::method::Method;
use crate::uri::RequestTarget;
use crate::version::Version;
use crate::{MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE};
use std::io::BufRead;

/// A fully parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    pub target: RequestTarget,
    pub version: Version,
    pub headers: HeaderMap,
    /// Request body (POST). Empty for GET/HEAD.
    pub body: Vec<u8>,
}

impl Request {
    /// Convenience constructor for tests and clients.
    pub fn new(method: Method, target: &str) -> Result<Request> {
        Ok(Request {
            method,
            target: RequestTarget::parse(target)?,
            version: Version::Http10,
            headers: HeaderMap::new(),
            body: Vec::new(),
        })
    }

    /// GET request with keep-alive, the common client-side case.
    pub fn get(target: &str) -> Result<Request> {
        let mut r = Request::new(Method::Get, target)?;
        r.headers.set("Connection", "keep-alive");
        Ok(r)
    }

    /// Whether the connection should persist after this request.
    pub fn keep_alive(&self) -> bool {
        self.headers.keep_alive(self.version)
    }

    /// Serialize to wire format (used by the load generator clients).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target.cache_key_string().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.version.as_str().as_bytes());
        out.extend_from_slice(b"\r\n");
        for h in self.headers.iter() {
            out.extend_from_slice(h.name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(h.value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !self.body.is_empty() && !self.headers.contains("Content-Length") {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Where a parse of buffered bytes stopped.
enum Parsed {
    /// A whole request, and how many bytes of the buffer it took.
    Complete(Request, usize),
    /// The buffer ends mid-request. `clean` when it ends before the
    /// request's first byte (at most stray blank lines were seen).
    Incomplete { clean: bool },
}

/// The next line of `rest`, without its `\n` (or `\r\n`) terminator, and
/// the offset just past it. `None` when no terminator is buffered yet.
/// `limit` bounds the line's length either way.
fn next_line<'a>(
    rest: &'a [u8],
    limit: usize,
    what: &'static str,
) -> Result<Option<(&'a str, usize)>> {
    let (line, next) = match rest.iter().position(|&b| b == b'\n') {
        Some(pos) => (&rest[..pos], Some(pos + 1)),
        None => (rest, None),
    };
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.len() > limit {
        return Err(HttpError::TooLarge(what));
    }
    let Some(next) = next else {
        return Ok(None);
    };
    std::str::from_utf8(line)
        .map(|line| Some((line, next)))
        .map_err(|e| HttpError::BadRequestLine(format!("non-utf8 line: {e}")))
}

/// Parse one request from the front of `buf`. Lines are parsed where
/// they lie; only what the [`Request`] keeps is copied out.
fn parse_buffered(buf: &[u8]) -> Result<Parsed> {
    // Request line, skipping at most a few stray CRLFs (RFC 2616 §4.1).
    let mut pos = 0;
    let mut skipped = 0;
    let line = loop {
        if pos == buf.len() {
            return Ok(Parsed::Incomplete { clean: true });
        }
        let Some((line, next)) = next_line(&buf[pos..], MAX_REQUEST_LINE, "request line")? else {
            return Ok(Parsed::Incomplete { clean: false });
        };
        pos += next;
        if !line.is_empty() {
            break line;
        }
        skipped += 1;
        if skipped > 4 {
            return Err(HttpError::BadRequestLine("leading blank lines".into()));
        }
    };

    let bad_line = || HttpError::BadRequestLine(line.to_string());
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method: Method = parts.next().ok_or_else(bad_line)?.parse()?;
    let raw_target = parts.next().ok_or_else(bad_line)?;
    let version: Version = match parts.next() {
        Some(v) => v.parse()?,
        // HTTP/0.9 simple requests carried no version; treat as 1.0.
        None => Version::Http10,
    };
    if parts.next().is_some() {
        return Err(bad_line());
    }
    let target = RequestTarget::parse(raw_target)?;

    // Headers.
    let mut headers = HeaderMap::new();
    loop {
        let Some((hline, next)) = next_line(&buf[pos..], MAX_HEADER_LINE, "header line")? else {
            return Ok(Parsed::Incomplete { clean: false });
        };
        pos += next;
        if hline.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let h = parse_header_line(hline).ok_or_else(|| HttpError::BadHeader(hline.to_string()))?;
        headers.append(h.name, h.value);
    }

    // Body (Content-Length framing only).
    let body_len = headers
        .content_length()
        .map_err(HttpError::BadContentLength)?
        .unwrap_or(0);
    if body_len > MAX_BODY {
        return Err(HttpError::TooLarge("request body"));
    }
    let Some(body) = buf[pos..].get(..body_len) else {
        return Ok(Parsed::Incomplete { clean: false });
    };
    let request = Request {
        method,
        target,
        version,
        headers,
        body: body.to_vec(),
    };
    Ok(Parsed::Complete(request, pos + body_len))
}

/// Read and parse one request from `reader`.
///
/// On a clean EOF before any byte of a new request, returns
/// `Err(ConnectionClosed { clean: true })` so keep-alive loops can exit
/// silently. Leading empty lines are skipped, as RFC 2616 §4.1 recommends.
///
/// A request that is whole in the reader's buffer is parsed in place;
/// one that is not is gathered chunk by chunk, taking from the reader
/// only the bytes that belong to it.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request> {
    // Bytes of this request already taken from `reader`.
    let mut held: Vec<u8> = Vec::new();
    loop {
        let fresh = reader.fill_buf()?;
        let (taken, arrived) = (held.len(), fresh.len());
        let parsed = if taken == 0 {
            parse_buffered(fresh)?
        } else {
            held.extend_from_slice(fresh);
            parse_buffered(&held)?
        };
        match parsed {
            Parsed::Complete(request, consumed) => {
                reader.consume(consumed - taken);
                return Ok(request);
            }
            Parsed::Incomplete { clean } if arrived == 0 => {
                return Err(HttpError::ConnectionClosed { clean });
            }
            Parsed::Incomplete { .. } => {
                if taken == 0 {
                    held.extend_from_slice(fresh);
                }
                reader.consume(arrived);
            }
        }
    }
}

/// Outcome of attempting to parse a request from a byte buffer that may
/// not yet hold the complete request (nonblocking readers accumulate
/// bytes and retry as more arrive).
#[derive(Debug)]
pub enum ParseStatus {
    /// A full request was parsed; `consumed` bytes of the buffer belong
    /// to it (the rest is pipelined data for the next request).
    Complete { request: Request, consumed: usize },
    /// The buffer ends mid-request: keep the bytes and read more.
    Partial,
    /// The bytes already received can never become a valid request.
    Error(HttpError),
}

/// Try to parse one request from `buf` without consuming it.
///
/// This is the incremental twin of [`read_request`], built on the same
/// parser so the two accept byte-for-byte the same wire format.
pub fn try_parse_request(buf: &[u8]) -> ParseStatus {
    match parse_buffered(buf) {
        Ok(Parsed::Complete(request, consumed)) => ParseStatus::Complete { request, consumed },
        Ok(Parsed::Incomplete { .. }) => ParseStatus::Partial,
        Err(e) => ParseStatus::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn minimal_get() {
        let r = parse(b"GET /index.html HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.target.path, "/index.html");
        assert_eq!(r.version, Version::Http10);
        assert!(r.headers.is_empty());
        assert!(r.body.is_empty());
        assert!(!r.keep_alive());
    }

    #[test]
    fn headers_and_keepalive() {
        let r = parse(b"GET / HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert_eq!(r.headers.get("host"), Some("x"));
        assert!(r.keep_alive());
    }

    #[test]
    fn bare_lf_tolerated() {
        let r = parse(b"GET / HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(r.headers.get("Host"), Some("y"));
        assert!(r.keep_alive());
    }

    #[test]
    fn post_with_body() {
        let r = parse(b"POST /cgi-bin/f HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn truncated_body_is_unclean_close() {
        let e = parse(b"POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(e, HttpError::ConnectionClosed { clean: false }));
    }

    #[test]
    fn clean_eof_before_request() {
        let e = parse(b"").unwrap_err();
        assert!(e.is_clean_close());
    }

    #[test]
    fn eof_mid_headers_is_unclean() {
        let e = parse(b"GET / HTTP/1.0\r\nHost: x\r\n").unwrap_err();
        assert!(matches!(e, HttpError::ConnectionClosed { clean: false }));
    }

    #[test]
    fn leading_crlf_skipped() {
        let r = parse(b"\r\n\r\nGET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.target.path, "/");
    }

    #[test]
    fn http09_style_no_version() {
        let r = parse(b"GET /x\r\n\r\n").unwrap();
        assert_eq!(r.version, Version::Http10);
    }

    #[test]
    fn rejects_bad_method_and_extra_tokens() {
        assert!(matches!(
            parse(b"BREW / HTTP/1.0\r\n\r\n"),
            Err(HttpError::BadMethod(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.0 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse(b"GET / HTTP/1.0\r\nNoColon\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            parse(b"POST / HTTP/1.0\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength(_))
        ));
    }

    #[test]
    fn rejects_oversized_request_line() {
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', crate::MAX_REQUEST_LINE + 10));
        req.extend_from_slice(b" HTTP/1.0\r\n\r\n");
        assert!(matches!(parse(&req), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut req = b"GET / HTTP/1.0\r\n".to_vec();
        for i in 0..(crate::MAX_HEADERS + 1) {
            req.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&req), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut r = Request::get("/cgi-bin/map?x=1").unwrap();
        r.headers.set("Host", "node0");
        let bytes = r.to_bytes();
        let r2 = parse(&bytes).unwrap();
        assert_eq!(r2.target.cache_key_string(), "/cgi-bin/map?x=1");
        assert_eq!(r2.headers.get("Host"), Some("node0"));
        assert!(r2.keep_alive());
    }

    #[test]
    fn post_roundtrip_adds_content_length() {
        let mut r = Request::new(Method::Post, "/cgi-bin/submit").unwrap();
        r.body = b"a=1".to_vec();
        let r2 = parse(&r.to_bytes()).unwrap();
        assert_eq!(r2.body, b"a=1");
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let a = read_request(&mut reader).unwrap();
        let b = read_request(&mut reader).unwrap();
        assert_eq!(a.target.path, "/a");
        assert_eq!(b.target.path, "/b");
        assert!(read_request(&mut reader).unwrap_err().is_clean_close());
    }

    #[test]
    fn multiple_spaces_in_request_line_tolerated() {
        let r = parse(b"GET  /x   HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.target.path, "/x");
    }

    #[test]
    fn try_parse_grows_byte_by_byte() {
        // Every prefix of a valid request is Partial; the full buffer is
        // Complete and consumes exactly the request's bytes.
        let wire = b"POST /cgi-bin/f HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..wire.len() {
            match try_parse_request(&wire[..cut]) {
                ParseStatus::Partial => {}
                other => panic!("prefix {cut} should be Partial, got {other:?}"),
            }
        }
        match try_parse_request(wire) {
            ParseStatus::Complete { request, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(request.body, b"hello");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_leaves_pipelined_tail() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let first = match try_parse_request(wire) {
            ParseStatus::Complete { request, consumed } => {
                assert_eq!(request.target.path, "/a");
                consumed
            }
            other => panic!("expected Complete, got {other:?}"),
        };
        match try_parse_request(&wire[first..]) {
            ParseStatus::Complete { request, consumed } => {
                assert_eq!(request.target.path, "/b");
                assert_eq!(first + consumed, wire.len());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_reports_real_errors() {
        assert!(matches!(
            try_parse_request(b"BREW / HTTP/1.0\r\n\r\n"),
            ParseStatus::Error(HttpError::BadMethod(_))
        ));
        assert!(matches!(
            try_parse_request(b"GET / HTTP/1.0\r\nNoColon\r\n\r\n"),
            ParseStatus::Error(HttpError::BadHeader(_))
        ));
        // An empty buffer is simply "no request yet".
        assert!(matches!(try_parse_request(b""), ParseStatus::Partial));
    }
}
