//! HTTP request representation and wire parsing.
//!
//! A request is parsed where its bytes lie: the method and version are
//! enums, and the target, header names and header values borrow the
//! buffer ([`Text`](crate::uri::Text), `Cow`), so a canonical request
//! costs one allocation — its header list — however many fields it has.

use crate::error::{HttpError, Result};
use crate::headers::{detached, one_length, parse_header_line, Header, HeaderMap};
use crate::method::Method;
use crate::uri::RequestTarget;
use crate::version::Version;
use crate::{MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE};
use std::cell::Cell;
use std::io::BufRead;

thread_local! {
    /// The header list of the request this thread last recycled, for the
    /// next request it parses.
    static SPARE_HEADERS: Cell<Vec<Header<'static>>> = const { Cell::new(Vec::new()) };
}

/// A fully parsed HTTP request, borrowing the bytes it was parsed from
/// (`Request<'static>` owns them all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    pub method: Method,
    pub target: RequestTarget<'a>,
    pub version: Version,
    pub headers: HeaderMap<'a>,
    /// Request body (POST). Empty for GET/HEAD.
    pub body: Vec<u8>,
}

impl Request<'static> {
    /// Convenience constructor for tests and clients.
    pub fn new(method: Method, target: &str) -> Result<Request<'static>> {
        Ok(Request {
            method,
            target: RequestTarget::parse(target)?.into_owned(),
            version: Version::Http10,
            headers: HeaderMap::new(),
            body: Vec::new(),
        })
    }

    /// GET request with keep-alive, the common client-side case.
    pub fn get(target: &str) -> Result<Request<'static>> {
        let mut r = Request::new(Method::Get, target)?;
        r.headers.set("Connection", "keep-alive");
        Ok(r)
    }
}

impl Request<'_> {
    /// Whether the connection should persist after this request.
    pub fn keep_alive(&self) -> bool {
        self.headers.keep_alive(self.version)
    }

    /// Done with the request: its header list is kept for the next
    /// request this thread parses, so a connection loop that recycles
    /// each request allocates no header list in steady state.
    pub fn recycle(mut self) {
        let entries = detached(self.headers.take_entries());
        if entries.capacity() <= 32 {
            let _ = SPARE_HEADERS.try_with(|spare| spare.set(entries));
        }
    }

    /// An owned copy that no longer borrows the bytes it was parsed from.
    pub fn into_owned(self) -> Request<'static> {
        Request {
            method: self.method,
            target: self.target.into_owned(),
            version: self.version,
            headers: self.headers.into_owned(),
            body: self.body,
        }
    }

    /// Serialize to wire format (used by the load generator clients).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target.cache_key().as_bytes());
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
enum Parsed<'a> {
    /// A whole request, and how many bytes of the buffer it took.
    Complete(Request<'a>, usize),
    /// The buffer ends mid-request. `clean` when it ends before the
    /// request's first byte (at most stray blank lines were seen).
    Incomplete { clean: bool },
}

/// The offset of the first `\n` in `bytes`, eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let x = word ^ NEWLINES;
        // The lowest flagged byte is the first zero byte of `x`.
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(at + (zero.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = chunks.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// The next line of `rest` as bytes, without its `\n` (or `\r\n`)
/// terminator, and the offset just past it. `None` when no terminator is
/// buffered yet. `limit` bounds the line's length either way.
fn next_line_bytes<'a>(
    rest: &'a [u8],
    limit: usize,
    what: &'static str,
) -> Result<Option<(&'a [u8], usize)>> {
    let (line, next) = match find_newline(rest) {
        Some(pos) => (&rest[..pos], Some(pos + 1)),
        None => (rest, None),
    };
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.len() > limit {
        return Err(HttpError::TooLarge(what));
    }
    Ok(next.map(|next| (line, next)))
}

/// [`next_line_bytes`] as text.
fn next_line<'a>(
    rest: &'a [u8],
    limit: usize,
    what: &'static str,
) -> Result<Option<(&'a str, usize)>> {
    let Some((line, next)) = next_line_bytes(rest, limit, what)? else {
        return Ok(None);
    };
    utf8(line).map(|line| Some((line, next)))
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|e| HttpError::BadRequestLine(format!("non-utf8 line: {e}")))
}

/// Parse one request from the front of `buf`, borrowing it. Nothing is
/// allocated before the head is known to be whole: a first pass finds
/// and counts the header lines, a second parses them into the thread's
/// spare header list (see [`Request::recycle`]), grown to that many when
/// it is short.
fn parse_buffered(buf: &[u8]) -> Result<Parsed<'_>> {
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
    let (words, count) = words(line);
    if !(2..=3).contains(&count) {
        return Err(bad_line());
    }
    let method: Method = words[0].parse()?;
    let version: Version = match count {
        3 => words[2].parse()?,
        // HTTP/0.9 simple requests carried no version; treat as 1.0.
        _ => Version::Http10,
    };
    let target = RequestTarget::parse(words[1])?;

    // Header lines: found and counted, up to the blank line.
    let headers_at = pos;
    let mut count = 0;
    let headers_end = loop {
        let Some((hline, next)) = next_line_bytes(&buf[pos..], MAX_HEADER_LINE, "header line")?
        else {
            return Ok(Parsed::Incomplete { clean: false });
        };
        pos += next;
        if hline.is_empty() {
            break pos - next;
        }
        if count >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        count += 1;
    };
    // The framing headers are checked as the list is filled, and so are
    // RFC 9112's other musts: one `Host`, and no CR or NUL in a value.
    let mut entries = SPARE_HEADERS.try_with(Cell::take).unwrap_or_default();
    entries.reserve(count);
    let mut headers = HeaderMap::reusing(entries);
    let mut coded = false;
    let mut host = false;
    let mut length: std::result::Result<Option<usize>, &str> = Ok(None);
    let block = utf8(&buf[headers_at..headers_end])?;
    for hline in block.split_terminator('\n') {
        let hline = hline.strip_suffix('\r').unwrap_or(hline);
        let bad = || HttpError::BadHeader(hline.to_string());
        let h = parse_header_line(hline).ok_or_else(bad)?;
        if h.value.bytes().any(|b| b == b'\r' || b == 0) {
            return Err(bad());
        }
        match h.name.len() {
            4 if h.name.eq_ignore_ascii_case("Host") => {
                if host {
                    return Err(bad());
                }
                host = true;
            }
            14 if h.name.eq_ignore_ascii_case("Content-Length") => {
                if let Ok(seen) = length {
                    length = one_length(seen, &h.value).map(Some).ok_or(hline);
                }
            }
            17 if h.name.eq_ignore_ascii_case("Transfer-Encoding") => coded = true,
            _ => {}
        }
        headers.append(h.name, h.value);
    }

    // Body: `Content-Length` framing only. A transfer coding would frame
    // the body some other way, so its bytes would be read as the next
    // request: refuse it rather than mis-frame.
    if coded {
        return Err(HttpError::Unsupported("Transfer-Encoding"));
    }
    let body_len = length
        .map_err(|hline| {
            let value = hline.split_once(':').map_or(hline, |(_, v)| v.trim_ascii());
            HttpError::BadContentLength(value.to_string())
        })?
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

/// The space-separated words of a request line (runs of spaces count as
/// one): the first three, and how many there are, up to four.
fn words(line: &str) -> ([&str; 3], usize) {
    let bytes = line.as_bytes();
    let mut words = [""; 3];
    let mut count = 0;
    let mut at = 0;
    while at < bytes.len() && count <= 3 {
        if bytes[at] == b' ' {
            at += 1;
            continue;
        }
        let start = at;
        while at < bytes.len() && bytes[at] != b' ' {
            at += 1;
        }
        if count < 3 {
            words[count] = &line[start..at];
        }
        count += 1;
    }
    (words, count)
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
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request<'static>> {
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
                let request = request.into_owned();
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
pub enum ParseStatus<'a> {
    /// A full request was parsed; `consumed` bytes of the buffer belong
    /// to it (the rest is pipelined data for the next request).
    Complete {
        request: Request<'a>,
        consumed: usize,
    },
    /// The buffer ends mid-request: keep the bytes and read more.
    Partial,
    /// The bytes already received can never become a valid request.
    Error(HttpError),
}

/// Try to parse one request from `buf` without consuming it; the request
/// borrows `buf`.
///
/// This is the incremental twin of [`read_request`], built on the same
/// parser so the two accept byte-for-byte the same wire format.
pub fn try_parse_request(buf: &[u8]) -> ParseStatus<'_> {
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

    fn parse(bytes: &[u8]) -> Result<Request<'static>> {
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
    fn any_transfer_encoding_is_refused_not_misframed() {
        // Before, the chunked body parsed as a second request ("5").
        let wire = b"POST /cgi-bin/f HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let e = parse(wire).unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(_)), "{e:?}");
        assert_eq!(
            e.response_status(),
            Some(crate::StatusCode::NOT_IMPLEMENTED)
        );
        for coding in ["identity", "gzip, chunked"] {
            let wire = format!("GET / HTTP/1.1\r\ntransfer-encoding: {coding}\r\n\r\n");
            assert!(matches!(
                try_parse_request(wire.as_bytes()),
                ParseStatus::Error(HttpError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        // Before, the first value framed the body and `hello` began the
        // next request.
        let wire = b"POST /f HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello";
        let e = parse(wire).unwrap_err();
        assert!(matches!(e, HttpError::BadContentLength(_)), "{e:?}");
        assert_eq!(e.response_status(), Some(crate::StatusCode::BAD_REQUEST));
        // The same value twice frames like once.
        let wire = b"POST /f HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(wire).unwrap().body, b"hello");
    }

    /// How the parser frames hostile and ambiguous requests: the status a
    /// refused one is answered with (`None`: parsed and served), and
    /// whether the connection closes after it — a refused request always
    /// closes it, since its bytes cannot be trusted to end where it does.
    #[test]
    fn framing_musts_table() {
        let cases: [(&str, &[u8], Option<u16>, bool); 11] = [
            (
                "chunked body",
                b"POST /f HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                Some(501),
                true,
            ),
            (
                "two lengths",
                b"POST /f HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello",
                Some(400),
                true,
            ),
            (
                "one length twice",
                b"POST /f HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
                None,
                false,
            ),
            (
                "two hosts",
                b"GET / HTTP/1.1\r\nHost: a\r\nhost: b\r\n\r\n",
                Some(400),
                true,
            ),
            (
                "bare CR in a value",
                b"GET / HTTP/1.1\r\nHost: x\rY\r\n\r\n",
                Some(400),
                true,
            ),
            (
                "NUL in a value",
                b"GET / HTTP/1.1\r\nHost: x\0y\r\n\r\n",
                Some(400),
                true,
            ),
            (
                "NUL in another header",
                b"GET / HTTP/1.1\r\nX-A: \0\r\n\r\n",
                Some(400),
                true,
            ),
            (
                "one host",
                b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
                None,
                false,
            ),
            ("no host, 1.0", b"GET / HTTP/1.0\r\n\r\n", None, true),
            ("fragment", b"GET /a#frag HTTP/1.1\r\n\r\n", None, false),
            (
                "fragment after a query",
                b"GET /cgi-bin/adl?id=1#f HTTP/1.1\r\n\r\n",
                None,
                false,
            ),
        ];
        for (what, wire, status, closes) in cases {
            let got = match try_parse_request(wire) {
                ParseStatus::Complete { request, consumed } => {
                    assert_eq!(consumed, wire.len(), "{what}");
                    assert!(!request.target.cache_key().contains('#'), "{what}");
                    (None, !request.keep_alive())
                }
                ParseStatus::Error(e) => (e.response_status().map(|s| s.0), true),
                ParseStatus::Partial => panic!("{what}: a whole request"),
            };
            assert_eq!(got, (status, closes), "{what}");
        }
        // The fragment never reaches the path, the query or the key.
        let ParseStatus::Complete { request, .. } =
            try_parse_request(b"GET /cgi-bin/adl?id=1#f HTTP/1.1\r\n\r\n")
        else {
            panic!("whole request");
        };
        assert_eq!(request.target.path, "/cgi-bin/adl");
        assert_eq!(request.target.query.as_deref(), Some("id=1"));
        assert_eq!(request.target.cache_key(), "/cgi-bin/adl?id=1");
    }

    #[test]
    fn a_parsed_request_borrows_its_buffer() {
        let wire =
            b"GET /cgi-bin/adl?id=1 HTTP/1.1\r\nHost: swala\r\nConnection: keep-alive\r\n\r\n";
        let ParseStatus::Complete { request, consumed } = try_parse_request(wire) else {
            panic!("whole request");
        };
        assert_eq!(consumed, wire.len());
        let inside = |s: &str| wire.as_ptr_range().contains(&s.as_ptr());
        assert!(inside(&request.target.path));
        assert!(inside(request.target.cache_key()));
        assert!(request
            .headers
            .iter()
            .all(|h| inside(&h.name) && inside(&h.value)));
        assert!(request.keep_alive());
        let owned: Request<'static> = request.clone().into_owned();
        assert_eq!(owned, request);
    }

    #[test]
    fn the_newline_search_finds_the_first_newline_anywhere() {
        for len in 0..40 {
            for at in 0..=len {
                let mut bytes = vec![b'a'; len];
                if at < len {
                    bytes[at] = b'\n';
                    if at + 1 < len {
                        bytes[len - 1] = b'\n';
                    }
                }
                let expected = bytes.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&bytes), expected, "{len} {at}");
            }
        }
        // Bytes with the high bit set are not newlines.
        assert_eq!(find_newline(&[0x8a; 16]), None);
        assert_eq!(find_newline(b"\x0b\x09\x0a"), Some(2));
    }

    #[test]
    fn a_recycled_header_list_is_the_next_parse_s() {
        let wire = b"GET /a HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n";
        let ParseStatus::Complete { request, .. } = try_parse_request(wire) else {
            panic!("whole request");
        };
        let list = request.headers.iter().next().unwrap() as *const _ as usize;
        request.recycle();
        let ParseStatus::Complete { request, .. } = try_parse_request(wire) else {
            panic!("whole request");
        };
        assert_eq!(
            request.headers.iter().next().unwrap() as *const _ as usize,
            list
        );
        assert_eq!(request.headers.get("connection"), Some("keep-alive"));
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
