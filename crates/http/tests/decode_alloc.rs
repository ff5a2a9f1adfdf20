//! The request decoder against structured and hostile input — in a test
//! binary of its own because it replaces the global allocator (tallying
//! bytes per thread, as `crates/proto/tests/decode_alloc.rs` does).
//!
//! Requests are built from their parts: methods, canonical and
//! non-canonical targets, versions, header lists up to past the count
//! limit, bodies, hostile `Content-Length` values (huge, signed,
//! repeated with different values) and transfer codings; some are then
//! cut or have a byte flipped. The properties:
//!
//! * neither `try_parse_request` nor `read_request` panics;
//! * decoding asks the allocator for at most 16 × the input's length +
//!   4096 bytes — a header costs one list slot (48 bytes) for a line of
//!   at least 3, and nothing is sized from a count or a length field;
//! * `Request::to_bytes` → `try_parse_request` is the identity on
//!   canonical requests;
//! * over a pipelined burst, `try_parse_request` fed the bytes split at
//!   any point yields the same requests, and ends the same way, as
//!   `read_request` over the whole stream.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read};
use swala_http::{
    read_request, try_parse_request, HttpError, Method, ParseStatus, Request, StatusCode, Version,
};

thread_local! {
    /// Bytes this thread has asked the allocator for. Const-initialised
    /// and without a destructor, so touching it from inside the
    /// allocator cannot allocate.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Tally;

// SAFETY: every request is forwarded unchanged to the system allocator;
// the tally touches only a destructor-free thread-local.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size() as u64));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size as u64));
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tally = Tally;

/// Parse `input` with `try_parse_request`, holding it to its budget.
fn parse_within_budget(input: &[u8]) -> Result<(), TestCaseError> {
    let before = REQUESTED.with(Cell::get);
    let parsed = try_parse_request(input);
    let requested = REQUESTED.with(Cell::get) - before;
    drop(parsed);
    let budget = 16 * input.len() as u64 + 4096;
    prop_assert!(
        requested <= budget,
        "parsing {} bytes asked for {requested} (budget {budget}): {:?}",
        input.len(),
        String::from_utf8_lossy(input)
    );
    Ok(())
}

/// A path segment; `.`, `..` and empty segments make a target
/// non-canonical, `%41` one that decodes.
fn segment() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => "[A-Za-z0-9_~-]{1,10}",
        1 => Just(".".to_string()),
        1 => Just("..".to_string()),
        1 => Just(String::new()),
        1 => Just("%41b".to_string()),
    ]
}

fn target() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(segment(), 1..5),
        proptest::option::of("[a-z0-9=&+%]{0,16}"),
        any::<bool>(),
    )
        .prop_map(|(segments, query, absolute)| {
            let mut t = format!("/{}", segments.join("/"));
            if let Some(q) = query {
                t.push('?');
                t.push_str(&q);
            }
            if absolute {
                t.insert_str(0, "http://swala");
            }
            t
        })
}

/// A header line, or a hostile framing header.
fn header() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        8 => ("[A-Za-z][A-Za-z0-9-]{0,11}", "[ -~]{0,24}"),
        1 => Just(("Content-Length".to_string(), "99999999999999999999999".to_string())),
        1 => Just(("Content-Length".to_string(), "4294967296".to_string())),
        1 => Just(("Content-Length".to_string(), "-1".to_string())),
        1 => Just(("content-length".to_string(), "+3".to_string())),
        1 => Just(("Transfer-Encoding".to_string(), "chunked".to_string())),
        1 => Just(("Connection".to_string(), "TE, close".to_string())),
    ]
}

/// Raw request bytes built from parts, optionally cut short or with one
/// byte replaced.
fn hostile_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![Just("GET"), Just("HEAD"), Just("POST"), Just("BREW")],
        target(),
        prop_oneof![
            Just(" HTTP/1.0"),
            Just(" HTTP/1.1"),
            Just(""),
            Just(" HTTP/9")
        ],
        prop_oneof![
            4 => proptest::collection::vec(header(), 0..6),
            1 => proptest::collection::vec(header(), 120..140),
        ],
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..48)),
        prop_oneof![Just("\r\n"), Just("\n")],
        proptest::option::of((any::<usize>(), any::<u8>())),
        proptest::option::of(any::<usize>()),
    )
        .prop_map(|(method, target, version, headers, body, eol, flip, cut)| {
            let mut wire = format!("{method} {target}{version}{eol}");
            for (name, value) in headers {
                wire.push_str(&format!("{name}: {value}{eol}"));
            }
            let body = body.unwrap_or_default();
            if !body.is_empty() {
                wire.push_str(&format!("Content-Length: {}{eol}", body.len()));
            }
            wire.push_str(eol);
            let mut bytes = [wire.as_bytes(), &body].concat();
            if let Some((at, byte)) = flip {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            if let Some(cut) = cut {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            bytes
        })
}

/// A request in canonical form: what `to_bytes` writes, parsing gives
/// back.
fn canonical_request() -> impl Strategy<Value = Request<'static>> {
    (
        prop_oneof![Just(Method::Get), Just(Method::Head), Just(Method::Post)],
        (
            proptest::collection::vec("[A-Za-z0-9_~-]{1,10}", 0..4),
            proptest::option::of("[a-z0-9=&+%]{0,16}"),
            any::<bool>(),
        ),
        prop_oneof![Just(Version::Http10), Just(Version::Http11)],
        proptest::collection::vec(
            ("[A-Za-z][A-Za-z0-9-]{0,11}", "([!-~]([ -~]{0,20}[!-~])?)?"),
            0..5,
        ),
        proptest::collection::vec(any::<u8>(), 0..48),
        any::<usize>(),
    )
        .prop_map(
            |(method, (segments, query, slash), version, headers, body, at)| {
                let mut target = format!("/{}", segments.join("/"));
                if slash && !segments.is_empty() {
                    target.push('/');
                }
                if let Some(q) = query {
                    target.push('?');
                    target.push_str(&q);
                }
                let mut req = Request::new(method, &target).unwrap();
                req.version = version;
                let framing = ["content-length", "transfer-encoding"];
                for (name, value) in headers {
                    if !framing.contains(&name.to_ascii_lowercase().as_str()) {
                        req.headers.append(name, value);
                    }
                }
                if !body.is_empty() {
                    // Where a sender put it: among the other headers.
                    let mut all: Vec<(String, String)> = req
                        .headers
                        .iter()
                        .map(|h| (h.name.to_string(), h.value.to_string()))
                        .collect();
                    all.insert(
                        at % (all.len() + 1),
                        ("Content-Length".to_string(), body.len().to_string()),
                    );
                    req.headers = Default::default();
                    for (name, value) in all {
                        req.headers.append(name, value);
                    }
                }
                req.body = body;
                req
            },
        )
}

/// How a stream of requests ended: the status a server answers the
/// first malformed one with, or `None` for the end of the bytes.
type Decoded = (Vec<Request<'static>>, Option<StatusCode>);

/// `read_request` over the whole stream, through a reader whose buffer
/// holds `capacity` bytes.
fn read_all(wire: &[u8], capacity: usize) -> Decoded {
    let mut reader = BufReader::with_capacity(capacity, wire);
    let mut requests = Vec::new();
    loop {
        match read_request(&mut reader) {
            Ok(req) => requests.push(req),
            Err(e) => return (requests, e.response_status()),
        }
    }
}

/// `try_parse_request` over a buffer that receives `wire` in the given
/// pieces, as a nonblocking reader's does.
fn parse_pieces<'w>(pieces: impl IntoIterator<Item = &'w [u8]>) -> Decoded {
    let mut buffer: Vec<u8> = Vec::new();
    let mut requests = Vec::new();
    for piece in pieces {
        buffer.extend_from_slice(piece);
        loop {
            match try_parse_request(&buffer) {
                ParseStatus::Complete { request, consumed } => {
                    requests.push(request.into_owned());
                    buffer.drain(..consumed);
                }
                ParseStatus::Partial => break,
                ParseStatus::Error(e) => return (requests, e.response_status()),
            }
        }
    }
    (requests, None)
}

proptest! {
    #[test]
    fn hostile_requests_never_panic_and_stay_within_the_allocation_budget(
        wire in hostile_request(),
        capacity in 1usize..64,
    ) {
        parse_within_budget(&wire)?;
        let mut reader = BufReader::with_capacity(capacity, &wire[..]);
        let _ = read_request(&mut reader);
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_stay_within_the_allocation_budget(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        parse_within_budget(&bytes)?;
        let _ = read_request(&mut BufReader::new(&bytes[..]));
    }

    #[test]
    fn to_bytes_then_parse_is_the_identity(req in canonical_request()) {
        let wire = req.to_bytes();
        match try_parse_request(&wire) {
            ParseStatus::Complete { request, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(&request, &req);
            }
            other => prop_assert!(false, "{:?} for {:?}", other, String::from_utf8_lossy(&wire)),
        }
    }

    #[test]
    fn every_split_of_a_pipelined_burst_decodes_like_read_request(
        burst in proptest::collection::vec(canonical_request(), 1..4),
        tail in proptest::option::of(hostile_request()),
        capacity in 1usize..32,
    ) {
        let mut wire: Vec<u8> = burst.iter().flat_map(Request::to_bytes).collect();
        wire.extend(tail.unwrap_or_default());
        let oracle = read_all(&wire, capacity);
        prop_assert!(oracle.0.len() >= burst.len());
        prop_assert_eq!(&oracle.0[..burst.len()], &burst[..]);
        for split in 0..=wire.len() {
            let (a, b) = wire.split_at(split);
            prop_assert_eq!(&parse_pieces([a, b]), &oracle, "split at {}", split);
        }
    }
}

#[test]
fn the_documented_framing_attacks_are_refused() {
    for (wire, status) in [
        (
            &b"POST /cgi-bin/f HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"[..],
            StatusCode::NOT_IMPLEMENTED,
        ),
        (
            b"POST /f HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello",
            StatusCode::BAD_REQUEST,
        ),
    ] {
        // One answer, then the connection closes: nothing after the
        // head is read as a request.
        assert_eq!(read_all(wire, 8), (Vec::new(), Some(status)));
        assert!(matches!(
            try_parse_request(wire),
            ParseStatus::Error(HttpError::Unsupported(_) | HttpError::BadContentLength(_))
        ));
    }
}
