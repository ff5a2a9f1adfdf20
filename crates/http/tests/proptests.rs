//! Property-based tests for the HTTP substrate: the parser must round-trip
//! everything the serializer emits, never panic on arbitrary input, and the
//! URI normalizer must be idempotent and traversal-safe.

use proptest::prelude::*;
use std::io::BufReader;
use swala_http::{read_request, Method, Request, RequestTarget, Response, StatusCode};

/// Path segments that are valid unencoded URI characters.
fn segment() -> impl Strategy<Value = String> {
    // "." and ".." are normalized away by the parser, so exclude pure-dot
    // segments from the round-trip identity property.
    proptest::string::string_regex("[A-Za-z0-9_.~-]{1,12}")
        .unwrap()
        .prop_filter("dot segments normalize away", |s| {
            !s.chars().all(|c| c == '.')
        })
}

fn simple_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(segment(), 1..5).prop_map(|segs| format!("/{}", segs.join("/")))
}

fn query() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(
        proptest::collection::vec(("[a-z]{1,6}", "[A-Za-z0-9]{0,8}"), 1..4).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("&")
        }),
    )
}

proptest! {
    #[test]
    fn request_roundtrip(path in simple_path(), q in query(), body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let target = match &q {
            Some(q) => format!("{path}?{q}"),
            None => path.clone(),
        };
        let mut req = Request::new(Method::Post, &target).unwrap();
        req.body = body.clone();
        req.headers.set("Host", "prop");
        let parsed = read_request(&mut BufReader::new(&req.to_bytes()[..])).unwrap();
        prop_assert_eq!(parsed.target.path, path);
        prop_assert_eq!(parsed.target.query.as_deref(), q.as_deref());
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Outcome may be Ok or Err; it must never panic.
        let _ = read_request(&mut BufReader::new(&bytes[..]));
    }

    #[test]
    fn target_parse_never_panics(s in "\\PC{0,64}") {
        let _ = RequestTarget::parse(&s);
    }

    #[test]
    fn normalization_is_idempotent(path in simple_path(), dots in proptest::collection::vec(prop_oneof![Just("."), Just(".."), Just("x")], 0..4)) {
        // Build a messy path; if it parses, reparsing its normal form must
        // be a fixpoint.
        let messy = format!("{}/{}", path, dots.join("/"));
        if let Ok(t) = RequestTarget::parse(&messy) {
            let again = RequestTarget::parse(&t.path).unwrap();
            prop_assert_eq!(&again.path, &t.path);
            // Normalized paths never contain traversal segments.
            prop_assert!(!t.path.split('/').any(|s| s == ".." || s == "."));
        }
    }

    #[test]
    fn response_roundtrip(status in 200u16..600, body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = Response::ok("application/octet-stream", body.clone());
        r.status = StatusCode(status);
        let parsed = Response::read_from(&mut BufReader::new(&r.to_bytes()[..])).unwrap();
        prop_assert_eq!(parsed.status.as_u16(), status);
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn cache_key_stable_under_reparse(path in simple_path(), q in query()) {
        let target = match &q { Some(q) => format!("{path}?{q}"), None => path.clone() };
        let t1 = RequestTarget::parse(&target).unwrap();
        let t2 = RequestTarget::parse(t1.cache_key()).unwrap();
        prop_assert_eq!(t1.cache_key_string(), t2.cache_key_string());
    }
}
