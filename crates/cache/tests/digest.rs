//! The body digest against itself and against the bodies Swala caches:
//!
//! * streamed equals one-shot at every 64-byte-aligned cut, on slices
//!   that start anywhere, fed in pieces of any whole-stripe length;
//! * no two of the simulated CGI bodies the benchmark and the tables
//!   cache (200 k ids at each of 1, 4, 16 and 64 KiB) share a digest;
//!   release builds only.
//!
//! Default config on purpose: CI raises `PROPTEST_CASES` and pins
//! `PROPTEST_RNG_SEED` for this file.

use proptest::prelude::*;
use std::collections::HashSet;
use swala_cache::digest::DigestStream;
use swala_cache::Digest;
use swala_cgi::{CgiRequest, Program, SimulatedProgram, WorkKind};
use swala_http::Request;

/// Deterministic filler (xorshift64).
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

proptest! {
    #[test]
    fn streamed_digest_equals_one_shot_at_every_cut(
        seed in any::<u64>(),
        start in 0usize..64,
        len in 0usize..9001,
        piece in 1usize..20,
    ) {
        let data = filler(start + len, seed);
        let body = &data[start..];
        let one_shot = Digest::of(body);
        for cut in (0..=body.len()).step_by(64) {
            let mut stream = DigestStream::new();
            for stripes in body[..cut].chunks(64 * piece) {
                stream.blocks(stripes);
            }
            prop_assert_eq!(stream.finish(&body[cut..]), one_shot, "cut {}", cut);
        }
    }
}

/// 17 GB of hashing: seconds in release, many minutes unoptimized, so
/// the debug suite skips it and CI runs it with `--release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p swala-cache --test digest"
)]
fn rendered_bodies_never_collide() {
    let adl = SimulatedProgram::trace_driven("adl", WorkKind::Sleep);
    let mut seen = HashSet::new();
    for kib in [1, 4, 16, 64] {
        for id in 0..200_000 {
            let target = format!("/cgi-bin/adl?id={id}&bytes={}", kib * 1024);
            let req = Request::get(&target).unwrap();
            let body = adl
                .run(&CgiRequest::from_http(&req, "c:1", "n", 80))
                .unwrap()
                .body;
            assert!(seen.insert(Digest::of(&body)), "{target} collided");
        }
    }
}
