//! Content digests of cached bodies.
//!
//! The memory tier keys bodies by a SHA-256 digest of their bytes, so N
//! cache entries sharing one body hold a single `Arc<[u8]>`; the segment
//! store writes the same digest into each record as the body's integrity
//! value and re-derives it when it recovers the file. The hash is
//! implemented here (FIPS 180-4, straightforwardly) because the
//! workspace builds offline with no crypto crates vendored; it is used
//! for addressing and torn-write detection, not for security against
//! adversarial inputs.

use std::fmt;
use std::sync::OnceLock;

#[cfg(test)]
thread_local! {
    static PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A SHA-256 content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digest of `bytes`, by the fastest implementation this CPU runs
    /// (see [`DigestImpl::active`]). Every implementation produces the
    /// same 32 bytes.
    pub fn of(bytes: &[u8]) -> Digest {
        #[cfg(test)]
        PASSES.with(|p| p.set(p.get() + 1));
        DigestStream::new().finish(bytes)
    }

    /// How many times this thread has called [`Digest::of`]: lets a test
    /// pin that a path makes no pass over a body.
    #[cfg(test)]
    pub(crate) fn passes() -> u64 {
        PASSES.with(std::cell::Cell::get)
    }

    /// Digest of `bytes` by the portable scalar rounds, whatever the CPU
    /// offers. The reference the accelerated path is tested against.
    pub fn of_scalar(bytes: &[u8]) -> Digest {
        Digest(sha256_from(H0, 0, bytes, compress_scalar))
    }

    /// Digest of `bytes` by the SHA-NI rounds; `None` where the CPU (or
    /// the target) has no SHA extension.
    pub fn of_accelerated(bytes: &[u8]) -> Option<Digest> {
        (DigestImpl::active() == DigestImpl::ShaNi).then(|| Digest::of(bytes))
    }

    /// The raw 32 bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase-hex rendering (for diagnostics and status pages).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

/// Which SHA-256 compression function [`Digest::of`] runs on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestImpl {
    /// x86-64 SHA extension (`sha256rnds2` / `sha256msg1` / `sha256msg2`).
    ShaNi,
    /// Portable scalar rounds.
    Scalar,
}

impl DigestImpl {
    /// The implementation in use, detected once per process.
    pub fn active() -> DigestImpl {
        static ACTIVE: OnceLock<DigestImpl> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
            {
                return DigestImpl::ShaNi;
            }
            DigestImpl::Scalar
        })
    }

    /// `sha-ni` or `scalar`, as shown on `/swala-status`.
    pub fn as_str(self) -> &'static str {
        match self {
            DigestImpl::ShaNi => "sha-ni",
            DigestImpl::Scalar => "scalar",
        }
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// [`Digest::of`] over a body read piece by piece (the segment store's
/// recovery scan holds a bounded buffer, not the body): whole 64-byte
/// blocks as they arrive, whatever is left at the end.
pub struct DigestStream {
    state: [u32; 8],
    hashed: u64,
}

impl DigestStream {
    pub fn new() -> DigestStream {
        DigestStream {
            state: H0,
            hashed: 0,
        }
    }

    /// Fold in the next `blocks`; their length must be a multiple of 64.
    pub fn blocks(&mut self, blocks: &[u8]) {
        assert_eq!(blocks.len() % 64, 0, "whole SHA-256 blocks only");
        compress_active(&mut self.state, blocks);
        self.hashed += blocks.len() as u64;
    }

    /// Fold in the last `rest` bytes (any length) and close the digest.
    pub fn finish(self, rest: &[u8]) -> Digest {
        Digest(sha256_from(self.state, self.hashed, rest, compress_active))
    }
}

impl Default for DigestStream {
    fn default() -> Self {
        Self::new()
    }
}

/// The compression function [`DigestImpl::active`] names.
fn compress_active(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if DigestImpl::active() == DigestImpl::ShaNi {
        // SAFETY: `active()` returns `ShaNi` only after
        // `is_x86_feature_detected!` confirmed every feature
        // `compress_sha_ni` is compiled with.
        return unsafe { compress_sha_ni(state, blocks) };
    }
    compress_scalar(state, blocks)
}

/// Close a SHA-256 whose first `hashed` bytes (a multiple of 64) are
/// already folded into `state`. Full blocks are hashed where they lie;
/// only the last partial block is copied, into the one or two padding
/// blocks.
fn sha256_from(
    mut state: [u32; 8],
    hashed: u64,
    data: &[u8],
    compress: impl Fn(&mut [u32; 8], &[u8]),
) -> [u8; 32] {
    let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
    compress(&mut state, blocks);

    // rest + 0x80 + zero pad + 64-bit bit length, to a 64-byte multiple.
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (hashed + data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// FIPS 180-4 §6.2.2 over each 64-byte block of `blocks`.
fn compress_scalar(h: &mut [u32; 8], blocks: &[u8]) {
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The same compression on the x86-64 SHA extension: two rounds per
/// `sha256rnds2`, the message schedule four words at a time.
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` features
/// ([`DigestImpl::active`] checks exactly these).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // The instructions want the state as the word vectors ABEF and CDGH.
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
    // Message words are big-endian: swap the bytes of each 32-bit lane.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[j % 4] holds schedule words W[4j..4j+4] of the latest group j.
        let mut w = [_mm_setzero_si128(); 4];
        for i in 0..16 {
            w[i % 4] = if i < 4 {
                // SAFETY (of the read): `block` is 64 bytes, so bytes
                // 16i..16i+16 are in bounds for i < 4; loadu needs no
                // alignment.
                _mm_shuffle_epi8(
                    _mm_loadu_si128(block.as_ptr().add(16 * i).cast()),
                    byte_swap,
                )
            } else {
                // W[group i] from groups i-4, i-3, i-2 and i-1.
                let sigma0 = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                let w_minus_7 = _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4);
                _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w[(i + 3) % 4])
            };
            // SAFETY (of the read): K has 64 words and 4i + 4 <= 64.
            let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    type Implementation = (&'static str, fn(&[u8]) -> Digest);

    /// Every implementation this host can run, by name. The scalar one
    /// always; SHA-NI where the CPU has it — otherwise the gap is said
    /// out loud rather than passed over.
    fn implementations() -> Vec<Implementation> {
        let mut all: Vec<Implementation> = vec![("scalar", Digest::of_scalar)];
        if DigestImpl::active() == DigestImpl::ShaNi {
            all.push(("sha-ni", |b| {
                Digest::of_accelerated(b).expect("active() says sha-ni")
            }));
        } else {
            eprintln!("skipped: no sha extension — vectors ran against the scalar rounds only");
        }
        all
    }

    // FIPS 180-4 / RFC 6234 §8.5 test vectors, against every
    // implementation.
    #[test]
    fn rfc6234_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let test4 = b"0123456701234567012345670123456701234567012345670123456701234567".repeat(10);
        let vectors: [(&[u8], &str); 7] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
            (
                &test4,
                "594847328451bdfa85056225462cc1d867d877fb388df0ce35f25ab5562bfbb5",
            ),
            (
                b"\x19",
                "68aa2e2ee5dff96e3355e6c7ee373e3d6a4e17f75f9518d843709c0c9bc3e3d4",
            ),
            (
                b"\xe3\xd7\x25\x70\xdc\xdd\x78\x7c\xe3\x88\x7a\xb2\xcd\x68\x46\x52",
                "175ee69b02ba9b58e2b0a5fd13819cea573f3940a94f825128cf4209beabb4e8",
            ),
        ];
        for (name, digest) in implementations() {
            for (input, expected) in vectors {
                assert_eq!(
                    digest(input).to_hex(),
                    expected,
                    "{name}, {}-byte input",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn of_is_the_active_implementation() {
        let body = vec![0xa5u8; 4096];
        assert_eq!(Digest::of(&body), Digest::of_scalar(&body));
        assert_eq!(
            Digest::of_accelerated(&body).is_some(),
            DigestImpl::active() == DigestImpl::ShaNi
        );
        assert!(["sha-ni", "scalar"].contains(&DigestImpl::active().as_str()));
    }

    #[test]
    fn boundary_lengths_differ() {
        // Padding boundary cases (55/56/63/64/65 bytes) all hash distinctly.
        for (name, digest) in implementations() {
            let mut seen = std::collections::HashSet::new();
            for n in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
                assert!(
                    seen.insert(digest(&vec![7u8; n])),
                    "{name}: len {n} collided"
                );
            }
        }
    }

    #[test]
    fn streamed_digest_equals_one_shot() {
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        for cut in [0usize, 64, 4096, 199_936] {
            let mut stream = DigestStream::new();
            for chunk in body[..cut].chunks(1024) {
                stream.blocks(chunk);
            }
            assert_eq!(
                stream.finish(&body[cut..]),
                Digest::of_scalar(&body),
                "{cut}"
            );
        }
    }

    #[test]
    fn equal_bodies_equal_digests() {
        assert_eq!(Digest::of(b"same bytes"), Digest::of(b"same bytes"));
        assert_ne!(Digest::of(b"same bytes"), Digest::of(b"same bytes!"));
    }
}
