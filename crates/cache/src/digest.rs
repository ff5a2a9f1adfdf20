//! Content digests of cached bodies.
//!
//! The memory tier keys bodies by a 128-bit digest of their bytes, so N
//! cache entries sharing one body hold a single `Arc<[u8]>`; the segment
//! store writes the same digest into each record as the body's integrity
//! value and re-derives it when it recovers the file.
//!
//! The hash is Swala's own, in the shape of XXH3's long-input loop: eight
//! 64-bit lanes, each 8-byte word mixed with a secret word and folded in
//! by one 32×32→64 multiply, the raw word added to the neighbouring lane;
//! every 1 KiB the lanes are scrambled, and the length is mixed into the
//! two 64-bit halves of the result. It is not bit-compatible with XXH3,
//! and it is **not collision-resistant**: anyone who controls a body can
//! build another with the same digest. So the memory tier compares bytes
//! before it shares a body (see [`MemCache::insert`]), and recovery
//! treats the digest as torn-write detection, never as authentication.
//!
//! [`MemCache::insert`]: crate::memcache::MemCache::insert

use std::fmt;

#[cfg(test)]
thread_local! {
    static PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Digest of `bytes`.
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

    /// The raw 16 bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Lowercase-hex rendering (for diagnostics and status pages).
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

/// Bytes folded in per step: one word per lane.
const STRIPE: usize = 64;
/// Stripes between scrambles.
const STRIPES_PER_BLOCK: usize = 16;
/// One block: 1 KiB.
const BLOCK: usize = STRIPE * STRIPES_PER_BLOCK;

const PRIME32_1: u64 = 0x9e37_79b1;
const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Stripe `n` of a block mixes with words `n..n + 8`; the scramble uses
/// the last eight. Fixed pseudo-random words (splitmix64 from a constant
/// seed): they are part of the on-disk format.
const SECRET: [u64; STRIPES_PER_BLOCK + 8] = {
    let mut out = [0u64; STRIPES_PER_BLOCK + 8];
    let mut x: u64 = 0x5377_616c_615f_3938; // "Swala_98"
    let mut i = 0;
    while i < out.len() {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out[i] = z ^ (z >> 31);
        i += 1;
    }
    out
};

const INIT_ACC: [u64; 8] = [
    0xc2b2_ae3d,
    PRIME64_1,
    PRIME64_2,
    0x1656_6791_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x85eb_ca77,
    0x27d4_eb2f_1656_67c5,
    PRIME32_1,
];

/// [`Digest::of`] over a body read piece by piece (the segment store's
/// recovery scan holds a bounded buffer, not the body): whole 64-byte
/// stripes as they arrive, whatever is left at the end.
pub struct DigestStream {
    acc: [u64; 8],
    /// Stripes folded in since the last scramble.
    stripes: usize,
    hashed: u64,
}

impl DigestStream {
    pub fn new() -> DigestStream {
        DigestStream {
            acc: INIT_ACC,
            stripes: 0,
            hashed: 0,
        }
    }

    /// Fold in the next `stripes`; their length must be a multiple of 64.
    pub fn blocks(&mut self, stripes: &[u8]) {
        assert_eq!(stripes.len() % STRIPE, 0, "whole 64-byte stripes only");
        self.hashed += stripes.len() as u64;
        // One stripe at a time up to a block boundary, then whole blocks,
        // whose fixed secret offsets let the loop unroll and vectorize.
        let lead = (STRIPES_PER_BLOCK - self.stripes) % STRIPES_PER_BLOCK * STRIPE;
        let (lead, rest) = stripes.split_at(lead.min(stripes.len()));
        for stripe in lead.chunks_exact(STRIPE) {
            self.stripe(stripe);
        }
        let mut blocks = rest.chunks_exact(BLOCK);
        for block in &mut blocks {
            for (n, stripe) in block.chunks_exact(STRIPE).enumerate() {
                accumulate(&mut self.acc, stripe, &SECRET[n..n + 8]);
            }
            scramble(&mut self.acc);
        }
        for stripe in blocks.remainder().chunks_exact(STRIPE) {
            self.stripe(stripe);
        }
    }

    /// Fold in the last `rest` bytes (any length) and close the digest.
    pub fn finish(mut self, rest: &[u8]) -> Digest {
        let (whole, tail) = rest.split_at(rest.len() - rest.len() % STRIPE);
        self.blocks(whole);
        if !tail.is_empty() {
            // Zero-padded; the length mixed in below tells the padding
            // from trailing zero bytes.
            let mut last = [0u8; STRIPE];
            last[..tail.len()].copy_from_slice(tail);
            self.stripe(&last);
            self.hashed += tail.len() as u64;
        }
        let len = self.hashed;
        let lo = merge(&self.acc, &SECRET[1..9], len.wrapping_mul(PRIME64_1));
        let hi = merge(&self.acc, &SECRET[13..21], !len.wrapping_mul(PRIME64_2));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_be_bytes());
        out[8..].copy_from_slice(&hi.to_be_bytes());
        Digest(out)
    }

    /// One stripe into the lanes, and the scramble that closes a block.
    fn stripe(&mut self, stripe: &[u8]) {
        accumulate(
            &mut self.acc,
            stripe,
            &SECRET[self.stripes..self.stripes + 8],
        );
        self.stripes += 1;
        if self.stripes == STRIPES_PER_BLOCK {
            self.stripes = 0;
            scramble(&mut self.acc);
        }
    }
}

impl Default for DigestStream {
    fn default() -> Self {
        Self::new()
    }
}

/// Each 8-byte word of `stripe`, keyed, folds into its lane by one
/// 32×32→64 multiply, and raw into the neighbouring lane.
#[inline(always)]
fn accumulate(acc: &mut [u64; 8], stripe: &[u8], key: &[u64]) {
    let mut data = [0u64; 8];
    for (word, bytes) in data.iter_mut().zip(stripe.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8-byte word"));
    }
    for (i, (lane, key)) in acc.iter_mut().zip(key).enumerate() {
        let mixed = data[i] ^ key;
        *lane = lane
            .wrapping_add((mixed & 0xffff_ffff) * (mixed >> 32))
            .wrapping_add(data[i ^ 1]);
    }
}

/// Stir each lane's high bits down and multiply, once per block.
#[inline(always)]
fn scramble(acc: &mut [u64; 8]) {
    for (lane, key) in acc.iter_mut().zip(&SECRET[STRIPES_PER_BLOCK..]) {
        *lane = ((*lane ^ (*lane >> 47)) ^ key).wrapping_mul(PRIME32_1);
    }
}

/// Fold the eight lanes, each pair keyed and multiplied 64×64→128, into
/// one avalanched 64-bit half.
fn merge(acc: &[u64; 8], key: &[u64], start: u64) -> u64 {
    let mut h = start;
    for i in (0..8).step_by(2) {
        let product = ((acc[i] ^ key[i]) as u128) * ((acc[i + 1] ^ key[i + 1]) as u128);
        h = h.wrapping_add(product as u64 ^ (product >> 64) as u64);
    }
    h ^= h >> 37;
    h = h.wrapping_mul(0x1656_6791_9e37_79f9);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic filler.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(31) ^ (i >> 7)) as u8)
            .collect()
    }

    // Pinned outputs: the digest is written into every segment-store
    // record, so a change here is an on-disk format change.
    #[test]
    fn golden_values() {
        let vectors: [(&[u8], &str); 6] = [
            (b"", "b9f5bea7c4703d569169af3076441fc5"),
            (b"abc", "b11a8d713624c46e33d7cdfdc3f12a7a"),
            (&[0u8; 64], "b26ff1960a362593444d70738b072050"),
            (&filler(1024), "ede0e2845298752d1bd0f7e363f51387"),
            (&filler(4096), "34d28f041c2c7d5527aa8b94c9ad4c20"),
            (&filler(65_537), "400386964e7642396b254683f1994cf4"),
        ];
        for (input, expected) in vectors {
            assert_eq!(
                Digest::of(input).to_hex(),
                expected,
                "{}-byte input",
                input.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let sizes = (0..=300).chain([4096]);
        for len in sizes {
            let mut body = filler(len);
            let digest = Digest::of(&body);
            for bit in 0..len * 8 {
                body[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(Digest::of(&body), digest, "len {len}, bit {bit}");
                body[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_digest() {
        for base in [0usize, 1, 63, 64, 1023, 1024, 4096] {
            let mut seen = std::collections::HashSet::new();
            let mut body = filler(base);
            for _ in 0..=130 {
                assert!(
                    seen.insert(Digest::of(&body)),
                    "{base} + {} zeros",
                    body.len() - base
                );
                body.push(0);
            }
        }
    }

    #[test]
    fn lengths_around_stripe_and_block_boundaries_differ() {
        let mut seen = std::collections::HashSet::new();
        for n in [0usize, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025, 2048] {
            assert!(seen.insert(Digest::of(&vec![7u8; n])), "len {n} collided");
        }
    }

    #[test]
    fn streamed_digest_equals_one_shot() {
        let body = filler(200_000);
        for cut in [0usize, 64, 1024, 4096, 199_936] {
            let mut stream = DigestStream::new();
            for chunk in body[..cut].chunks(1024) {
                stream.blocks(chunk);
            }
            assert_eq!(stream.finish(&body[cut..]), Digest::of(&body), "{cut}");
        }
    }

    #[test]
    fn equal_bodies_equal_digests() {
        assert_eq!(Digest::of(b"same bytes"), Digest::of(b"same bytes"));
        assert_ne!(Digest::of(b"same bytes"), Digest::of(b"same bytes!"));
    }
}
