//! Seeded request streams for the four workloads.
//!
//! `--seed` fully determines every stream: each caller owns a PRNG
//! seeded from `(seed, repetition, caller)`, and the servers only ever
//! see the generated requests. Nothing here reads a clock.

use std::sync::Arc;

pub const CALLERS: usize = 2;
/// Keys in the two hit workloads (half owned by each node).
pub const HIT_KEYS: usize = 512;
/// Entries pre-inserted per node on `miss-insert` (= default capacity,
/// so every timed insert also evicts).
pub const MISS_PREFILL: usize = 2000;
pub const ZIPF_KEYS: usize = 16_384;
/// Ranks executed once during `zipf-mix` set-up.
pub const ZIPF_WARM: usize = 4000;
const ZIPF_EXPONENT: f64 = 0.9;
/// Share of `zipf-mix` requests that are dynamic, per mille.
const ZIPF_DYNAMIC_PERMILLE: u64 = 800;
pub const ZIPF_MEM_CACHE_BYTES: usize = 8 * 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitLocal,
    HitRemote,
    MissInsert,
    ZipfMix,
}

impl Workload {
    /// Pass order of a full set.
    pub const ALL: [Workload; 4] = [
        Workload::HitLocal,
        Workload::HitRemote,
        Workload::MissInsert,
        Workload::ZipfMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitLocal => "hit-local",
            Workload::HitRemote => "hit-remote",
            Workload::MissInsert => "miss-insert",
            Workload::ZipfMix => "zipf-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64: tiny, seedable, and good enough for uniform draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream for `(seed, repetition, caller)`.
    pub fn for_caller(seed: u64, rep: u32, caller: usize) -> Rng {
        let mut r = Rng(seed ^ 0x5377_616c_6142_656e);
        let a = r.next_u64();
        let mut r = Rng(a ^ ((rep as u64) << 32) ^ caller as u64);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// What a reply to a request must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Dynamic result whose body is a pure function of the query.
    Dynamic,
    /// File under the docroot.
    Static,
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Req {
    /// Request target, e.g. `/cgi-bin/adl?id=7&ms=0&bytes=4096`.
    pub target: Arc<str>,
    pub class: Class,
    /// Exact `Content-Length` the reply must carry.
    pub body_len: usize,
    /// Index into the workload's key table (hash-vs-first-seen check);
    /// `None` for never-repeated keys.
    pub slot: Option<u32>,
    /// The bytes the caller writes to the socket.
    pub wire: Arc<[u8]>,
}

impl Req {
    fn new(target: String, class: Class, body_len: usize, slot: Option<u32>) -> Req {
        let wire =
            format!("GET {target} HTTP/1.1\r\nHost: swala\r\nConnection: keep-alive\r\n\r\n");
        Req {
            target: target.into(),
            class,
            body_len,
            slot,
            wire: wire.into_bytes().into(),
        }
    }
}

/// The paper's §5.1 WebStone file mix: (path, size, weight per mille).
pub const FILE_MIX: [(&str, usize, u64); 5] = [
    ("/ws500.txt", 500, 350),
    ("/ws5k.txt", 5 * 1024, 500),
    ("/ws50k.txt", 50 * 1024, 140),
    ("/ws500k.txt", 500 * 1024, 9),
    ("/ws1m.txt", 1024 * 1024, 1),
];

/// Deterministic content of a docroot file.
pub fn file_content(size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| {
            if i % 64 == 63 {
                b'\n'
            } else {
                b'a' + (i % 23) as u8
            }
        })
        .collect()
}

fn dynamic(id: &str, ms: u32, bytes: usize, slot: Option<u32>) -> Req {
    Req::new(
        format!("/cgi-bin/adl?id={id}&ms={ms}&bytes={bytes}"),
        Class::Dynamic,
        bytes,
        slot,
    )
}

/// Key `k` of the hit workloads; node `k % 2` owns it after warm-up.
fn hit_key(k: usize) -> Req {
    dynamic(&k.to_string(), 0, 4096, Some(k as u32))
}

/// Body size of Zipf rank `rank` (1-based): {1,4,16,64} KiB by rank mod 4.
fn zipf_bytes(rank: usize) -> usize {
    [1usize, 4, 16, 64][rank % 4] * 1024
}

fn zipf_key(rank: usize) -> Req {
    dynamic(
        &format!("z{rank}"),
        2,
        zipf_bytes(rank),
        Some(rank as u32 - 1),
    )
}

/// The fixed tables a workload's streams index into, built once per run
/// and shared by both callers.
pub struct Catalog {
    workload: Workload,
    seed: u64,
    /// Repeated keys (hit workloads: 512; zipf-mix: 16 384 + 5 files).
    keys: Vec<Req>,
    /// Cumulative Zipf probabilities over ranks, `zipf-mix` only.
    zipf_cdf: Vec<f64>,
}

impl Catalog {
    pub fn new(workload: Workload, seed: u64) -> Catalog {
        let (keys, zipf_cdf) = match workload {
            Workload::HitLocal | Workload::HitRemote => {
                ((0..HIT_KEYS).map(hit_key).collect(), Vec::new())
            }
            Workload::MissInsert => (Vec::new(), Vec::new()),
            Workload::ZipfMix => {
                let mut keys: Vec<Req> = (1..=ZIPF_KEYS).map(zipf_key).collect();
                for (i, (path, size, _)) in FILE_MIX.iter().enumerate() {
                    keys.push(Req::new(
                        path.to_string(),
                        Class::Static,
                        *size,
                        Some((ZIPF_KEYS + i) as u32),
                    ));
                }
                let weights: Vec<f64> = (1..=ZIPF_KEYS)
                    .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                (keys, cdf)
            }
        };
        Catalog {
            workload,
            seed,
            keys,
            zipf_cdf,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Number of repeated-key slots (size of a caller's first-seen table).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Requests caller `caller` sends to its node during set-up, before
    /// timing starts. Each one executes and inserts on that node, which
    /// makes the node the owner.
    pub fn warmup(&self, caller: usize) -> Vec<Req> {
        match self.workload {
            Workload::HitLocal | Workload::HitRemote => (0..HIT_KEYS)
                .filter(|k| k % CALLERS == caller)
                .map(|k| self.keys[k].clone())
                .collect(),
            Workload::MissInsert => (0..MISS_PREFILL)
                .map(|n| dynamic(&format!("s{}c{caller}w{n}", self.seed), 0, 4096, None))
                .collect(),
            Workload::ZipfMix => (1..=ZIPF_WARM)
                .filter(|rank| rank % CALLERS == caller)
                .map(|rank| self.keys[rank - 1].clone())
                .collect(),
        }
    }

    /// `X-Swala-Cache` value every timed dynamic reply must carry, where
    /// the workload fixes one.
    pub fn expected_cache_header(&self) -> Option<&'static str> {
        match self.workload {
            Workload::HitLocal => Some("local-hit"),
            Workload::HitRemote => Some("remote-hit"),
            Workload::MissInsert => Some("miss"),
            Workload::ZipfMix => None,
        }
    }

    /// Caller `caller`'s timed stream for repetition `rep`.
    pub fn stream(self: &Arc<Self>, rep: u32, caller: usize) -> Stream {
        Stream {
            catalog: Arc::clone(self),
            rng: Rng::for_caller(self.seed, rep, caller),
            rep,
            caller,
            seq: 0,
        }
    }
}

/// An endless, deterministic request stream for one caller.
pub struct Stream {
    catalog: Arc<Catalog>,
    rng: Rng,
    rep: u32,
    caller: usize,
    seq: u64,
}

impl Stream {
    pub fn next_req(&mut self) -> Req {
        let cat = &self.catalog;
        self.seq += 1;
        match cat.workload {
            // Uniform over the 256 keys this caller's node owns / does
            // not own.
            Workload::HitLocal | Workload::HitRemote => {
                let owner = if cat.workload == Workload::HitLocal {
                    self.caller
                } else {
                    (self.caller + 1) % CALLERS
                };
                let pick = self.rng.below((HIT_KEYS / CALLERS) as u64) as usize;
                cat.keys[pick * CALLERS + owner].clone()
            }
            Workload::MissInsert => dynamic(
                &format!("s{}r{}c{}n{}", cat.seed, self.rep, self.caller, self.seq),
                0,
                4096,
                None,
            ),
            Workload::ZipfMix => {
                if self.rng.below(1000) < ZIPF_DYNAMIC_PERMILLE {
                    let u = self.rng.unit();
                    let rank0 = cat.zipf_cdf.partition_point(|&c| c <= u).min(ZIPF_KEYS - 1);
                    cat.keys[rank0].clone()
                } else {
                    let mut roll = self.rng.below(1000);
                    let mut pick = FILE_MIX.len() - 1;
                    for (i, (_, _, weight)) in FILE_MIX.iter().enumerate() {
                        if roll < *weight {
                            pick = i;
                            break;
                        }
                        roll -= weight;
                    }
                    cat.keys[ZIPF_KEYS + pick].clone()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(w: Workload, seed: u64, rep: u32, caller: usize, n: usize) -> Vec<u8> {
        let cat = Arc::new(Catalog::new(w, seed));
        let mut s = cat.stream(rep, caller);
        (0..n).flat_map(|_| s.next_req().wire.to_vec()).collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for w in Workload::ALL {
            let a = stream_bytes(w, 7, 0, 0, 2000);
            assert_eq!(a, stream_bytes(w, 7, 0, 0, 2000), "{}", w.name());
            assert_ne!(a, stream_bytes(w, 8, 0, 0, 2000), "{}", w.name());
            // Callers and repetitions draw independently.
            assert_ne!(a, stream_bytes(w, 7, 0, 1, 2000), "{}", w.name());
            assert_ne!(a, stream_bytes(w, 7, 1, 0, 2000), "{}", w.name());
        }
    }

    #[test]
    fn hit_streams_stay_on_the_intended_owner() {
        for (w, owner_of_caller0) in [(Workload::HitLocal, 0), (Workload::HitRemote, 1)] {
            let cat = Arc::new(Catalog::new(w, 1));
            let mut s = cat.stream(0, 0);
            for _ in 0..1000 {
                let slot = s.next_req().slot.unwrap() as usize;
                assert_eq!(slot % CALLERS, owner_of_caller0);
            }
            let warm: Vec<u32> = cat.warmup(0).iter().map(|r| r.slot.unwrap()).collect();
            assert_eq!(warm.len(), HIT_KEYS / 2);
            assert!(warm.iter().all(|s| s % 2 == 0));
        }
    }

    #[test]
    fn miss_insert_never_repeats() {
        let cat = Arc::new(Catalog::new(Workload::MissInsert, 3));
        let mut seen = std::collections::HashSet::new();
        for caller in 0..CALLERS {
            for r in cat.warmup(caller) {
                assert!(seen.insert(r.target));
            }
            let mut s = cat.stream(0, caller);
            for _ in 0..5000 {
                assert!(seen.insert(s.next_req().target));
            }
        }
    }

    #[test]
    fn zipf_mix_matches_its_description() {
        let cat = Arc::new(Catalog::new(Workload::ZipfMix, 5));
        let mut s = cat.stream(0, 0);
        let n = 50_000;
        let (mut statics, mut top10) = (0, 0);
        for _ in 0..n {
            let r = s.next_req();
            match r.class {
                Class::Static => statics += 1,
                Class::Dynamic => {
                    let rank = r.slot.unwrap() as usize + 1;
                    assert_eq!(r.body_len, zipf_bytes(rank));
                    assert!(r.target.contains("&ms=2&"));
                    if rank <= 10 {
                        top10 += 1;
                    }
                }
            }
        }
        let static_share = statics as f64 / n as f64;
        assert!((0.19..0.21).contains(&static_share), "{static_share}");
        // Zipf(0.9) over 16 384 keys: Σ r^-0.9 is ≈ 3.2 over ranks 1-10
        // and ≈ 17 over all, so ~19 % of draws land on the top ten.
        let top_share = top10 as f64 / (n - statics) as f64;
        assert!((0.17..0.21).contains(&top_share), "{top_share}");
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::for_caller(11, 0, 0);
        let mean = (0..100_000).map(|_| r.exponential(50.0)).sum::<f64>() / 100_000.0;
        assert!((49.0..51.0).contains(&mean), "{mean}");
    }
}
