//! Log-linear latency histogram (HDR-style), lock-free.
//!
//! Values are recorded in **microseconds**. The bucket layout is the
//! classic log-linear compromise: each power-of-two octave is split into
//! [`SUB`] linear sub-buckets, so the relative quantile error is bounded
//! by `1/SUB` (12.5%) while the whole range from 1 µs to ~12 days fits
//! in [`BUCKETS`] fixed slots. `record` touches three relaxed atomics
//! (bucket, sum, max) — no locks, no allocation, no time source; callers
//! supply the duration, so the hot path pays exactly one `Instant` pair
//! per measured stage.
//!
//! Snapshots are plain-value copies: they merge by element-wise addition
//! (the basis of cluster-level aggregation) and estimate quantiles by a
//! cumulative walk that reports the bucket's inclusive upper bound, so a
//! reported p99 is never below the true p99 by more than one sub-bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power-of-two octave.
pub const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^MAX_BITS µs clamp into the top bucket (~12.7 days).
const MAX_BITS: u32 = 40;
/// Total number of buckets.
pub const BUCKETS: usize = SUB * (MAX_BITS - SUB_BITS + 1) as usize;

/// Bucket index for a microsecond value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_BITS {
        return BUCKETS - 1;
    }
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    SUB * (octave + 1) + sub
}

/// Inclusive upper bound of a bucket (used as the Prometheus `le` label).
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = (index / SUB - 1) as u32;
    let sub = (index % SUB) as u64;
    ((SUB as u64 + sub) << octave) + (1u64 << octave) - 1
}

/// A lock-free log-linear histogram of microsecond values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one microsecond value.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        // Most records are not a new maximum: skip the write.
        if micros > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(micros, Ordering::Relaxed);
        }
    }

    /// Record a duration (saturating to u64 microseconds).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Plain-value copy of the current state. The total count is derived
    /// from the buckets themselves, so a snapshot is always internally
    /// consistent (`sum of buckets == count`) even under concurrent
    /// recording.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-value snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values (sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded microsecond values.
    pub sum: u64,
    /// Largest recorded value, exact.
    pub max: u64,
    /// Per-bucket (non-cumulative) counts, `BUCKETS` entries.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Fold another snapshot in — cluster aggregation is element-wise
    /// bucket addition, so merging N snapshots equals recording every
    /// value into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        // Wrapping, to mirror the relaxed `fetch_add`s in `record` —
        // merge(a, b) must equal recording both streams into one
        // histogram even for adversarial values.
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Quantile estimate in microseconds (inclusive bucket upper bound);
    /// 0 for an empty snapshot. `q` is clamped to [0, 1].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket is open-ended; report the exact max
                // there, and clamp other buckets by it for tightness.
                return if i == BUCKETS - 1 {
                    self.max
                } else {
                    bucket_upper(i).min(self.max)
                };
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_partition_the_range() {
        // Every bucket's lower bound is the previous bucket's upper + 1.
        for i in 1..BUCKETS {
            let prev_upper = bucket_upper(i - 1);
            assert_eq!(
                bucket_index(prev_upper + 1),
                i,
                "value {} after bucket {}",
                prev_upper + 1,
                i - 1
            );
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound of {i}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Bucket width / lower bound ≤ 1/SUB for all log-linear buckets.
        for v in [9u64, 100, 1000, 12_345, 1 << 20, (1 << 35) + 7] {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v);
            assert!(
                (upper - v) as f64 <= v as f64 / SUB as f64,
                "bucket error too large at {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn huge_values_clamp_to_top_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1 << MAX_BITS), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        // The open-ended top bucket reports the exact max.
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // p50 ≈ 500 within one sub-bucket (12.5% relative error).
        let p50 = s.p50();
        assert!((500..=563).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((990..=1023).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(0.0), s.quantile(0.001));
    }

    #[test]
    fn merge_equals_single_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 9999, 1 << 30] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 500, 500, 1 << 22] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn empty_snapshot_is_identity() {
        let h = Histogram::new();
        h.record(42);
        let mut s = h.snapshot();
        s.merge(&HistogramSnapshot::empty());
        assert_eq!(s, h.snapshot());
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), 0);
        assert_eq!(HistogramSnapshot::empty().mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 1000 + i % 97);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 40_000);
    }
}
