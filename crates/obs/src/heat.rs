//! Per-key heat sketch: a space-saving top-K frequency summary.
//!
//! The cluster needs to know *which keys* are hot — ROADMAP item 5
//! (adaptive admission à la Mertz & Nunes) admits entries by observed
//! (cost × reuse), and an operator debugging a flash crowd wants the
//! key, not just the aggregate hit rate. Tracking every key exactly is
//! unbounded state; the space-saving sketch (Metwally, Agrawal &
//! El Abbadi 2005) keeps exactly `capacity` monitored keys and offers
//! hard error bounds:
//!
//! * every monitored key's reported `count` **overestimates** its true
//!   frequency by at most its `error` field (`count - error` is a lower
//!   bound, `count` an upper bound);
//! * any key *not* monitored has true frequency ≤ the minimum monitored
//!   count — so once a key's `count - error` exceeds that minimum it is
//!   provably in the true top set.
//!
//! Alongside the frequency each entry accumulates the observed cost
//! (CGI execution / remote-fetch time in µs) attributed to the key
//! while monitored, giving the (cost × reuse) signal directly.
//!
//! Cost profile: one short mutex hold per observation. The common case
//! (key already monitored, or table not yet full) is a hash lookup. A
//! key outside the monitored set replaces the lowest-numbered slot with
//! the minimum count: the counts sit in one dense array, so the search
//! reads 1 KiB at the default capacity (128). The index is keyed by the
//! key's [`key_hash`], which a cache key already carries, and a slot
//! shares the caller's `Arc<str>` when it has one: observing a key the
//! cache made allocates nothing.

use crate::keyhash::{key_hash, PrehashedState};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One monitored key with its estimated frequency and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatEntry {
    pub key: String,
    /// Estimated request count (never under the true count).
    pub count: u64,
    /// Maximum overestimation: true count ≥ `count - error`.
    pub error: u64,
    /// Cumulative observed cost (µs) while the key was monitored.
    pub cost_us: u64,
}

/// The monitored keys, one slot each: slot `i` is `keys[i]` with
/// `counts[i]`, `errors[i]` and `costs[i]`.
#[derive(Default)]
struct Inner {
    /// A key's [`key_hash`] → its slot. Two monitored keys never share a
    /// hash: a key whose hash a different monitored key holds (a 64-bit
    /// collision) is counted in `total` only.
    index: HashMap<u64, usize, PrehashedState>,
    keys: Vec<Arc<str>>,
    hashes: Vec<u64>,
    counts: Vec<u64>,
    errors: Vec<u64>,
    costs: Vec<u64>,
    /// Total observations, monitored or not.
    total: u64,
}

impl Inner {
    /// The slot monitoring `key`, whose hash is `hash`.
    fn slot_of(&self, hash: u64, key: &str) -> Option<usize> {
        let &slot = self.index.get(&hash)?;
        (*self.keys[slot] == *key).then_some(slot)
    }

    /// Give `slot` (pushed when it is one past the end) to `key`.
    fn assign(&mut self, slot: usize, key: Key<'_>, count: u64, error: u64, cost_us: u64) {
        let Key { hash, text, shared } = key;
        let key = shared.map_or_else(|| Arc::from(text), Arc::clone);
        self.index.insert(hash, slot);
        if slot == self.keys.len() {
            self.keys.push(key);
            self.hashes.push(hash);
            self.counts.push(count);
            self.errors.push(error);
            self.costs.push(cost_us);
        } else {
            self.keys[slot] = key;
            self.hashes[slot] = hash;
            self.counts[slot] = count;
            self.errors[slot] = error;
            self.costs[slot] = cost_us;
        }
    }

    /// The lowest-numbered slot holding the minimum count.
    fn min_slot(&self) -> Option<usize> {
        // `min_by_key` keeps the first of equal minima.
        let (slot, _) = self.counts.iter().enumerate().min_by_key(|&(_, c)| c)?;
        Some(slot)
    }

    fn entry(&self, slot: usize) -> HeatEntry {
        HeatEntry {
            key: self.keys[slot].to_string(),
            count: self.counts[slot],
            error: self.errors[slot],
            cost_us: self.costs[slot],
        }
    }
}

/// A key as the sketch is given it: its hash, its text, and the shared
/// text to keep when the caller has one.
struct Key<'k> {
    hash: u64,
    text: &'k str,
    shared: Option<&'k Arc<str>>,
}

/// A space-saving top-K sketch of per-key request heat.
pub struct HeatSketch {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl HeatSketch {
    /// A sketch monitoring up to `capacity` keys; 0 disables it (every
    /// call becomes a cheap no-op, the honest `obs off` baseline).
    pub fn new(capacity: usize) -> HeatSketch {
        HeatSketch {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A disabled sketch (capacity 0).
    pub fn disabled() -> HeatSketch {
        HeatSketch::new(0)
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Count one request for `key`, attributing `cost_us` of work.
    pub fn observe(&self, key: &str, cost_us: u64) {
        if self.capacity == 0 {
            return;
        }
        self.count(
            Key {
                hash: key_hash(key),
                text: key,
                shared: None,
            },
            cost_us,
        );
    }

    /// [`observe`](Self::observe) a key already hashed by [`key_hash`],
    /// whose text a monitoring slot shares rather than copies.
    pub fn observe_hashed(&self, hash: u64, key: &Arc<str>, cost_us: u64) {
        if self.capacity == 0 {
            return;
        }
        self.count(
            Key {
                hash,
                text: key,
                shared: Some(key),
            },
            cost_us,
        );
    }

    fn count(&self, key: Key<'_>, cost_us: u64) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.total += 1;
        if let Some(slot) = inner.slot_of(key.hash, key.text) {
            inner.counts[slot] += 1;
            inner.costs[slot] += cost_us;
            return;
        }
        if inner.index.contains_key(&key.hash) {
            return; // a 64-bit collision with a monitored key
        }
        if inner.keys.len() < self.capacity {
            let slot = inner.keys.len();
            inner.assign(slot, key, 1, 0, cost_us);
            return;
        }
        // Space-saving replacement: the new key inherits the minimum
        // monitored count as its (pessimistic) estimate and carries that
        // same value as its error bound.
        let slot = inner.min_slot().expect("non-empty at capacity");
        let min = inner.counts[slot];
        inner.index.remove(&inner.hashes[slot]);
        inner.assign(slot, key, min + 1, min, cost_us);
    }

    /// Attribute extra cost to `key`, whose [`key_hash`] is `hash`, if it
    /// is currently monitored — used for work measured after the lookup
    /// (CGI execution, remote fetch) without inflating the request count.
    pub fn add_cost(&self, hash: u64, key: &str, cost_us: u64) {
        if self.capacity == 0 || cost_us == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slot_of(hash, key) {
            inner.costs[slot] += cost_us;
        }
    }

    /// Total observations fed to the sketch.
    pub fn total(&self) -> u64 {
        self.inner.lock().total
    }

    /// Number of currently monitored keys.
    pub fn len(&self) -> usize {
        self.inner.lock().keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum monitored count — an upper bound on the true frequency
    /// of *any* unmonitored key (0 while the table is not full).
    pub fn min_count(&self) -> u64 {
        let inner = self.inner.lock();
        if inner.keys.len() < self.capacity {
            return 0;
        }
        inner.counts.iter().copied().min().unwrap_or(0)
    }

    /// The hottest `n` monitored keys, by estimated count descending
    /// (ties broken by key for determinism).
    pub fn top(&self, n: usize) -> Vec<HeatEntry> {
        let inner = self.inner.lock();
        let mut all: Vec<HeatEntry> = (0..inner.keys.len()).map(|i| inner.entry(i)).collect();
        all.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// JSON document for `/swala-hotkeys`: the top `n` keys plus the
    /// sketch's own error-bound metadata.
    pub fn to_json(&self, n: usize) -> String {
        render_hotkeys_json(self.capacity, self.total(), self.min_count(), &self.top(n))
    }
}

/// Render a hot-key report as JSON (shared by the local endpoint and
/// the cluster-merged view).
pub fn render_hotkeys_json(
    capacity: usize,
    total: u64,
    min_count: u64,
    entries: &[HeatEntry],
) -> String {
    let mut out = format!(
        "{{\"capacity\":{capacity},\"total_observations\":{total},\
         \"unmonitored_upper_bound\":{min_count},\"keys\":["
    );
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"key\":\"{}\",\"count\":{},\"error\":{},\"count_lower_bound\":{},\"cost_us\":{}}}",
            json_escape(&e.key),
            e.count,
            e.error,
            e.count - e.error,
            e.cost_us,
        ));
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Merge per-node hot-key lists into a cluster ranking: counts, errors
/// and costs for the same key sum across nodes (each node's sketch is
/// independent, so the summed bounds stay valid: the cluster-wide true
/// count lies within [Σ(count-error), Σcount]).
pub fn merge_hotkeys(lists: &[Vec<HeatEntry>], n: usize) -> Vec<HeatEntry> {
    let mut merged: HashMap<&str, HeatEntry> = HashMap::new();
    for list in lists {
        for e in list {
            merged
                .entry(e.key.as_str())
                .and_modify(|m| {
                    m.count += e.count;
                    m.error += e.error;
                    m.cost_us += e.cost_us;
                })
                .or_insert_with(|| e.clone());
        }
    }
    let mut all: Vec<HeatEntry> = merged.into_values().collect();
    all.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
    all.truncate(n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let s = HeatSketch::new(8);
        for _ in 0..5 {
            s.observe("a", 10);
        }
        for _ in 0..3 {
            s.observe("b", 1);
        }
        assert_eq!(s.total(), 8);
        assert_eq!(s.len(), 2);
        assert_eq!(s.min_count(), 0, "not at capacity: no unmonitored keys");
        let top = s.top(10);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].count, 5);
        assert_eq!(top[0].error, 0);
        assert_eq!(top[0].cost_us, 50);
        assert_eq!(top[1].key, "b");
        assert_eq!(top[1].count, 3);
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let s = HeatSketch::new(2);
        s.observe("a", 0);
        s.observe("a", 0);
        s.observe("b", 0);
        // Table full; "c" evicts the minimum ("b", count 1).
        s.observe("c", 0);
        let top = s.top(10);
        assert_eq!(top.len(), 2);
        let c = top.iter().find(|e| e.key == "c").expect("c monitored");
        assert_eq!(c.count, 2, "inherits min count + 1");
        assert_eq!(c.error, 1, "error records the inherited part");
        assert_eq!(c.count - c.error, 1, "true count lower bound");
    }

    #[test]
    fn overestimate_never_underestimates() {
        // Adversarial rotation: every key cycles through a tiny sketch.
        let s = HeatSketch::new(4);
        let mut exact: HashMap<String, u64> = HashMap::new();
        for i in 0..1000u64 {
            let key = format!("k{}", i % 13);
            *exact.entry(key.clone()).or_insert(0) += 1;
            s.observe(&key, 0);
        }
        for e in s.top(4) {
            let truth = exact[&e.key];
            assert!(e.count >= truth, "{}: {} < {truth}", e.key, e.count);
            assert!(
                e.count - e.error <= truth,
                "{}: lower bound {} > {truth}",
                e.key,
                e.count - e.error
            );
        }
    }

    #[test]
    fn zipf_workload_top_k_within_error_bounds() {
        // Zipf(s=1.2) over 2000 keys via inverse-CDF on a deterministic
        // LCG — the documented accuracy claim for /swala-hotkeys.
        let universe = 2000usize;
        let weights: Vec<f64> = (1..=universe).map(|r| 1.0 / (r as f64).powf(1.2)).collect();
        let total_w: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total_w;
            cdf.push(acc);
        }
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let s = HeatSketch::new(256);
        let mut exact: HashMap<usize, u64> = HashMap::new();
        for _ in 0..50_000 {
            let u = rand01();
            let rank = cdf.partition_point(|c| *c < u).min(universe - 1);
            *exact.entry(rank).or_insert(0) += 1;
            s.observe(&format!("key{rank}"), 0);
        }
        // Every reported key's bracket [count-error, count] contains
        // the exact count.
        for e in s.top(256) {
            let rank: usize = e.key[3..].parse().unwrap();
            let truth = *exact.get(&rank).unwrap_or(&0);
            assert!(e.count >= truth, "{}: over bound broken", e.key);
            assert!(e.count - e.error <= truth, "{}: under bound broken", e.key);
        }
        // The true top-10 keys are all monitored, and every one whose
        // lower bound beats the unmonitored ceiling is genuinely hot.
        let mut truth_sorted: Vec<(usize, u64)> = exact.iter().map(|(k, v)| (*k, *v)).collect();
        truth_sorted.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let top = s.top(256);
        for (rank, _) in truth_sorted.iter().take(10) {
            assert!(
                top.iter().any(|e| e.key == format!("key{rank}")),
                "true top-10 key{rank} not monitored"
            );
        }
        let ceiling = s.min_count();
        for e in top.iter().filter(|e| e.count - e.error > ceiling) {
            let rank: usize = e.key[3..].parse().unwrap();
            assert!(
                *exact.get(&rank).unwrap_or(&0) > 0,
                "provably-hot key {} never occurred",
                e.key
            );
        }
    }

    /// Under a rotating stream every unmonitored key takes over the
    /// lowest-numbered slot holding the minimum count.
    #[test]
    fn a_replaced_slot_always_held_the_minimum_count() {
        let s = HeatSketch::new(4);
        let slots = |s: &HeatSketch| {
            let inner = s.inner.lock();
            (inner.keys.clone(), inner.counts.clone())
        };
        let mut replaced = 0;
        for i in 0..1000u64 {
            let key = format!("k{}", i % 13 + i / 97);
            let (keys, counts) = slots(&s);
            s.observe(&key, 0);
            let (keys_after, counts_after) = slots(&s);
            if keys.len() < 4 || keys.iter().any(|k| **k == *key) {
                assert!(
                    keys_after.starts_with(&keys),
                    "step {i}: no slot changes hands"
                );
                continue;
            }
            let changed: Vec<usize> = (0..4).filter(|&j| keys[j] != keys_after[j]).collect();
            let min = *counts.iter().min().unwrap();
            let first_min = counts.iter().position(|&c| c == min).unwrap();
            assert_eq!(changed, [first_min], "step {i}: {counts:?}");
            assert_eq!(&*keys_after[first_min], key.as_str());
            assert_eq!(counts_after[first_min], min + 1);
            replaced += 1;
        }
        assert!(replaced > 500, "{replaced} replacements");
        let inner = s.inner.lock();
        assert_eq!(inner.index.len(), 4);
        assert!(inner
            .index
            .iter()
            .all(|(&h, &at)| inner.hashes[at] == h && key_hash(&inner.keys[at]) == h));
    }

    #[test]
    fn a_hashed_observation_shares_the_callers_key() {
        let s = HeatSketch::new(2);
        let key: Arc<str> = Arc::from("/cgi-bin/adl?id=1");
        s.observe_hashed(key_hash(&key), &key, 3);
        s.observe("/cgi-bin/adl?id=1", 4);
        s.add_cost(key_hash(&key), &key, 5);
        assert!(Arc::ptr_eq(&s.inner.lock().keys[0], &key));
        let top = s.top(1);
        assert_eq!((top[0].count, top[0].cost_us), (2, 12));
    }

    #[test]
    fn add_cost_only_touches_monitored_keys() {
        let s = HeatSketch::new(2);
        s.observe("a", 5);
        s.add_cost(key_hash("a"), "a", 10);
        s.add_cost(key_hash("ghost"), "ghost", 100);
        let top = s.top(10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].cost_us, 15);
    }

    #[test]
    fn disabled_sketch_is_a_no_op() {
        let s = HeatSketch::disabled();
        assert!(!s.enabled());
        s.observe("a", 1);
        s.add_cost(key_hash("a"), "a", 1);
        assert_eq!(s.total(), 0);
        assert!(s.top(10).is_empty());
        assert_eq!(
            s.to_json(10),
            "{\"capacity\":0,\"total_observations\":0,\"unmonitored_upper_bound\":0,\"keys\":[]}"
        );
    }

    #[test]
    fn json_escapes_exotic_keys() {
        let s = HeatSketch::new(4);
        s.observe("a\"b\\c\nd", 1);
        let json = s.to_json(10);
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"count_lower_bound\":1"));
    }

    #[test]
    fn merge_sums_counts_and_bounds() {
        let a = vec![HeatEntry {
            key: "k".into(),
            count: 10,
            error: 2,
            cost_us: 100,
        }];
        let b = vec![
            HeatEntry {
                key: "k".into(),
                count: 5,
                error: 1,
                cost_us: 50,
            },
            HeatEntry {
                key: "other".into(),
                count: 3,
                error: 0,
                cost_us: 1,
            },
        ];
        let merged = merge_hotkeys(&[a, b], 10);
        assert_eq!(merged[0].key, "k");
        assert_eq!(merged[0].count, 15);
        assert_eq!(merged[0].error, 3);
        assert_eq!(merged[0].cost_us, 150);
        assert_eq!(merged[1].key, "other");
        let top1 = merge_hotkeys(&[vec![merged[0].clone(), merged[1].clone()]], 1);
        assert_eq!(top1.len(), 1);
    }
}
