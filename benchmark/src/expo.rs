//! Counter deltas from `/swala-metrics` scrapes.
//!
//! The per-layer *in situ* numbers are differences between a scrape
//! before and a scrape after a timed window, summed over both nodes.

use std::collections::BTreeMap;
use swala_obs::Sample;

/// Sample values keyed by `name` or `name{label="value",...}`;
/// histogram buckets are dropped (only `_sum` and `_count` are used).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Sum of the given scrapes (one per node).
    pub fn sum_of(scrapes: &[Vec<Sample>]) -> Counters {
        let mut out = BTreeMap::new();
        for sample in scrapes.iter().flatten() {
            if sample.name.ends_with("_bucket") {
                continue;
            }
            *out.entry(series_key(sample)).or_insert(0.0) += sample.value;
        }
        Counters(out)
    }

    /// `self − before`, series by series; a series absent from `before`
    /// counts from zero.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Value of a series; 0 when the server does not export it.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `sum ÷ count` of a labelled histogram, 0 when it saw nothing.
    pub fn hist_mean(&self, name: &str, label: &str) -> f64 {
        let count = self.get(&format!("{name}_count{{{label}}}"));
        if count > 0.0 {
            self.get(&format!("{name}_sum{{{label}}}")) / count
        } else {
            0.0
        }
    }
}

fn series_key(s: &Sample) -> String {
    if s.labels.is_empty() {
        return s.name.clone();
    }
    let labels: Vec<String> = s
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    format!("{}{{{}}}", s.name, labels.join(","))
}

/// `a ÷ b`, 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_obs::parse_exposition;

    /// Captured from a live node after one remote hit.
    const SAMPLE: &str = include_str!("../fixtures/metrics_sample.txt");

    #[test]
    fn captured_sample_parses_and_deltas() {
        let before = Counters::sum_of(&[parse_exposition(SAMPLE).unwrap()]);
        assert_eq!(before.get("swala_cache_lookups"), 1.0);
        assert_eq!(before.get("swala_cache_remote_hits"), 1.0);
        assert_eq!(
            before.hist_mean("swala_request_duration_microseconds", "outcome=\"remote\""),
            731.0
        );
        assert_eq!(
            before.hist_mean("swala_request_duration_microseconds", "outcome=\"miss\""),
            0.0
        );
        assert_eq!(before.get("no_such_series"), 0.0);

        // "After": the same node five lookups later, two of them misses.
        let later = SAMPLE
            .replace("swala_cache_lookups 1\n", "swala_cache_lookups 6\n")
            .replace("swala_cache_misses 0\n", "swala_cache_misses 2\n");
        let after = Counters::sum_of(&[parse_exposition(&later).unwrap()]);
        let delta = after.since(&before);
        assert_eq!(delta.get("swala_cache_lookups"), 5.0);
        assert_eq!(delta.get("swala_cache_misses"), 2.0);
        assert_eq!(delta.get("swala_cache_remote_hits"), 0.0);
    }

    #[test]
    fn two_nodes_sum() {
        let one = parse_exposition(SAMPLE).unwrap();
        let both = Counters::sum_of(&[one.clone(), one]);
        assert_eq!(both.get("swala_http_requests"), 4.0);
        assert!(!both.0.keys().any(|k| k.contains("_bucket")));
    }
}
