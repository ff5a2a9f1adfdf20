//! Property tests for the telemetry layer:
//!
//! * Prometheus exposition output parses back — every rendered counter,
//!   gauge and histogram sample survives a render → parse round-trip
//!   with its name, labels and value intact;
//! * histogram merge is exact: recording two value streams into two
//!   histograms and merging the snapshots equals recording both streams
//!   into one histogram (the basis of cluster-level aggregation);
//! * quantile estimates never undershoot the true quantile and stay
//!   within the log-linear error bound.

use proptest::prelude::*;
use std::sync::Arc;
use swala_obs::{parse_exposition, Histogram, MetricsRegistry};

fn value_strategy() -> impl Strategy<Value = u64> {
    // Mix small exact values, mid-range, and huge clamped ones.
    prop_oneof![
        4 => 0u64..64,
        4 => 0u64..100_000,
        1 => any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exposition_roundtrips(
        counters in proptest::collection::vec(("[a-z][a-z0-9_]{0,12}", any::<u64>()), 0..6),
        gauges in proptest::collection::vec(("[a-z][a-z0-9_]{0,12}", any::<i64>()), 0..4),
        label_value in "[ -~]{0,12}",
        hist_values in proptest::collection::vec(value_strategy(), 0..50),
    ) {
        let reg = MetricsRegistry::new();
        let mut expected: Vec<(String, u64)> = Vec::new();
        for (i, (name, v)) in counters.iter().enumerate() {
            let name = format!("swala_c{i}_{name}");
            let v = *v;
            reg.register_counter(&name, "a counter", move || v);
            expected.push((name, v));
        }
        for (i, (name, v)) in gauges.iter().enumerate() {
            let name = format!("swala_g{i}_{name}");
            let g = reg.gauge(&name, "a gauge");
            g.set(*v);
        }
        let h = reg.histogram_labeled("swala_h_us", "a histogram", "outcome", &label_value);
        for v in &hist_values {
            h.record(*v);
        }

        let text = reg.render();
        let samples = parse_exposition(&text).expect("render output must parse");

        // Every counter comes back with its exact value (u64 → f64 is
        // lossy above 2^53; compare through the same cast).
        for (name, v) in &expected {
            let got = samples.iter().find(|s| &s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"));
            prop_assert_eq!(got.value, *v as f64);
            prop_assert!(got.labels.is_empty());
        }
        for (i, (name, v)) in gauges.iter().enumerate() {
            let name = format!("swala_g{i}_{name}");
            let got = samples.iter().find(|s| s.name == name).unwrap();
            prop_assert_eq!(got.value, *v as f64);
        }
        // Histogram family: label value round-trips through escaping,
        // +Inf bucket equals _count equals the number recorded.
        let count = samples.iter()
            .find(|s| s.name == "swala_h_us_count")
            .expect("histogram count");
        prop_assert_eq!(count.value, hist_values.len() as f64);
        prop_assert_eq!(&count.labels, &vec![("outcome".to_string(), label_value.clone())]);
        let inf = samples.iter()
            .find(|s| s.name == "swala_h_us_bucket"
                && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .expect("+Inf bucket");
        prop_assert_eq!(inf.value, hist_values.len() as f64);
        // Cumulative buckets never decrease.
        let mut last = 0.0;
        for s in samples.iter().filter(|s| s.name == "swala_h_us_bucket") {
            prop_assert!(s.value >= last, "bucket counts must be cumulative");
            last = s.value;
        }
    }

    /// Exotic label values — quotes, backslashes, embedded newlines —
    /// and newline-ridden help text must survive render → parse with
    /// the label value byte-identical (the cluster exposition reuses
    /// the same escaping for every federated sample).
    #[test]
    fn exotic_labels_and_help_roundtrip(
        // ` -~` covers all printable ASCII incl. `"` and `\`; the class
        // also holds a literal newline (embedded via the Rust escape).
        label_value in "[ -~\n]{0,24}",
        help in "[ -~\n]{0,40}",
        hist_values in proptest::collection::vec(value_strategy(), 0..30),
        counter_value in any::<u64>(),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_labeled("swala_exotic_us", &help, "outcome", &label_value);
        for v in &hist_values {
            h.record(*v);
        }
        let v = counter_value;
        reg.register_counter_labeled(
            "swala_exotic_total",
            &help,
            "outcome",
            &label_value,
            move || v,
        );

        let text = reg.render();
        let samples = parse_exposition(&text).expect("exotic labels must still parse");

        let expected_label = vec![("outcome".to_string(), label_value.clone())];
        let counter = samples.iter().find(|s| s.name == "swala_exotic_total")
            .expect("labeled counter");
        prop_assert_eq!(&counter.labels, &expected_label);
        prop_assert_eq!(counter.value, counter_value as f64);
        let count = samples.iter().find(|s| s.name == "swala_exotic_us_count")
            .expect("labeled histogram count");
        prop_assert_eq!(&count.labels, &expected_label);
        prop_assert_eq!(count.value, hist_values.len() as f64);
        // Histogram buckets carry the label too, next to their `le`.
        for s in samples.iter().filter(|s| s.name == "swala_exotic_us_bucket") {
            prop_assert!(
                s.labels.iter().any(|(k, v)| k == "outcome" && *v == label_value),
                "bucket lost its label: {:?}", s.labels
            );
        }
    }

    #[test]
    fn merge_equals_single_histogram(
        left in proptest::collection::vec(value_strategy(), 0..200),
        right in proptest::collection::vec(value_strategy(), 0..200),
    ) {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in &left {
            a.record(*v);
            all.record(*v);
        }
        for v in &right {
            b.record(*v);
            all.record(*v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let single = all.snapshot();
        prop_assert_eq!(&merged, &single);
        // And quantiles (a derived view) agree too.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }

    #[test]
    fn quantiles_respect_error_bound(
        values in proptest::collection::vec(1u64..1_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut values = values;
        let h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let est = h.snapshot().quantile(q);
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
        let truth = values[rank.min(values.len() - 1)];
        // Estimate is the bucket's inclusive upper bound: never below
        // the true quantile, and at most one sub-bucket (12.5%) above.
        prop_assert!(est >= truth, "estimate {est} below true {truth}");
        prop_assert!(
            est as f64 <= truth as f64 * (1.0 + 1.0 / swala_obs::SUB as f64) + 1.0,
            "estimate {est} too far above true {truth}"
        );
    }

    #[test]
    fn summary_is_ordered(samples in proptest::collection::vec(1u64..1_000_000, 1..200)) {
        let h = Histogram::new();
        for s in &samples {
            h.record_duration(std::time::Duration::from_micros(*s));
        }
        let sum = h.snapshot();
        prop_assert!(sum.p50() <= sum.p90());
        prop_assert!(sum.p90() <= sum.p99());
        prop_assert!(sum.p99() <= sum.max);
        prop_assert!(sum.mean() <= sum.max as f64);
        prop_assert_eq!(sum.count, samples.len() as u64);
        prop_assert_eq!(sum.sum, samples.iter().sum::<u64>(), "the mean's sum is exact");
    }

    #[test]
    fn concurrent_histogram_recording_is_lossless(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 0..50), 1..4),
    ) {
        let h = Arc::new(Histogram::new());
        let total: usize = per_thread.iter().map(Vec::len).sum();
        let handles: Vec<_> = per_thread.into_iter().map(|vals| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || for v in vals { h.record(v); })
        }).collect();
        for j in handles {
            j.join().unwrap();
        }
        prop_assert_eq!(h.snapshot().count, total as u64);
    }
}
