//! Property tests for workload synthesis and analysis.

use proptest::prelude::*;
use swala_workload::{
    analyze_thresholds, section53_trace, synthesize_adl_trace, AdlTraceConfig, RequestKind, Trace,
    TraceRequest, Zipf,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adl_trace_invariants(total in 50usize..2000, seed in any::<u64>()) {
        let cfg = AdlTraceConfig { total_requests: total, seed, ..AdlTraceConfig::scaled_to(total) };
        let trace = synthesize_adl_trace(&cfg);
        prop_assert_eq!(trace.len(), total);
        // Identical targets always carry identical service times.
        let mut seen = std::collections::HashMap::new();
        for r in &trace.requests {
            if let Some(prev) = seen.insert(&r.target, r.service_micros) {
                prop_assert_eq!(prev, r.service_micros);
            }
        }
        // upper_bound_hits + uniques = total.
        prop_assert_eq!(trace.unique_targets() + trace.upper_bound_hits(), total);
        // Dynamic targets all carry an ms= parameter.
        for r in trace.requests.iter().filter(|r| r.kind == RequestKind::Dynamic) {
            prop_assert!(r.target.contains("ms="), "{}", r.target);
        }
    }

    #[test]
    fn section53_counts_hold_for_any_seed(seed in any::<u64>(), ms in 1u64..50) {
        let t = section53_trace(seed, ms);
        prop_assert_eq!(t.len(), 1600);
        prop_assert_eq!(t.unique_targets(), 1122);
        prop_assert_eq!(t.upper_bound_hits(), 478);
    }

    #[test]
    fn analysis_saved_never_exceeds_total(
        reqs in proptest::collection::vec((0u8..30, 1u32..10_000_000), 1..300),
        thresholds in proptest::collection::vec(0.0f64..10.0, 1..5),
    ) {
        let trace = Trace::new(
            reqs.into_iter()
                .map(|(id, micros)| {
                    // Same id ⇒ same cost (dedup by id).
                    TraceRequest::dynamic(id as u64, (id as u64 + 1) * 100_000 + (micros as u64 % 7), 1)
                })
                .collect(),
        );
        let total = trace.total_service_micros() as f64 / 1e6;
        for row in analyze_thresholds(&trace, &thresholds) {
            prop_assert!(row.saved_secs <= total + 1e-9);
            prop_assert!(row.total_repeats >= row.unique_repeats);
            prop_assert!(row.long_requests <= trace.len());
            prop_assert!((0.0..=100.0).contains(&row.saved_pct));
        }
    }

    #[test]
    fn analysis_repeats_bounded_by_upper_bound(
        ids in proptest::collection::vec(0u8..20, 1..200),
    ) {
        let trace = Trace::new(
            ids.into_iter().map(|id| TraceRequest::dynamic(id as u64, 1_000_000, 1)).collect(),
        );
        // At threshold 0 every repeat counts: repeats == upper bound.
        let rows = analyze_thresholds(&trace, &[0.0]);
        prop_assert_eq!(rows[0].total_repeats, trace.upper_bound_hits());
    }

    #[test]
    fn zipf_samples_in_range(n in 1usize..500, s in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
