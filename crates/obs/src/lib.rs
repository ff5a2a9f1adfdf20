//! # swala-obs — telemetry for the Swala reproduction
//!
//! The paper's evaluation (§5) is a study of *where time goes*: local
//! hit vs. remote hit vs. miss-and-execute. This crate gives the
//! reproduction the instruments that study needs:
//!
//! * [`MetricsRegistry`] — named counters (closures over the owners'
//!   existing relaxed atomics), [`Gauge`]s, and log-linear
//!   [`Histogram`]s with p50/p90/p99/max snapshots, rendered as
//!   Prometheus text and parseable back via [`parse_exposition`].
//! * [`Trace`] / [`Telemetry`] — per-request typed span events with a
//!   node-unique 64-bit id that rides the `FetchRequest` wire message,
//!   so one remote hit yields correlated spans on requester and owner.
//! * [`counters!`] — generates an atomic counter struct together with
//!   its snapshot struct, `snapshot()`, Display plumbing and registry
//!   hookup from a single field list, so a new counter cannot be added
//!   to the struct but forgotten in the snapshot (a drift that
//!   happened three times in this repo's history).
//!
//! Design constraints, enforced throughout: no locks and no time
//! sources on the hot path beyond one `Instant` pair per traced stage;
//! disabled telemetry degrades to branch-and-return no-ops so the
//! `obs off` configuration is an honest baseline.

mod heat;
mod hist;
pub mod keyhash;
mod registry;
mod telemetry;
mod trace;

pub use heat::{merge_hotkeys, render_hotkeys_json, HeatEntry, HeatSketch};
pub use hist::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, BUCKETS, SUB, SUB_BITS};
pub use registry::{
    escape_label_value, lookup, parse_exposition, render_cluster, Gauge, MetricSnapshot,
    MetricValue, MetricsRegistry, Sample,
};
pub use telemetry::{Telemetry, TraceSummary, SLOW_TRACES, TRACE_RING};
pub use trace::{CompletedTrace, Outcome, SpanRecord, Stage, Trace};

/// Define an atomic counter struct plus its plain-value snapshot.
///
/// ```
/// swala_obs::counters! {
///     /// Counters for the widget path.
///     pub struct WidgetStats => WidgetSnapshot {
///         made: "Widgets made",
///         dropped: "Widgets dropped on the floor",
///     }
/// }
///
/// let stats = std::sync::Arc::new(WidgetStats::new());
/// WidgetStats::bump(&stats.made);
/// assert_eq!(stats.snapshot().made, 1);
///
/// // Every field registers as `<prefix>_<field>` — none can be missed.
/// let reg = swala_obs::MetricsRegistry::new();
/// stats.register_into(&reg, "swala_widget");
/// assert!(reg.render().contains("swala_widget_made 1"));
/// ```
///
/// Generated API: `new()`, `bump(&field)`, `add(&field, n)`,
/// `snapshot() -> Snap`, `register_into(&Arc<Self>, &registry, prefix)`,
/// `FIELDS` (names in declaration order), and `Snap::fmt_fields` which
/// writes `field=value` pairs for Display impls.
#[macro_export]
macro_rules! counters {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident => $snap:ident {
            $( $(#[$fmeta:meta])* $field:ident : $help:literal ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )+
        }

        #[doc = concat!("Plain-value snapshot of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Counter field names, in declaration order.
            pub const FIELDS: &'static [&'static str] = &[ $( stringify!($field), )+ ];

            pub fn new() -> $name {
                <$name as ::std::default::Default>::default()
            }

            /// Relaxed increment — counters are advisory, never load-bearing.
            pub fn bump(counter: &::std::sync::atomic::AtomicU64) {
                counter.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Relaxed add.
            pub fn add(counter: &::std::sync::atomic::AtomicU64, n: u64) {
                counter.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Relaxed decrement — reclassify an event after the fact
            /// (e.g. a miss that turned out to be a remote hit). The
            /// caller must have bumped the same counter earlier.
            pub fn debit(counter: &::std::sync::atomic::AtomicU64) {
                counter.fetch_sub(1, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Coherent-enough copy for reporting (relaxed loads).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }

            /// Register every field into `registry` as `<prefix>_<field>`
            /// — the registry reads the same atomics, nothing is copied.
            pub fn register_into(
                self: &::std::sync::Arc<Self>,
                registry: &$crate::MetricsRegistry,
                prefix: &str,
            ) {
                $(
                    let me = ::std::sync::Arc::clone(self);
                    registry.register_counter(
                        &::std::format!("{}_{}", prefix, stringify!($field)),
                        $help,
                        move || me.$field.load(::std::sync::atomic::Ordering::Relaxed),
                    );
                )+
            }
        }

        impl $snap {
            /// Write `field=value` for every counter, space-separated.
            /// Display impls delegate here so no field can be omitted.
            pub fn fmt_fields(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                let mut sep = "";
                $(
                    ::std::write!(f, "{sep}{}={}", stringify!($field), self.$field)?;
                    sep = " ";
                )+
                let _ = sep;
                ::std::result::Result::Ok(())
            }
        }
    };
}

#[cfg(test)]
mod macro_tests {
    use std::sync::Arc;

    crate::counters! {
        /// Test counters.
        pub struct TestStats => TestSnapshot {
            /// First thing.
            alpha: "Alpha events",
            beta: "Beta events",
        }
    }

    impl std::fmt::Display for TestSnapshot {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.fmt_fields(f)
        }
    }

    #[test]
    fn snapshot_and_fields_cover_every_counter() {
        let s = TestStats::new();
        TestStats::add(&s.alpha, 2);
        TestStats::debit(&s.alpha);
        TestStats::add(&s.beta, 5);
        let snap = s.snapshot();
        assert_eq!(snap.alpha, 1);
        assert_eq!(snap.beta, 5);
        assert_eq!(TestStats::FIELDS, &["alpha", "beta"]);
        let text = snap.to_string();
        for field in TestStats::FIELDS {
            assert!(
                text.contains(&format!("{field}=")),
                "Display missing {field}: {text}"
            );
        }
        assert_eq!(text, "alpha=1 beta=5");
    }

    #[test]
    fn register_into_exposes_every_field() {
        let s = Arc::new(TestStats::new());
        TestStats::bump(&s.beta);
        let reg = crate::MetricsRegistry::new();
        s.register_into(&reg, "swala_test");
        let text = reg.render();
        for field in TestStats::FIELDS {
            assert!(text.contains(&format!("swala_test_{field} ")), "{text}");
        }
        assert!(text.contains("swala_test_beta 1\n"));
        // Registered closures read the live atomics, not a copy.
        TestStats::bump(&s.beta);
        assert!(reg.render().contains("swala_test_beta 2\n"));
    }
}
