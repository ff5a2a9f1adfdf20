//! Metrics registry and Prometheus text exposition.
//!
//! Registration is rare (server start-up) and takes a mutex; reading a
//! metric at scrape time calls back into the owner's existing atomics,
//! so the registry adds **zero** cost to the hot path — `CacheStats` /
//! `RequestStats` keep their relaxed `AtomicU64`s and merely register
//! closures over them instead of duplicating state.
//!
//! The exposition format is the Prometheus text format (version 0.0.4):
//! `# HELP` / `# TYPE` per family, `name{label="value"} 123` samples,
//! histogram families expanded into cumulative `_bucket{le=...}` plus
//! `_sum` and `_count`. [`parse_exposition`] parses the same grammar
//! back; the proptest suite round-trips render → parse, and the CI gate
//! uses the parser to reject malformed scrape output.

use crate::hist::{bucket_upper, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A value that can go up and down (bytes resident, queue depth).
///
/// Stored as `i64` so an erroneous extra decrement is visible as a
/// negative value in release builds instead of wrapping to ~2^64;
/// debug builds assert non-negativity on every decrement.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Decrement; debug builds assert the gauge never goes negative.
    pub fn sub(&self, n: u64) {
        let prev = self.value.fetch_sub(n as i64, Ordering::Relaxed);
        debug_assert!(prev >= n as i64, "gauge underflow: {} - {}", prev, n as i64);
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
type GaugeFn = Box<dyn Fn() -> i64 + Send + Sync>;

enum Source {
    Counter(CounterFn),
    Gauge(Arc<Gauge>),
    GaugeFn(GaugeFn),
    Histogram(Arc<Histogram>),
}

struct Metric {
    name: String,
    help: String,
    /// Optional single `key="value"` label pair.
    label: Option<(String, String)>,
    source: Source,
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self.source {
            Source::Counter(_) => "counter",
            Source::Gauge(_) | Source::GaugeFn(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }

    /// Read the current value out of the source.
    fn read(&self) -> MetricValue {
        match &self.source {
            Source::Counter(f) => MetricValue::Counter(f()),
            Source::Gauge(g) => MetricValue::Gauge(g.get()),
            Source::GaugeFn(f) => MetricValue::Gauge(f()),
            Source::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// Named counters, gauges and histograms, rendered on demand.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn push(&self, metric: Metric) {
        assert!(
            valid_name(&metric.name),
            "invalid metric name {:?}",
            metric.name
        );
        if let Some((k, _)) = &metric.label {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let mut metrics = self.metrics.lock();
        assert!(
            !metrics
                .iter()
                .any(|m| m.name == metric.name && m.label == metric.label),
            "duplicate metric {} {:?}",
            metric.name,
            metric.label
        );
        metrics.push(metric);
    }

    /// Register a counter read through `f` at scrape time.
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            source: Source::Counter(Box::new(f)),
        });
    }

    /// Register a labelled counter (one sample of a shared family).
    pub fn register_counter_labeled(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        label_value: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
            source: Source::Counter(Box::new(f)),
        });
    }

    /// Register an externally owned gauge.
    pub fn register_gauge(&self, name: &str, help: &str, gauge: Arc<Gauge>) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            source: Source::Gauge(gauge),
        });
    }

    /// Register a gauge read through `f` at scrape time — for values the
    /// owner already tracks (directory sizes, ring geometry) where a
    /// shadow [`Gauge`] would just be a second copy to keep in sync.
    pub fn register_gauge_fn(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            source: Source::GaugeFn(Box::new(f)),
        });
    }

    /// Register a labelled gauge read through `f` at scrape time (one
    /// sample of a shared family, such as a per-peer state).
    pub fn register_gauge_fn_labeled(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        label_value: &str,
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
            source: Source::GaugeFn(Box::new(f)),
        });
    }

    /// Create and register a new gauge, returning the shared handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register_gauge(name, help, Arc::clone(&g));
        g
    }

    /// Register an externally owned histogram.
    pub fn register_histogram(&self, name: &str, help: &str, histogram: Arc<Histogram>) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            source: Source::Histogram(histogram),
        });
    }

    /// Create and register a new histogram, returning the shared handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram(name, help, Arc::clone(&h));
        h
    }

    /// Register an externally owned histogram as one labelled series of
    /// a family such as `..._duration{outcome="local-mem"}`.
    pub fn register_histogram_labeled(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        label_value: &str,
        histogram: Arc<Histogram>,
    ) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
            source: Source::Histogram(histogram),
        });
    }

    /// Create and register a labelled histogram, returning the shared
    /// handle.
    pub fn histogram_labeled(
        &self,
        name: &str,
        help: &str,
        label_key: &str,
        label_value: &str,
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram_labeled(name, help, label_key, label_value, Arc::clone(&h));
        h
    }

    /// Render the Prometheus text exposition (format version 0.0.4).
    pub fn render(&self) -> String {
        let metrics = self.metrics.lock();
        let mut out = String::new();
        for (i, m) in metrics.iter().enumerate() {
            // HELP/TYPE once per family: first metric with this name wins.
            if !metrics[..i].iter().any(|p| p.name == m.name) {
                let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
                let _ = writeln!(out, "# TYPE {} {}", m.name, m.type_name());
            }
            write_sample(&mut out, &m.name, &pairs_of(&m.label), &m.read());
        }
        out
    }

    /// Plain-value dump of every registered metric, in registration
    /// order — the unit of the `StatsSnapshot` wire frame. Counters and
    /// gauges are read through their closures; histograms are copied as
    /// raw (non-cumulative) buckets so a receiver can re-merge them with
    /// [`HistogramSnapshot::merge`].
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.metrics
            .lock()
            .iter()
            .map(|m| MetricSnapshot {
                name: m.name.clone(),
                help: m.help.clone(),
                label: m.label.clone(),
                value: m.read(),
            })
            .collect()
    }
}

/// Plain value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric read out as plain values.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub help: String,
    /// Optional single `key="value"` label pair.
    pub label: Option<(String, String)>,
    pub value: MetricValue,
}

/// The series `name` in `metrics`: the one whose label value is `label`,
/// or the unlabelled one for `None`. A counter or gauge reads as its
/// value, a histogram as its count. A gauge below zero, which only an
/// accounting bug makes, wraps and so fails any bound. The status pages
/// and the tests read every series through this one function.
pub fn lookup(metrics: &[MetricSnapshot], name: &str, label: Option<&str>) -> Option<u64> {
    let m = metrics
        .iter()
        .find(|m| m.name == name && m.label.as_ref().map(|(_, v)| v.as_str()) == label)?;
    Some(match &m.value {
        MetricValue::Counter(v) => *v,
        MetricValue::Gauge(v) => *v as u64,
        MetricValue::Histogram(h) => h.count,
    })
}

/// Render a cluster-merged exposition: each node's snapshot re-emitted
/// with a `node="N"` label prepended, families grouped across nodes so
/// the output stays one exposition document. Values pass through
/// verbatim — summing a family over its `node` label therefore equals
/// the arithmetic sum of the per-node registries, which `obsplane_tests`
/// checks exactly.
pub fn render_cluster(nodes: &[(u16, Vec<MetricSnapshot>)]) -> String {
    let mut families: Vec<&str> = Vec::new();
    for (_, metrics) in nodes {
        for m in metrics {
            if !families.contains(&m.name.as_str()) {
                families.push(&m.name);
            }
        }
    }
    let mut out = String::new();
    for family in families {
        let first = nodes
            .iter()
            .flat_map(|(_, ms)| ms.iter())
            .find(|m| m.name == family)
            .expect("family has a member");
        let _ = writeln!(out, "# HELP {} {}", family, escape_help(&first.help));
        let _ = writeln!(out, "# TYPE {} {}", family, first.value.type_name());
        for (node, metrics) in nodes {
            for m in metrics.iter().filter(|m| m.name == family) {
                let mut pairs = vec![("node".to_string(), node.to_string())];
                pairs.extend(pairs_of(&m.label));
                write_sample(&mut out, &m.name, &pairs, &m.value);
            }
        }
    }
    out
}

fn pairs_of(label: &Option<(String, String)>) -> Vec<(String, String)> {
    match label {
        Some((k, v)) => vec![(k.clone(), v.clone())],
        None => Vec::new(),
    }
}

/// Write one metric's sample line(s); histograms expand into cumulative
/// `_bucket` lines plus `_sum` and `_count`.
fn write_sample(out: &mut String, name: &str, pairs: &[(String, String)], value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => {
            let _ = writeln!(out, "{}{} {}", name, render_pairs(pairs, None), v);
        }
        MetricValue::Gauge(v) => {
            let _ = writeln!(out, "{}{} {}", name, render_pairs(pairs, None), v);
        }
        MetricValue::Histogram(s) => {
            let highest = s.buckets.iter().rposition(|&c| c > 0);
            let mut cumulative = 0u64;
            if let Some(hi) = highest {
                for (b, &c) in s.buckets.iter().enumerate().take(hi + 1) {
                    cumulative += c;
                    let le = bucket_upper(b).to_string();
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        name,
                        render_pairs(pairs, Some(&le)),
                        cumulative
                    );
                }
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                name,
                render_pairs(pairs, Some("+Inf")),
                s.count
            );
            let _ = writeln!(out, "{}_sum{} {}", name, render_pairs(pairs, None), s.sum);
            let _ = writeln!(
                out,
                "{}_count{} {}",
                name,
                render_pairs(pairs, None),
                s.count
            );
        }
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// `v` as it must appear between the quotes of a label value.
pub fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_pairs(pairs: &[(String, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<(String, String)> = pairs.to_vec();
    if let Some(le) = le {
        pairs.push(("le".to_string(), le.to_string()));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// One sample parsed back out of an exposition body.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label pairs in source order (including `le` on histogram buckets).
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parse a Prometheus text exposition body into samples.
///
/// Strict about everything this crate emits: metric/label name grammar,
/// quoting, `# HELP`/`# TYPE` shape, and numeric values. Returns the
/// first offending line on error — the CI metrics gate fails on it.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("");
            match kind {
                "HELP" if valid_name(name) => {}
                "TYPE"
                    if valid_name(name)
                        && matches!(
                            rest,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        ) => {}
                _ => return Err(err("malformed comment")),
            }
            continue;
        }
        // name[{labels}] value
        let name_end = line.find(['{', ' ']).ok_or_else(|| err("missing value"))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(err("invalid metric name"));
        }
        let mut labels = Vec::new();
        let rest = if line.as_bytes()[name_end] == b'{' {
            let body_and_rest = &line[name_end + 1..];
            let close =
                find_label_close(body_and_rest).ok_or_else(|| err("unterminated labels"))?;
            parse_labels(&body_and_rest[..close], &mut labels).map_err(|e| err(&e))?;
            &body_and_rest[close + 1..]
        } else {
            &line[name_end..]
        };
        let value_str = rest.trim();
        if value_str.is_empty() {
            return Err(err("missing value"));
        }
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse::<f64>().map_err(|_| err("bad value"))?,
        };
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Position of the closing `}` of a label block, skipping quoted strings.
fn find_label_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_quotes => i += 1,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

fn parse_labels(body: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim();
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        let inner = after.strip_prefix('"').ok_or("label value not quoted")?;
        let mut value = String::new();
        let mut chars = inner.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    _ => return Err("bad escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        out.push((key.to_string(), value));
        rest = inner[end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err("trailing comma in labels".into());
            }
        } else if !rest.is_empty() {
            return Err("junk after label value".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn counter_render_and_parse() {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(7));
        let n2 = Arc::clone(&n);
        reg.register_counter("swala_things_total", "Things seen", move || {
            n2.load(Ordering::Relaxed)
        });
        let text = reg.render();
        assert!(text.contains("# HELP swala_things_total Things seen\n"));
        assert!(text.contains("# TYPE swala_things_total counter\n"));
        assert!(text.contains("swala_things_total 7\n"));
        n.store(9, Ordering::Relaxed);
        assert!(reg.render().contains("swala_things_total 9\n"));
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "swala_things_total");
        assert_eq!(samples[0].value, 7.0);
    }

    #[test]
    fn gauge_sub_and_negative_visibility() {
        let g = Gauge::new();
        g.add(10);
        g.sub(4);
        assert_eq!(g.get(), 6);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    #[should_panic(expected = "gauge underflow")]
    #[cfg(debug_assertions)]
    fn gauge_underflow_asserts_in_debug() {
        let g = Gauge::new();
        g.add(1);
        g.sub(2);
    }

    #[test]
    fn gauge_fn_reads_owner_state_at_scrape_time() {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(3));
        let n2 = Arc::clone(&n);
        reg.register_gauge_fn("swala_dir_entries", "Directory entries", move || {
            n2.load(Ordering::Relaxed) as i64
        });
        let text = reg.render();
        assert!(text.contains("# TYPE swala_dir_entries gauge\n"));
        assert!(text.contains("swala_dir_entries 3\n"));
        n.store(11, Ordering::Relaxed);
        assert!(reg.render().contains("swala_dir_entries 11\n"));
        parse_exposition(&text).unwrap();
    }

    #[test]
    fn lookup_reads_counters_gauges_and_histogram_counts() {
        let reg = MetricsRegistry::new();
        reg.register_counter("swala_c", "c", || 4);
        reg.register_gauge_fn_labeled("swala_g", "g", "peer", "1", || 2);
        reg.histogram_labeled("swala_h", "h", "op", "get").record(9);
        let snap = reg.snapshot();
        assert_eq!(lookup(&snap, "swala_c", None), Some(4));
        assert_eq!(lookup(&snap, "swala_c", Some("1")), None);
        assert_eq!(lookup(&snap, "swala_g", Some("1")), Some(2));
        assert_eq!(lookup(&snap, "swala_g", None), None);
        assert_eq!(lookup(&snap, "swala_h", Some("get")), Some(1));
        assert_eq!(lookup(&snap, "swala_missing", None), None);
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_registration_panics() {
        let reg = MetricsRegistry::new();
        reg.register_counter("swala_x", "x", || 0);
        reg.register_counter("swala_x", "x", || 0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        MetricsRegistry::new().register_counter("9bad name", "x", || 0);
    }

    #[test]
    fn histogram_family_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_labeled("swala_req_us", "Latency", "outcome", "local-mem");
        h.record(1);
        h.record(1);
        h.record(100);
        let text = reg.render();
        assert!(text.contains("# TYPE swala_req_us histogram\n"));
        assert!(text.contains("swala_req_us_bucket{outcome=\"local-mem\",le=\"1\"} 2\n"));
        assert!(text.contains("swala_req_us_bucket{outcome=\"local-mem\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("swala_req_us_sum{outcome=\"local-mem\"} 102\n"));
        assert!(text.contains("swala_req_us_count{outcome=\"local-mem\"} 3\n"));
        let samples = parse_exposition(&text).unwrap();
        // Cumulative buckets never decrease and +Inf equals _count.
        let mut last = 0.0;
        for s in samples.iter().filter(|s| s.name == "swala_req_us_bucket") {
            assert!(s.value >= last, "bucket counts must be cumulative");
            last = s.value;
        }
        let count = samples
            .iter()
            .find(|s| s.name == "swala_req_us_count")
            .unwrap()
            .value;
        assert_eq!(last, count);
    }

    #[test]
    fn empty_histogram_still_exposes_inf_bucket() {
        let reg = MetricsRegistry::new();
        reg.histogram("swala_idle_us", "never recorded");
        let text = reg.render();
        assert!(text.contains("swala_idle_us_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("swala_idle_us_count 0\n"));
        parse_exposition(&text).unwrap();
    }

    #[test]
    fn label_escaping_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.register_counter_labeled("swala_odd", "odd", "path", "a\"b\\c\nd", || 5);
        let text = reg.render();
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(
            samples[0].labels,
            vec![("path".to_string(), "a\"b\\c\nd".to_string())]
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value_here",
            "name{unclosed=\"x\" 3",
            "name{k=\"v\",} 3",
            "name{k=unquoted} 3",
            "1leading_digit 3",
            "name notanumber",
            "# TYPE name notatype",
            "# HELP 9bad help",
        ] {
            assert!(parse_exposition(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn snapshot_reads_plain_values() {
        let reg = MetricsRegistry::new();
        reg.register_counter("swala_c", "c", || 7);
        let g = reg.gauge("swala_g", "g");
        g.set(-3);
        let h = reg.histogram_labeled("swala_h", "h", "outcome", "miss");
        h.record(5);
        h.record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].value, MetricValue::Counter(7));
        assert_eq!(snap[1].value, MetricValue::Gauge(-3));
        match &snap[2].value {
            MetricValue::Histogram(s) => {
                assert_eq!(s.count, 2);
                assert_eq!(s.sum, 10);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(
            snap[2].label,
            Some(("outcome".to_string(), "miss".to_string()))
        );
    }

    #[test]
    fn cluster_render_adds_node_label_and_sums_exactly() {
        let mk = |c: u64, hval: u64| {
            let reg = MetricsRegistry::new();
            reg.register_counter("swala_reqs", "requests", move || c);
            let h = reg.histogram_labeled("swala_us", "latency", "outcome", "miss");
            h.record(hval);
            reg.snapshot()
        };
        let text = render_cluster(&[(0, mk(3, 7)), (2, mk(5, 900))]);
        let samples = parse_exposition(&text).unwrap();
        // Per-node series carry the node label first.
        let per_node: Vec<&Sample> = samples.iter().filter(|s| s.name == "swala_reqs").collect();
        assert_eq!(per_node.len(), 2);
        assert_eq!(per_node[0].labels[0], ("node".into(), "0".into()));
        assert_eq!(per_node[1].labels[0], ("node".into(), "2".into()));
        // Summing over the node label equals the arithmetic sum.
        let total: f64 = per_node.iter().map(|s| s.value).sum();
        assert_eq!(total, 8.0);
        let hist_count: f64 = samples
            .iter()
            .filter(|s| s.name == "swala_us_count")
            .map(|s| s.value)
            .sum();
        assert_eq!(hist_count, 2.0);
        // HELP/TYPE once per family even with two nodes contributing.
        assert_eq!(text.matches("# TYPE swala_reqs").count(), 1);
        assert_eq!(text.matches("# TYPE swala_us").count(), 1);
        // Histogram series keep their own label after the node label.
        assert!(
            text.contains("swala_us_count{node=\"2\",outcome=\"miss\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn same_family_help_and_type_emitted_once() {
        let reg = MetricsRegistry::new();
        reg.register_counter_labeled("swala_outcomes", "by outcome", "outcome", "miss", || 1);
        reg.register_counter_labeled("swala_outcomes", "by outcome", "outcome", "remote", || 2);
        let text = reg.render();
        assert_eq!(text.matches("# HELP swala_outcomes").count(), 1);
        assert_eq!(text.matches("# TYPE swala_outcomes").count(), 1);
        assert!(text.contains("swala_outcomes{outcome=\"miss\"} 1\n"));
        assert!(text.contains("swala_outcomes{outcome=\"remote\"} 2\n"));
    }
}
