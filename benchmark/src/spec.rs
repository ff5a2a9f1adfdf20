//! The benchmark's fixed vocabulary: metric names, units, directions.
//!
//! `BENCHMARK.json` at the repository root carries the same lists (plus
//! the regression bounds); a self-test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the cluster sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    hi("throughput_rps", "req/s"),
    lo("lat_mean_us", "us"),
    lo("lat_p50_us", "us"),
    lo("cpu_us_per_req", "us"),
    lo("rss_mb", "MiB"),
    lo("disk_mb", "MiB"),
    lo("setup_s", "s"),
];

/// Single-layer numbers from the traced run; layer = crate prefix.
pub const PER_LAYER: &[MetricDef] = &[
    lo("http.parse_ns", "ns"),
    lo("http.write_ns", "ns"),
    lo("core.server_us.local-mem", "us"),
    lo("core.server_us.local-disk", "us"),
    lo("core.server_us.remote", "us"),
    lo("core.server_us.owner-serve", "us"),
    lo("core.server_us.miss", "us"),
    lo("core.server_us.static", "us"),
    lo("core.unattributed_us", "us"),
    lo("core.connections_per_req", "ratio"),
    lo("core.static_ns", "ns"),
    lo("cache.rules_ns", "ns"),
    lo("cache.lookup_hit_ns", "ns"),
    lo("cache.lookup_miss_ns", "ns"),
    lo("cache.mem_get_ns", "ns"),
    lo("cache.insert_ns", "ns"),
    lo("cache.insert_evicting_ns", "ns"),
    lo("cache.mem_insert_ns", "ns"),
    lo("cache.digest_ns_per_kib", "ns/KiB"),
    lo("cache.store_put_ns.files", "ns"),
    lo("cache.store_put_ns.segment", "ns"),
    lo("cache.store_delete_ns.files", "ns"),
    lo("cache.store_delete_ns.segment", "ns"),
    lo("cache.store_get_ns.files", "ns"),
    lo("cache.store_get_ns.segment", "ns"),
    lo("cache.store_put_fsync_ns.files", "ns"),
    lo("cache.store_put_fsync_ns.segment", "ns"),
    hi("cache.hit_ratio", "ratio"),
    hi("cache.mem_hit_ratio", "ratio"),
    lo("cache.store_reads_per_req", "ratio"),
    lo("cache.evictions_per_insert", "ratio"),
    lo("cache.false_hits", "count"),
    lo("cache.false_misses", "count"),
    lo("cache.coalesce_waits", "count"),
    lo("cache.ring_home_ns", "ns"),
    lo("cache.disk_bytes_per_body_byte", "ratio"),
    lo("proto.encode_ns", "ns"),
    lo("proto.decode_ns", "ns"),
    lo("proto.frame_rw_ns", "ns"),
    lo("proto.fetch_rtt_ns", "ns"),
    lo("proto.fetch_rtt_count", "count"),
    hi("proto.fetch_reuse_ratio", "ratio"),
    lo("proto.fetch_retries", "count"),
    lo("proto.broadcasts_per_insert", "ratio"),
    lo("proto.broadcast_dropped", "count"),
    lo("proto.broadcast_enqueue_ns", "ns"),
    lo("cgi.exec_ns", "ns"),
    lo("cgi.executions_per_req", "ratio"),
    lo("obs.hist_record_ns", "ns"),
    lo("obs.trace_span_ns", "ns"),
    lo("obs.heat_update_ns", "ns"),
    lo("client.send_ns", "ns"),
    lo("client.wait_ns", "ns"),
    lo("client.recv_ns", "ns"),
    lo("client.verify_ns", "ns"),
    lo("client.lat_p99_us", "us"),
    lo("client.open_lat_p50_us", "us"),
    lo("client.open_lat_p99_us", "us"),
    lo("client.sched_lag_p99_us", "us"),
    lo("client.trace_overhead_pct", "%"),
    lo("client.error_rate", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    match m.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    }
                    .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
