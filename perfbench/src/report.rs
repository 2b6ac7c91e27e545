//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root names the same metrics with the
//! same units; a unit test keeps the two in step.

use std::collections::BTreeMap;

use ndss::json::{Json, ObjectBuilder};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    // The highest percentile with ten samples beyond it in every workload:
    // a serve-rw run sends 625 searches, a scan-cold run about 800.
    ("query_p98_ms", "ms"),
    ("store_bytes_per_token", "B/token"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.build_s", "s"),
    ("windows.generate_ns_per_token", "ns"),
    ("windows.per_token", "count"),
    ("hash.sketch_us", "us"),
    ("planner.lists_deferred", "count"),
    ("planner.postings_per_query", "count"),
    ("planner.candidates_per_query", "count"),
    ("planner.match_ratio", "ratio"),
    ("planner.postings_per_match", "count"),
    ("search.sketch_ms", "ms"),
    ("search.plan_ms", "ms"),
    ("search.gather_ms", "ms"),
    ("search.count_ms", "ms"),
    ("search.probe_ms", "ms"),
    ("search.unattributed_ms", "ms"),
    ("read.decode_ns_per_posting.pread", "ns"),
    ("read.decode_ns_per_posting.mmap", "ns"),
    ("read.probe_us", "us"),
    ("read.io_bytes_per_query", "B"),
    ("read.share", "ratio"),
    ("cache.posting_hit_ratio", "ratio"),
    ("cache.zone_hit_ratio", "ratio"),
    ("batch.busy_ratio", "ratio"),
    ("shard.lane_skew", "ratio"),
    ("serve.client_minus_server_ms", "ms"),
    ("frame.codec_us", "us"),
    ("serve.shed", "count"),
    ("serve.gen_late_p95_ms", "ms"),
    ("ingest.p50_ms", "ms"),
    ("ingest.p95_ms", "ms"),
    ("ingest.wal_bytes_per_text", "B"),
    ("ingest.compactions", "count"),
    ("compact.busy_s", "s"),
    ("compact.write_bytes_per_ingested_byte", "ratio"),
    ("ingest.pending_texts_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("error_ratio", "ratio"),
];

/// Metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    not_applicable: Vec<&'static str>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks a metric that the workload does not exercise; it is reported
    /// as 0 and listed in the run's host block.
    pub fn not_applicable(&mut self, names: &[&'static str]) {
        for &name in names {
            self.values.insert(name, 0.0);
            self.not_applicable.push(name);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn not_applicable_names(&self) -> &[&'static str] {
        &self.not_applicable
    }
}

/// The run's last stdout line. Every metric in `catalogue` must be present;
/// a metric outside both catalogues is a typo and refused.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(&'static str, &'static str)],
) -> Result<String, String> {
    for name in metrics.values.keys() {
        if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the catalogue"));
        }
    }
    let mut out = ObjectBuilder::new();
    for &(name, unit) in catalogue {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        // A percentile that lands on a failed request is infinite; JSON has
        // no infinity, so it is reported as the largest finite number.
        let value = if value.is_finite() { value } else { f64::MAX };
        out = out.field(
            name,
            ObjectBuilder::new()
                .field("value", Json::Float(value))
                .field("unit", Json::Str(unit.into()))
                .build(),
        );
    }
    Ok(ObjectBuilder::new()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::UInt(attempted.max(1)))
        .field("failed", Json::UInt(failed))
        .field("metrics", out.build())
        .build()
        .to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let doc = benchmark_json();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut metrics = Metrics::default();
            for &(name, _) in catalogue {
                metrics.set(name, 1.5);
            }
            let line = result_line(true, 3, 0, &metrics, catalogue).unwrap();
            let printed = Json::parse(&line).unwrap();
            let printed = printed.get("metrics").unwrap();
            for (name, unit) in declared(&doc, key) {
                let m = printed
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn a_missing_or_unknown_metric_is_refused() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.0);
        assert!(result_line(true, 1, 0, &metrics, END_TO_END).is_err());
        let mut metrics = Metrics::default();
        for &(name, _) in END_TO_END {
            metrics.set(name, 1.0);
        }
        metrics.set("setup_ms", 1.0);
        assert!(result_line(true, 1, 0, &metrics, END_TO_END).is_err());
    }
}
