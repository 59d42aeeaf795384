//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is named here with its unit; the
//! names and units must match `BENCHMARK.json` (checked by a test). A run
//! with tracing off prints every end-to-end metric, a traced run every
//! per-layer metric.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the library sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mb_s", "MB/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// reach reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read.busy_share", "share"),
    ("scan.busy_share", "share"),
    ("scan.ns_per_event", "ns"),
    ("scan.mb_s", "MB/s"),
    ("scan.events_call", "count"),
    ("scan.events_return", "count"),
    ("scan.events_internal", "count"),
    ("engine.busy_share", "share"),
    ("engine.ns_per_event", "ns"),
    ("engine.peak_stack", "count"),
    ("multi.busy_share", "share"),
    ("multi.ns_per_event", "ns"),
    ("multi.table_bytes", "bytes"),
    ("service.latency_p99_us", "us"),
    ("service.submit_us_p50", "us"),
    ("service.wait_us_p50", "us"),
    ("service.wait_us_p99", "us"),
    ("service.advance_us_p50", "us"),
    ("service.lane_occupancy", "share"),
    ("service.max_queue_depth", "count"),
    ("service.queued_end", "count"),
    ("service.failures", "count"),
    ("persist.load_s", "s"),
    ("persist.artifact_bytes", "bytes"),
    ("persist.parked_bytes", "bytes"),
    ("persist.parked_roundtrip_us_p50", "us"),
    ("compile.s", "s"),
    ("warm.s", "s"),
    ("gen.lag_us_p99", "us"),
    ("gen.lag_us_max", "us"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// One run's outcome: operation counts, metrics and run metadata.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong verdict.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    meta: Vec<(&'static str, String)>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A number as JSON: every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn string(s: &str) -> String {
    let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
    format!("\"{escaped}\"")
}

impl Report {
    /// Sets a registered metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.metrics.insert(name, value);
    }

    /// Sets to 0 every unset per-layer metric of the given layers: the
    /// layers this workload does not reach.
    pub fn not_reached(&mut self, layers: &[&str]) {
        for &(name, _) in PER_LAYER {
            if layers.iter().any(|l| name.split('.').next() == Some(*l)) {
                self.metrics.entry(name).or_insert(0.0);
            }
        }
    }

    /// Adds a numeric metadata entry.
    pub fn meta_num(&mut self, key: &'static str, value: f64) {
        self.meta.push((key, number(value)));
    }

    /// Adds a string metadata entry.
    pub fn meta_str(&mut self, key: &'static str, value: &str) {
        self.meta.push((key, string(value)));
    }

    /// The metadata line: run configuration, kept beside the metrics so
    /// that numbers from different configurations are not compared.
    pub fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }

    /// The result line. With `traced`, it holds exactly the per-layer
    /// metrics, otherwise exactly the end-to-end ones.
    pub fn result_line(&self, traced: bool) -> String {
        let wanted = if traced { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = wanted
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    number(*value),
                    string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and `BENCHMARK.json` name the same metrics with the same
    /// units, in the same sections.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), registry.len(), "{key}");
            for (name, unit) in registry {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_mode_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.metric(name, 1.5);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("busy_share"));
        r.not_reached(&["read", "scan", "engine", "multi", "service", "persist"]);
        r.not_reached(&["compile", "warm", "gen", "trace"]);
        assert!(r
            .result_line(true)
            .contains("\"multi.table_bytes\": {\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Report::default().result_line(false);
    }
}
