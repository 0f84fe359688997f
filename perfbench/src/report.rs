//! Metric vocabulary and result output.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two lists identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("keys_per_s", "1/s"), ("lookup_p50_us", "us"), ("update_p50_us", "us")];

/// Per-layer metrics, printed by every traced run. A metric that does
/// not apply to a workload (the wire counters on an in-process workload,
/// say) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.ns_per_key", "ns"),
    ("core.ns_per_key", "ns"),
    ("core.batch_us_p50", "us"),
    ("serve.envelope_ns_per_key", "ns"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.wait_us_p50", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.fill_us_p50", "us"),
    ("serve.merges", "count"),
    ("serve.snapshots", "count"),
    ("serve.update_batches", "count"),
    ("net.frame_keys_p50", "count"),
    ("net.wire_us_p50", "us"),
    ("net.wire_only_us_p50", "us"),
    ("net.retries", "count"),
    ("net.update_resends", "count"),
    ("net.elections", "count"),
    ("net.client_shed", "count"),
    ("caller.lookup_p90_us", "us"),
    ("caller.lookup_p99_us", "us"),
    ("caller.lookup_p999_us", "us"),
    ("caller.lookup_samples", "count"),
    ("caller.update_p99_us", "us"),
    ("caller.update_samples", "count"),
    ("caller.gen_late_us_p50", "us"),
    ("caller.gen_late_us_p99", "us"),
    ("self.caller_ns_per_key", "ns"),
    ("self.net_ns_per_key", "ns"),
    ("self.serve_ns_per_key", "ns"),
    ("self.core_ns_per_key", "ns"),
    ("obs.trace_overhead_frac", "fraction"),
    ("host.ref_keys_per_s", "1/s"),
];

/// Named metric values; only names from [`END_TO_END`] or
/// [`PER_LAYER`] are accepted.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` (which must be a declared metric) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A finite JSON number (NaN and infinities, which JSON cannot carry,
/// read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `declared`, in
/// declaration order.
pub fn metrics_json(metrics: &Metrics, declared: &[(&str, &str)]) -> String {
    let body: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(metrics.get(name)))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Escape `s` as a JSON string body.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in the metric sections of
    /// `BENCHMARK.json`, in file order.
    fn declared_names(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let rest = &text[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap_or("").to_owned())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared_names("end_to_end"), e2e);
        assert_eq!(declared_names("per_layer"), layer);
        assert!(declared_names("workloads").iter().eq(["batch", "online", "wire"].iter()));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("keys_per_s", f64::NAN);
        let line = result_line(true, 10, 1, &metrics_json(&m, END_TO_END));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"keys_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"update_p50_us\": {\"value\": 0, \"unit\": \"us\"}"));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_is_refused() {
        Metrics::default().set("no_such_metric", 1.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
