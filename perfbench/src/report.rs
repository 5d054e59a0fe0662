//! What a run prints: readable `#` lines, then one JSON result line.

use neo_serve::metrics::Cdf;
use serde::Value;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted: requests sent, or tokens decoded.
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// The metrics of the final JSON line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further measurements printed on `#` lines only.
    pub detail: Vec<(String, String)>,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds the [`END_TO_END`] metrics, in order.
    pub fn end_to_end(&mut self, setup_s: f64, host_tok_per_s: f64, peak_rss_mib: f64) {
        for ((name, unit), value) in
            END_TO_END.into_iter().zip([setup_s, host_tok_per_s, peak_rss_mib])
        {
            self.metric(name, unit, value);
        }
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.detail.push((key.into(), value.to_string()));
    }

    /// Records a correctness check; a failing one is kept as a problem.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the readable lines and then the JSON result as the last line.
    pub fn print(&self) {
        for (key, value) in &self.detail {
            println!("# {key} = {value}");
        }
        for m in &self.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are caught as problems before printing; emit 0 so
                // the line carries a number either way.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let entry = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Int(self.attempted.into())),
            ("failed".to_string(), Value::Int(self.failed.into())),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

/// The `q`-quantile of `samples` (`q` in `[0, 1]`), as `Cdf::quantile` takes it;
/// 0 when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    Cdf::new(samples.to_vec()).quantile(q).unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    Cdf::new(samples.to_vec()).mean().unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("host_tok_per_s", "tok/s"), ("peak_rss_mib", "MiB")];

/// Every per-layer metric, with its unit, in report order. A traced run reports all
/// of them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.run_s", "s"),
    ("cluster.engine_iters", "count"),
    ("cluster.iters_per_req", "iter/req"),
    ("cluster.routes", "count"),
    ("cluster.retries", "count"),
    ("cluster.dropped", "count"),
    ("cluster.residual_us_per_iter", "us/iter"),
    ("serve.tick_us_p50", "us"),
    ("serve.tick_us_p99", "us"),
    ("serve.ticks", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_depth_mean", "req"),
    ("serve.max_backlog", "req"),
    ("serve.residual_us_per_iter", "us/iter"),
    ("sched.calls", "count"),
    ("sched.busy_s", "s"),
    ("sched.us_p50", "us"),
    ("sched.us_p99", "us"),
    ("sched.busy_frac", "ratio"),
    ("engine.batch_mean", "seq"),
    ("engine.offload_iter_frac", "ratio"),
    ("engine.cpu_offloaded_mean", "seq"),
    ("engine.idle_iter_frac", "ratio"),
    ("engine.prefill_tokens", "tok"),
    ("engine.decode_tokens", "tok"),
    ("cost.calls", "count"),
    ("cost.calls_per_iter", "call/iter"),
    ("cost.busy_s", "s"),
    ("kv.gpu_used_frac_mean", "ratio"),
    ("kv.cpu_used_frac_mean", "ratio"),
    ("kv.swap_out", "count"),
    ("kv.swap_in", "count"),
    ("kv.demoted_disk", "count"),
    ("kv.promoted_disk", "count"),
    ("kv.prefix_hit_rate", "ratio"),
    ("kv.cow_splits", "count"),
    ("kern.decode_attn_ms", "ms"),
    ("kern.kv_bytes_per_call", "B"),
    ("kern.decode_attn_gbps", "GB/s"),
    ("kern.stream_read_gbps", "GB/s"),
    ("kern.roofline_frac", "ratio"),
    ("model.decode_batch_ms", "ms"),
    ("model.attn_share", "ratio"),
    ("model.linear_us_per_token", "us"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// Adds every per-layer metric to `outcome`, 0 for those never set.
    pub fn emit(&self, outcome: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            outcome.metric(name, unit, self.0.get(name).copied().unwrap_or(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, key: &str| match m.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{section} entry has no string {key}: {other:?}"),
        };
        match json.get(section) {
            Some(Value::Array(metrics)) => {
                metrics.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
            }
            other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
        }
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn quantiles_are_cdf_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 5.0);
        assert_eq!(median(&samples), 3.0);
        assert_eq!(mean(&samples), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.end_to_end(0.5, 1e6, 12.0);
        let json: Value = serde_json::from_str(&outcome.json()).expect("valid JSON");
        let keys: Vec<&str> =
            json.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        outcome.check(false, || "broken".into());
        let json: Value = serde_json::from_str(&outcome.json()).expect("valid JSON");
        assert_eq!(json.get("correct"), Some(&Value::Bool(false)));
    }
}
