//! The metric vocabulary (mirrored by `BENCHMARK.json`) and the output
//! lines every run prints.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Each workload performs one kind of operation in a closed loop and the
/// latency metrics describe that operation (see the README for the
/// per-workload definitions).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("rounds_total", "rounds"),
    ("stretch_max", "ratio"),
    ("stretch_mean", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.generate_s", "s"),
    ("graphs.reference_s", "s"),
    ("core.build_s", "s"),
    ("core.apsp2_s", "s"),
    ("core.additive_s", "s"),
    ("core.mssp_s", "s"),
    ("core.freeze_s", "s"),
    ("core.apsp2_other_s", "s"),
    ("emulator.build_s", "s"),
    ("emulator.edges", "count"),
    ("toolkit.hopset_s", "s"),
    ("toolkit.knearest_s", "s"),
    ("derand.hitting_sets_s", "s"),
    ("matrix.minplus_s", "s"),
    ("clique.rounds.apsp2", "rounds"),
    ("clique.rounds.apsp-additive", "rounds"),
    ("clique.rounds.mssp", "rounds"),
    ("clique.messages_total", "count"),
    ("core.oracle_bytes", "bytes"),
    ("routes.witness_bytes", "bytes"),
    ("check.violations", "pairs"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.save_s", "s"),
    ("snapshot.open_ms", "ms"),
    ("client.dist_p50_us", "us"),
    ("client.path_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.throughput_per_s", "1/s"),
    ("protocol.codec_us", "us"),
    ("oracle.dist_batch_us", "us"),
    ("routes.path_batch_us", "us"),
    ("ccd.queue_wait_us", "us"),
    ("ccd.oracle_batch_us", "us"),
    ("ccd.outbox_write_us", "us"),
    ("ccd.batch_jobs_mean", "jobs"),
    ("ccd.unattributed_share", "ratio"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.storm_latency_p50_us", "us"),
    ("serve.reloads", "count"),
    ("serve.final_generation", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_sum_share", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (sessions or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    detail: Vec<(String, String)>,
}

impl Report {
    /// Records a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// `true` once the workload completed enough to report its latency.
    pub fn measured(&self) -> bool {
        self.values.contains_key("latency_p50_ms")
    }

    /// Adds a key to the run's detail line; `json` is a JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// The detail line: everything that explains the run but is not a
    /// metric (seed, revision, sample counts, steal, …).
    pub fn detail_line(&self) -> String {
        let body: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{\"detail\": {{{}}}}}", body.join(", "))
    }

    /// The result line the benchmark contract asks for: every end-to-end
    /// metric (untraced) or every per-layer metric (traced).
    pub fn result_line(&self, traced: bool, correct: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. Exact, no buckets.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = text.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": {}, \"unit\": {}", json_str(name), json_str(unit));
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": {}", json_str(name))),
                "workload {name}"
            );
        }
    }

    #[test]
    fn traced_line_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.set("core.apsp2_s", 1.5);
        let line = r.result_line(true, true);
        assert!(line.contains("\"core.apsp2_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"ccd.queue_wait_us\": {\"value\": 0, \"unit\": \"us\"}"));
    }
}
