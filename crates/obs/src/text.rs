//! Parsing the integer text exposition back into samples — the shared
//! substrate for tests (chaos reconciliation), `Client::stats` and
//! perfbench's per-layer `ccd.*` metrics.

use std::collections::BTreeMap;

/// Parses exposition text into `full-sample-name → value`. Comment lines
/// (`# …`), blank lines and non-integer samples are skipped; the key is
/// everything before the final space, labels included (e.g.
/// `wait_ns_bucket{le="1024"}`).
pub fn parse_exposition(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Ok(v) = value.parse::<u64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

/// Exact bucket-rank summary of one histogram reconstructed from parsed
/// exposition text. Quantiles are bucket upper bounds capped at the exact
/// maximum — identical to what the live histogram reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (bucket upper bound, capped at `max`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Reconstructs the summary of histogram `name` from samples produced by
/// [`parse_exposition`]. Returns `None` when `name_count` is absent.
pub fn histogram_summary(samples: &BTreeMap<String, u64>, name: &str) -> Option<HistSummary> {
    let count = *samples.get(&format!("{name}_count"))?;
    let sum = samples.get(&format!("{name}_sum")).copied().unwrap_or(0);
    let max = samples.get(&format!("{name}_max")).copied().unwrap_or(0);
    // Cumulative finite buckets, numerically sorted by upper bound.
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(u64, u64)> = samples
        .iter()
        .filter_map(|(key, &cum)| {
            let rest = key.strip_prefix(&prefix)?;
            let le = rest.strip_suffix("\"}")?;
            le.parse::<u64>().ok().map(|le| (le, cum))
        })
        .collect();
    buckets.sort_unstable_by_key(|&(le, _)| le);
    let quantile = |pct: u64| -> u64 {
        if count == 0 {
            return 0;
        }
        let target = count.saturating_mul(pct).div_ceil(100).max(1);
        for &(le, cum) in &buckets {
            if cum >= target {
                return le.min(max);
            }
        }
        // Target rank lives past the last finite bucket (overflow).
        max
    };
    Some(HistSummary {
        count,
        sum,
        max,
        p50: quantile(50),
        p90: quantile(90),
        p99: quantile(99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn parse_skips_comments_and_keeps_labels() {
        let text = "# TYPE a counter\na 5\nb{le=\"16\"} 2\nnot a sample line x\n";
        let s = parse_exposition(text);
        assert_eq!(s.get("a"), Some(&5));
        assert_eq!(s.get("b{le=\"16\"}"), Some(&2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn summary_round_trips_the_live_histogram() {
        let r = Registry::new();
        let h = r.histogram("wait_ns");
        let values = [1u64, 2, 3, 100, 1000, 1000, 1000, 5000, 5000, 70000];
        for v in values {
            h.record(v);
        }
        let parsed = parse_exposition(&r.render());
        let s = histogram_summary(&parsed, "wait_ns").expect("histogram present");
        assert_eq!(s.count, h.count());
        assert_eq!(s.sum, h.sum());
        assert_eq!(s.max, h.max());
        assert_eq!(s.p50, h.quantile(50));
        assert_eq!(s.p90, h.quantile(90));
        assert_eq!(s.p99, h.quantile(99));
        assert_eq!((s.p50, s.p90, s.p99), (1024, 8192, 70000));
    }

    #[test]
    fn summary_of_missing_or_empty_histograms() {
        let parsed = parse_exposition("");
        assert!(histogram_summary(&parsed, "nope").is_none());
        let r = Registry::new();
        let _ = r.histogram("empty_ns");
        let parsed = parse_exposition(&r.render());
        let s = histogram_summary(&parsed, "empty_ns").expect("registered");
        assert_eq!(s, HistSummary::default());
    }
}
