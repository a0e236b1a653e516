//! Gated wall-clock stage accounting for the solver pipelines.
//!
//! A [`StageTimes`] is owned single-threadedly (the `Solver` session holds
//! one through its `Substrates`), so there are no atomics here. The gate
//! is the point: when disabled, [`StageTimes::start`] returns `None`
//! without reading the clock, and [`StageTimes::stop`] is a no-op — the
//! instrumented pipelines cost nothing and, crucially, never perturb
//! charged rounds or bit-identical outputs (timing is observed, never fed
//! back).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Accumulated wall-clock for one named stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Number of recorded intervals.
    pub calls: u64,
    /// Total nanoseconds across all intervals.
    pub total_ns: u64,
}

/// Named stage timers, disabled by default.
#[derive(Debug, Default)]
pub struct StageTimes {
    enabled: bool,
    stages: BTreeMap<&'static str, StageStat>,
}

impl StageTimes {
    /// Enables or disables recording. Disabling keeps accumulated stats.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts an interval: `None` (and no clock read) when disabled.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Stops an interval started by [`StageTimes::start`], crediting the
    /// elapsed nanoseconds to `name`. A `None` token is a no-op.
    pub fn stop(&mut self, name: &'static str, started: Option<Instant>) {
        if let Some(started) = started {
            self.record(name, started.elapsed());
        }
    }

    /// Credits one interval that a lower layer timed itself to `name`; a
    /// no-op when disabled.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let stat = self.stages.entry(name).or_default();
        stat.calls = stat.calls.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(ns);
    }

    /// Accumulated stat for `name`, if any interval was recorded.
    pub fn get(&self, name: &str) -> Option<StageStat> {
        self.stages.get(name).copied()
    }

    /// All recorded stages, name-sorted.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, StageStat)> + '_ {
        self.stages.iter().map(|(n, s)| (*n, *s))
    }

    /// Renders the stages in the same integer text style as the metrics
    /// registry: `{prefix}_stage_ns{stage="…"}` and
    /// `{prefix}_stage_calls{stage="…"}` per stage.
    pub fn exposition(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, stat) in &self.stages {
            let _ = writeln!(
                out,
                "{prefix}_stage_ns{{stage=\"{name}\"}} {}",
                stat.total_ns
            );
            let _ = writeln!(
                out,
                "{prefix}_stage_calls{{stage=\"{name}\"}} {}",
                stat.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_starts_and_stop_is_a_noop() {
        let mut st = StageTimes::default();
        assert!(!st.enabled());
        let t = st.start();
        assert!(t.is_none());
        st.stop("hopset_build", t);
        assert!(st.get("hopset_build").is_none());
        assert!(st.exposition("cc").is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates_calls_and_time() {
        let mut st = StageTimes::default();
        st.set_enabled(true);
        for _ in 0..3 {
            let t = st.start();
            st.stop("minplus_products", t);
        }
        let stat = st.get("minplus_products").expect("recorded");
        assert_eq!(stat.calls, 3);
        let text = st.exposition("cc_solver");
        assert!(text.contains("cc_solver_stage_calls{stage=\"minplus_products\"} 3"));
        assert!(text.contains("cc_solver_stage_ns{stage=\"minplus_products\"}"));
    }

    #[test]
    fn recorded_intervals_count_only_when_enabled() {
        let mut st = StageTimes::default();
        st.record("hopset_basis", Duration::from_nanos(5));
        assert!(st.get("hopset_basis").is_none());
        st.set_enabled(true);
        st.record("hopset_basis", Duration::from_nanos(5));
        st.record("hopset_basis", Duration::from_nanos(7));
        let stat = st.get("hopset_basis").expect("recorded");
        assert_eq!((stat.calls, stat.total_ns), (2, 12));
    }
}
