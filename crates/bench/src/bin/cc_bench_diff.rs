//! `cc-bench-diff` — the CI gate over perfbench results.
//!
//! ```text
//! cc-bench-diff BASELINE CURRENT
//! ```
//!
//! Each file holds the last two stdout lines of one perfbench run: the
//! detail line, then the result line. The gate compares the current run
//! against the committed baseline and exits non-zero on a regression:
//!
//! * **Document checks.** The two runs must agree on the detail's
//!   `workload`, `seed`, `trace` and `seconds`, and the current run must
//!   print every baseline metric in the same unit; otherwise nothing is
//!   compared.
//! * **Correctness.** The current run must report `correct: true` and
//!   `failed: 0`.
//! * **Exact** (`==` on the printed value): every metric in `rounds`,
//!   `pairs` or `bytes`, plus `stretch_max`, `stretch_mean`, `ok_rate`,
//!   `emulator.edges` and `clique.messages_total`. Charged rounds, stretch
//!   and sizes are deterministic for a seed, so any change is a change of
//!   the program.
//! * **Ceiling** (metrics in `s`, `ms`, `us` or `MiB`): current ≤ 2 ×
//!   baseline + 500 µs, the grace expressed in the metric's unit (none
//!   for `MiB`).
//! * **Floor** (metrics in `1/s`): current ≥ 0.5 × baseline.
//!
//! The timing tolerances are loose on purpose: the committed baselines
//! come from another host, so they catch order-of-magnitude breakage, not
//! jitter. A traced run's stage wall times (its metrics in `s`) are the
//! median of one or two traced sessions, each a single call of a few
//! milliseconds upwards; they spread past 2× between runs on one host, so
//! they are printed and not gated. Every other metric (`serve.reloads`,
//! `serve.final_generation`, `ccd.batch_jobs_mean`, the `*_share` ratios)
//! is printed and not gated either. A comparison in which no gated check
//! runs fails instead of passing vacuously.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A leaf value of a flattened JSON line. Numbers keep their printed text,
/// so the exact gates compare what perfbench printed, digit for digit.
#[derive(Clone, Debug, PartialEq)]
enum Leaf {
    Num(String),
    Bool(bool),
    Str(String),
}

impl Leaf {
    fn num(&self) -> Option<f64> {
        match self {
            Leaf::Num(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Minimal recursive-descent JSON reader producing `dotted.path → leaf`
/// (array elements keyed by index: `detail.setup_s.0`). Only what the
/// perfbench lines need; escapes pass through as the escaped character.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| format!("non-utf8 string at byte {start}"));
                }
                Some(b'\\') => {
                    let next = *self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                    out.push(next);
                    self.pos += 2;
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses the elements of an object (`close` = `}`) or array (`]`)
    /// after its opening bracket, calling `element` for each.
    fn elements(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad separator {other:?} at byte {}", self.pos)),
            }
        }
    }

    fn value(&mut self, path: &str, out: &mut BTreeMap<String, Leaf>) -> Result<(), String> {
        let child = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            }
        };
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.elements(b'}', |r| {
                    let key = r.string()?;
                    r.expect(b':')?;
                    r.value(&child(&key), out)
                })
            }
            Some(b'[') => {
                self.pos += 1;
                let mut i = 0usize;
                self.elements(b']', |r| {
                    i += 1;
                    r.value(&child(&(i - 1).to_string()), out)
                })
            }
            Some(b'"') => {
                let s = self.string()?;
                out.insert(path.to_string(), Leaf::Str(s));
                Ok(())
            }
            Some(_) => {
                let rest = &self.bytes[self.pos..];
                for (word, leaf) in [
                    ("true", Some(Leaf::Bool(true))),
                    ("false", Some(Leaf::Bool(false))),
                    ("null", None),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        if let Some(leaf) = leaf {
                            out.insert(path.to_string(), leaf);
                        }
                        return Ok(());
                    }
                }
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 number".to_string())?;
                if text.parse::<f64>().is_err() {
                    return Err(format!("bad value {text:?} at byte {start}"));
                }
                out.insert(path.to_string(), Leaf::Num(text.to_string()));
                Ok(())
            }
            None => Err("unexpected end of line".into()),
        }
    }
}

/// Flattens one perfbench output file: its last two non-empty lines, the
/// detail line and the result line, into one map.
fn flatten(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let [.., detail, result] = lines[..] else {
        return Err("expected perfbench's detail line and result line".into());
    };
    let mut out = BTreeMap::new();
    for line in [detail, result] {
        let mut r = Reader::new(line);
        r.value("", &mut out)?;
        if r.peek().is_some() {
            return Err(format!("trailing bytes after byte {}", r.pos));
        }
    }
    if !out.contains_key("detail.workload") || !out.contains_key("correct") {
        return Err("not a perfbench detail line followed by its result line".into());
    }
    Ok(out)
}

/// Detail fields that must match before two runs are comparable.
const SAME_RUN: &[&str] = &["workload", "seed", "trace", "seconds"];

/// Metrics outside the exact units that are deterministic for a seed.
const EXACT_NAMES: &[&str] = &[
    "stretch_max",
    "stretch_mean",
    "ok_rate",
    "emulator.edges",
    "clique.messages_total",
];

/// Ceiling factor and floor factor relative to the baseline.
const CEILING_FACTOR: f64 = 2.0;
const FLOOR_FACTOR: f64 = 0.5;

/// How one metric is gated.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    /// Printed value must be unchanged.
    Exact,
    /// Current ≤ `CEILING_FACTOR` × baseline + `grace` (in the unit).
    Ceiling { grace: f64 },
    /// Current ≥ `FLOOR_FACTOR` × baseline.
    Floor,
    /// Printed only.
    None,
}

/// How `name` in `unit` is gated in a run whose detail says `traced`.
fn gate(name: &str, unit: &str, traced: bool) -> Gate {
    match unit {
        "rounds" | "pairs" | "bytes" => Gate::Exact,
        _ if EXACT_NAMES.contains(&name) => Gate::Exact,
        // Stage wall times of one or two traced sessions: too few samples.
        "s" if traced => Gate::None,
        // 500 µs in the metric's unit.
        "s" => Gate::Ceiling { grace: 0.0005 },
        "ms" => Gate::Ceiling { grace: 0.5 },
        "us" => Gate::Ceiling { grace: 500.0 },
        "MiB" => Gate::Ceiling { grace: 0.0 },
        "1/s" => Gate::Floor,
        _ => Gate::None,
    }
}

/// What one baseline-vs-current comparison found.
#[derive(Debug, Default)]
struct Outcome {
    /// Gated checks that ran.
    checks: usize,
    /// One line per failed check.
    failures: Vec<String>,
    /// One line per metric or correctness field, pass, fail or not gated.
    report: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, line: String) {
        self.report.push(format!("  [FAIL] {line}"));
        self.failures.push(line);
    }
}

/// The metric names of a flattened result, with their unit.
fn metric_units(doc: &BTreeMap<String, Leaf>) -> BTreeMap<&str, &Leaf> {
    doc.iter()
        .filter_map(|(key, leaf)| {
            let name = key.strip_prefix("metrics.")?.strip_suffix(".unit")?;
            Some((name, leaf))
        })
        .collect()
}

/// Refuses to compare runs that measured different things.
fn comparable(base: &BTreeMap<String, Leaf>, cur: &BTreeMap<String, Leaf>) -> Result<(), String> {
    for field in SAME_RUN {
        let key = format!("detail.{field}");
        let (b, c) = (base.get(&key), cur.get(&key));
        if b.is_none() || b != c {
            return Err(format!("{key} differs: baseline {b:?}, current {c:?}"));
        }
    }
    let cur_units = metric_units(cur);
    for (name, unit) in metric_units(base) {
        match cur_units.get(name) {
            None => return Err(format!("{name}: absent in current run")),
            Some(&cur_unit) if cur_unit != unit => {
                return Err(format!(
                    "{name}: unit differs: baseline {unit:?}, current {cur_unit:?}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Gates the current run against the baseline. `Err` is a document error:
/// the two files are not comparable runs.
fn compare(base: &BTreeMap<String, Leaf>, cur: &BTreeMap<String, Leaf>) -> Result<Outcome, String> {
    comparable(base, cur)?;
    let traced = base.get("detail.trace") == Some(&Leaf::Bool(true));
    let mut outcome = Outcome::default();
    match cur.get("correct") {
        Some(Leaf::Bool(true)) => {}
        other => outcome.fail(format!("correct: current {other:?}")),
    }
    match cur.get("failed") {
        Some(Leaf::Num(n)) if n == "0" => {}
        other => outcome.fail(format!("failed: current {other:?}, want 0")),
    }

    for (name, unit) in metric_units(base) {
        let Leaf::Str(unit) = unit else {
            return Err(format!("{name}: unit is not a string"));
        };
        let value_key = format!("metrics.{name}.value");
        let (Some(base_leaf), Some(cur_leaf)) = (base.get(&value_key), cur.get(&value_key)) else {
            return Err(format!("{name}: value missing"));
        };
        let (Leaf::Num(b_text), Some(b), Some(c)) = (base_leaf, base_leaf.num(), cur_leaf.num())
        else {
            return Err(format!("{name}: value is not a number"));
        };
        let failure = match gate(name, unit, traced) {
            Gate::Exact => (cur_leaf != base_leaf)
                .then(|| format!("{name}: {c} {unit}, baseline {b_text} (exact)")),
            Gate::Ceiling { grace } => {
                let limit = b * CEILING_FACTOR + grace;
                (c > limit).then(|| {
                    format!(
                        "{name}: {c} {unit} > {limit} (baseline {b} x{CEILING_FACTOR} + {grace})"
                    )
                })
            }
            Gate::Floor => {
                let floor = b * FLOOR_FACTOR;
                (c < floor)
                    .then(|| format!("{name}: {c} {unit} < {floor} (baseline {b} x{FLOOR_FACTOR})"))
            }
            Gate::None => {
                outcome.report.push(format!(
                    "  [info] {name}: {c} {unit}, baseline {b} (not gated)"
                ));
                continue;
            }
        };
        outcome.checks += 1;
        match failure {
            Some(line) => outcome.fail(line),
            None => outcome
                .report
                .push(format!("  [ok]   {name}: {c} {unit}, baseline {b}")),
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = &args[..] else {
        eprintln!("usage: cc-bench-diff BASELINE CURRENT");
        return ExitCode::from(2);
    };
    let read = |path: &str| -> Result<BTreeMap<String, Leaf>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        flatten(&text).map_err(|e| format!("{path}: {e}"))
    };
    let outcome = read(baseline_path).and_then(|base| compare(&base, &read(current_path)?));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cc-bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        eprintln!("{line}");
    }
    let checks = outcome.checks;
    if !outcome.failures.is_empty() {
        eprintln!(
            "cc-bench-diff: {} check(s) FAILED ({current_path} vs {baseline_path})",
            outcome.failures.len()
        );
        ExitCode::FAILURE
    } else if checks == 0 {
        eprintln!("cc-bench-diff: no gated check ran — the runs share no gated metric");
        ExitCode::FAILURE
    } else {
        println!("cc-bench-diff: {checks} checks passed ({current_path} vs {baseline_path})");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric kind the gate treats differently.
    const METRICS: &str = concat!(
        r#""rounds_total": {"value": 19182, "unit": "rounds"}, "#,
        r#""stretch_mean": {"value": 1.0298301201119093, "unit": "ratio"}, "#,
        r#""latency_p50_ms": {"value": 10, "unit": "ms"}, "#,
        r#""core.apsp2_s": {"value": 1.5, "unit": "s"}, "#,
        r#""client.throughput_per_s": {"value": 100, "unit": "1/s"}, "#,
        r#""serve.reloads": {"value": 9, "unit": "count"}"#,
    );

    /// A perfbench output file: cargo noise, the detail line, the result.
    fn doc(trace: bool, metrics: &str) -> String {
        format!(
            concat!(
                "   Compiling perfbench\n",
                r#"{{"detail": {{"workload": "solve-gnp", "seed": 7, "seconds": 10, "#,
                r#""trace": {}, "setup_s": [0.005, 0.006], "git_revision": null}}}}"#,
                "\n",
                r#"{{"correct": true, "attempted": 3, "failed": 0, "metrics": {{{}}}}}"#,
                "\n",
            ),
            trace, metrics
        )
    }

    /// `(from, to)` text replacements, each applied once.
    type Edits = &'static [(&'static str, &'static str)];

    #[derive(Debug, PartialEq)]
    enum Verdict {
        Pass,
        Fail,
        NoGatedCheck,
        DocumentError,
    }

    fn verdict(base: &str, cur: &str) -> Verdict {
        let (base, cur) = (flatten(base).unwrap(), flatten(cur).unwrap());
        match compare(&base, &cur) {
            Err(_) => Verdict::DocumentError,
            Ok(o) if !o.failures.is_empty() => Verdict::Fail,
            Ok(o) if o.checks == 0 => Verdict::NoGatedCheck,
            Ok(_) => Verdict::Pass,
        }
    }

    #[test]
    fn gate_table() {
        let plain = doc(false, METRICS);
        let traced = doc(true, METRICS);
        let ungated = doc(false, r#""serve.reloads": {"value": 9, "unit": "count"}"#);
        // (case, baseline, edits turning it into the current run, verdict)
        let cases: &[(&str, &str, Edits, Verdict)] = &[
            ("identical run", &plain, &[], Verdict::Pass),
            ("rounds +1", &plain, &[("19182", "19183")], Verdict::Fail),
            (
                "rounds +1, traced",
                &traced,
                &[("19182", "19183")],
                Verdict::Fail,
            ),
            (
                "stretch_mean last digit",
                &plain,
                &[("1.0298301201119093", "1.0298301201119094")],
                Verdict::Fail,
            ),
            (
                "timing under ceiling",
                &plain,
                &[("\"value\": 10,", "\"value\": 20.4,")],
                Verdict::Pass,
            ),
            (
                "timing over ceiling",
                &plain,
                &[("\"value\": 10,", "\"value\": 20.6,")],
                Verdict::Fail,
            ),
            (
                "timing over ceiling, traced",
                &traced,
                &[("\"value\": 10,", "\"value\": 20.6,")],
                Verdict::Fail,
            ),
            (
                "stage time over ceiling",
                &plain,
                &[("\"value\": 1.5,", "\"value\": 3.1,")],
                Verdict::Fail,
            ),
            (
                "stage time over ceiling, traced",
                &traced,
                &[("\"value\": 1.5,", "\"value\": 3.1,")],
                Verdict::Pass,
            ),
            (
                "throughput above floor",
                &plain,
                &[("\"value\": 100,", "\"value\": 50.1,")],
                Verdict::Pass,
            ),
            (
                "throughput below floor",
                &plain,
                &[("\"value\": 100,", "\"value\": 49.9,")],
                Verdict::Fail,
            ),
            (
                "ungated metric moves",
                &plain,
                &[("\"value\": 9,", "\"value\": 1,")],
                Verdict::Pass,
            ),
            (
                "failed: 1",
                &plain,
                &[("\"failed\": 0", "\"failed\": 1")],
                Verdict::Fail,
            ),
            (
                "correct: false",
                &plain,
                &[("\"correct\": true", "\"correct\": false")],
                Verdict::Fail,
            ),
            (
                "workload mismatch",
                &plain,
                &[("solve-gnp", "solve-grid")],
                Verdict::DocumentError,
            ),
            (
                "seed mismatch",
                &plain,
                &[("\"seed\": 7", "\"seed\": 8")],
                Verdict::DocumentError,
            ),
            (
                "trace mismatch",
                &plain,
                &[("\"trace\": false", "\"trace\": true")],
                Verdict::DocumentError,
            ),
            (
                "unit mismatch",
                &plain,
                &[("\"unit\": \"ms\"", "\"unit\": \"s\"")],
                Verdict::DocumentError,
            ),
            (
                "baseline metric absent from current run",
                &plain,
                &[("rounds_total", "old_rounds")],
                Verdict::DocumentError,
            ),
            (
                "no gated metric in the baseline",
                &ungated,
                &[],
                Verdict::NoGatedCheck,
            ),
        ];
        for (case, base, edits, want) in cases {
            let mut cur = base.to_string();
            for (from, to) in *edits {
                assert_eq!(
                    cur.matches(from).count(),
                    1,
                    "{case}: {from:?} is not unique"
                );
                cur = cur.replacen(from, to, 1);
            }
            assert_eq!(verdict(base, &cur), *want, "{case}");
        }
    }

    #[test]
    fn flatten_reads_both_lines() {
        let plain = doc(false, METRICS);
        let m = flatten(&plain).unwrap();
        assert_eq!(
            m.get("detail.workload"),
            Some(&Leaf::Str("solve-gnp".into()))
        );
        assert_eq!(m.get("detail.setup_s.1"), Some(&Leaf::Num("0.006".into())));
        assert!(!m.contains_key("detail.git_revision"));
        assert_eq!(
            m.get("metrics.stretch_mean.value"),
            Some(&Leaf::Num("1.0298301201119093".into()))
        );
        assert!(flatten(plain.lines().nth(1).unwrap()).is_err());
        assert!(flatten("{} x\n{}").is_err());
    }

    #[test]
    fn gates_by_unit_then_name() {
        for traced in [false, true] {
            assert_eq!(gate("clique.rounds.mssp", "rounds", traced), Gate::Exact);
            assert_eq!(gate("check.violations", "pairs", traced), Gate::Exact);
            assert_eq!(gate("snapshot.bytes", "bytes", traced), Gate::Exact);
            assert_eq!(gate("emulator.edges", "count", traced), Gate::Exact);
            assert_eq!(gate("ok_rate", "ratio", traced), Gate::Exact);
            assert_eq!(
                gate("serve.reload_p50_ms", "ms", traced),
                Gate::Ceiling { grace: 0.5 }
            );
            assert_eq!(
                gate("client.latency_p99_us", "us", traced),
                Gate::Ceiling { grace: 500.0 }
            );
            assert_eq!(gate("client.throughput_per_s", "1/s", traced), Gate::Floor);
            assert_eq!(gate("serve.reloads", "count", traced), Gate::None);
            assert_eq!(gate("ccd.batch_jobs_mean", "jobs", traced), Gate::None);
            assert_eq!(gate("trace.overhead_share", "ratio", traced), Gate::None);
        }
        assert_eq!(gate("setup_s", "s", false), Gate::Ceiling { grace: 0.0005 });
        assert_eq!(
            gate("peak_rss_mb", "MiB", false),
            Gate::Ceiling { grace: 0.0 }
        );
        assert_eq!(gate("toolkit.knearest_s", "s", true), Gate::None);
    }
}
