//! `cc-bench-diff` — the CI perf-regression gate over BENCH_*.json files.
//!
//! ```text
//! cc-bench-diff BASELINE.json CURRENT.json
//! ```
//!
//! Compares a freshly produced bench document against the committed
//! baseline and exits non-zero on a regression beyond tolerance. The
//! tolerances are deliberately loose — CI runners are noisy, often
//! single-core boxes (the documents record `available_cores` for exactly
//! this reason) — so the gate catches *order-of-magnitude* breakage
//! (an accidental O(n²) in the hot path, a lost zero-copy path, serving
//! suddenly shedding), not microbenchmark jitter:
//!
//! * **Correctness booleans** (`bit_identical`, `cross_checks_ok`,
//!   `dropped_requests == 0`): must not flip. Zero tolerance.
//! * **Latency quantiles** (`*_latency_us.p50/p95/p99`, `*_ns.p50/p90/p99`,
//!   lower is better): current ≤ 2× baseline + 500 (absolute grace for
//!   near-zero baselines).
//! * **Throughput** (`requests_per_sec`, `queries_per_sec`, `*ops_per_sec`,
//!   higher is better): current ≥ 0.5× baseline.
//!
//! Array elements are keyed by identity, not position: an object in an
//! array becomes `results[sparse-csr,n=256,rho=8,threads=1]`, from its
//! string fields (sorted by field name) followed by whichever of `n`,
//! `rho`, `threads` and `batch` it carries. Adding or removing a row then
//! cannot shift every later row onto a different kernel. Elements with no
//! identity fields fall back to their index (`results.3`); two elements
//! with the same identity are a document error.
//!
//! Fields present in only one document are reported but never fail the
//! gate (so adding a metric to a bench does not break the first CI run
//! that carries it). A comparison in which *no* gated check runs at all —
//! say, after a schema change left no key in common — fails instead of
//! passing vacuously.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A leaf value of the flattened JSON document.
#[derive(Clone, Debug, PartialEq)]
enum Leaf {
    Num(f64),
    Bool(bool),
    Str(String),
}

/// Minimal recursive-descent JSON reader producing `dotted.path → leaf`
/// (array elements keyed by [`element_key`]: `results[dense-blocked,n=256,
/// rho=33,threads=2].wall_ms`). Only what the bench documents need;
/// unknown escapes pass through verbatim.
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
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Pass escapes through structurally; bench keys never
                    // contain them, values may.
                    if let Some(&next) = self.bytes.get(self.pos + 1) {
                        out.push(char::from(next));
                        self.pos += 2;
                    } else {
                        return Err("dangling escape".into());
                    }
                }
                Some(b) => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
            }
        }
    }

    fn value(&mut self, path: &str, out: &mut BTreeMap<String, Leaf>) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(&child, out)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad object separator {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                let mut seen = Vec::new();
                loop {
                    // Parse the element on its own, then file its leaves
                    // under the element's identity key.
                    let mut element = BTreeMap::new();
                    self.value("", &mut element)?;
                    let prefix = element_key(path, i, &element);
                    if seen.contains(&prefix) {
                        return Err(format!("duplicate array element {prefix}"));
                    }
                    for (key, leaf) in element {
                        out.insert(join(&prefix, &key), leaf);
                    }
                    seen.push(prefix);
                    i += 1;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                out.insert(path.to_string(), Leaf::Str(s));
                Ok(())
            }
            Some(b't') | Some(b'f') => {
                let word = if self.bytes[self.pos..].starts_with(b"true") {
                    self.pos += 4;
                    true
                } else if self.bytes[self.pos..].starts_with(b"false") {
                    self.pos += 5;
                    false
                } else {
                    return Err(format!("bad literal at byte {}", self.pos));
                };
                out.insert(path.to_string(), Leaf::Bool(word));
                Ok(())
            }
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(())
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 number".to_string())?;
                let num: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
                out.insert(path.to_string(), Leaf::Num(num));
                Ok(())
            }
            None => Err("unexpected end of document".into()),
        }
    }
}

/// Numeric fields that, with an element's string fields, identify a row.
const IDENTITY_NUMBERS: &[&str] = &["n", "rho", "threads", "batch"];

/// The key of element `i` of the array at `path`, from the element's own
/// top-level leaves: `path[s1,s2,n=256,threads=1]` when it has identity
/// fields, `path.i` otherwise.
fn element_key(path: &str, i: usize, element: &BTreeMap<String, Leaf>) -> String {
    let mut parts: Vec<String> = element
        .iter()
        .filter(|(k, _)| !k.is_empty() && !k.contains(['.', '[']))
        .filter_map(|(_, leaf)| match leaf {
            Leaf::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    for name in IDENTITY_NUMBERS {
        if let Some(Leaf::Num(v)) = element.get(*name) {
            parts.push(format!("{name}={v}"));
        }
    }
    if parts.is_empty() {
        format!("{path}.{i}")
    } else {
        format!("{path}[{}]", parts.join(","))
    }
}

/// Appends a key produced under an empty path to `prefix`.
fn join(prefix: &str, key: &str) -> String {
    if key.is_empty() || key.starts_with(['.', '[']) {
        format!("{prefix}{key}")
    } else {
        format!("{prefix}.{key}")
    }
}

fn flatten(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let mut out = BTreeMap::new();
    let mut r = Reader::new(text);
    r.value("", &mut out)?;
    Ok(out)
}

/// Correctness booleans that must never flip away from the baseline `true`.
const PINNED_TRUE: &[&str] = &["bit_identical", "cross_checks_ok", "zero_copy_storage"];

/// Lower-is-better when the key's last segment is a latency quantile and
/// the containing object is a latency/duration block.
fn is_latency(key: &str) -> bool {
    let Some((parent, leaf)) = key.rsplit_once('.') else {
        return false;
    };
    matches!(leaf, "p50" | "p90" | "p95" | "p99" | "max")
        && (parent.ends_with("_latency_us") || parent.ends_with("_ns"))
}

/// Higher-is-better throughput scalars (`*_per_sec`, `*qps*` — including
/// leaves of a `*_qps_by_threads` block).
fn is_throughput(key: &str) -> bool {
    key == "requests_per_sec"
        || key == "queries_per_sec"
        || key.contains("qps")
        || key.rsplit('.').next().is_some_and(|l| l == "ops_per_sec")
}

/// Latency tolerance: 2× the baseline plus an absolute grace (µs-scale
/// numbers sit near zero on fast runs; ns-scale numbers dwarf it either way).
const LAT_FACTOR: f64 = 2.0;
const LAT_GRACE: f64 = 500.0;
/// Throughput floor relative to baseline.
const TPUT_FLOOR: f64 = 0.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = &args[..] else {
        eprintln!("usage: cc-bench-diff BASELINE.json CURRENT.json");
        return ExitCode::from(2);
    };
    let read = |path: &str| -> Result<BTreeMap<String, Leaf>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        flatten(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cur) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cc-bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (base.get("bench"), cur.get("bench")) {
        (Some(b), Some(c)) if b == c => {}
        (b, c) => {
            eprintln!("cc-bench-diff: bench name mismatch: {b:?} vs {c:?}");
            return ExitCode::FAILURE;
        }
    }

    let outcome = compare(&base, &cur);
    for key in &outcome.absent {
        eprintln!("  [skip] {key}: absent in current run");
    }
    for line in &outcome.failures {
        eprintln!("  [FAIL] {line}");
    }
    let bench = match base.get("bench") {
        Some(Leaf::Str(s)) => s.as_str(),
        _ => "?",
    };
    let checks = outcome.checks;
    if !outcome.failures.is_empty() {
        eprintln!(
            "cc-bench-diff: {bench}: {} of {checks} checks FAILED",
            outcome.failures.len()
        );
        ExitCode::FAILURE
    } else if checks == 0 {
        eprintln!("cc-bench-diff: {bench}: no gated check ran — the documents share no gated key");
        ExitCode::FAILURE
    } else {
        println!(
            "cc-bench-diff: {bench}: {checks} checks passed ({baseline_path} vs {current_path})"
        );
        ExitCode::SUCCESS
    }
}

/// What one baseline-vs-current comparison found.
#[derive(Debug, Default)]
struct Outcome {
    /// Gated checks that ran.
    checks: usize,
    /// One line per failed check.
    failures: Vec<String>,
    /// Baseline keys the current run lacks (reported, never a failure).
    absent: Vec<String>,
}

/// Runs every gated check of `cur` against `base`.
fn compare(base: &BTreeMap<String, Leaf>, cur: &BTreeMap<String, Leaf>) -> Outcome {
    let mut outcome = Outcome::default();
    for (key, base_leaf) in base {
        let Some(cur_leaf) = cur.get(key) else {
            outcome.absent.push(key.clone());
            continue;
        };
        if PINNED_TRUE.contains(&key.as_str()) {
            outcome.checks += 1;
            if *base_leaf == Leaf::Bool(true) && *cur_leaf != Leaf::Bool(true) {
                outcome
                    .failures
                    .push(format!("{key}: baseline true, current {cur_leaf:?}"));
            }
            continue;
        }
        if key == "dropped_requests" {
            outcome.checks += 1;
            if let (Leaf::Num(b), Leaf::Num(c)) = (base_leaf, cur_leaf) {
                if *b == 0.0 && *c != 0.0 {
                    outcome
                        .failures
                        .push(format!("{key}: baseline 0, current {c}"));
                }
            }
            continue;
        }
        let (Leaf::Num(b), Leaf::Num(c)) = (base_leaf, cur_leaf) else {
            continue;
        };
        if is_latency(key) {
            outcome.checks += 1;
            let limit = b * LAT_FACTOR + LAT_GRACE;
            if *c > limit {
                outcome.failures.push(format!(
                    "{key}: {c} > {limit:.1} (baseline {b} x{LAT_FACTOR} + {LAT_GRACE})"
                ));
            }
        } else if is_throughput(key) {
            outcome.checks += 1;
            let floor = b * TPUT_FLOOR;
            if *c < floor {
                outcome.failures.push(format!(
                    "{key}: {c} < {floor:.1} (baseline {b} x{TPUT_FLOOR})"
                ));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_walks_nested_objects_and_arrays() {
        let doc = r#"{"bench": "x", "lat_us": {"p50": 1.5}, "results": [{"a": 1}, {"a": 2}], "ok": true}"#;
        let m = flatten(doc).unwrap();
        assert_eq!(m.get("bench"), Some(&Leaf::Str("x".into())));
        assert_eq!(m.get("lat_us.p50"), Some(&Leaf::Num(1.5)));
        assert_eq!(
            m.get("results.1.a"),
            Some(&Leaf::Num(2.0)),
            "index fallback"
        );
        assert_eq!(m.get("ok"), Some(&Leaf::Bool(true)));

        let rows = r#"{"results": [{"kernel": "sparse-csr", "threads": 1, "rho": 8, "n": 256, "ops_per_sec": 5}, [7]]}"#;
        let m = flatten(rows).unwrap();
        assert_eq!(
            m.get("results[sparse-csr,n=256,rho=8,threads=1].ops_per_sec"),
            Some(&Leaf::Num(5.0))
        );
        assert_eq!(m.get("results.1.0"), Some(&Leaf::Num(7.0)));

        let dup = r#"{"results": [{"kernel": "a", "n": 1}, {"kernel": "a", "n": 1}]}"#;
        let err = flatten(dup).unwrap_err();
        assert!(
            err.contains("duplicate array element results[a,n=1]"),
            "{err}"
        );
    }

    #[test]
    fn rows_are_compared_by_identity_not_position() {
        // Baseline rows [A, B], current rows [B]: B must meet B (90 ≥ 0.5 ×
        // 100 passes; meeting A's 1000 would fail), and A is only absent.
        let base = flatten(
            r#"{"bench": "t", "results": [{"kernel": "A", "n": 1, "ops_per_sec": 1000}, {"kernel": "B", "n": 1, "ops_per_sec": 100}]}"#,
        )
        .unwrap();
        let cur =
            flatten(r#"{"bench": "t", "results": [{"kernel": "B", "n": 1, "ops_per_sec": 90}]}"#)
                .unwrap();
        let outcome = compare(&base, &cur);
        assert_eq!(outcome.checks, 1);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome
            .absent
            .contains(&"results[A,n=1].ops_per_sec".to_string()));
        assert!(!outcome.absent.iter().any(|k| k.starts_with("results[B")));
    }

    #[test]
    fn disjoint_schemas_run_no_gated_check() {
        let base = flatten(r#"{"bench": "t", "old_qps": 10}"#).unwrap();
        let cur = flatten(r#"{"bench": "t", "new_qps": 10}"#).unwrap();
        let outcome = compare(&base, &cur);
        assert_eq!(outcome.checks, 0, "main turns this into a failure");
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.absent, vec!["old_qps".to_string()]);
    }

    #[test]
    fn key_classifiers() {
        assert!(is_latency("dist_latency_us.p50"));
        assert!(is_latency("queue_wait_ns.p99"));
        assert!(is_latency("queue_wait_ns.max"));
        assert!(!is_latency("overload.ok"));
        assert!(!is_latency("p50_ratio"));
        assert!(is_throughput("requests_per_sec"));
        assert!(is_throughput("results.3.ops_per_sec"));
        assert!(is_throughput(
            "results[sparse-csr,n=256,rho=8,threads=1].ops_per_sec"
        ));
        assert!(is_throughput("path_qps_batch"));
        assert!(is_throughput("path_qps_by_threads.t2"));
        assert!(!is_throughput("requests_per_client"));
    }
}
