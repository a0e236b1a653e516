//! Spans recorded by the benchmark around its own calls into the
//! workspace's public functions. Nothing inside the program is
//! instrumented: a span brackets one call from the outside.
//!
//! Spans live in memory and are written out, one JSON object per line,
//! when the run ends. A span's self time is its duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::json_str;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `core.apsp2`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or session) the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been entered but not yet exited.
#[must_use = "exit the span to time it"]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

/// Per-name totals over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. When off, entering and exiting a span costs the two
/// clock reads the untraced timing needs anyway, and records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    notes: Vec<(String, String)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between spans (never inside one).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            let span = Span {
                name,
                start_ns: self.offset_ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                req,
            };
            self.spans.push(span);
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Ends the innermost open span and returns its duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans must nest");
            self.spans[id].end_ns = self.offset_ns(end);
        }
        end.saturating_duration_since(open.start)
    }

    /// Ends every open span now (after a call failed midway).
    pub fn close_all(&mut self) {
        let end = self.offset_ns(Instant::now());
        for id in self.stack.drain(..) {
            self.spans[id].end_ns = end;
        }
    }

    /// Times `f` as one span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.enter(name, req);
        let out = f();
        (out, self.exit(open))
    }

    /// Adds a span measured elsewhere (a client thread) under the innermost
    /// open span.
    pub fn adopt(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.offset_ns(start),
                end_ns: self.offset_ns(end),
                parent: self.stack.last().copied(),
                req,
            });
        }
    }

    /// Keeps a text capture (stage times, ledger phases, `Op::Metrics`).
    pub fn note(&mut self, kind: &str, text: String) {
        if self.on {
            self.notes.push((kind.to_string(), text));
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let agg = out.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += span.dur_ns();
            agg.self_ns += self_ns;
        }
        out
    }

    /// Writes every span (with its self time), then every note, then the
    /// per-name summary, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}, \"self_ns\": {self_ns}}}",
                json_str(span.name),
                span.start_ns,
                span.end_ns,
                span.req
            )?;
        }
        for (kind, text) in &self.notes {
            writeln!(
                out,
                "{{\"note\": {}, \"text\": {}}}",
                json_str(kind),
                json_str(text)
            )?;
        }
        for (name, agg) in self.summary() {
            writeln!(
                out,
                "{{\"summary\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(name),
                agg.count,
                agg.total_ns,
                agg.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 0);
        let (_, inner) = t.time("inner", 0, || std::thread::sleep(Duration::from_millis(5)));
        let whole = t.exit(outer);
        let s = t.summary();
        assert_eq!(s["outer"].count, 1);
        assert!(inner >= Duration::from_millis(5));
        assert_eq!(
            s["outer"].total_ns,
            s["outer"].self_ns + s["inner"].total_ns
        );
        assert!(whole >= inner);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (_, d) = t.time("x", 0, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.summary().is_empty());
    }
}
