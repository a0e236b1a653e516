//! The rule engine: repo-specific invariants `rustc` cannot state.
//!
//! Each rule is lexical (over [`crate::scan`]'s code/raw line views) and
//! scoped by a path manifest kept here, in one place, so the policy is
//! reviewable as data:
//!
//! * `safety-comment` — every `unsafe` token carries a `// SAFETY:` (or
//!   `# Safety` doc) justification on or immediately above its line.
//! * `unsafe-attr` — every crate root (`lib.rs`, `main.rs`, `src/bin/*`)
//!   declares `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.
//! * `unsafe-module` — `unsafe` (and `allow(unsafe_code)`) appears only in
//!   the audited allowlist modules.
//! * `unwrap-expect` / `indexing` / `narrowing-cast` — panic-prone calls,
//!   bare slice indexing, and bare `as` narrowing are denied in the
//!   designated hot-path and parser modules (test code exempt).
//! * `pod-manifest` — every `#[repr(C)]` type is registered here and pairs
//!   with an `impl Section for …` compile-time layout check in its file.
//! * `unordered-iter` — `HashMap`/`HashSet` are banned in result-affecting
//!   crates; address-dependent iteration order must never reach an output.
//! * `lock-order` — `cc_serve` lock acquisitions must follow the declared
//!   total order in [`crate::concurrency::LOCK_ORDER`], cycle-free.
//! * `shard-capture` — `scope.spawn` closures may only write their own
//!   disjoint shard: no captured `&mut`, cells, or worker-side locking.
//! * `float-ban` — no `f32`/`f64` arithmetic in distance/weight paths;
//!   distances are exact `u32` end to end.
//! * `obs-hot-path` — metric handles in hot paths must be resolved once at
//!   startup; resolving through a `format!`-built name per request turns a
//!   lock-free atomic increment into registry-lock contention.
//!
//! Any finding can be waived in place with a counted escape hatch —
//! `// cc-analyze: allow(<rule>)` on the flagged line or the comment block
//! above it — so exceptions are visible in the report instead of silent.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::concurrency;
use crate::scan::{self, Line};

pub const RULE_SAFETY: &str = "safety-comment";
pub const RULE_ATTR: &str = "unsafe-attr";
pub const RULE_MODULE: &str = "unsafe-module";
pub const RULE_PANIC: &str = "unwrap-expect";
pub const RULE_INDEX: &str = "indexing";
pub const RULE_CAST: &str = "narrowing-cast";
pub const RULE_POD: &str = "pod-manifest";
pub const RULE_UNORDERED: &str = "unordered-iter";
pub const RULE_LOCK: &str = "lock-order";
pub const RULE_SHARD: &str = "shard-capture";
pub const RULE_FLOAT: &str = "float-ban";
pub const RULE_OBS: &str = "obs-hot-path";

/// Every rule id, for `--help` text and escape-hatch validation.
pub const ALL_RULES: &[&str] = &[
    RULE_SAFETY,
    RULE_ATTR,
    RULE_MODULE,
    RULE_PANIC,
    RULE_INDEX,
    RULE_CAST,
    RULE_POD,
    RULE_UNORDERED,
    RULE_LOCK,
    RULE_SHARD,
    RULE_FLOAT,
    RULE_OBS,
];

/// The only modules allowed to contain `unsafe`: POD reinterpretation,
/// the mmap syscall wrapper, the zero-copy snapshot reader, and this binary's
/// counting allocator.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/analyze/src/main.rs",
    "crates/core/src/snapshot/v2.rs",
    "crates/graphs/src/pod.rs",
    "crates/serve/src/mmap.rs",
];

/// Hot-path and parser modules where `.unwrap()` / `.expect(` are denied
/// outside test code: a panic here takes down a serving worker or turns a
/// corrupt snapshot into an abort instead of a typed error.
const NO_PANIC: &[&str] = &[
    "crates/core/src/oracle.rs",
    "crates/core/src/path_oracle.rs",
    "crates/core/src/snapshot/atomic.rs",
    "crates/core/src/snapshot/header.rs",
    "crates/core/src/snapshot/mod.rs",
    "crates/core/src/snapshot/v2.rs",
    "crates/matrix/src/dense.rs",
    "crates/matrix/src/sparse.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/stage.rs",
    "crates/obs/src/text.rs",
    "crates/obs/src/trace.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/fault.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/mmap.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/slot.rs",
    "crates/serve/src/snapshot.rs",
];

/// Parser/server modules where bare slice indexing is denied: every input
/// there is attacker-controlled (a wire frame or an on-disk snapshot), so
/// reads must be `get`-based and fail typed.
const NO_INDEXING: &[&str] = &[
    "crates/core/src/snapshot/atomic.rs",
    "crates/core/src/snapshot/header.rs",
    "crates/core/src/snapshot/mod.rs",
    "crates/core/src/snapshot/v2.rs",
    "crates/serve/src/fault.rs",
    "crates/serve/src/mmap.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/slot.rs",
    "crates/serve/src/snapshot.rs",
];

/// Modules where a bare narrowing `as` cast is denied: silent truncation
/// in a writer or kernel produces a *valid-looking* snapshot or witness
/// with wrong contents, the worst failure mode this workspace has.
const NO_NARROWING: &[&str] = &[
    "crates/core/src/oracle.rs",
    "crates/core/src/path_oracle.rs",
    "crates/core/src/snapshot/header.rs",
    "crates/core/src/snapshot/mod.rs",
    "crates/core/src/snapshot/v2.rs",
    "crates/matrix/src/dense.rs",
    "crates/matrix/src/sparse.rs",
    "crates/serve/src/fault.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/slot.rs",
    "crates/serve/src/snapshot.rs",
];

/// The POD registry: every `#[repr(C)]` type in the workspace, by file.
/// A type here must also carry an `impl Section for …` in the same file,
/// tying its declared wire layout to the compile-time assertions in
/// `cc_graphs::pod`.
const POD_MANIFEST: &[(&str, &str)] = &[("crates/graphs/src/pod.rs", "DirEntry")];

/// Cast targets treated as narrowing when written with bare `as`.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Result-affecting crates where `HashMap`/`HashSet` are banned outright
/// (entries ending in `/` are directory prefixes): address-dependent
/// iteration order anywhere in these crates can leak into outputs the
/// parallel-equals-serial contract pins bit-for-bit. Use `BTreeMap`/
/// `BTreeSet` or sort after collecting; a counted
/// `cc-analyze: allow(unordered-iter)` hatch waives a lookup-only use.
const UNORDERED_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/derand/src/",
    "crates/emulator/src/",
    "crates/matrix/src/",
    "crates/routes/src/",
    "crates/toolkit/src/",
];

/// Distance/weight-path modules where `f32`/`f64` arithmetic is banned:
/// every distance in this workspace is an exact `u32` (`cc_graphs::Dist`),
/// and a float sneaking into a kernel or comparator turns bit-identical
/// parallel replay into a rounding lottery. Parameter-space math (ε, β,
/// sampling probabilities) lives outside these modules by design.
const FLOAT_BAN: &[&str] = &[
    "crates/clique/src/engine.rs",
    "crates/clique/src/message.rs",
    "crates/graphs/src/bfs.rs",
    "crates/graphs/src/dijkstra.rs",
    "crates/graphs/src/dist.rs",
    "crates/graphs/src/graph.rs",
    "crates/matrix/src/",
    "crates/obs/src/",
    "crates/routes/src/",
];

/// Modules subject to the `lock-order` analysis: the serving daemon, the
/// one place in the workspace where multiple locks coexist.
const LOCK_SCOPE: &[&str] = &["crates/serve/src/"];

/// Hot-path scopes where resolving a metric through a `format!`-built name
/// is denied: `Registry` resolution takes the registry-wide lock and
/// allocates, so per-request name construction turns a lock-free atomic
/// increment into contention (and unbounded metric cardinality). Resolve
/// handles once at startup (`crates/serve/src/metrics.rs`) and clone the
/// `Arc`s into the hot path.
const OBS_SCOPES: &[&str] = &["crates/core/src/", "crates/serve/src/"];

/// One diagnostic, formatted `path:line: [rule] message`.
#[derive(Debug)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned (after the vendor/target/fixtures skips).
    pub files: usize,
    /// Rule violations, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Counted escape hatches, by rule.
    pub allows: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Total escape hatches exercised.
    pub fn allow_count(&self) -> usize {
        self.allows.values().sum()
    }
}

/// Runs every rule over the `.rs` files under `root` (skipping `vendor/`,
/// `target/`, `fixtures/`, and `.git/`) and returns the combined report.
pub fn check_root(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, Path::new(""), &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut seen_pod: Vec<(String, String)> = Vec::new();
    let mut lock_edges: Vec<LockEdgeAt> = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))?;
        check_file(rel, &text, &mut report, &mut seen_pod, &mut lock_edges);
    }
    report.files = files.len();
    lock_cycle_findings(&lock_edges, &mut report);

    // The manifest must stay live: an entry whose type vanished is stale.
    for (path, ty) in POD_MANIFEST {
        let present = seen_pod.iter().any(|(p, t)| p == path && t == ty);
        if files.iter().any(|f| f == path) && !present {
            report.findings.push(Finding {
                path: (*path).to_string(),
                line: 1,
                rule: RULE_POD,
                message: format!(
                    "stale manifest entry: `#[repr(C)] {ty}` no longer found in this file"
                ),
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(report)
}

/// Runs every per-file rule over one source text (exposed for tests and
/// the self-test fixture pass).
pub fn check_source(rel: &str, text: &str) -> Report {
    let mut report = Report::default();
    let mut seen_pod = Vec::new();
    let mut lock_edges = Vec::new();
    check_file(rel, text, &mut report, &mut seen_pod, &mut lock_edges);
    lock_cycle_findings(&lock_edges, &mut report);
    report.files = 1;
    report
}

fn collect_rs(root: &Path, rel: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(root.join(rel))?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_str(), "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            collect_rs(root, &rel.join(&name), out)?;
        } else if name.ends_with(".rs") {
            let p: PathBuf = rel.join(&name);
            out.push(p.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || rel.contains("/src/bin/")
}

fn in_list(list: &[&str], rel: &str) -> bool {
    list.contains(&rel)
}

/// Scope test that also understands directory prefixes: an entry ending in
/// `/` matches every file under that directory.
fn in_scope(list: &[&str], rel: &str) -> bool {
    list.iter()
        .any(|e| *e == rel || (e.ends_with('/') && rel.starts_with(e)))
}

/// One lock acquisition edge observed in a file, for workspace-wide cycle
/// detection: `(path, held, acquired, 1-based line)`.
type LockEdgeAt = (String, &'static str, &'static str, usize);

fn check_file(
    rel: &str,
    text: &str,
    report: &mut Report,
    seen_pod: &mut Vec<(String, String)>,
    lock_edges: &mut Vec<LockEdgeAt>,
) {
    let lines = scan::scan_source(text);
    let unsafe_ok = in_list(UNSAFE_ALLOWLIST, rel);

    let emit = |report: &mut Report, lines: &[Line], idx: usize, rule, message: String| {
        if escape_hatch(lines, idx, rule) {
            *report.allows.entry(rule).or_insert(0) += 1;
        } else {
            report.findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                rule,
                message,
            });
        }
    };

    if is_crate_root(rel) {
        let has_attr = lines.iter().any(|l| {
            l.code.contains("#![forbid(unsafe_code)]") || l.code.contains("#![deny(unsafe_code)]")
        });
        if !has_attr {
            emit(
                report,
                &lines,
                0,
                RULE_ATTR,
                "crate root lacks #![forbid(unsafe_code)] / #![deny(unsafe_code)]".to_string(),
            );
        }
    }

    for idx in 0..lines.len() {
        let line = &lines[idx];
        let code = line.code.as_str();

        if has_word(code, "unsafe") {
            if !unsafe_ok {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_MODULE,
                    "`unsafe` outside the audited allowlist modules".to_string(),
                );
            }
            if !has_safety_comment(&lines, idx) {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_SAFETY,
                    "`unsafe` without a // SAFETY: justification".to_string(),
                );
            }
        }
        if !unsafe_ok && code.contains("allow(unsafe_code)") {
            emit(
                report,
                &lines,
                idx,
                RULE_MODULE,
                "`allow(unsafe_code)` outside the audited allowlist modules".to_string(),
            );
        }

        if !line.in_test {
            if in_list(NO_PANIC, rel) && (code.contains(".unwrap()") || code.contains(".expect(")) {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_PANIC,
                    "`.unwrap()`/`.expect(` in a no-panic module".to_string(),
                );
            }
            if in_list(NO_INDEXING, rel) && has_indexing(code) {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_INDEX,
                    "bare slice indexing in a parser/server module (use `.get(..)`)".to_string(),
                );
            }
            if in_list(NO_NARROWING, rel) {
                if let Some(target) = narrowing_target(code) {
                    emit(
                        report,
                        &lines,
                        idx,
                        RULE_CAST,
                        format!("bare `as {target}` narrowing (use a checked conversion)"),
                    );
                }
            }
            if in_scope(UNORDERED_SCOPES, rel)
                && (has_word(code, "HashMap") || has_word(code, "HashSet"))
            {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_UNORDERED,
                    "HashMap/HashSet in a result-affecting crate (use BTreeMap/BTreeSet \
                     or sort after collecting)"
                        .to_string(),
                );
            }
            if in_scope(FLOAT_BAN, rel)
                && (has_word(code, "f32")
                    || has_word(code, "f64")
                    || concurrency::has_float_literal(code))
            {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_FLOAT,
                    "float arithmetic in a distance/weight path (distances are exact u32)"
                        .to_string(),
                );
            }
            if in_scope(OBS_SCOPES, rel)
                && code.contains("format!")
                && (code.contains(".counter(")
                    || code.contains(".gauge(")
                    || code.contains(".histogram("))
            {
                emit(
                    report,
                    &lines,
                    idx,
                    RULE_OBS,
                    "metric resolved through a format!-built name in a hot path \
                     (resolve the handle once at startup and reuse it)"
                        .to_string(),
                );
            }
        }

        if code.contains("#[repr(C") {
            if let Some((ty_idx, ty)) = find_repr_type(&lines, idx) {
                seen_pod.push((rel.to_string(), ty.clone()));
                let registered = POD_MANIFEST.iter().any(|(p, t)| *p == rel && *t == ty);
                if !registered {
                    emit(
                        report,
                        &lines,
                        ty_idx,
                        RULE_POD,
                        format!("unregistered #[repr(C)] type `{ty}` (add it to POD_MANIFEST)"),
                    );
                } else if !text.contains(&format!("impl Section for {ty}")) {
                    emit(
                        report,
                        &lines,
                        ty_idx,
                        RULE_POD,
                        format!("`{ty}` lacks an `impl Section for` compile-time layout check"),
                    );
                }
            }
        }
    }

    // Whole-file concurrency passes (the per-line loop above cannot see
    // guard liveness or closure extents).
    for diag in concurrency::shard_capture(&lines) {
        emit(report, &lines, diag.line, RULE_SHARD, diag.message);
    }
    if in_scope(LOCK_SCOPE, rel) {
        let (diags, edges) = concurrency::lock_order(&lines);
        for diag in diags {
            emit(report, &lines, diag.line, RULE_LOCK, diag.message);
        }
        for e in edges {
            lock_edges.push((rel.to_string(), e.held, e.acquired, e.line + 1));
        }
    }
}

/// Workspace-wide cycle check over the aggregated lock acquisition graph.
/// The per-site rank check already rejects every descending edge, but the
/// aggregate pass also catches a cycle assembled from edges that are each
/// waived by an escape hatch in its own file.
fn lock_cycle_findings(edges: &[LockEdgeAt], report: &mut Report) {
    let n = concurrency::LOCK_ORDER.len();
    let idx = |name: &str| concurrency::LOCK_ORDER.iter().position(|l| *l == name);
    let mut adj = vec![vec![false; n]; n];
    for (_, held, acquired, _) in edges {
        if let (Some(h), Some(a)) = (idx(held), idx(acquired)) {
            adj[h][a] = true;
        }
    }
    // Floyd–Warshall reachability; a cycle is a node reaching itself.
    let mut reach = adj.clone();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] = reach[i][j]
                    || (reach.get(i).is_some_and(|r| r[k]) && reach.get(k).is_some_and(|r| r[j]));
            }
        }
    }
    for (start, row) in reach.iter().enumerate() {
        if !row.get(start).copied().unwrap_or(false) {
            continue;
        }
        // Blame the first recorded edge that leaves this node inside the
        // cycle, so the diagnostic lands on a real acquisition site.
        if let Some((path, held, acquired, line)) = edges.iter().find(|(_, h, a, _)| {
            idx(h) == Some(start) && idx(a).is_some_and(|a| reach[a][start] || a == start)
        }) {
            report.findings.push(Finding {
                path: path.clone(),
                line: *line,
                rule: RULE_LOCK,
                message: format!(
                    "lock acquisition cycle through `{held}` → `{acquired}` \
                     (declared order {:?})",
                    concurrency::LOCK_ORDER
                ),
            });
        }
    }
}

/// True when `word` appears in `code` at identifier boundaries.
fn has_word(code: &str, word: &str) -> bool {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code.get(from..).and_then(|s| s.find(word)) {
        let start = from + pos;
        let end = start + word.len();
        let pre = start
            .checked_sub(1)
            .and_then(|p| b.get(p))
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        let post = b
            .get(end)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        if !pre && !post {
            return true;
        }
        from = end;
    }
    false
}

/// A SAFETY justification counts on the flagged line itself or in the
/// contiguous comment/attribute block immediately above it.
fn has_safety_comment(lines: &[Line], idx: usize) -> bool {
    let hit = |raw: &str| raw.contains("SAFETY:") || raw.contains("# Safety");
    if hit(&lines[idx].raw) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = lines[k].raw.trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") {
            if hit(&lines[k].raw) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// The escape hatch: `// cc-analyze: allow(<rule>)` on the flagged line or
/// in the comment/attribute block immediately above it.
fn escape_hatch(lines: &[Line], idx: usize, rule: &str) -> bool {
    let needle = format!("cc-analyze: allow({rule})");
    if lines[idx].raw.contains(&needle) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = lines[k].raw.trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") {
            if lines[k].raw.contains(&needle) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Detects `expr[...]` indexing: a `[` whose previous non-space character
/// ends an expression (identifier, `)`, `]`, or `?`), excluding keywords
/// (`mut`, `in`, `return`, …) that introduce array/slice literals.
fn has_indexing(code: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "mut", "in", "return", "if", "else", "match", "loop", "while", "break", "ref", "move",
        "as", "const", "static",
    ];
    let b = code.as_bytes();
    for i in 0..b.len() {
        if b[i] != b'[' {
            continue;
        }
        let Some(p) = (0..i).rev().find(|&p| b[p] != b' ') else {
            continue;
        };
        let c = b[p];
        if c == b')' || c == b']' || c == b'?' {
            return true;
        }
        if c.is_ascii_alphanumeric() || c == b'_' {
            let start = (0..=p)
                .rev()
                .find(|&q| !(b[q].is_ascii_alphanumeric() || b[q] == b'_'));
            // `&'a [u8]` — a lifetime before `[` is a type position, not
            // an indexing expression.
            if start.is_some_and(|s| b[s] == b'\'') {
                continue;
            }
            let word = match start {
                Some(s) => code.get(s + 1..=p),
                None => code.get(..=p),
            };
            // A non-boundary slice means a non-ASCII token — treat it as
            // an expression and flag it rather than panic.
            if !word.is_some_and(|w| KEYWORDS.contains(&w)) {
                return true;
            }
        }
    }
    false
}

/// Returns the first narrowing `as <ty>` cast target on the line, if any.
fn narrowing_target(code: &str) -> Option<&'static str> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code.get(from..).and_then(|s| s.find("as")) {
        let start = from + pos;
        let end = start + 2;
        from = end;
        let pre = start
            .checked_sub(1)
            .and_then(|p| b.get(p))
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        let post = b
            .get(end)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        if pre || post {
            continue;
        }
        let rest = code.get(end..).unwrap_or("").trim_start();
        let ty: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(t) = NARROW_TARGETS.iter().find(|t| **t == ty) {
            return Some(t);
        }
    }
    None
}

/// Finds the type declaration a `#[repr(C…)]` attribute applies to,
/// scanning past interleaved attributes/derives.
fn find_repr_type(lines: &[Line], attr_idx: usize) -> Option<(usize, String)> {
    for (j, line) in lines.iter().enumerate().skip(attr_idx).take(8) {
        for kw in ["struct", "enum", "union"] {
            if let Some(pos) = find_word(&line.code, kw) {
                let after = line.code.get(pos + kw.len()..)?.trim_start();
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    return Some((j, name));
                }
            }
        }
    }
    None
}

pub(crate) fn find_word(code: &str, word: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code.get(from..).and_then(|s| s.find(word)) {
        let start = from + pos;
        let end = start + word.len();
        let pre = start
            .checked_sub(1)
            .and_then(|p| b.get(p))
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        let post = b
            .get(end)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
        if !pre && !post {
            return Some(start);
        }
        from = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let r = check_source("crates/graphs/src/pod.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(rules_of(&r), vec![RULE_SAFETY]);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies() {
        for src in [
            "// SAFETY: g is idempotent.\nfn f() { unsafe { g() } }\n",
            "fn f() { unsafe { g() } } // SAFETY: g is idempotent.\n",
            "/// # Safety\n/// Caller pins the buffer.\npub unsafe trait T {}\n",
        ] {
            let r = check_source("crates/graphs/src/pod.rs", src);
            assert!(r.findings.is_empty(), "{src:?} -> {:?}", r.findings);
        }
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let r = check_source(
            "crates/core/src/oracle.rs",
            "// SAFETY: still not allowed here.\nfn f() { unsafe { g() } }\n",
        );
        assert_eq!(rules_of(&r), vec![RULE_MODULE]);
    }

    #[test]
    fn crate_roots_must_pin_unsafe_code() {
        let r = check_source("crates/core/src/lib.rs", "pub mod oracle;\n");
        assert_eq!(rules_of(&r), vec![RULE_ATTR]);
        let ok = check_source(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod oracle;\n",
        );
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn panic_indexing_and_casts_fire_only_outside_tests() {
        let src = concat!(
            "fn f(v: &[u8]) -> u8 { v[0] }\n",
            "fn g(n: usize) -> u16 { n as u16 }\n",
            "fn h(o: Option<u8>) -> u8 { o.unwrap() }\n",
            "#[cfg(test)]\n",
            "mod tests { fn t(v: &[u8]) { v[0]; None::<u8>.unwrap(); } }\n",
        );
        let r = check_source("crates/core/src/snapshot/v2.rs", src);
        let mut rules = rules_of(&r);
        rules.sort();
        assert_eq!(rules, vec![RULE_INDEX, RULE_CAST, RULE_PANIC]);
    }

    #[test]
    fn string_and_comment_contents_do_not_fire() {
        let src = "fn f() { log(\"call .unwrap() on v[0] as u16\"); } // v[0] as u8\n";
        let r = check_source("crates/core/src/snapshot/v2.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn escape_hatch_suppresses_and_counts() {
        let src = concat!(
            "fn f(o: Option<u8>) -> u8 {\n",
            "    // cc-analyze: allow(unwrap-expect) — checked by caller.\n",
            "    o.unwrap()\n",
            "}\n",
        );
        let r = check_source("crates/core/src/oracle.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.allows.get(RULE_PANIC), Some(&1));
    }

    #[test]
    fn unregistered_repr_c_is_flagged() {
        let r = check_source(
            "crates/serve/src/protocol.rs",
            "#[repr(C)]\n#[derive(Clone, Copy)]\npub struct Rogue { a: u32 }\n",
        );
        assert_eq!(rules_of(&r), vec![RULE_POD]);
        assert!(r.findings[0].message.contains("Rogue"));
    }

    #[test]
    fn registered_pod_needs_section_impl() {
        let src = "#[repr(C)]\npub struct DirEntry { a: u32 }\n";
        let r = check_source("crates/graphs/src/pod.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_POD]);
        let with_impl = format!("{src}impl Section for DirEntry {{}}\n");
        let ok = check_source("crates/graphs/src/pod.rs", &with_impl);
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn hash_containers_are_banned_in_result_affecting_crates() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { todo!() }\n";
        let r = check_source("crates/core/src/pipeline.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_UNORDERED, RULE_UNORDERED]);
        // Out of scope: the analyzer itself may use what it likes.
        let ok = check_source("crates/analyze/src/rules.rs", src);
        assert!(ok.findings.is_empty());
        // BTree replacements are the sanctioned fix.
        let ok = check_source(
            "crates/core/src/pipeline.rs",
            "use std::collections::BTreeMap;\n",
        );
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn unordered_iter_hatch_counts() {
        let src = concat!(
            "// cc-analyze: allow(unordered-iter) — lookup only, never iterated.\n",
            "use std::collections::HashMap;\n",
        );
        let r = check_source("crates/matrix/src/dense.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allows.get(RULE_UNORDERED), Some(&1));
    }

    #[test]
    fn floats_are_banned_in_distance_paths() {
        for src in [
            "fn f(d: u32) -> f64 { d as f64 }\n",
            "fn g(w: u32) -> u32 { (w * 3) / 2 + (0.5 as u32) }\n",
        ] {
            let r = check_source("crates/matrix/src/sparse.rs", src);
            assert!(
                rules_of(&r).contains(&RULE_FLOAT),
                "{src:?} -> {:?}",
                r.findings
            );
        }
        // Integer ranges and tuple fields do not fire.
        let ok = check_source(
            "crates/matrix/src/sparse.rs",
            "fn h(v: &[(u32, u32)]) -> u32 { (0..4).map(|i| v[i].0).sum() }\n",
        );
        assert!(!rules_of(&ok).contains(&RULE_FLOAT), "{:?}", ok.findings);
    }

    #[test]
    fn lock_order_violation_is_reported_with_the_lock_rule() {
        let src = concat!(
            "fn f(&self) {\n",
            "    let _g = self.write_lock.lock();\n",
            "    let _i = self.inner.lock();\n",
            "}\n",
        );
        let r = check_source("crates/serve/src/server.rs", src);
        assert!(rules_of(&r).contains(&RULE_LOCK), "{:?}", r.findings);
        // The same text outside the serve scope is not analyzed.
        let ok = check_source("crates/clique/src/engine.rs", src);
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn shard_capture_violation_is_reported() {
        let src = concat!(
            "fn f(totals: &mut [u64]) {\n",
            "    std::thread::scope(|scope| {\n",
            "        scope.spawn(|| { totals[0] += 1; push(&mut totals); });\n",
            "    });\n",
            "}\n",
        );
        let r = check_source("crates/matrix/src/dense.rs", src);
        assert!(rules_of(&r).contains(&RULE_SHARD), "{:?}", r.findings);
    }

    #[test]
    fn formatted_metric_names_are_banned_in_hot_paths() {
        let src = "fn f(reg: &Registry, shard: usize) {\n    \
                   reg.counter(&format!(\"ccd_shard_{shard}_total\")).inc();\n}\n";
        let r = check_source("crates/serve/src/hot.rs", src);
        assert_eq!(rules_of(&r), vec![RULE_OBS]);
        // A literal name resolved once (the metrics.rs idiom) is fine.
        let ok = check_source(
            "crates/serve/src/hot.rs",
            "fn g(reg: &Registry) -> Counter { reg.counter(\"ccd_served_total\") }\n",
        );
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
        // Outside the hot-path scopes (benches, tools) the pattern is allowed.
        let ok = check_source("crates/bench/src/load.rs", src);
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn widening_casts_are_not_narrowing() {
        let r = check_source(
            "crates/core/src/oracle.rs",
            "fn f(x: u8) -> u64 { x as u64 }\nfn g(x: u32) -> usize { x as usize }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
