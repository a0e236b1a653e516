//! A deterministic snapshot fuzzer over the golden corpus.
//!
//! The contract under test is the loaders' safety net: **any** byte
//! mutation of a valid CCDO/CCRO snapshot must come back as a typed
//! [`SnapshotError`] — never a panic, never a hang, never an allocation
//! proportional to a length field instead of the actual input.
//!
//! Mutations are seeded xorshift64\* over a golden corpus, so every run is
//! reproducible from `(seed, iteration)`. Structure-aware strategies
//! (header abuse, directory abuse) re-seal the trailing checksum so
//! the mutation penetrates *past* frame verification into the section
//! parsers — a fuzzer that only ever trips the checksum tests nothing.
//!
//! The same machinery covers the `ccd` wire protocol: [`check_frames`]
//! validates a burst of length-prefixed request frames the way the
//! server's reader loop does, and the fuzzer feeds it framing attacks —
//! length-prefix lies, truncated batches, request-id collisions.
//!
//! [`emit_corpus`] freezes one named, deterministic case per abuse class
//! into `tests/fuzz_corpus/` together with the exact error each case must
//! produce; the repo's `fuzz_replay` integration test pins them forever.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic;
use std::path::Path;

use cc_core::snapshot::header::{checksum, VERSION};
use cc_core::{DistOracle, EmitStack, SnapshotError};
use cc_serve::protocol::{Op, Request, MAX_FRAME};

/// Baseline allocation headroom a single load may use, on top of the
/// input-proportional term. Generous: a clean load of a corpus snapshot
/// peaks well under a megabyte.
const ALLOC_BASE: usize = 16 << 20;
/// Per-input-byte allocation factor. A loader honoring "validate counts
/// against remaining bytes before reserving" stays far below this.
const ALLOC_FACTOR: usize = 64;

/// xorshift64\* — tiny, seedable, good enough for byte fuzzing, and most
/// importantly dependency-free.
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    pub fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; fold in a golden-ratio
        // constant and force nonzero.
        Xorshift {
            state: (seed ^ 0x9e37_79b9_7f4a_7c15).max(1),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Hooks into the binary's counting allocator; [`run`] works without one
/// (in-process tests) but then cannot enforce the allocation bound.
#[derive(Clone, Copy)]
pub struct AllocProbe {
    /// Resets the peak to the current live-byte count.
    pub reset_peak: fn(),
    /// Peak live bytes since the last reset.
    pub peak_bytes: fn() -> usize,
}

/// Aggregate outcome of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    pub iterations: u64,
    /// Mutations the loader still accepted (e.g. a flip inside alignment
    /// padding that the checksum re-seal blessed).
    pub clean_loads: u64,
    /// Typed rejections, histogrammed by error variant.
    pub rejections: BTreeMap<&'static str, u64>,
    /// Contract violations: panics and allocation-bound breaches. Each
    /// entry reproduces from its recorded `(corpus, seed, iteration)`.
    pub failures: Vec<String>,
    /// Largest single-load allocation peak observed (0 without a probe).
    pub peak_alloc: usize,
}

/// Loads every file in `dir` as a corpus entry, sorted by name for
/// determinism.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, fs::read(entry.path())?));
        }
    }
    if out.is_empty() {
        return Err(io::Error::other(format!(
            "no corpus files in {}",
            dir.display()
        )));
    }
    Ok(out)
}

/// Runs `iters` seeded mutations over `corpus`, asserting the typed-error
/// contract on every one.
pub fn run(
    corpus: &[(String, Vec<u8>)],
    iters: u64,
    seed: u64,
    probe: Option<AllocProbe>,
) -> FuzzSummary {
    let mut rng = Xorshift::new(seed);
    let mut summary = FuzzSummary {
        iterations: iters,
        ..FuzzSummary::default()
    };

    // Panicking loads are the bug being hunted; silence the default hook's
    // backtrace spew for the duration so real failures stay readable.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    for it in 0..iters {
        // Every fourth iteration attacks the ccd framing validator
        // instead of the snapshot loaders: same no-panic contract,
        // different parser.
        if it % 4 == 3 {
            let mut burst = proto_base_burst();
            let strategy = proto_mutate(&mut burst, &mut rng);
            match panic::catch_unwind(|| check_frames(&burst)) {
                Ok(Ok(_)) => summary.clean_loads += 1,
                Ok(Err(e)) => *summary.rejections.entry(proto_error_kind(&e)).or_insert(0) += 1,
                Err(_) => summary.failures.push(format!(
                    "PANIC in check_frames: seed={seed:#x} iter={it} strategy={strategy}"
                )),
            }
            continue;
        }

        let (name, base) = &corpus[rng.below(corpus.len())];
        let mut case = base.clone();
        let strategy = mutate(&mut case, &mut rng);

        if let Some(p) = probe {
            (p.reset_peak)();
        }
        let loaded = panic::catch_unwind(|| {
            DistOracle::from_snapshot_bytes(&case).map(|oracle| refused_routes(&oracle))
        });
        match loaded {
            Ok(Ok(_)) => summary.clean_loads += 1,
            Ok(Err(e)) => *summary.rejections.entry(error_kind(&e)).or_insert(0) += 1,
            Err(_) => summary.failures.push(format!(
                "PANIC on load or route: corpus={name} seed={seed:#x} iter={it} \
                 strategy={strategy}"
            )),
        }
        if let Some(p) = probe {
            let peak = (p.peak_bytes)();
            summary.peak_alloc = summary.peak_alloc.max(peak);
            let bound = ALLOC_BASE + case.len().saturating_mul(ALLOC_FACTOR);
            if peak > bound {
                summary.failures.push(format!(
                    "ALLOC {peak}B > bound {bound}B: corpus={name} seed={seed:#x} \
                     iter={it} strategy={strategy}"
                ));
            }
        }
    }

    panic::set_hook(prev_hook);
    summary
}

/// Applies one random mutation strategy in place; returns its name.
fn mutate(case: &mut Vec<u8>, rng: &mut Xorshift) -> &'static str {
    if case.is_empty() {
        case.extend((0..16).map(|_| rng.next_u64() as u8));
        return "extend-empty";
    }
    match rng.below(9) {
        0 => {
            let pos = rng.below(case.len());
            case[pos] ^= 1 << rng.below(8);
            "bit-flip"
        }
        1 => {
            let pos = rng.below(case.len());
            case[pos] = rng.next_u64() as u8;
            "byte-set"
        }
        2 => {
            case.truncate(rng.below(case.len() + 1));
            "truncate"
        }
        3 => {
            let extra = rng.below(64) + 1;
            case.extend((0..extra).map(|_| rng.next_u64() as u8));
            "extend"
        }
        4 => {
            let start = rng.below(case.len());
            let len = rng.below(case.len() - start) + 1;
            for b in &mut case[start..start + len] {
                *b = rng.next_u64() as u8;
            }
            "splice"
        }
        5 => {
            // Header abuse: a hostile version or directory offset, with
            // the checksum re-sealed so it reaches the parser.
            if case.len() >= 16 {
                if rng.below(2) == 0 {
                    let v = (rng.next_u64() as u16).to_le_bytes();
                    case[4..6].copy_from_slice(&v);
                } else {
                    let off = rng.next_u64() % (case.len() as u64 * 2);
                    case[8..16].copy_from_slice(&off.to_le_bytes());
                }
                reseal(case);
            }
            "header-abuse"
        }
        6 => {
            // Directory abuse: corrupt the section table in place.
            dir_abuse(case, rng);
            "dir-abuse"
        }
        7 => {
            // Deep flip + re-seal: mutate the body, fix the checksum, so
            // validation past the frame check is what gets exercised.
            let pos = rng.below(case.len().saturating_sub(8).max(1));
            case[pos] ^= 1 << rng.below(8);
            reseal(case);
            "flip-resealed"
        }
        8 => {
            // Tree abuse: one of the tree-row corruption classes, at a
            // random cell, re-sealed. No-op on inputs without tree rows.
            let class = TREE_CLASSES[rng.below(TREE_CLASSES.len())];
            let pick = rng.next_u64() as usize;
            if tree_abuse(case, class, pick) {
                reseal(case);
            }
            "tree-abuse"
        }
        _ => unreachable!("below(9)"),
    }
}

/// Loads a snapshot's routes the way a server would serve them: every
/// ordered pair's route, as a count of the pairs answered `None`. A clean
/// load of corrupted tree rows must end here with refusals, not a hang.
fn refused_routes(oracle: &DistOracle) -> usize {
    let n = oracle.n();
    let (mut edges, mut stack) = (Vec::new(), EmitStack::default());
    let mut refused = 0;
    if oracle.paths().is_some() {
        for u in 0..n {
            for v in 0..n {
                edges.clear();
                if oracle.dist(u, v).is_some()
                    && oracle.path_into(u, v, &mut edges, &mut stack).is_none()
                {
                    refused += 1;
                }
            }
        }
    }
    refused
}

// The CCRO tree-table layout the tree abuse classes corrupt (table 0;
// `DESIGN.md` §9.2): a meta section of (row count u64, hop count u64),
// then the parent words, the hop-table row starts and the hop endpoints.
const TREE_META: u16 = 4096;
const TREE_PARENTS: u16 = 4097;
const TREE_HOP_START: u16 = 4098;
const TREE_HOP_HI: u16 = 4099;
/// A parent word's root/unreached value and its emulator-hop flag.
const NO_PARENT: u32 = u32::MAX;
const HOP_FLAG: u32 = 1 << 31;

/// The tree-row corruption classes, each a named corpus case.
const TREE_CLASSES: [&str; 4] = [
    "tree_parent_oob",
    "tree_parent_cycle",
    "tree_hop_without_record",
    "tree_row_count",
];

/// The `(offset, length)` of section `id` in a top-level snapshot's
/// directory, if it has one.
fn section(case: &[u8], id: u16) -> Option<(usize, usize)> {
    let word = |at: usize| {
        case.get(at..at + 8)?
            .first_chunk::<8>()
            .map(|b| u64::from_le_bytes(*b))
    };
    let dir_off = usize::try_from(word(8)?).ok()?;
    let count = u32::from_le_bytes(*case.get(dir_off..dir_off + 4)?.first_chunk::<4>()?);
    (0..count as usize).find_map(|i| {
        let entry = dir_off + 8 + 24 * i;
        let got = u16::from_le_bytes(*case.get(entry..entry + 2)?.first_chunk::<2>()?);
        let off = usize::try_from(word(entry + 8)?).ok()?;
        let len = usize::try_from(word(entry + 16)?).ok()?;
        (got == id && off.checked_add(len)? <= case.len()).then_some((off, len))
    })
}

/// The little-endian `u32` at `at`.
fn read_u32(case: &[u8], at: usize) -> u32 {
    case.get(at..at + 4)
        .and_then(|s| s.first_chunk::<4>())
        .map_or(0, |b| u32::from_le_bytes(*b))
}

/// Applies tree corruption `class` to the first tree table of `case`, at
/// the cell `pick` selects; returns `false` (leaving `case` as it was) when
/// the case has no tree rows or no cell fits the class. The classes:
///
/// * `tree_parent_oob` — a parent word naming vertex `n`;
/// * `tree_parent_cycle` — a vertex made the parent of its own parent, so
///   the two form a cycle that a route through them must refuse;
/// * `tree_hop_without_record` — the emulator-hop flag on a hop the hop
///   table has no record for;
/// * `tree_row_count` — a row count one above the vertex count.
fn tree_abuse(case: &mut [u8], class: &str, pick: usize) -> bool {
    let (Some((meta, _)), Some((parents, len))) =
        (section(case, TREE_META), section(case, TREE_PARENTS))
    else {
        return false;
    };
    let rows = read_u32(case, meta) as usize;
    let cells = len / 4;
    if rows == 0 || rows * rows != cells {
        return false;
    }
    let n = rows;
    let word = |case: &[u8], cell: usize| read_u32(case, parents + 4 * cell);
    let put = |case: &mut [u8], cell: usize, w: u32| {
        case[parents + 4 * cell..parents + 4 * cell + 4].copy_from_slice(&w.to_le_bytes());
    };
    // Cells from `pick` on, wrapping, so every class finds a fit if any.
    let mut cells_from = (0..cells).map(|k| (pick + k) % cells);
    match class {
        "tree_parent_oob" => {
            let cell = pick % cells;
            put(case, cell, n as u32 | (word(case, cell) & HOP_FLAG));
            true
        }
        "tree_parent_cycle" => {
            let found = cells_from.find_map(|cell| {
                let (row, v) = (cell / n, cell % n);
                let p = (word(case, cell) & !HOP_FLAG) as usize;
                let up = word(case, row * n + p.min(n - 1));
                (word(case, cell) != NO_PARENT && p != row && up != NO_PARENT)
                    .then_some((row, v, p))
            });
            let Some((row, v, p)) = found else {
                return false;
            };
            put(case, row * n + p, v as u32);
            true
        }
        "tree_hop_without_record" => {
            let (Some((start, _)), Some((hi, _))) =
                (section(case, TREE_HOP_START), section(case, TREE_HOP_HI))
            else {
                return false;
            };
            let has_record = |case: &[u8], a: usize, b: usize| {
                let (lo, high) = (a.min(b), a.max(b) as u32);
                let (s, e) = (
                    read_u32(case, start + 4 * lo),
                    read_u32(case, start + 4 * lo + 4),
                );
                (s..e).any(|i| read_u32(case, hi + 4 * i as usize) == high)
            };
            let found = cells_from.find(|&cell| {
                let w = word(case, cell);
                let p = (w & !HOP_FLAG) as usize;
                w != NO_PARENT && w & HOP_FLAG == 0 && p < n && !has_record(case, p, cell % n)
            });
            let Some(cell) = found else {
                return false;
            };
            put(case, cell, word(case, cell) | HOP_FLAG);
            true
        }
        _ => {
            case[meta..meta + 8].copy_from_slice(&(rows as u64 + 1).to_le_bytes());
            true
        }
    }
}

/// Overwrites one field of the section directory with an abusive value
/// and re-seals. No-op on other-version or too-short inputs.
fn dir_abuse(case: &mut [u8], rng: &mut Xorshift) {
    if case.len() < 24 || case.get(4..6) != Some(&VERSION.to_le_bytes()) {
        return;
    }
    let Some(dir_bytes) = case.get(8..16).and_then(|s| s.first_chunk::<8>()) else {
        return;
    };
    let dir_off = u64::from_le_bytes(*dir_bytes) as usize;
    let Some(count_bytes) = case
        .get(dir_off..dir_off + 4)
        .and_then(|s| s.first_chunk::<4>())
    else {
        return;
    };
    let count = u32::from_le_bytes(*count_bytes) as usize;
    match rng.below(3) {
        0 => {
            let hostile = (rng.next_u64() as u32).to_le_bytes();
            case[dir_off..dir_off + 4].copy_from_slice(&hostile);
        }
        _ if count > 0 => {
            // Entries start after the 8-byte directory header (count +
            // reserved). Corrupt one entry's byte_off (at +8) or byte_len
            // (at +16) with a huge or misaligning value.
            let entry = dir_off + 8 + rng.below(count) * 24;
            let field = entry + 8 + rng.below(2) * 8;
            if case.len() >= field + 8 {
                let hostile = match rng.below(3) {
                    0 => u64::MAX,
                    1 => rng.next_u64(),
                    _ => {
                        u64::from_le_bytes(case[field..field + 8].try_into().unwrap_or([0; 8])) ^ 1
                    } // misalign by one byte
                };
                case[field..field + 8].copy_from_slice(&hostile.to_le_bytes());
            }
        }
        _ => {}
    }
    reseal(case);
}

/// Recomputes the trailing snapshot checksum over the mutated payload.
fn reseal(case: &mut [u8]) {
    if case.len() < 8 {
        return;
    }
    let split = case.len() - 8;
    let sum = checksum(&case[..split]);
    case[split..].copy_from_slice(&sum.to_le_bytes());
}

/// Validates a burst of length-prefixed `ccd` request frames exactly the
/// way the server's reader loop does: 4-byte LE length prefix (bounded by
/// [`MAX_FRAME`]), then a [`Request`] body, with `req_id`s unique within
/// the burst (the server answers by id; a collision makes two answers
/// indistinguishable). Returns the frame count, or the pinned diagnostic
/// the replay corpus asserts on.
///
/// # Errors
///
/// One of the five pinned diagnostic strings; `MANIFEST.tsv` freezes them.
pub fn check_frames(bytes: &[u8]) -> Result<usize, String> {
    let mut at = 0usize;
    let mut seen_ids = Vec::new();
    let mut frames = 0usize;
    while at < bytes.len() {
        let Some(prefix) = bytes.get(at..at + 4).and_then(|s| s.first_chunk::<4>()) else {
            return Err("truncated length prefix".to_string());
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err("oversized frame (length-prefix lie)".to_string());
        }
        at += 4;
        let Some(body) = bytes.get(at..at + len) else {
            return Err("length prefix overruns the burst (truncated frame)".to_string());
        };
        let Some(req) = Request::decode(body) else {
            return Err("malformed request body".to_string());
        };
        if seen_ids.contains(&req.req_id) {
            return Err("duplicate req_id within burst".to_string());
        }
        seen_ids.push(req.req_id);
        at += len;
        frames += 1;
    }
    Ok(frames)
}

/// A deterministic, valid three-request burst — the base the protocol
/// mutation strategies corrupt.
pub fn proto_base_burst() -> Vec<u8> {
    let mut burst = Vec::new();
    for (req_id, op, pairs) in [
        (1u64, Op::Ping, vec![]),
        (2, Op::Dist, vec![(0u32, 3u32), (1, 2)]),
        (3, Op::Path, vec![(4, 7)]),
    ] {
        let body = Request {
            req_id,
            op,
            deadline_ms: 0,
            pairs,
        }
        .encode();
        burst.extend_from_slice(&(body.len() as u32).to_le_bytes());
        burst.extend_from_slice(&body);
    }
    burst
}

/// Applies one protocol-frame mutation strategy in place; returns its name.
/// The classic framing attacks: lying length prefixes, truncated batches,
/// and request-id collisions, plus plain byte noise.
fn proto_mutate(burst: &mut Vec<u8>, rng: &mut Xorshift) -> &'static str {
    match rng.below(6) {
        0 => {
            // Length-prefix lie: claim more than MAX_FRAME.
            let lie = (MAX_FRAME as u32) + 1 + rng.next_u64() as u32 % 1024;
            burst[..4].copy_from_slice(&lie.to_le_bytes());
            "len-lie-oversized"
        }
        1 => {
            // Length-prefix lie: overrun the remaining bytes.
            let lie = (burst.len() as u32).saturating_add(1 + rng.next_u64() as u32 % 64);
            let lie = lie.min(MAX_FRAME as u32);
            burst[..4].copy_from_slice(&lie.to_le_bytes());
            "len-lie-overrun"
        }
        2 => {
            // Truncated batch: cut mid-frame (or mid-prefix).
            burst.truncate(rng.below(burst.len()));
            "truncate-burst"
        }
        3 => {
            // Id collision: copy frame 1's req_id over frame 2's. Bodies
            // start at +4 (prefix) and each request leads with its id.
            let first_len = u32::from_le_bytes(burst[..4].try_into().unwrap_or([0; 4])) as usize;
            let second_id_at = 4 + first_len + 4;
            if burst.len() >= second_id_at + 8 {
                let id: [u8; 8] = burst[4..12].try_into().unwrap_or([0; 8]);
                burst[second_id_at..second_id_at + 8].copy_from_slice(&id);
            }
            "id-collision"
        }
        4 => {
            // Body corruption after the prefix: op/flags/count bytes.
            let pos = 4 + rng.below(burst.len().saturating_sub(4).max(1));
            if pos < burst.len() {
                burst[pos] = rng.next_u64() as u8;
            }
            "body-set"
        }
        5 => {
            let pos = rng.below(burst.len());
            burst[pos] ^= 1 << rng.below(8);
            "bit-flip"
        }
        _ => unreachable!("below(6)"),
    }
}

/// The named deterministic protocol abuse cases, each paired with the
/// framing diagnostic it must produce.
fn proto_abuse_cases() -> Vec<(String, Vec<u8>)> {
    let base = proto_base_burst();
    let mut out = Vec::new();
    let mut push = |suffix: &str, bytes: Vec<u8>| out.push((format!("proto__{suffix}"), bytes));

    let mut oversized = base.clone();
    oversized[..4].copy_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
    push("len_lie_oversized", oversized);

    let mut overrun = base.clone();
    overrun[..4].copy_from_slice(&((base.len() as u32) * 2).to_le_bytes());
    push("len_lie_overrun", overrun);

    push("truncated_mid_frame", base[..base.len() - 3].to_vec());

    let mut cut_prefix = base.clone();
    cut_prefix.extend_from_slice(&[9, 0]); // two dangling prefix bytes
    push("truncated_prefix", cut_prefix);

    let first_len = u32::from_le_bytes(base[..4].try_into().unwrap_or([0; 4])) as usize;
    let mut dup = base.clone();
    let second_id_at = 4 + first_len + 4;
    let id: [u8; 8] = dup[4..12].try_into().unwrap_or([0; 8]);
    dup[second_id_at..second_id_at + 8].copy_from_slice(&id);
    push("duplicate_req_id", dup);

    let mut bad_op = base.clone();
    bad_op[4 + 8] = 0xee; // frame 1's op byte: no such operation
    push("malformed_body", bad_op);

    out
}

/// Buckets a [`check_frames`] diagnostic for the rejection histogram.
fn proto_error_kind(e: &str) -> &'static str {
    match e {
        "oversized frame (length-prefix lie)" => "proto-oversized",
        "length prefix overruns the burst (truncated frame)" => "proto-overrun",
        "truncated length prefix" => "proto-truncated-prefix",
        "malformed request body" => "proto-malformed",
        "duplicate req_id within burst" => "proto-dup-id",
        _ => "proto-other",
    }
}

fn error_kind(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic(_) => "bad-magic",
        SnapshotError::UnsupportedVersion(_) => "unsupported-version",
        SnapshotError::Corrupt(_) => "corrupt",
        SnapshotError::TooLarge { .. } => "too-large",
    }
}

/// Emits the frozen abuse corpus: one deterministic case per class and
/// per golden snapshot, each written as `<case>.snap` next to a
/// `MANIFEST.tsv` of `file<TAB>expected-error` lines.
///
/// Generation asserts the contract: a case that loads cleanly or panics
/// is a generator bug and aborts the emit.
pub fn emit_corpus(
    corpus: &[(String, Vec<u8>)],
    out_dir: &Path,
) -> io::Result<Vec<(String, String)>> {
    fs::create_dir_all(out_dir)?;
    let mut manifest = Vec::new();
    for (name, base) in corpus {
        let stem = name.trim_end_matches(".snap");
        for (case, bytes) in abuse_cases(stem, base) {
            let loaded = panic::catch_unwind(|| {
                DistOracle::from_snapshot_bytes(&bytes).map(|oracle| refused_routes(&oracle))
            });
            let err = match loaded {
                // A parent cycle passes every section check; its routes
                // must be refused instead.
                Ok(Ok(refused)) if refused > 0 => loaded_outcome(refused),
                Ok(Ok(_)) => {
                    return Err(io::Error::other(format!(
                        "generator bug: case {case} loaded cleanly"
                    )))
                }
                Ok(Err(e)) => e.to_string(),
                Err(_) => {
                    return Err(io::Error::other(format!(
                        "loader bug: case {case} panicked"
                    )))
                }
            };
            fs::write(out_dir.join(format!("{case}.snap")), &bytes)?;
            manifest.push((format!("{case}.snap"), err));
        }
    }
    // The ccd framing abuse cases ride in the same manifest, written as
    // `.bin` (wire bursts, not snapshots) and replayed through
    // `check_frames` instead of the loaders.
    for (case, bytes) in proto_abuse_cases() {
        let err = match panic::catch_unwind(|| check_frames(&bytes)) {
            Ok(Ok(n)) => {
                return Err(io::Error::other(format!(
                    "generator bug: case {case} parsed cleanly ({n} frames)"
                )))
            }
            Ok(Err(e)) => e,
            Err(_) => {
                return Err(io::Error::other(format!(
                    "framing bug: case {case} panicked"
                )))
            }
        };
        fs::write(out_dir.join(format!("{case}.bin")), &bytes)?;
        manifest.push((format!("{case}.bin"), err));
    }
    let tsv: String = manifest
        .iter()
        .map(|(f, e)| format!("{f}\t{e}\n"))
        .collect();
    fs::write(out_dir.join("MANIFEST.tsv"), tsv)?;
    Ok(manifest)
}

/// The pinned outcome of a corpus case that loads but refuses `refused`
/// routes.
pub fn loaded_outcome(refused: usize) -> String {
    format!("loads; {refused} routes refused")
}

/// Loads `bytes` and serves every route, as the corpus replay does: the
/// typed error, or [`loaded_outcome`] for a case whose load succeeds.
///
/// # Errors
///
/// The loader's [`SnapshotError`].
pub fn load_outcome(bytes: &[u8]) -> Result<String, SnapshotError> {
    DistOracle::from_snapshot_bytes(bytes).map(|oracle| loaded_outcome(refused_routes(&oracle)))
}

/// The named deterministic abuse cases derived from one golden snapshot.
fn abuse_cases(stem: &str, base: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut push = |suffix: &str, bytes: Vec<u8>| out.push((format!("{stem}__{suffix}"), bytes));

    push("truncated_header", base.get(..10).unwrap_or(base).to_vec());
    push(
        "truncated_body",
        base.get(..base.len() * 2 / 3).unwrap_or(base).to_vec(),
    );

    let mut bad_magic = base.to_vec();
    if bad_magic.len() >= 4 {
        bad_magic[..4].copy_from_slice(b"XXXX");
        reseal(&mut bad_magic);
    }
    push("bad_magic", bad_magic);

    let mut future = base.to_vec();
    if future.len() >= 6 {
        future[4..6].copy_from_slice(&0x7fffu16.to_le_bytes());
        reseal(&mut future);
    }
    push("future_version", future);

    let mut flipped = base.to_vec();
    if flipped.len() > 20 {
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        // deliberately NOT re-sealed: the checksum must catch it
    }
    push("checksum_flip", flipped);

    // Directory abuse: only a current-version base (not the v255 fixture)
    // has one.
    if base.get(4..6) == Some(&VERSION.to_le_bytes()) {
        let mut oob = base.to_vec();
        let hostile = (base.len() as u64) * 4;
        oob[8..16].copy_from_slice(&hostile.to_le_bytes());
        reseal(&mut oob);
        push("dir_off_oob", oob);

        if let Some(dir_off) = base
            .get(8..16)
            .and_then(|s| s.first_chunk::<8>())
            .map(|b| u64::from_le_bytes(*b) as usize)
        {
            if base.len() > dir_off + 4 {
                let mut huge = base.to_vec();
                huge[dir_off..dir_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                reseal(&mut huge);
                push("dir_count_huge", huge);

                // First entry sits after the 8-byte directory header; its
                // byte_off field is 8 bytes into the 24-byte row.
                let entry_off_field = dir_off + 8 + 8;
                if base.len() >= entry_off_field + 8 {
                    let mut skew = base.to_vec();
                    if let Some(cur) = skew
                        .get(entry_off_field..entry_off_field + 8)
                        .and_then(|s| s.first_chunk::<8>())
                        .map(|b| u64::from_le_bytes(*b))
                    {
                        skew[entry_off_field..entry_off_field + 8]
                            .copy_from_slice(&(cur + 1).to_le_bytes());
                        reseal(&mut skew);
                        push("misaligned_section", skew);
                    }
                }
            }
        }
    }
    // The first cell, in order, whose corruption the loader or the routes
    // refuse (a cycle off every witnessed chain refuses nothing).
    for class in TREE_CLASSES {
        let refused = (0..TREE_PICKS).find_map(|pick| {
            let mut tree = base.to_vec();
            if !tree_abuse(&mut tree, class, pick) {
                return None;
            }
            reseal(&mut tree);
            let outcome = panic::catch_unwind(|| load_outcome(&tree)).ok()?;
            (outcome.is_err() || outcome.ok() != Some(loaded_outcome(0))).then_some(tree)
        });
        if let Some(tree) = refused {
            push(class, tree);
        }
    }
    out
}

/// Cells a tree abuse case tries before giving up on its class.
const TREE_PICKS: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Vec<u8> {
        // A real snapshot via the public API keeps this test honest.
        let mut m = cc_core::DistanceMatrix::new(4);
        for u in 0..4 {
            for v in 0..4 {
                m.improve(u, v, u.abs_diff(v) as cc_graphs::Dist);
            }
        }
        let o = cc_core::DistOracle::from_matrix(
            &m,
            cc_core::Guarantee::mult3(0.25),
            cc_graphs::StorageKind::SymmetricPacked,
        );
        let mut buf = Vec::new();
        o.save_v2(&mut buf).expect("save_v2");
        buf
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let corpus = vec![("tiny.snap".to_string(), tiny_snapshot())];
        let a = run(&corpus, 200, 0xfeed, None);
        let b = run(&corpus, 200, 0xfeed, None);
        assert_eq!(a.clean_loads, b.clean_loads);
        assert_eq!(a.rejections, b.rejections);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
    }

    #[test]
    fn smoke_run_never_panics_the_loader() {
        let corpus = vec![("tiny.snap".to_string(), tiny_snapshot())];
        let s = run(&corpus, 500, 0x5eed, None);
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        // Mutations must actually be reaching the loader's rejection
        // paths, not all bouncing off one check.
        assert!(s.rejections.len() >= 2, "{:?}", s.rejections);
    }

    #[test]
    fn a_valid_burst_parses_to_its_frame_count() {
        assert_eq!(check_frames(&proto_base_burst()), Ok(3));
        assert_eq!(check_frames(&[]), Ok(0));
    }

    #[test]
    fn proto_abuse_cases_all_reject_with_pinned_diagnostics() {
        let cases = proto_abuse_cases();
        assert_eq!(cases.len(), 6);
        for (name, bytes) in cases {
            let r = std::panic::catch_unwind(|| check_frames(&bytes));
            match r {
                Ok(Err(e)) => assert_ne!(
                    proto_error_kind(&e),
                    "proto-other",
                    "{name}: unpinned diagnostic {e:?}"
                ),
                Ok(Ok(n)) => panic!("{name} parsed cleanly ({n} frames)"),
                Err(_) => panic!("{name} panicked the framing validator"),
            }
        }
    }

    #[test]
    fn proto_mutations_never_panic_the_framing_validator() {
        let mut rng = Xorshift::new(0xccd);
        for _ in 0..2000 {
            let mut burst = proto_base_burst();
            let strategy = proto_mutate(&mut burst, &mut rng);
            let r = std::panic::catch_unwind(|| check_frames(&burst));
            assert!(r.is_ok(), "strategy {strategy} panicked check_frames");
        }
    }

    /// Every tree-row class has a case on the CCRO golden, refused with a
    /// typed error, or — the parent cycle, which passes the section
    /// checks — loaded with some routes refused.
    #[test]
    fn tree_abuse_classes_are_refused() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/paths_v4.snap");
        let base = fs::read(golden).expect("the CCRO golden");
        let cases = abuse_cases("paths", &base);
        for class in TREE_CLASSES {
            let (_, bytes) = cases
                .iter()
                .find(|(name, _)| name.ends_with(class))
                .unwrap_or_else(|| panic!("no {class} case"));
            match panic::catch_unwind(|| load_outcome(bytes)) {
                Ok(Err(SnapshotError::Corrupt(_))) => assert_ne!(class, "tree_parent_cycle"),
                Ok(Ok(outcome)) => {
                    assert_eq!(class, "tree_parent_cycle", "{class} loaded");
                    assert_ne!(outcome, loaded_outcome(0), "{class}: no route refused");
                }
                other => panic!("{class}: {other:?}"),
            }
        }
    }

    #[test]
    fn abuse_cases_all_reject_with_typed_errors() {
        let base = tiny_snapshot();
        for (name, bytes) in abuse_cases("tiny", &base) {
            let r = std::panic::catch_unwind(|| DistOracle::from_snapshot_bytes(&bytes));
            match r {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!("{name} loaded cleanly"),
                Err(_) => panic!("{name} panicked the loader"),
            }
        }
    }
}
