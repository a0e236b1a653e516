//! T14 — frozen-oracle query throughput: threads × storage layout × batch
//! size over one `Arc<DistOracle>`.
//!
//! Freezes exact APSP distances of a 32×32 grid (`n = 1024`) into both
//! storage layouts (symmetric-packed triangle and a row-sparse `√n`-source
//! MSSP shape), then hammers each oracle with pre-generated
//! point/batch queries from 1–8 threads sharing the oracle behind an `Arc`.
//! Emits one JSON document on stdout (human-readable table on stderr) with:
//!
//! * queries/second per `(layout, threads, batch)` cell,
//! * payload bytes per layout (the symmetric-packed / square `4·n²` ratio
//!   is the memory claim: ~50% at `n = 1024`),
//! * the 8-thread/1-thread speedup for batched queries per layout
//!   (**hardware-dependent**: the oracle is lock-free, so on a machine with
//!   `≥ 8` cores this approaches the core count; on a single-core container
//!   it stays near 1),
//! * a snapshot round-trip check: both layouts are saved, re-loaded, and
//!   must compare bit-identical (including a byte-identical re-save).
//!
//! Per-thread answer checksums are compared against a serial replay of the
//! same query stream, so any cross-thread divergence fails the run.
//!
//! Run with: `cargo run --release --bin t14_oracle_qps -- [--threads T] [--queries Q] [--quick]`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use cc_bench::rng;
use cc_core::{DistOracle, DistanceMatrix, Guarantee};
use cc_graphs::{bfs, generators, DistStorage, StorageKind};
use rand::Rng;

/// Grid side: `n = SIDE²` vertices.
const SIDE: usize = 32;

/// Row-sparse source count (`√n`).
const N_SOURCES: usize = 32;

struct Workload {
    label: &'static str,
    oracle: Arc<DistOracle>,
    pairs: Vec<(usize, usize)>,
}

/// Folds one answer stream into a checksum (order-independent sum, so the
/// thread partition does not affect it, plus a presence count).
#[inline]
fn fold(acc: (u64, u64), answer: Option<cc_core::PointEstimate>) -> (u64, u64) {
    match answer {
        Some(est) => (acc.0 + est.dist as u64, acc.1 + 1),
        None => acc,
    }
}

/// Runs `pairs` through `oracle` in `batch`-sized `dist_batch` calls on
/// `threads` worker threads (contiguous partition). Returns (wall seconds,
/// checksum).
fn run_threads(
    oracle: &Arc<DistOracle>,
    pairs: &[(usize, usize)],
    threads: usize,
    batch: usize,
) -> (f64, (u64, u64)) {
    let chunk = pairs.len().div_ceil(threads);
    let start = Instant::now();
    let partials: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                let oracle = Arc::clone(oracle);
                scope.spawn(move || {
                    let mut acc = (0u64, 0u64);
                    for window in part.chunks(batch) {
                        for answer in oracle.dist_batch(window) {
                            acc = fold(acc, answer);
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let checksum = partials
        .into_iter()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (wall, checksum)
}

/// Serial replay with plain `dist` calls — the reference answer stream.
fn serial_replay(oracle: &DistOracle, pairs: &[(usize, usize)]) -> (u64, u64) {
    pairs
        .iter()
        .fold((0, 0), |acc, &(u, v)| fold(acc, oracle.dist(u, v)))
}

fn snapshot_roundtrip(oracle: &DistOracle) -> bool {
    let mut buf = Vec::new();
    oracle.save_v2(&mut buf).expect("save to memory");
    let back = match DistOracle::load(&mut &buf[..]) {
        Ok(o) => o,
        Err(_) => return false,
    };
    let mut again = Vec::new();
    back.save_v2(&mut again).expect("re-save to memory");
    back == *oracle && buf == again
}

struct Row {
    layout: &'static str,
    threads: usize,
    batch: usize,
    queries: usize,
    wall_ms: f64,
    qps: f64,
}

fn main() {
    let mut max_threads = 8usize;
    let mut queries = 2_000_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                max_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
            }
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries N");
            }
            "--quick" => queries = 400_000,
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(max_threads >= 1, "--threads must be at least 1");

    // ── Freeze the workloads. ─────────────────────────────────────────────
    let g = generators::grid(SIDE, SIDE);
    let n = g.n();
    let exact = bfs::apsp_exact(&g);
    let mut matrix = DistanceMatrix::new(n);
    matrix.merge_rows(&exact);

    let sym = Arc::new(DistOracle::from_matrix(
        &matrix,
        Guarantee::mult2(0.5),
        StorageKind::SymmetricPacked,
    ));
    // MSSP shape: √n evenly spread sources, rows of exact distances.
    let sources: Vec<u32> = (0..N_SOURCES).map(|i| (i * n / N_SOURCES) as u32).collect();
    let mut rows = Vec::with_capacity(sources.len() * n);
    for &s in &sources {
        rows.extend_from_slice(&exact[s as usize]);
    }
    let sparse = Arc::new(DistOracle::from_storage(
        DistStorage::row_sparse(n, sources.clone(), rows),
        Guarantee::mssp(0.5),
    ));

    // ── Query streams (generated outside the timed region). ──────────────
    let mut r = rng(14);
    let square_pairs: Vec<(usize, usize)> = (0..queries)
        .map(|_| (r.gen_range(0..n), r.gen_range(0..n)))
        .collect();
    // Row-sparse serving traffic is source-anchored; mix both orientations.
    let sparse_pairs: Vec<(usize, usize)> = (0..queries)
        .map(|_| {
            let s = sources[r.gen_range(0..sources.len())] as usize;
            let v = r.gen_range(0..n);
            if r.gen_range(0..2) == 0 {
                (s, v)
            } else {
                (v, s)
            }
        })
        .collect();

    let workloads = [
        Workload {
            label: "symmetric",
            oracle: Arc::clone(&sym),
            pairs: square_pairs,
        },
        Workload {
            label: "rowsparse",
            oracle: Arc::clone(&sparse),
            pairs: sparse_pairs,
        },
    ];

    // ── Snapshot round-trips. ─────────────────────────────────────────────
    let roundtrip_ok = workloads.iter().all(|w| snapshot_roundtrip(&w.oracle));
    assert!(roundtrip_ok, "snapshot round-trip must be bit-identical");

    // ── Sweep. ────────────────────────────────────────────────────────────
    let mut thread_counts = vec![1usize];
    while let Some(&last) = thread_counts.last() {
        if last * 2 > max_threads {
            break;
        }
        thread_counts.push(last * 2);
    }
    let batches = [1usize, 16, 256];
    let max_batch = *batches.last().expect("non-empty");
    let mut rows: Vec<Row> = Vec::new();
    let mut speedups: Vec<(&'static str, f64)> = Vec::new();

    for w in &workloads {
        let reference = serial_replay(&w.oracle, &w.pairs);
        let mut single_qps_batched = None;
        let mut max_qps_batched = None;
        for &threads in &thread_counts {
            for &batch in &batches {
                let (wall, checksum) = run_threads(&w.oracle, &w.pairs, threads, batch);
                assert_eq!(
                    checksum, reference,
                    "{}: threads={threads} batch={batch} diverged from serial replay",
                    w.label
                );
                let qps = w.pairs.len() as f64 / wall;
                if batch == max_batch {
                    if threads == 1 {
                        single_qps_batched = Some(qps);
                    }
                    if threads == *thread_counts.last().expect("non-empty") {
                        max_qps_batched = Some(qps);
                    }
                }
                rows.push(Row {
                    layout: w.label,
                    threads,
                    batch,
                    queries: w.pairs.len(),
                    wall_ms: wall * 1e3,
                    qps,
                });
            }
        }
        if let (Some(single), Some(max)) = (single_qps_batched, max_qps_batched) {
            speedups.push((w.label, max / single));
        }
    }

    // ── Whole-row reads (`dists_from`). ───────────────────────────────────
    //
    // The symmetric-packed layout materializes a row with a strided walk
    // over the triangle plus one contiguous copy — this measures that fast
    // path and cross-checks it against the exact BFS rows it was frozen
    // from.
    let row_reps = if queries <= 400_000 { 20 } else { 100 };
    for u in (0..n).step_by(n / 16) {
        assert_eq!(
            &sym.dists_from(u)[..],
            &exact[u][..],
            "symmetric: dists_from({u}) diverged from BFS"
        );
    }
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..row_reps {
        for u in 0..n {
            let row = sym.dists_from(u);
            sink = sink.wrapping_add(row[u % n] as u64);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let row_rate = (row_reps * n) as f64 / wall;

    // ── Report. ───────────────────────────────────────────────────────────
    let max_threads_swept = *thread_counts.last().expect("non-empty");
    let bytes_square = n * n * std::mem::size_of::<cc_graphs::Dist>();
    let bytes_sym = sym.storage_bytes();
    let bytes_sparse = sparse.storage_bytes();
    let ratio = bytes_sym as f64 / bytes_square as f64;

    eprintln!(
        "{:>10}  {:>7}  {:>5}  {:>9}  {:>9}  {:>12}",
        "layout", "threads", "batch", "queries", "wall_ms", "qps"
    );
    for row in &rows {
        eprintln!(
            "{:>10}  {:>7}  {:>5}  {:>9}  {:>9.2}  {:>12.0}",
            row.layout, row.threads, row.batch, row.queries, row.wall_ms, row.qps
        );
    }
    eprintln!(
        "bytes: symmetric={bytes_sym} ({:.1}% of a {bytes_square}-byte square) rowsparse={bytes_sparse}",
        ratio * 100.0
    );
    for (label, s) in &speedups {
        eprintln!("{label}: {max_threads_swept}-thread batched speedup over 1 thread = {s:.2}x");
    }
    eprintln!("symmetric: dists_from = {row_rate:.0} rows/sec");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"t14_oracle_qps\",\n");
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!("  \"max_threads\": {max_threads_swept},\n"));
    json.push_str(&format!(
        "  \"bytes\": {{\"symmetric\": {bytes_sym}, \"rowsparse\": {bytes_sparse}}},\n"
    ));
    json.push_str(&format!(
        "  \"symmetric_vs_full_bytes_ratio\": {ratio:.4},\n"
    ));
    json.push_str(&format!("  \"snapshot_roundtrip_ok\": {roundtrip_ok},\n"));
    json.push_str(&format!(
        "  \"speedup_batched_max_threads\": {{{}}},\n",
        speedups
            .iter()
            .map(|(label, s)| format!("\"{label}\": {s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"dists_from_rows_per_sec\": {{\"symmetric\": {row_rate:.0}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"layout\": \"{}\", \"threads\": {}, \"batch\": {}, \"queries\": {}, \"wall_ms\": {:.3}, \"qps\": {:.0}}}{}\n",
            row.layout,
            row.threads,
            row.batch,
            row.queries,
            row.wall_ms,
            row.qps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    println!("{json}");
}
