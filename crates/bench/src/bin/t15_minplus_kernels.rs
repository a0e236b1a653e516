//! T15 — min-plus kernel throughput: CSR sparse and blocked dense, serial
//! vs row-sharded parallel.
//!
//! Sweeps `kernel × n × density × threads` over gnp adjacency matrices and
//! their squares, measuring semiring operations per second (one operation =
//! one `min(acc, a + b)` accumulation; the operation count is a property of
//! the inputs, so every kernel on a cell does identical work). Emits one
//! JSON document on stdout (human-readable table on stderr) with:
//!
//! * ops/sec per `(kernel, n, ρ, threads)` cell,
//! * the parallel-vs-serial speedup per dense cell (**hardware-dependent**:
//!   row shards are independent, so on a machine with ≥ 4 cores 4 threads
//!   approach 4×; on a single-core container it stays near 1 — the
//!   bit-identical cross-checks still validate the sharding either way),
//! * cross-checks: the serial CSR product is compared entry-for-entry
//!   against the blocked dense product of the same graph (and the dense
//!   product against the CSR one), and every threaded product must be
//!   **bit-identical** (values and nnz) to its serial run. Any divergence
//!   fails the run.
//!
//! Run with: `cargo run --release --bin t15_minplus_kernels -- [--threads T] [--reps R] [--quick]`

#![forbid(unsafe_code)]

use std::time::Instant;

use cc_bench::rng;
use cc_graphs::{generators, Graph};
use cc_matrix::{DenseMatrix, MinplusWorkspace, SparseMatrix};

/// Panics unless the two products agree entry-for-entry.
fn assert_same_product(sparse: &SparseMatrix, dense: &DenseMatrix, cell: &str) {
    let n = sparse.n();
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                sparse.get(u, v),
                dense.get(u, v),
                "CSR and dense kernels diverged at ({u},{v}), {cell}"
            );
        }
    }
}

/// Semiring operations of `a · b`: one per `(i, k, j)` with `(i,k)` finite
/// in `a` and `(k,j)` finite in `b` — identical for every sparse kernel.
fn sparse_ops(a: &SparseMatrix, b: &SparseMatrix) -> u64 {
    (0..a.n())
        .map(|i| {
            a.row(i)
                .iter()
                .map(|&(k, _)| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Semiring operations of the dense kernels: finite `(i,k)` cells × row
/// length (the skip-∞ prefilter makes all-∞ `k` cells free in both kernels).
fn dense_ops(a: &DenseMatrix) -> u64 {
    a.finite_entries() as u64 * a.n() as u64
}

/// Best-of-`reps` wall time of `run`, seconds.
fn best_secs<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

struct Row {
    kernel: &'static str,
    n: usize,
    rho: u64,
    threads: usize,
    ops: u64,
    wall_ms: f64,
    ops_per_sec: f64,
}

fn gnp_with_density(n: usize, target_rho: usize, seed: u64) -> Graph {
    // Adjacency rows carry the diagonal plus the degree, so aim the expected
    // degree at ρ − 1.
    let p = (target_rho.saturating_sub(1) as f64 / (n - 1) as f64).min(1.0);
    generators::gnp(n, p, &mut rng(seed))
}

fn main() {
    let mut max_threads = 4usize;
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                max_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
            }
            "--reps" => {
                reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N");
            }
            "--quick" => reps = 2,
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(max_threads >= 1, "--threads must be at least 1");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut thread_counts = vec![1usize];
    while let Some(&last) = thread_counts.last() {
        if last * 2 > max_threads {
            break;
        }
        thread_counts.push(last * 2);
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut dense_speedups: Vec<(usize, f64)> = Vec::new(); // (n, max-threads/serial)

    // ── Sparse: CSR per (n, ρ), threads sweep. ──────────────────────────
    for &n in &[256usize, 1024] {
        for &target_rho in &[8usize, 32] {
            let g = gnp_with_density(n, target_rho, (n + target_rho) as u64);
            let a = SparseMatrix::adjacency(&g);
            let rho = a.density();
            let ops = sparse_ops(&a, &a);
            let dense = DenseMatrix::adjacency(&g);
            let dense_out = dense.minplus(&dense);

            let mut serial_out = None;
            for &threads in &thread_counts {
                let mut ws = MinplusWorkspace::with_threads(threads);
                // Warm the workspace so steady-state (allocation-free)
                // products are what the timer sees.
                let _ = a.minplus_with(&a, &mut ws);
                let (secs, out) = best_secs(reps, || a.minplus_with(&a, &mut ws));
                if threads == 1 {
                    assert_same_product(&out, &dense_out, &format!("sparse n={n} rho={rho}"));
                    serial_out = Some(out.clone());
                } else {
                    let serial = serial_out.as_ref().expect("serial ran first");
                    assert_eq!(
                        &out, serial,
                        "threaded sparse product not bit-identical at n={n} rho={rho} threads={threads}"
                    );
                    assert_eq!(out.nnz(), serial.nnz());
                }
                rows.push(Row {
                    kernel: "sparse-csr",
                    n,
                    rho,
                    threads,
                    ops,
                    wall_ms: secs * 1e3,
                    ops_per_sec: ops as f64 / secs,
                });
            }
        }
    }

    // ── Dense: blocked kernel, threads sweep. ────────────────────────────
    for &n in &[256usize, 1024] {
        let g = gnp_with_density(n, 32, n as u64);
        let a = DenseMatrix::adjacency(&g);
        let rho = (a.finite_entries() as u64).div_ceil(n as u64);
        let ops = dense_ops(&a);
        let sparse = SparseMatrix::adjacency(&g);
        let sparse_out = sparse.minplus(&sparse);

        let mut serial_out = None;
        let mut serial_secs = 0.0;
        let mut max_threads_secs = 0.0;
        for &threads in &thread_counts {
            let ws = MinplusWorkspace::with_threads(threads);
            let (secs, out) = best_secs(reps, || a.minplus_with(&a, &ws));
            if threads == 1 {
                assert_same_product(&sparse_out, &out, &format!("dense n={n}"));
                serial_secs = secs;
                serial_out = Some(out);
            } else {
                assert_eq!(
                    Some(&out),
                    serial_out.as_ref(),
                    "threaded dense product not bit-identical at n={n} threads={threads}"
                );
            }
            if threads == *thread_counts.last().expect("non-empty") {
                max_threads_secs = secs;
            }
            rows.push(Row {
                kernel: "dense-blocked",
                n,
                rho,
                threads,
                ops,
                wall_ms: secs * 1e3,
                ops_per_sec: ops as f64 / secs,
            });
        }
        dense_speedups.push((n, serial_secs / max_threads_secs));
    }

    // ── Report. ───────────────────────────────────────────────────────────
    let max_threads_swept = *thread_counts.last().expect("non-empty");
    eprintln!(
        "{:>14}  {:>5}  {:>4}  {:>7}  {:>12}  {:>10}  {:>14}",
        "kernel", "n", "rho", "threads", "ops", "wall_ms", "ops/sec"
    );
    for row in &rows {
        eprintln!(
            "{:>14}  {:>5}  {:>4}  {:>7}  {:>12}  {:>10.2}  {:>14.0}",
            row.kernel, row.n, row.rho, row.threads, row.ops, row.wall_ms, row.ops_per_sec
        );
    }
    for &(n, s) in &dense_speedups {
        eprintln!("dense n={n}: {max_threads_swept} threads vs serial = {s:.2}x (cores available: {cores})");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"t15_minplus_kernels\",\n");
    json.push_str(&format!("  \"max_threads\": {max_threads_swept},\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"cross_checks_ok\": true,\n");
    json.push_str(&format!(
        "  \"dense_parallel_vs_serial_speedup\": {{{}}},\n",
        dense_speedups
            .iter()
            .map(|(n, s)| format!("\"n{n}\": {s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"rho\": {}, \"threads\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \"ops_per_sec\": {:.0}}}{}\n",
            row.kernel,
            row.n,
            row.rho,
            row.threads,
            row.ops,
            row.wall_ms,
            row.ops_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    println!("{json}");
}
