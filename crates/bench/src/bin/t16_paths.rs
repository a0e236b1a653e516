//! T16 — route serving: witness-kernel overhead and `PathOracle` query
//! throughput.
//!
//! Two measurement families, one JSON document on stdout (human-readable
//! table on stderr):
//!
//! 1. **Witness-kernel overhead** — the sparse CSR and blocked dense
//!    min-plus kernels with and without witness tracking, at `n = 1024`
//!    (gnp, ρ ≈ 32). The witness outputs are cross-checked to be
//!    bit-identical in values to the distance-only kernels, threaded runs
//!    must be bit-identical (values *and* witnesses) to serial, and the
//!    per-kernel overhead factor is reported (kernel claim: ≤ 2×).
//! 2. **Path qps** — a `record_paths` session solves near-additive APSP on
//!    an `n = 1024` grid, freezes a [`PathOracle`], and serves point and
//!    batched route queries from 1..T threads over one `Arc`. Sampled
//!    routes are verified edge-by-edge against the input graph and a
//!    Dijkstra tree; the snapshot round-trip is exercised; the recording
//!    overhead (solve wall time with vs without witnesses) is reported.
//!
//! Run with: `cargo run --release --bin t16_paths -- [--threads T] [--reps R] [--quick]`

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use cc_bench::rng;
use cc_core::{Execution, PathOracle, SolverBuilder};
use cc_graphs::{dijkstra, generators, Dist, Graph, WeightedGraph};
use cc_matrix::{DenseMatrix, MinplusWorkspace, SparseMatrix};
use rand::Rng;

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

fn gnp_with_density(n: usize, target_rho: usize, seed: u64) -> Graph {
    let p = (target_rho.saturating_sub(1) as f64 / (n - 1) as f64).min(1.0);
    generators::gnp(n, p, &mut rng(seed))
}

/// Verifies a sampled set of routes end-to-end against the graph and exact
/// Dijkstra trees. Panics (failing the bench) on any violation.
fn verify_routes(g: &Graph, oracle: &PathOracle, samples: usize, seed: u64) {
    let wg = WeightedGraph::from_unweighted(g);
    let mut r = rng(seed);
    for _ in 0..samples {
        let u = r.gen_range(0..g.n());
        let tree = dijkstra::sssp_tree(&wg, u);
        let v = r.gen_range(0..g.n());
        let est = oracle.dist(u, v);
        let route = oracle.path(u, v);
        assert_eq!(est.is_some(), route.is_some(), "coverage at ({u},{v})");
        let (Some(route), Some(est)) = (route, est) else {
            continue;
        };
        if u == v {
            assert_eq!(route.weight, 0);
            continue;
        }
        assert_eq!(route.edges[0].0 as usize, u);
        assert_eq!(route.edges[route.edges.len() - 1].1 as usize, v);
        for w in route.edges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "edges must chain at ({u},{v})");
        }
        for &(x, y) in &route.edges {
            assert!(g.has_edge(x as usize, y as usize), "({x},{y}) not in G");
        }
        assert_eq!(route.weight, route.edges.len() as Dist);
        assert!(route.weight >= tree.dist(v), "undercut at ({u},{v})");
        assert!(
            route.weight <= est.dist,
            "heavier than estimate at ({u},{v})"
        );
        assert!(
            (route.weight as f64) <= est.guarantee.bound(tree.dist(v)) + 1e-9,
            "guarantee violated at ({u},{v})"
        );
    }
}

fn main() {
    let mut max_threads = 4usize;
    let mut reps = 5usize;
    let mut quick = false;
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
            "--quick" => {
                reps = 2;
                quick = true;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(max_threads >= 1, "--threads must be at least 1");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let kernel_n = 1024usize;

    // ── 1. Witness-kernel overhead (sparse + dense, n = 1024). ────────────
    let g = gnp_with_density(kernel_n, 32, 7);
    let a = SparseMatrix::adjacency(&g);
    let mut ws = MinplusWorkspace::new();
    let _ = a.minplus_with(&a, &mut ws); // warm scratch
    let (plain_secs, plain_out) = best_secs(reps, || a.minplus_with(&a, &mut ws));
    let (wit_secs, wit_out) = best_secs(reps, || a.minplus_with_witness(&a, &mut ws));
    assert_eq!(
        wit_out.0, plain_out,
        "sparse witness kernel changed the values"
    );
    assert_eq!(wit_out.1.len(), plain_out.nnz(), "one witness per entry");
    // Threaded witness products must be bit-identical to serial.
    for threads in [2usize, max_threads.max(2)] {
        let mut tws = MinplusWorkspace::with_threads(threads);
        assert_eq!(
            a.minplus_with_witness(&a, &mut tws),
            wit_out,
            "sparse witness product not bit-identical at {threads} threads"
        );
    }
    let sparse_overhead = wit_secs / plain_secs;

    // The dense kernel is measured on its home regime — a repeated-squaring
    // step (the square of the adjacency power, mostly-finite entries). On
    // ρ ≈ 32 inputs the CSR kernel is the right tool (t15: 3–6× faster), so
    // sparse inputs are the sparse kernel's cell above.
    let adj = DenseMatrix::adjacency(&g);
    let d = adj.minplus(&adj);
    let dws = MinplusWorkspace::new();
    let (dplain_secs, dplain_out) = best_secs(reps, || d.minplus_with(&d, &dws));
    let (dwit_secs, dwit_out) = best_secs(reps, || d.minplus_with_witness(&d, &dws));
    assert_eq!(
        dwit_out.0, dplain_out,
        "dense witness kernel changed the values"
    );
    for threads in [2usize, max_threads.max(2)] {
        let tws = MinplusWorkspace::with_threads(threads);
        assert_eq!(
            d.minplus_with_witness(&d, &tws),
            dwit_out,
            "dense witness product not bit-identical at {threads} threads"
        );
    }
    let dense_overhead = dwit_secs / dplain_secs;

    // ── 2. Path oracle build + qps (grid, record_paths session). ──────────
    let side = if quick { 16 } else { 32 };
    let gg = generators::grid(side, side);
    let n = gg.n();
    let solve = |record: bool| {
        let mut solver = SolverBuilder::new(gg.clone())
            .eps(0.5)
            .execution(Execution::Seeded(11))
            .threads(max_threads)
            .record_paths(record)
            .build()
            .expect("valid configuration");
        solver.apsp_near_additive().expect("additive apsp");
        solver
    };
    let start = Instant::now();
    let plain_solver = solve(false);
    let solve_plain_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let solver = solve(true);
    let solve_record_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        plain_solver.total_rounds(),
        solver.total_rounds(),
        "recording changed the charged rounds"
    );
    let start = Instant::now();
    let oracle = Arc::new(solver.freeze_with_paths().expect("paths recorded"));
    let freeze_secs = start.elapsed().as_secs_f64();
    verify_routes(&gg, &oracle, if quick { 100 } else { 400 }, 23);

    // Snapshot round trip.
    let mut snap = Vec::new();
    oracle.save_v2(&mut snap).expect("save snapshot");
    let back = PathOracle::load(&mut &snap[..]).expect("load snapshot");
    assert_eq!(back, *oracle, "snapshot round trip diverged");

    // Query streams (reproducible per thread).
    let make_queries = |t: u64, count: usize| -> Vec<(usize, usize)> {
        let mut r = rng(0x716 ^ t);
        (0..count)
            .map(|_| (r.gen_range(0..n), r.gen_range(0..n)))
            .collect()
    };
    let point_queries = if quick { 20_000 } else { 100_000 };
    let queries = make_queries(0, point_queries);
    let (point_secs, hits) = best_secs(reps, || {
        let mut hits = 0usize;
        for &(u, v) in &queries {
            if let Some(route) = oracle.path(u, v) {
                hits += route.edges.len();
            }
        }
        hits
    });
    let point_qps = point_queries as f64 / point_secs;
    let (batch_secs, _) = best_secs(reps, || oracle.path_batch(&queries));
    let batch_qps = point_queries as f64 / batch_secs;

    let mut thread_counts = vec![1usize];
    while let Some(&last) = thread_counts.last() {
        if last * 2 > max_threads {
            break;
        }
        thread_counts.push(last * 2);
    }
    let mut thread_qps: Vec<(usize, f64)> = Vec::new();
    for &threads in &thread_counts {
        let streams: Vec<Vec<(usize, usize)>> = (0..threads)
            .map(|t| make_queries(t as u64 + 1, point_queries / threads))
            .collect();
        let (secs, _) = best_secs(reps, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .iter()
                    .map(|qs| {
                        let oracle = Arc::clone(&oracle);
                        scope.spawn(move || {
                            qs.iter()
                                .filter_map(|&(u, v)| oracle.path(u, v))
                                .map(|r| r.edges.len())
                                .sum::<usize>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum::<usize>()
            })
        });
        let total = (point_queries / threads * threads) as f64;
        thread_qps.push((threads, total / secs));
    }

    // ── Report. ───────────────────────────────────────────────────────────
    eprintln!(
        "witness-kernel overhead (n = {kernel_n}, rho = {}):",
        a.density()
    );
    eprintln!(
        "  sparse: plain {:.2} ms, witness {:.2} ms → {sparse_overhead:.2}x",
        plain_secs * 1e3,
        wit_secs * 1e3
    );
    eprintln!(
        "  dense:  plain {:.2} ms, witness {:.2} ms → {dense_overhead:.2}x",
        dplain_secs * 1e3,
        dwit_secs * 1e3
    );
    eprintln!("path oracle (grid n = {n}):");
    eprintln!("  solve: {solve_plain_secs:.2}s plain, {solve_record_secs:.2}s recording; freeze {freeze_secs:.3}s");
    eprintln!(
        "  witness bytes: {}, snapshot bytes: {}",
        oracle.witness_bytes(),
        snap.len()
    );
    eprintln!("  point {point_qps:.0} qps, batch {batch_qps:.0} qps (sample edge mass {hits})");
    for &(t, qps) in &thread_qps {
        eprintln!("  {t} threads: {qps:.0} qps (cores available: {cores})");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"t16_paths\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"cross_checks_ok\": true,\n");
    json.push_str(&format!("  \"kernel_n\": {kernel_n},\n"));
    json.push_str(&format!(
        "  \"witness_overhead\": {{\"sparse\": {sparse_overhead:.3}, \"dense\": {dense_overhead:.3}}},\n"
    ));
    json.push_str(&format!("  \"oracle_n\": {n},\n"));
    json.push_str(&format!(
        "  \"solve_secs\": {{\"plain\": {solve_plain_secs:.4}, \"recording\": {solve_record_secs:.4}, \"freeze\": {freeze_secs:.4}}},\n"
    ));
    json.push_str(&format!(
        "  \"witness_bytes\": {},\n",
        oracle.witness_bytes()
    ));
    json.push_str(&format!("  \"snapshot_bytes\": {},\n", snap.len()));
    json.push_str(&format!("  \"path_qps_point\": {point_qps:.0},\n"));
    json.push_str(&format!("  \"path_qps_batch\": {batch_qps:.0},\n"));
    json.push_str(&format!(
        "  \"path_qps_by_threads\": {{{}}}\n",
        thread_qps
            .iter()
            .map(|(t, q)| format!("\"t{t}\": {q:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push('}');
    println!("{json}");
}
