#![allow(clippy::needless_range_loop)]
//! End-to-end MSSP integration tests (Thm 3/33 and Thm 52).

use congested_clique::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A paper-profile session (`r = 2`) over `g`.
fn session(g: &Graph, eps: f64, execution: Execution) -> Solver {
    SolverBuilder::new(g.clone())
        .eps(eps)
        .profile(ParamProfile::Paper { levels: 2 })
        .execution(execution)
        .build()
        .expect("valid")
}

fn check_short_range(g: &Graph, out: &congested_clique::core::mssp::Mssp, eps: f64, label: &str) {
    for (i, &s) in out.sources.iter().enumerate() {
        let exact = bfs::sssp(g, s);
        for v in 0..g.n() {
            if exact[v] == 0 || exact[v] >= INF || exact[v] > out.t {
                continue;
            }
            let est = out.dist(i, v);
            assert!(est >= exact[v], "{label}: undercut ({s},{v})");
            assert!(
                (est as f64) <= (1.0 + eps) * exact[v] as f64 + 1e-9,
                "{label}: ({s},{v}) est {est} d {}",
                exact[v]
            );
        }
    }
}

#[test]
fn mssp_one_plus_eps_across_families_and_source_patterns() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graphs = vec![
        ("grid", generators::grid(8, 8)),
        ("caveman", generators::caveman(8, 8)),
        ("gnp", generators::connected_gnp(72, 0.05, &mut rng)),
    ];
    for (name, g) in graphs {
        let n = g.n();
        // Three source patterns: spread, clustered, single.
        let patterns: Vec<Vec<usize>> =
            vec![(0..n).step_by(9).collect(), (0..6).collect(), vec![n / 2]];
        for (pi, sources) in patterns.iter().enumerate() {
            let out = session(&g, 0.5, Execution::Seeded(3))
                .mssp(sources)
                .unwrap_or_else(|e| panic!("{name}/{pi}: {e}"));
            check_short_range(&g, &out, 0.5, &format!("{name}/{pi}"));
        }
    }
}

#[test]
fn deterministic_mssp_reproduces_and_satisfies() {
    let g = generators::caveman(7, 7);
    let sources = [0usize, 13, 26, 39];
    let run = || {
        session(&g, 0.5, Execution::Deterministic)
            .mssp(&sources)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.estimates, b.estimates);
    check_short_range(&g, &a, 0.5, "det");
}

#[test]
fn single_source_is_a_special_case() {
    // SSSP = MSSP with one source; the paper notes even this case had no
    // sub-logarithmic solution before.
    let g = generators::grid(9, 9);
    let out = session(&g, 0.25, Execution::Seeded(4)).mssp(&[40]).unwrap();
    check_short_range(&g, &out, 0.25, "sssp");
}

#[test]
fn estimates_cover_all_vertices_on_connected_input() {
    let g = generators::caveman(10, 5);
    let sources = [0usize, 25];
    let out = session(&g, 0.5, Execution::Seeded(5))
        .mssp(&sources)
        .unwrap();
    for i in 0..sources.len() {
        for v in 0..g.n() {
            assert!(out.dist(i, v) < INF, "source {i} missing vertex {v}");
        }
    }
}
