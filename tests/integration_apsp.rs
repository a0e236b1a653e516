#![allow(clippy::needless_range_loop)]
//! End-to-end integration tests: every APSP variant against exact ground
//! truth, across graph families, in randomized and deterministic modes.

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

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    vec![
        ("cycle", generators::cycle(48)),
        ("grid", generators::grid(7, 7)),
        ("caveman", generators::caveman(7, 7)),
        ("gnp", generators::connected_gnp(64, 0.07, &mut rng)),
        ("tree", generators::random_tree(48, &mut rng)),
        (
            "pref-attach",
            generators::preferential_attachment(64, 2, &mut rng),
        ),
    ]
}

#[test]
fn additive_apsp_respects_bounds_everywhere() {
    for (name, g) in families(10) {
        let out = session(&g, 0.25, Execution::Seeded(1))
            .apsp_near_additive()
            .expect("additive");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate(
            &exact,
            out.estimates.as_fn(),
            out.multiplicative_bound - 1.0,
        );
        assert!(
            report.satisfies(out.multiplicative_bound - 1.0, out.additive_bound),
            "{name}: {report:?}"
        );
    }
}

#[test]
fn two_plus_eps_short_range_everywhere() {
    for (name, g) in families(20) {
        let out = session(&g, 0.5, Execution::Seeded(2))
            .apsp_2eps()
            .expect("apsp2");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{name}");
        assert_eq!(report.missed, 0, "{name}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{name}: {} > {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }
}

#[test]
fn deterministic_variants_agree_with_bounds_and_reproduce() {
    for (name, g) in families(30) {
        let mut s1 = session(&g, 0.5, Execution::Deterministic);
        let a = s1.apsp_2eps().expect("apsp2 det");
        let mut s2 = session(&g, 0.5, Execution::Deterministic);
        let b = s2.apsp_2eps().expect("apsp2 det");
        assert_eq!(a.estimates, b.estimates, "{name}: determinism violated");
        assert_eq!(s1.total_rounds(), s2.total_rounds(), "{name}");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, a.estimates.as_fn(), 0.0, 1, a.t);
        assert!(
            report.max_multiplicative <= a.short_range_guarantee + 1e-9,
            "{name}: {}",
            report.max_multiplicative
        );
    }
}

#[test]
fn three_plus_eps_is_weaker_but_valid() {
    for (name, g) in families(40) {
        let out = session(&g, 0.5, Execution::Seeded(4))
            .apsp_3eps()
            .expect("apsp3");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{name}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{name}: {}",
            report.max_multiplicative
        );
    }
}

#[test]
fn estimates_obey_triangle_inequality_through_merges() {
    // δ(u,v) values produced by the pipelines are path lengths in G, so
    // δ(u,v) ≤ δ(u,w) + δ(w,v) need not hold exactly — but the *exact lower
    // bound* d ≤ δ must, and δ must be symmetric. Check both.
    let g = generators::caveman(6, 6);
    let out = session(&g, 0.5, Execution::Seeded(5))
        .apsp_2eps()
        .expect("apsp2");
    let exact = bfs::apsp_exact(&g);
    for u in 0..g.n() {
        for v in 0..g.n() {
            assert_eq!(out.estimates.get(u, v), out.estimates.get(v, u));
            if u != v {
                assert!(out.estimates.get(u, v) >= exact[u][v]);
            }
        }
    }
}

#[test]
fn baselines_sanity_against_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = generators::connected_gnp(48, 0.1, &mut rng);
    let exact = bfs::apsp_exact(&g);

    let mut l1 = RoundLedger::new(g.n());
    assert_eq!(
        congested_clique::baselines::full_gather::apsp(&g, &mut l1),
        exact
    );

    let mut l2 = RoundLedger::new(g.n());
    assert_eq!(
        congested_clique::baselines::matrix_squaring::apsp_rows(&g, &mut l2),
        exact
    );
    // Algebraic rounds must exceed gather rounds on sparse inputs, and both
    // must be consistent with their formulas.
    assert!(l2.total_rounds() > l1.total_rounds());
}
