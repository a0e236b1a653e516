#![allow(clippy::needless_range_loop)]
//! End-to-end tests of the `Solver` session API: substrate reuse across
//! queries, builder validation, the unified error type, and equivalence
//! with the direct per-algorithm entry points for equal seeds.

use congested_clique::core::mssp::{self, MsspConfig, MsspError};
use congested_clique::core::{apsp2, CcError};
use congested_clique::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ledger entries whose label marks emulator construction/distribution.
fn emulator_collections(solver: &Solver) -> usize {
    solver
        .ledger()
        .entries()
        .iter()
        .filter(|e| e.label.contains("collect emulator"))
        .count()
}

/// The acceptance-criterion workload: `apsp_2eps()` then `mssp()` through
/// one `Solver` must construct and distribute the emulator exactly once.
#[test]
fn two_query_workload_builds_the_emulator_once() {
    let g = generators::caveman(8, 8);
    let mut solver = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Seeded(42))
        .build()
        .expect("valid configuration");

    let apsp = solver.apsp_2eps().expect("apsp2");
    assert_eq!(emulator_collections(&solver), 1, "first query builds it");
    let rounds_after_apsp = solver.total_rounds();

    let sources: Vec<usize> = (0..g.n()).step_by(9).collect();
    let landmarks = solver.mssp(&sources).expect("mssp");
    assert_eq!(
        emulator_collections(&solver),
        1,
        "the MSSP query must reuse the cached emulator"
    );
    assert!(
        solver.total_rounds() > rounds_after_apsp,
        "MSSP still charges its per-query stages"
    );

    // Both results are real: validate against ground truth.
    let exact = bfs::apsp_exact(&g);
    for u in 0..g.n() {
        for v in 0..g.n() {
            assert!(apsp.estimates.get(u, v) >= exact[u][v]);
        }
    }
    for (i, &s) in landmarks.sources.iter().enumerate() {
        for v in 0..g.n() {
            assert!(landmarks.dist(i, v) >= exact[s][v]);
        }
    }
}

/// A repeated `apsp_2eps()` charges strictly fewer new rounds than the
/// first (the memoized result makes it free).
#[test]
fn second_apsp_query_charges_strictly_fewer_rounds() {
    let g = generators::grid(8, 8);
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(7))
        .build()
        .expect("valid configuration");
    solver.apsp_2eps().expect("apsp2");
    let first_cost = solver.total_rounds();
    assert!(first_cost > 0);
    solver.apsp_2eps().expect("apsp2");
    let second_cost = solver.total_rounds() - first_cost;
    assert!(
        second_cost < first_cost,
        "second query charged {second_cost}, first charged {first_cost}"
    );
}

/// Mixed-pipeline reuse: near-additive after (2+ε) rides on the same
/// emulator, so its marginal cost is far below a cold run.
#[test]
fn near_additive_after_apsp2_is_nearly_free() {
    let g = generators::caveman(7, 7);
    let cold = {
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(5))
            .build()
            .unwrap();
        solver.apsp_near_additive().unwrap();
        solver.total_rounds()
    };
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .execution(Execution::Seeded(5))
        .build()
        .unwrap();
    solver.apsp_2eps().unwrap();
    let before = solver.total_rounds();
    solver.apsp_near_additive().unwrap();
    let marginal = solver.total_rounds() - before;
    assert!(
        marginal < cold,
        "marginal near-additive cost {marginal} should undercut cold cost {cold}"
    );
    assert_eq!(emulator_collections(&solver), 1);
}

#[test]
fn builder_validation_surfaces_unified_errors() {
    let g = generators::cycle(16);
    for bad_eps in [0.0, 1.0, 2.0, -0.25] {
        let err = SolverBuilder::new(g.clone())
            .eps(bad_eps)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, CcError::Params(_)),
            "eps {bad_eps} must be rejected as a parameter error, got {err}"
        );
    }
    let err = SolverBuilder::new(g.clone())
        .profile(ParamProfile::Paper { levels: 0 })
        .build()
        .unwrap_err();
    assert!(matches!(err, CcError::Params(_)));

    // Query-level validation: invalid MSSP source sets.
    let mut solver = SolverBuilder::new(g).build().unwrap();
    let err = solver.mssp(&[]).unwrap_err();
    assert!(matches!(err, CcError::Mssp(MsspError::NoSources)));
    let err = solver.mssp(&[999]).unwrap_err();
    assert!(matches!(
        err,
        CcError::Mssp(MsspError::SourceOutOfRange { .. })
    ));
    let too_many: Vec<usize> = (0..16).chain(0..16).chain(0..16).collect();
    let err = solver.mssp(&too_many).unwrap_err();
    assert!(matches!(
        err,
        CcError::Mssp(MsspError::TooManySources { .. })
    ));
}

/// The serving workflow: freeze a session, share the oracle via `Arc`, and
/// answer tagged point queries that agree with `Solver::estimate` (and with
/// the deprecated untagged `query` shim) everywhere.
#[test]
fn frozen_session_serves_tagged_answers() {
    let g = generators::caveman(7, 7);
    let mut solver = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Seeded(17))
        .build()
        .unwrap();
    solver.apsp_2eps().unwrap();
    solver.mssp(&[0, 13, 26]).unwrap();
    let oracle = std::sync::Arc::new(solver.freeze().unwrap());
    assert_eq!(oracle.n(), g.n());
    assert_eq!(
        oracle.storage_kind(),
        StorageKind::SymmetricPacked,
        "session freeze picks the compact symmetric layout"
    );
    for u in 0..g.n() {
        for v in 0..g.n() {
            let frozen = oracle.dist(u, v);
            assert_eq!(frozen, solver.estimate(u, v), "({u},{v})");
        }
    }
    // k-nearest answers come back sorted and respect the frozen estimates.
    let near = oracle.k_nearest(0, 8);
    assert!(near.len() <= 8);
    assert!(near
        .windows(2)
        .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
    for &(v, d) in &near {
        assert_eq!(oracle.dist(0, v as usize).unwrap().dist, d);
    }
}

#[test]
fn errors_format_and_chain() {
    let g = generators::cycle(8);
    let err = SolverBuilder::new(g).eps(3.0).build().unwrap_err();
    assert!(err.to_string().contains("invalid parameters"));
    assert!(std::error::Error::source(&err).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fresh seeded `Solver` produces exactly the estimates of the direct
    /// `apsp2::run` call with the same seed and the scaled profile.
    #[test]
    fn solver_apsp2_matches_direct_run((n_factor, seed) in (2usize..5, 0u64..200)) {
        let g = generators::caveman(n_factor + 3, 6);
        let n = g.n();
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(seed))
            .build()
            .unwrap();
        let via_solver = solver.apsp_2eps().unwrap();

        let cfg = Apsp2Config::scaled(n, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = RoundLedger::new(n);
        let direct = apsp2::run(&g, &cfg, &mut rng, &mut ledger).unwrap();

        prop_assert_eq!(&via_solver.estimates, &direct.estimates);
        prop_assert_eq!(via_solver.t, direct.t);
        prop_assert_eq!(solver.total_rounds(), ledger.total_rounds());
    }

    /// Same equivalence for MSSP.
    #[test]
    fn solver_mssp_matches_direct_run((step, seed) in (3usize..9, 0u64..200)) {
        let g = generators::grid(7, 7);
        let n = g.n();
        let sources: Vec<usize> = (0..n).step_by(step).collect();
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(seed))
            .build()
            .unwrap();
        let via_solver = solver.mssp(&sources).unwrap();

        let cfg = MsspConfig::scaled(n, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = RoundLedger::new(n);
        let direct = mssp::run(&g, &sources, &cfg, &mut rng, &mut ledger).unwrap();

        prop_assert_eq!(&via_solver.estimates, &direct.estimates);
        prop_assert_eq!(via_solver.t, direct.t);
    }

    /// Deterministic sessions match the deterministic free functions.
    #[test]
    fn deterministic_solver_matches_direct_run(n_factor in 2usize..6) {
        let g = generators::caveman(n_factor + 3, 5);
        let n = g.n();
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Deterministic)
            .build()
            .unwrap();
        let via_solver = solver.apsp_2eps().unwrap();

        let cfg = Apsp2Config::scaled(n, 0.5).unwrap();
        let mut ledger = RoundLedger::new(n);
        let direct = apsp2::run_deterministic(&g, &cfg, &mut ledger).unwrap();
        prop_assert_eq!(&via_solver.estimates, &direct.estimates);
    }
}
