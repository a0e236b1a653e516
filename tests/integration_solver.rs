#![allow(clippy::needless_range_loop)]
//! End-to-end tests of the `Solver` session API: substrate reuse across
//! queries, builder validation, the unified error type, and answers that do
//! not depend on which queries ran before.

use congested_clique::clique::cost::CostEntry;
use congested_clique::core::mssp::MsspError;
use congested_clique::core::snapshot::header::fnv1a;
use congested_clique::core::CcError;
use congested_clique::prelude::*;
use congested_clique::routes::{PairWitness, PathStore, RecId, RouteArena, TreeRows};
use rand::SeedableRng;
use std::sync::Arc;

/// Ledger entries whose label marks emulator construction/distribution.
fn emulator_collections(solver: &Solver) -> usize {
    solver
        .ledger()
        .entries()
        .iter()
        .filter(|e| e.label.contains("collect emulator"))
        .count()
}

/// The two-query workload: `apsp_2eps()` then `mssp()` through
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

/// What one query answered: estimates, plus witnesses, arena and tree rows
/// when the session records paths.
#[derive(Debug, PartialEq)]
enum Answer {
    Pairs(
        Arc<DistanceMatrix>,
        Option<(Vec<PairWitness>, RouteArena, Option<Arc<TreeRows>>)>,
    ),
    Rows(Vec<Vec<Dist>>, Option<(Vec<Option<RecId>>, RouteArena)>),
}

/// A connected gnp(97) with a hub joined to every even vertex: the hub
/// is above apsp2's high-degree threshold, so every pipeline phase runs.
fn hub_gnp() -> Graph {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let base = generators::connected_gnp(97, 0.06, &mut rng);
    let mut edges: Vec<(usize, usize)> = base.edges().collect();
    edges.extend((2..97).step_by(2).map(|v| (0, v)));
    Graph::from_edges(97, &edges)
}

/// Runs `query` on `solver` and returns its answer with the ledger entries
/// it charged.
fn answer(solver: &mut Solver, query: &str, sources: &[usize]) -> (Answer, Vec<CostEntry>) {
    let before = solver.ledger().entries().len();
    let pairs = |estimates, paths: Option<Arc<PathStore>>| {
        Answer::Pairs(
            estimates,
            paths.map(|p| {
                (
                    p.witnesses().to_vec(),
                    p.arena().clone(),
                    p.trees().cloned(),
                )
            }),
        )
    };
    let out = match query {
        "apsp2" => {
            let r = solver.apsp_2eps().unwrap();
            pairs(r.estimates, r.paths)
        }
        "apsp3" => {
            let r = solver.apsp_3eps().unwrap();
            pairs(r.estimates, r.paths)
        }
        "additive" => {
            let r = solver.apsp_near_additive().unwrap();
            pairs(r.estimates, r.paths)
        }
        _ => {
            let r = solver.mssp(sources).unwrap();
            Answer::Rows(
                r.estimates,
                r.paths.map(|p| (p.recs().to_vec(), p.arena().clone())),
            )
        }
    };
    (out, solver.ledger().entries()[before..].to_vec())
}

/// `true` when `part` is `whole` with some entries left out.
fn is_subsequence(part: &[CostEntry], whole: &[CostEntry]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|x| rest.any(|y| y == x))
}

fn rounds(entries: &[CostEntry]) -> u64 {
    entries.iter().map(|e| e.rounds).sum()
}

/// Every substrate a deterministic query reads from the session cache is
/// the one it would build itself, so apsp2, apsp3 and MSSP answer exactly
/// like a fresh session's first query whatever ran before — estimates,
/// witnesses and arenas. A cache hit only skips a construction's charges,
/// so the later query's ledger entries are the fresh query's with some left
/// out, and it never charges more rounds. Each order then runs a second
/// MSSP batch and the additive query, under the same checks. The graph has
/// a hub above the high-degree threshold, so the session uses all three
/// hopset roles (the input graph at `(2t, ε/2)` and at `(t, ε)`, and `G'`
/// at `(2t, ε/2)`) and builds each one once, beside one emulator swept
/// once into the long-range table every APSP query starts from. The
/// hopsets share one basis per distinct graph: one here, because every hub
/// edge has a low-degree end, so `G'` keeps it and equals `G`; two once a
/// second hub adjacent to the first makes `G' ≠ G`.
#[test]
fn deterministic_answers_do_not_depend_on_query_order() {
    let g = hub_gnp();
    let sources: Vec<usize> = (0..97).step_by(11).collect();
    let second: Vec<usize> = (5..97).step_by(13).collect();
    let batch = |query: &str| if query == "mssp2" { &second } else { &sources };
    const QUERIES: [&str; 5] = ["apsp2", "apsp3", "mssp", "mssp2", "additive"];
    let orders: [[&str; 3]; 6] = [
        ["apsp2", "apsp3", "mssp"],
        ["apsp2", "mssp", "apsp3"],
        ["apsp3", "apsp2", "mssp"],
        ["apsp3", "mssp", "apsp2"],
        ["mssp", "apsp2", "apsp3"],
        ["mssp", "apsp3", "apsp2"],
    ];
    let calls = |solver: &Solver, stage: &str| {
        let stages = solver.stage_times();
        stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |(_, stat)| stat.calls)
    };
    for record in [false, true] {
        let session = || {
            SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Deterministic)
                .threads(2)
                .record_paths(record)
                .profile_stages(true)
                .build()
                .unwrap()
        };
        let fresh: Vec<(Answer, Vec<CostEntry>)> = QUERIES
            .iter()
            .map(|query| answer(&mut session(), query, batch(query)))
            .collect();
        for order in orders {
            let mut solver = session();
            for query in order.into_iter().chain(["mssp2", "additive"]) {
                let at = format!("record={record} {order:?}: {query}");
                let (got, charged) = answer(&mut solver, query, batch(query));
                let idx = QUERIES.iter().position(|q| *q == query);
                let (want, fresh_charged) = &fresh[idx.expect("known query")];
                assert!(got == *want, "{at}: answer differs from a fresh session");
                assert!(is_subsequence(&charged, fresh_charged), "{at}: ledger");
                assert!(rounds(&charged) <= rounds(fresh_charged), "{at}: rounds");
            }
            let at = format!("record={record} {order:?}");
            assert_eq!(calls(&solver, "emulator_build"), 1, "{at}: emulators");
            assert_eq!(calls(&solver, "emulator_sweep"), 1, "{at}: sweeps");
            assert_eq!(calls(&solver, "hopset_build"), 3, "{at}: hopsets");
            assert_eq!(calls(&solver, "hopset_basis"), 1, "{at}: bases");
        }
    }
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    edges.extend((1..97).step_by(2).map(|v| (1, v)));
    edges.push((0, 1));
    let two_hubs = Graph::from_edges(97, &edges);
    let mut solver = SolverBuilder::new(two_hubs)
        .eps(0.5)
        .execution(Execution::Deterministic)
        .threads(2)
        .profile_stages(true)
        .build()
        .unwrap();
    solver.apsp_2eps().unwrap();
    solver.mssp(&sources).unwrap();
    assert_eq!(calls(&solver, "hopset_build"), 3, "two hubs: hopsets");
    assert_eq!(
        calls(&solver, "hopset_basis"),
        2,
        "two hubs: bases of G and G'"
    );
}

/// FNV-1a of every ordered pair's route as the oracle emits it: its
/// edges, weight and guarantee (`0` for a pair without one). Record ids do
/// not enter it, so it moves only when some route does.
fn route_digest(oracle: &DistOracle) -> u64 {
    let n = oracle.n();
    let mut bytes = Vec::new();
    for u in 0..n {
        for v in 0..n {
            let Some(route) = oracle.path(u, v) else {
                bytes.push(0);
                continue;
            };
            bytes.push(1);
            bytes.extend_from_slice(&route.weight.to_le_bytes());
            bytes.extend_from_slice(format!("{:?}", route.guarantee).as_bytes());
            bytes.extend_from_slice(&(route.edges.len() as u64).to_le_bytes());
            for (x, y) in route.edges {
                bytes.extend_from_slice(&x.to_le_bytes());
                bytes.extend_from_slice(&y.to_le_bytes());
            }
        }
    }
    fnv1a(&bytes)
}

/// Pins which witness wins each pair and which records the arenas hold: a
/// Deterministic recording session runs apsp2 → additive → MSSP → apsp3,
/// and the FNV-1a of its `freeze_with_paths` snapshot must equal the
/// committed value. A change to the rule or the order by which the
/// pipelines set witnesses moves a witness or a record id, and so the
/// bytes. The second pin, [`route_digest`], does not see record ids: a
/// change that only renumbers or drops records must leave it as it is.
#[test]
fn recorded_witnesses_are_pinned() {
    for (name, g, want, want_routes) in [
        (
            "grid 9x11",
            generators::grid(9, 11),
            0xb010_da37_2486_cfbd,
            0x75af_f7f5_3519_a501,
        ),
        (
            "hub + gnp(97)",
            hub_gnp(),
            0xbf16_3cda_5b60_4826,
            0x9639_2820_bf78_b929,
        ),
    ] {
        let sources: Vec<usize> = (0..g.n()).step_by(11).collect();
        let mut solver = SolverBuilder::new(g)
            .eps(0.5)
            .execution(Execution::Deterministic)
            .threads(2)
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_2eps().unwrap();
        solver.apsp_near_additive().unwrap();
        solver.mssp(&sources).unwrap();
        solver.apsp_3eps().unwrap();
        let oracle = solver.freeze_with_paths().unwrap();
        let routes = route_digest(&oracle);
        assert_eq!(
            routes, want_routes,
            "{name}: route digest is {routes:#018x}"
        );
        let mut bytes = Vec::new();
        oracle.save_v2(&mut bytes).unwrap();
        let got = fnv1a(&bytes);
        assert_eq!(got, want, "{name}: snapshot FNV-1a is {got:#018x}");
    }
}

/// Appends a query's answer to `bytes`: the estimates row by row and,
/// when `witnesses` is set and the session records, the pair witnesses (or
/// the MSSP records), the four arena sections and the tree-row sections.
fn fold_answer(bytes: &mut Vec<u8>, answer: &Answer, witnesses: bool) {
    let mut put = |x: u32| bytes.extend_from_slice(&x.to_le_bytes());
    let arena = match answer {
        Answer::Pairs(estimates, paths) => {
            for u in 0..estimates.n() {
                estimates.row(u).iter().for_each(|&d| put(d));
            }
            let Some((witnesses, arena, trees)) = paths.as_ref().filter(|_| witnesses) else {
                return;
            };
            if let Some(trees) = trees {
                let (parents, start, hi, rec) = trees.sections();
                for x in [parents, start, hi, rec].into_iter().flatten() {
                    put(*x);
                }
            }
            for w in witnesses {
                match *w {
                    PairWitness::None => put(0),
                    PairWitness::Rec { rec, rev } => {
                        put(1 + u32::from(rev));
                        put(rec.index());
                    }
                    PairWitness::Via(w) => {
                        put(3);
                        put(w);
                    }
                    PairWitness::Tree => put(4),
                }
            }
            arena
        }
        Answer::Rows(rows, paths) => {
            rows.iter().flatten().for_each(|&d| put(d));
            let Some((recs, arena)) = paths.as_ref().filter(|_| witnesses) else {
                return;
            };
            recs.iter()
                .for_each(|rec| put(rec.map_or(0, |r| r.index() + 1)));
            arena
        }
    };
    let (tags, ops_a, ops_b, lens) = arena.sections();
    bytes.extend_from_slice(tags);
    for x in [ops_a, ops_b, lens].into_iter().flatten() {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
}

/// The FNV-1a of every query session of the pins below on `g`: in both
/// execution modes and both recording modes, fresh sessions run apsp2,
/// apsp3, the additive query and MSSP (sources stepped by 11), and one more
/// session runs apsp2 then apsp3. Each answer is folded by
/// [`fold_answer`], then each session's ledger entries.
fn session_digest(g: &Graph, witnesses: bool) -> u64 {
    let sources: Vec<usize> = (0..g.n()).step_by(11).collect();
    let mut bytes = Vec::new();
    for execution in [Execution::Deterministic, Execution::Seeded(7)] {
        for record in [false, true] {
            for queries in [
                &["apsp2"][..],
                &["apsp3"],
                &["additive"],
                &["mssp"],
                &["apsp2", "apsp3"],
            ] {
                let mut solver = SolverBuilder::new(g.clone())
                    .eps(0.5)
                    .execution(execution)
                    .threads(2)
                    .record_paths(record)
                    .build()
                    .unwrap();
                for &query in queries {
                    let answer = answer(&mut solver, query, &sources).0;
                    fold_answer(&mut bytes, &answer, witnesses);
                }
                for e in solver.ledger().entries() {
                    let entry = format!("{}\0{}\0{}\0", e.phase, e.label, e.rounds);
                    bytes.extend_from_slice(entry.as_bytes());
                }
            }
        }
    }
    fnv1a(&bytes)
}

/// Pins what each query itself returns, witnesses included, which the
/// frozen-oracle pins do not see (`freeze` drops a result that wins no
/// pair): every estimate, pair witness, MSSP row and record, arena section
/// and each session's ledger entries ([`session_digest`]). A change that
/// only restructures the pipelines must leave both values as they are.
#[test]
fn query_results_are_pinned() {
    for (name, g, want) in [
        ("grid 9x11", generators::grid(9, 11), 0x46e2_26b7_2884_c87e),
        ("hub + gnp(97)", hub_gnp(), 0x2d37_2e27_0738_8a4c),
    ] {
        let got = session_digest(&g, true);
        assert_eq!(got, want, "{name}: query FNV-1a is {got:#018x}");
    }
}

/// Pins what recording must leave alone: the sessions of
/// [`query_results_are_pinned`] with every estimate and ledger entry
/// folded, recording on and off, but no witness and no record id. A change
/// to how witnesses are kept must pass with both values unedited.
#[test]
fn estimates_and_ledgers_are_pinned() {
    for (name, g, want) in [
        ("grid 9x11", generators::grid(9, 11), 0x24bc_ddcb_4f98_b451),
        ("hub + gnp(97)", hub_gnp(), 0xdd79_2354_9e72_75c3),
    ] {
        let got = session_digest(&g, false);
        assert_eq!(
            got, want,
            "{name}: estimates-and-ledgers FNV-1a is {got:#018x}"
        );
    }
}
