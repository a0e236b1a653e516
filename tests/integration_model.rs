#![allow(clippy::needless_range_loop)]
//! Model-level integration: the message engine agrees with centralized
//! reference algorithms, and the cost model is internally consistent.

use congested_clique::clique::cost::model;
use congested_clique::clique::programs::{Broadcast, DistributedBfs, MinAggregate};
use congested_clique::clique::{Engine, EngineConfig, NodeId};
use congested_clique::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn distributed_bfs_matches_centralized_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for seed in 0..3u64 {
        let g = generators::connected_gnp(40, 0.08, &mut rng);
        let src = (seed as usize * 13) % g.n();
        let nodes: Vec<DistributedBfs> = (0..g.n())
            .map(|v| {
                DistributedBfs::new(
                    NodeId::new(v),
                    NodeId::new(src),
                    g.neighbors(v)
                        .iter()
                        .map(|&u| NodeId::new(u as usize))
                        .collect(),
                    None,
                )
            })
            .collect();
        let mut engine = Engine::new(nodes);
        let stats = engine.run().expect("BFS respects the model");
        let exact = bfs::sssp(&g, src);
        for v in 0..g.n() {
            let got = engine.nodes()[v].distance();
            if exact[v] >= INF {
                assert_eq!(got, None, "v{v}");
            } else {
                assert_eq!(got, Some(exact[v] as u64), "v{v}");
            }
        }
        // Rounds track eccentricity, not n.
        let ecc = bfs::eccentricity(&g, src) as u64;
        assert!(
            stats.rounds <= ecc + 4,
            "rounds {} ecc {}",
            stats.rounds,
            ecc
        );
    }
}

#[test]
fn broadcast_cost_constant_grounded_by_engine() {
    // The ledger charges 1 round per broadcast and the engine reports
    // exactly that: `RunStats::rounds` counts communication rounds, with
    // the trailing drain step free (local computation).
    let n = 32;
    let nodes = (0..n)
        .map(|i| Broadcast::new(NodeId::new(i), NodeId::new(0), 7))
        .collect();
    let mut engine = Engine::new(nodes);
    let stats = engine.run().unwrap();
    assert_eq!(stats.rounds, model::broadcast_one());
    assert_eq!(stats.messages as usize, n - 1);
}

#[test]
fn aggregation_uses_receive_parallelism() {
    // One node can receive n−1 messages in a single round — the property
    // Lenzen routing and the gather primitives rely on.
    let n = 50;
    let nodes = (0..n)
        .map(|i| MinAggregate::new(NodeId::new(i), (n - i) as u64))
        .collect();
    let mut engine = Engine::new(nodes);
    let stats = engine.run().unwrap();
    assert!(stats.max_in_degree >= (n - 1) as u64);
    assert!(stats.rounds <= 4);
    assert!(engine.nodes().iter().all(|p| p.result() == Some(1)));
}

#[test]
fn sharded_execution_matches_serial_on_bfs() {
    // The flat-mailbox engine's sharded mode must be bit-identical to
    // serial execution: same RunStats, same program outputs.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = generators::connected_gnp(60, 0.07, &mut rng);
    let build = || -> Vec<DistributedBfs> {
        (0..g.n())
            .map(|v| {
                DistributedBfs::new(
                    NodeId::new(v),
                    NodeId::new(3),
                    g.neighbors(v)
                        .iter()
                        .map(|&u| NodeId::new(u as usize))
                        .collect(),
                    None,
                )
            })
            .collect()
    };
    let mut serial = Engine::new(build());
    let serial_stats = serial.run().expect("serial BFS");
    for threads in [2, 4] {
        let mut sharded = Engine::with_config(build(), EngineConfig::threaded(threads));
        let stats = sharded.run().expect("sharded BFS");
        assert_eq!(stats, serial_stats, "threads = {threads}");
        for (a, b) in serial.nodes().iter().zip(sharded.nodes()) {
            assert_eq!(a.distance(), b.distance());
        }
    }
}

#[test]
fn round_limit_protects_against_nontermination() {
    struct Forever;
    impl congested_clique::clique::NodeProgram for Forever {
        fn on_round(&mut self, _ctx: &mut congested_clique::clique::RoundCtx<'_>) {}
        fn is_done(&self) -> bool {
            false
        }
    }
    let mut engine = Engine::with_config(
        vec![Forever, Forever],
        EngineConfig {
            max_rounds: 5,
            ..EngineConfig::default()
        },
    );
    assert!(engine.run().is_err());
}

#[test]
fn cost_model_orderings_hold() {
    // The asymptotic orderings the paper relies on, at concrete sizes:
    let n = 1u64 << 12;
    // 1. distance-sensitive beats unbounded: log²t ≪ log²n for t ≪ n.
    assert!(model::log2_ceil(32).pow(2) < model::log2_ceil(n).pow(2));
    // 2. sparse products at √n density are constant-round.
    assert!(model::sparse_minplus(64, 64, n, n) <= 3);
    // 3. dense products are polynomial.
    assert!(model::dense_minplus(n) >= 16);
    // 4. learn-all of n log log n words is O(log log n) rounds.
    let loglog = model::log2_ceil(model::log2_ceil(n));
    assert!(model::learn_all(n * loglog, n) <= 2 * loglog + 2);
    // 5. conditional expectation rounds are poly(log log n).
    let r = model::conditional_expectation_rounds(n, n);
    assert!(r >= loglog.pow(3) / 2 && r <= 4 * loglog.pow(3) + 4);
}

#[test]
fn ledger_breakdown_is_complete() {
    let g = generators::caveman(6, 6);
    let mut solver = SolverBuilder::new(g)
        .eps(0.5)
        .profile(ParamProfile::Paper { levels: 2 })
        .execution(Execution::Seeded(8))
        .build()
        .expect("valid");
    let _ = solver.apsp_2eps().expect("apsp2");
    let ledger = solver.ledger();
    let by_phase: u64 = ledger.by_phase().values().sum();
    assert_eq!(by_phase, ledger.total_rounds());
    assert!(ledger.report().contains("apsp2"));
}
