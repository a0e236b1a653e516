#![allow(clippy::needless_range_loop)]
//! Property-based tests (proptest) for the core invariants:
//!
//! * emulator stretch `(1+ε̂)d + β̂` on random graphs and parameters,
//! * hopset guarantee `d^β_{G∪H} ≤ (1+ε)d` for `d ≤ t`,
//! * `(k,d)`-nearest: filtered squaring ≡ truncated BFS,
//! * soft hitting sets satisfy Definition 42 on arbitrary instances,
//! * distance-estimate matrices never undercut and stay symmetric.

use congested_clique::derand::soft_hitting::{soft_hitting_set, SoftHittingInstance};
use congested_clique::emulator::ideal;
use congested_clique::prelude::*;
use congested_clique::toolkit::hopset::{self, BasisCache, HopsetParams};
use congested_clique::toolkit::knearest::{KNearest, Strategy as KnStrategy};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random connected graph described by (n, extra edge density seed).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..40, 0u64..1000).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::connected_gnp(n, 2.5 / n as f64, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn emulator_stretch_bound((g, eps_m, r, seed) in (arb_graph(), 1u32..4, 2usize..4, 0u64..500)) {
        let eps = eps_m as f64 * 0.1 + 0.05;
        let params = EmulatorParams::new(g.n(), eps, r).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let emu = ideal::build(&g, &params, &mut rng);
        let report = emu.verify(&g, &params);
        prop_assert!(report.within_bounds, "{report:?}");
    }

    #[test]
    fn emulator_weights_exact((g, seed) in (arb_graph(), 0u64..500)) {
        let params = EmulatorParams::new(g.n(), 0.3, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let emu = ideal::build(&g, &params, &mut rng);
        let exact = bfs::apsp_exact(&g);
        for (u, v, w) in emu.graph.edges() {
            prop_assert_eq!(w, exact[u][v]);
        }
    }

    #[test]
    fn knearest_strategies_equivalent((g, k, d) in (arb_graph(), 1usize..20, 1u32..8)) {
        let mut l1 = RoundLedger::new(g.n());
        let mut l2 = RoundLedger::new(g.n());
        let a = KNearest::compute(&g, k, d, KnStrategy::TruncatedBfs, &mut l1);
        let b = KNearest::compute(&g, k, d, KnStrategy::Filtered, &mut l2);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn knearest_is_prefix_of_ball((g, k, d) in (arb_graph(), 1usize..16, 1u32..6)) {
        let mut ledger = RoundLedger::new(g.n());
        let kn = KNearest::compute(&g, k, d, KnStrategy::TruncatedBfs, &mut ledger);
        for v in 0..g.n() {
            let ball = bfs::ball(&g, v, d);
            let want: Vec<(u32, Dist)> = ball.into_iter().take(k).collect();
            prop_assert_eq!(kn.list(v), &want[..]);
        }
    }

    #[test]
    fn hopset_guarantee((g, t, seed) in (arb_graph(), 2u32..8, 0u64..200)) {
        let eps = 0.5;
        let params = HopsetParams::scaled(g.n(), t, eps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ledger = RoundLedger::new(g.n());
        let hs = hopset::build_randomized(&g, params, &mut rng, &mut BasisCache::default(), &mut ledger);
        let samples: Vec<usize> = (0..g.n()).step_by(3).collect();
        let worst = hs.verify_from(&g, &samples);
        prop_assert!(worst <= 1.0 + eps + 1e-9, "worst = {worst}");
    }

    #[test]
    fn soft_hitting_definition((universe, delta_pow, l, seed) in (32usize..300, 1u32..5, 1usize..60, 0u64..500)) {
        let delta = 1usize << delta_pow;
        prop_assume!(delta * 2 <= universe);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let sets: Vec<Vec<usize>> = (0..l)
            .map(|_| {
                let mut s = Vec::new();
                while s.len() < delta {
                    let e = rng.gen_range(0..universe);
                    if !s.contains(&e) {
                        s.push(e);
                    }
                }
                s
            })
            .collect();
        let inst = SoftHittingInstance::new(universe, delta, sets).unwrap();
        let mut ledger = RoundLedger::new(universe);
        let z = soft_hitting_set(&inst, &mut ledger);
        prop_assert!(z.verify(&inst, 3.0), "|Z|={} unhit={}", z.set.len(), z.unhit_mass);
    }

    #[test]
    fn additive_apsp_never_undercuts((g, seed) in (arb_graph(), 0u64..300)) {
        let out = SolverBuilder::new(g.clone())
            .eps(0.3)
            .profile(ParamProfile::Paper { levels: 2 })
            .execution(Execution::Seeded(seed))
            .build()
            .unwrap()
            .apsp_near_additive()
            .unwrap();
        let exact = bfs::apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert!(out.estimates.get(u, v) >= exact[u][v]);
                prop_assert_eq!(out.estimates.get(u, v), out.estimates.get(v, u));
            }
        }
    }

    #[test]
    fn warmup_emulator_stretch((g, seed) in (arb_graph(), 0u64..300)) {
        use congested_clique::emulator::warmup::{self, WarmupParams};
        let params = WarmupParams::paper(g.n(), 0.34);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let emu = warmup::build(&g, &params, &mut rng);
        let report = emu.verify_with_bounds(
            &g,
            params.multiplicative_bound(),
            params.additive_bound(),
            f64::INFINITY,
        );
        prop_assert!(report.within_bounds, "{report:?}");
    }

    #[test]
    fn allgather_conserves_words(word_counts in proptest::collection::vec(0usize..5, 2..12)) {
        use congested_clique::clique::programs::AllGather;
        use congested_clique::clique::{Engine, NodeId};
        let mut next = 0u64;
        let nodes: Vec<AllGather> = word_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let words: Vec<u64> = (0..c).map(|_| {
                    next += 1;
                    next
                }).collect();
                AllGather::new(NodeId::new(i), words)
            })
            .collect();
        let total: usize = word_counts.iter().sum();
        let mut engine = Engine::new(nodes);
        engine.run().expect("all-gather respects the model");
        for p in engine.nodes() {
            let mut got = p.collected().to_vec();
            got.sort_unstable();
            got.dedup();
            prop_assert_eq!(got.len(), total);
        }
    }

    #[test]
    fn spanner_stretch_property((g, k, seed) in (arb_graph(), 1usize..4, 0u64..200)) {
        use congested_clique::baselines::spanner;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ledger = RoundLedger::new(g.n());
        let (d, s) = spanner::apsp(&g, k, &mut rng, &mut ledger);
        let exact = bfs::apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert!(d[u][v] >= exact[u][v]);
                prop_assert!(d[u][v] <= exact[u][v].saturating_mul(2 * s.k as Dist - 1));
            }
        }
    }

    #[test]
    fn union_graph_distances_monotone((g, seed) in (arb_graph(), 0u64..300)) {
        // Adding (weight-safe) hopset edges never increases distances below
        // the true G-distance.
        let params = HopsetParams::scaled(g.n(), 4, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ledger = RoundLedger::new(g.n());
        let hs = hopset::build_randomized(&g, params, &mut rng, &mut BasisCache::default(), &mut ledger);
        let exact = bfs::apsp_exact(&g);
        let d0 = congested_clique::graphs::dijkstra::sssp(&hs.union, 0);
        for v in 0..g.n() {
            prop_assert!(d0[v] >= exact[0][v]);
            prop_assert!(d0[v] <= exact[0][v].max(1) * 2 || d0[v] == exact[0][v]);
        }
    }
}

/// A random byte payload of 1 to 199 bytes: every length mod 8, so the
/// zero-padded tail is a word too.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The snapshot checksum sees every change confined to one aligned
    /// 8-byte word (the last one possibly partial): each lane step and
    /// each fold is a bijection, so no such change can cancel out.
    #[test]
    fn snapshot_checksum_sees_any_one_word_change((bytes, pick, value) in (arb_payload(), 0usize..1000, 0u64..u64::MAX)) {
        use congested_clique::core::snapshot::header::checksum;
        let at = pick % bytes.len().div_ceil(8) * 8;
        let end = (at + 8).min(bytes.len());
        let mut changed = bytes.clone();
        changed[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
        if changed == bytes {
            changed[at] ^= 1;
        }
        prop_assert!(checksum(&changed) != checksum(&bytes));
    }
}
