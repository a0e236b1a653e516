#![allow(clippy::needless_range_loop)]
//! Cross-crate toolkit integration: the distance-sensitive tools composed
//! the way the applications compose them.

use congested_clique::prelude::*;
use congested_clique::toolkit::hopset::{self, BasisCache, HopsetParams};
use congested_clique::toolkit::knearest::{KNearest, Strategy};
use congested_clique::toolkit::source_detection::SourceDetection;
use congested_clique::toolkit::through_sets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The MSSP inner loop: hopset + source detection gives (1+ε) for pairs
/// within t, across families and both hopset modes.
#[test]
fn hopset_plus_source_detection_is_one_plus_eps() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let eps = 0.5;
    let t = 8u32;
    for (name, g) in [
        ("cycle", generators::cycle(50)),
        ("grid", generators::grid(7, 7)),
        ("caveman", generators::caveman(6, 6)),
        ("ws", generators::watts_strogatz(48, 4, 0.1, &mut rng)),
        ("hypercube", generators::hypercube(5)),
    ] {
        for deterministic in [false, true] {
            let params = HopsetParams::paper(g.n(), t, eps);
            let mut ledger = RoundLedger::new(g.n());
            let hs = if deterministic {
                hopset::build_deterministic(&g, params, &mut BasisCache::default(), &mut ledger)
            } else {
                hopset::build_randomized(
                    &g,
                    params,
                    &mut rng,
                    &mut BasisCache::default(),
                    &mut ledger,
                )
            };
            let sources = [0usize, g.n() / 2];
            let sd = SourceDetection::run(&hs.union, &sources, hs.beta, 2, &mut ledger);
            for &s in &sources {
                let exact = bfs::sssp(&g, s);
                for v in 0..g.n() {
                    if exact[v] == 0 || exact[v] > t {
                        continue;
                    }
                    let est = sd.dist_to(v, s).unwrap();
                    assert!(est >= exact[v], "{name}/det={deterministic}: undercut");
                    assert!(
                        (est as f64) <= (1.0 + eps) * exact[v] as f64 + 1e-9,
                        "{name}/det={deterministic}: ({s},{v}) est {est} d {}",
                        exact[v]
                    );
                }
            }
        }
    }
}

/// The (3+ε) inner loop: k-nearest + through-sets recovers every pair whose
/// shortest path midpoint lies in both lists (Case 1 of §4.3).
#[test]
fn knearest_through_sets_covers_case_one() {
    let g = generators::grid(6, 6);
    let n = g.n();
    let exact = bfs::apsp_exact(&g);
    let mut ledger = RoundLedger::new(n);
    let k = 12;
    let t = 6;
    let kn = KNearest::compute(&g, k, t, Strategy::TruncatedBfs, &mut ledger);
    let sets: Vec<Vec<usize>> = (0..n)
        .map(|u| kn.list(u).iter().map(|&(v, _)| v as usize).collect())
        .collect();
    // The estimates are the lists' distances (∞ off the lists).
    let mut rows: Vec<Vec<Dist>> = (0..n)
        .map(|u| (0..n).map(|w| kn.dist(u, w).unwrap_or(INF)).collect())
        .collect();
    let mut row_refs: Vec<&mut [Dist]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
    through_sets::lower_rows(&sets, &mut row_refs, 2, false, &mut ledger);
    let mut through = 0;
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            // Pairs whose distance is at most the sum of both radii and
            // whose path midpoint is shared get an exact answer; at minimum
            // the result is a valid upper bound.
            if rows[u][v] < INF {
                assert!(rows[u][v] >= exact[u][v], "({u},{v})");
            }
            if kn.dist(u, v).is_some() {
                // v in u's list: through-sets with w = v is exact.
                assert!(rows[u][v] <= exact[u][v] + exact[v][v], "({u},{v})");
            } else if (0..n).any(|w| {
                kn.dist(u, w).is_some()
                    && kn.dist(v, w).is_some()
                    && exact[u][w] + exact[w][v] == exact[u][v]
            }) {
                // Off the lists, a shared midpoint on a shortest path.
                assert_eq!(rows[u][v], exact[u][v], "({u},{v})");
                through += 1;
            }
        }
    }
    assert!(
        through > 0,
        "some pair is answered through a shared midpoint"
    );
}

/// The (S,d,k) generalization composes with hopsets: nearest_sources gives
/// the k closest pivots, in order.
#[test]
fn sdk_variant_orders_pivots() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = generators::caveman(8, 6);
    let params = HopsetParams::scaled(g.n(), 8, 0.5);
    let mut ledger = RoundLedger::new(g.n());
    let hs = hopset::build_randomized(
        &g,
        params,
        &mut rng,
        &mut BasisCache::default(),
        &mut ledger,
    );
    let pivots: Vec<usize> = (0..g.n()).step_by(7).collect();
    let sd = SourceDetection::run(&hs.union, &pivots, hs.beta, 2, &mut ledger);
    for v in 0..g.n() {
        let top3 = sd.nearest_sources(v, 3);
        assert!(top3.len() <= 3);
        // Sorted by distance.
        assert!(top3.windows(2).all(|w| w[0].1 <= w[1].1));
        // Distances are valid upper bounds.
        let exact = bfs::sssp(&g, v);
        for &(s, d) in &top3 {
            assert!(d >= exact[s], "v={v} s={s}");
        }
    }
}

/// Mixed pipeline over the new generators: (2+ε)-APSP on small worlds and
/// hypercubes (low diameter — everything short-range).
#[test]
fn apsp2_on_small_world_and_hypercube() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for (name, g) in [
        ("ws", generators::watts_strogatz(64, 6, 0.2, &mut rng)),
        ("hypercube", generators::hypercube(6)),
        ("bipartite", generators::complete_bipartite(20, 30)),
    ] {
        if !g.is_connected() {
            continue;
        }
        let out = SolverBuilder::new(g.clone())
            .eps(0.5)
            .profile(ParamProfile::Paper { levels: 2 })
            .execution(Execution::Seeded(6))
            .build()
            .expect("valid")
            .apsp_2eps()
            .expect("apsp2");
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
