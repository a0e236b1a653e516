//! A Censor-Hillel-et-al.-PODC19-style poly-logarithmic pipeline: the same
//! tool-kit as `cc-toolkit`, **without distance sensitivity**.
//!
//! This is the headline comparator of experiment F1. The pipeline mirrors
//! the `(3+ε)` pivot scheme of §4.3 but sets the distance bound to `t = n`
//! (i.e., uses the *unbounded* `k`-nearest and hopset of \[3\]), so:
//!
//! * the `k`-nearest computation iterates `⌈log₂ n⌉` filtered products
//!   instead of `⌈log₂ t⌉`,
//! * the hopset performs `⌈log₂ n⌉` interconnection sweeps at
//!   `4β = O(log n/ε)` hops each,
//!
//! landing at `Θ(log²n/ε)` rounds — versus `Θ(log²β/ε) = poly(log log n)`
//! for the distance-sensitive version. The *stretch* delivered is the same
//! class (`O(1)`), which isolates the round-complexity comparison.

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph, INF};
use cc_toolkit::hopset::{self, BasisCache, HopsetParams};
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use rand::Rng;

use cc_derand::hitting;

/// Result of the poly-log pipeline.
#[derive(Clone, Debug)]
pub struct PolylogApsp {
    /// Distance estimates (symmetric, `≥` true distances).
    pub estimates: Vec<Vec<Dist>>,
    /// The short-range multiplicative guarantee (`3+ε`).
    pub guarantee: f64,
}

/// `(3+ε)`-APSP with the unbounded (poly-log-round) tool-kit.
pub fn apsp(g: &Graph, eps: f64, rng: &mut impl Rng, ledger: &mut RoundLedger) -> PolylogApsp {
    let mut phase = ledger.enter("polylog-apsp");
    let n = g.n();
    let t = n as Dist; // the whole point: no distance sensitivity
    let k = (((n as f64).sqrt() * (n.max(2) as f64).ln()).ceil() as usize).clamp(2, n);

    let mut est = vec![vec![INF; n]; n];
    for (i, row) in est.iter_mut().enumerate() {
        row[i] = 0;
    }
    let improve = |est: &mut Vec<Vec<Dist>>, u: usize, v: usize, d: Dist| {
        if d < est[u][v] {
            est[u][v] = d;
            est[v][u] = d;
        }
    };
    for (u, v) in g.edges() {
        improve(&mut est, u, v, 1);
    }

    // Unbounded k-nearest (d = n).
    let kn = KNearest::compute(g, k, t, Strategy::TruncatedBfs, &mut phase);
    for u in 0..n {
        for &(v, d) in kn.list(u) {
            if v as usize != u {
                improve(&mut est, u, v as usize, d);
            }
        }
    }

    // Pivots hitting full lists.
    let full_sets = kn.full_sets();
    let pivots = if full_sets.is_empty() {
        Vec::new()
    } else {
        hitting::random_hitting_set(n, k, &full_sets, 2.5, rng, &mut phase)
            .expect("nearest lists are valid")
    };

    if !pivots.is_empty() {
        // Unbounded hopset (t = n): Θ(log²n/ε) rounds.
        let hp = HopsetParams::paper(n, t, (eps / 2.0).min(0.9));
        let hs = hopset::build_randomized(g, hp, rng, &mut BasisCache::default(), &mut phase);
        let sd = SourceDetection::over_hopset(&hs, &pivots, hs.params.threads, &mut phase);
        for v in 0..n {
            for (a, d) in sd.detected(v) {
                improve(&mut est, v, a, d);
            }
        }
        phase.charge_broadcast("announce nearest pivots");
        let mut mask = vec![false; n];
        for &a in &pivots {
            mask[a] = true;
        }
        for u in 0..n {
            if let Some((a, _)) = kn.nearest_in(u, &mask) {
                let a = a as usize;
                let via = est[u][a];
                if via >= INF {
                    continue;
                }
                for v in 0..n {
                    if v != u {
                        let leg = est[a][v];
                        if leg < INF {
                            improve(&mut est, u, v, via.saturating_add(leg).min(INF));
                        }
                    }
                }
            }
        }
    }

    PolylogApsp {
        estimates: est,
        guarantee: 3.0 + eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stretch_holds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for (name, g) in [
            ("grid", generators::grid(7, 7)),
            ("caveman", generators::caveman(6, 6)),
        ] {
            let mut ledger = RoundLedger::new(g.n());
            let out = apsp(&g, 0.5, &mut rng, &mut ledger);
            let exact = bfs::apsp_exact(&g);
            for u in 0..g.n() {
                for v in 0..g.n() {
                    if u == v {
                        continue;
                    }
                    assert!(out.estimates[u][v] >= exact[u][v], "{name}");
                    assert!(
                        (out.estimates[u][v] as f64) <= out.guarantee * exact[u][v] as f64 + 1e-9,
                        "{name}: ({u},{v}) est {} d {}",
                        out.estimates[u][v],
                        exact[u][v]
                    );
                }
            }
        }
    }

    #[test]
    fn rounds_scale_with_log_squared_n() {
        // The defining property: rounds grow with log²n, not log²t.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g_small = generators::cycle(64);
        let g_large = generators::cycle(512);
        let mut l_small = RoundLedger::new(64);
        let mut l_large = RoundLedger::new(512);
        let _ = apsp(&g_small, 0.5, &mut rng, &mut l_small);
        let _ = apsp(&g_large, 0.5, &mut rng, &mut l_large);
        // log²(512)/log²(64) = 81/36 = 2.25: expect meaningful growth.
        assert!(
            l_large.total_rounds() as f64 >= 1.5 * l_small.total_rounds() as f64,
            "small {} large {}",
            l_small.total_rounds(),
            l_large.total_rounds()
        );
    }
}
