//! The distance-through-sets problem (Thm 35 of the paper, from \[3\]).
//!
//! Every vertex `v` holds a set `W_v` and distance estimates `δ(v, w)` for
//! `w ∈ W_v`. The task: for every ordered pair `(u, v)`, compute
//! `min_{w ∈ W_u ∩ W_v} (δ(u,w) + δ(w,v))`.
//!
//! Round cost: `O(ρ^{2/3}/n^{1/3} + 1)` where `ρ` is the average set size —
//! constant for `ρ = O(√n)`, which is how the APSP algorithms use it
//! (`W_v = S` for a hitting set `S` of size `O(√n)`, or `W_v = N_{k,t}(v)`).

use cc_clique::RoundLedger;
use cc_graphs::{dadd, Dist, INF};

/// A gathered distance-through-sets instance: for every intermediate `w`,
/// the vertices whose set contains `w`, with their finite estimates
/// `δ(v, w)`. Made by [`ThroughSets::gather`]; its candidates are streamed
/// by [`ThroughSets::for_each_candidate`], so the answer needs no `n × n`
/// table.
#[derive(Debug)]
pub struct ThroughSets {
    members: Vec<Vec<(u32, Dist)>>,
}

impl ThroughSets {
    /// Gather step: reads `estimate(v, w)` (only for `w ∈ W_v`; infinite
    /// estimates are dropped) and charges the Thm 35 round cost to `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if `sets.len() != n` or a set contains an element `≥ n`.
    pub fn gather<F>(n: usize, sets: &[Vec<usize>], estimate: F, ledger: &mut RoundLedger) -> Self
    where
        F: Fn(usize, usize) -> Dist,
    {
        assert_eq!(sets.len(), n, "one set per vertex required");
        let total: usize = sets.iter().map(Vec::len).sum();
        let rho = (total as u64 / n.max(1) as u64).max(1);
        ledger.charge_through_sets("distance through sets", rho);
        let mut members: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        for (v, set) in sets.iter().enumerate() {
            for &w in set {
                assert!(w < n, "set element {w} out of range");
                let d = estimate(v, w);
                if d < INF {
                    members[w].push((v as u32, d));
                }
            }
        }
        ThroughSets { members }
    }

    /// Emit step: calls `f(u, v, δ(u,w) + δ(w,v), w)` for every ordered pair
    /// `u ≠ v` and every `w ∈ W_u ∩ W_v` with finite estimates, in ascending
    /// `w`. The minimum candidate of a pair is the Thm 35 answer, and the
    /// first candidate attaining it carries the smallest realizing `w` — the
    /// witness lane, which callers not recording routes ignore. In the model
    /// the witness ids ride the same messages as the sums, so the charge made
    /// at gather time covers both.
    pub fn for_each_candidate(&self, mut f: impl FnMut(usize, usize, Dist, usize)) {
        for (w, list) in self.members.iter().enumerate() {
            for &(u, du) in list {
                for &(v, dv) in list {
                    if u != v {
                        f(u as usize, v as usize, dadd(du, dv), w);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};
    use rand::{Rng, SeedableRng};

    /// Folds the candidate stream into the answer table and its witnesses
    /// (strict improvement, so the first — smallest — realizing `w` wins;
    /// `u32::MAX` where no finite route exists and on the diagonal).
    fn solve<F: Fn(usize, usize) -> Dist>(
        n: usize,
        sets: &[Vec<usize>],
        estimate: F,
        ledger: &mut RoundLedger,
    ) -> (Vec<Vec<Dist>>, Vec<Vec<u32>>) {
        let mut out = vec![vec![INF; n]; n];
        let mut wit = vec![vec![u32::MAX; n]; n];
        for v in 0..n {
            out[v][v] = 0;
        }
        ThroughSets::gather(n, sets, estimate, ledger).for_each_candidate(|u, v, d, w| {
            if d < out[u][v] {
                out[u][v] = d;
                wit[u][v] = w as u32;
            }
        });
        (out, wit)
    }

    fn random_sets(n: usize, max: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        (0..n)
            .map(|_| {
                let mut s: Vec<usize> = (0..rng.gen_range(1..max))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    }

    #[test]
    fn through_single_shared_vertex() {
        // W_0 = W_2 = {1}; δ taken from the path 0-1-2.
        let g = generators::path(3);
        let exact = bfs::apsp_exact(&g);
        let sets = vec![vec![1], vec![1], vec![1]];
        let mut ledger = RoundLedger::new(3);
        let (out, wit) = solve(3, &sets, |u, v| exact[u][v], &mut ledger);
        assert_eq!((out[0][2], out[2][0], wit[0][2]), (2, 2, 1));
        assert_eq!(out[0][0], 0);
    }

    #[test]
    fn empty_intersection_gives_inf() {
        let sets = vec![vec![0], vec![1], vec![]];
        let mut ledger = RoundLedger::new(3);
        let (out, _) = solve(3, &sets, |_, _| 1, &mut ledger);
        assert_eq!(out[0][1], INF);
        assert_eq!(out[0][2], INF);
    }

    /// Values against a brute force over `W_u ∩ W_v`, and the witness lane:
    /// every witness realizes its pair's minimum and is the smallest that does.
    #[test]
    fn matches_bruteforce_with_smallest_witnesses() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for (n, p, max) in [(24, 0.12, 5), (20, 0.15, 4)] {
            let g = generators::connected_gnp(n, p, &mut rng);
            let exact = bfs::apsp_exact(&g);
            let sets = random_sets(n, max, &mut rng);
            let mut ledger = RoundLedger::new(n);
            let (out, wit) = solve(n, &sets, |u, v| exact[u][v], &mut ledger);
            let via = |u: usize, v: usize, w: usize| {
                let shared = sets[u].contains(&w) && sets[v].contains(&w);
                if shared {
                    dadd(exact[u][w], exact[w][v])
                } else {
                    INF
                }
            };
            for u in 0..n {
                for v in 0..n {
                    if u == v {
                        continue;
                    }
                    let want = (0..n).map(|w| via(u, v, w)).min().unwrap_or(INF);
                    assert_eq!(out[u][v], want, "({u},{v})");
                    let first = (0..n).find(|&w| want < INF && via(u, v, w) == want);
                    assert_eq!(wit[u][v], first.map_or(u32::MAX, |w| w as u32), "({u},{v})");
                }
            }
        }
    }

    #[test]
    fn infinite_estimates_are_skipped() {
        let sets = vec![vec![1], vec![1]];
        let mut ledger = RoundLedger::new(2);
        let (out, _) = solve(2, &sets, |_, _| INF, &mut ledger);
        assert_eq!(out[0][1], INF);
    }

    #[test]
    fn constant_rounds_for_sqrt_sets() {
        let n = 4096;
        let sets: Vec<Vec<usize>> = (0..n).map(|v| vec![v % 64]).collect();
        let mut ledger = RoundLedger::new(n);
        let _ = ThroughSets::gather(n, &sets, |_, _| 1, &mut ledger);
        assert!(ledger.total_rounds() <= 2);
    }

    #[test]
    #[should_panic(expected = "one set per vertex")]
    fn wrong_set_count_panics() {
        let mut ledger = RoundLedger::new(3);
        let _ = ThroughSets::gather(3, &[vec![]], |_, _| 1, &mut ledger);
    }
}
