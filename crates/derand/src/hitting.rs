//! Hitting sets: randomized (Lemma 8) and deterministic (Lemma 9).
//!
//! Given sets `{S_v}` over a universe of `N` elements, each of size at least
//! `k`, a *hitting set* `A` intersects every `S_v`.
//!
//! * [`random_hitting_set`] (Lemma 8): include each element independently
//!   with probability `c·ln N / k`; the result has size `O(N log N / k)` and
//!   hits every set w.h.p. — zero communication rounds.
//! * [`deterministic_hitting_set`] (Lemma 9, \[Parter–Yogev\]): a
//!   deterministic set of size `O(N log L / k)` computed here by the greedy
//!   max-coverage derandomization (the centralized equivalent of the
//!   conditional-expectation/PRG protocol; substitution documented in
//!   `DESIGN.md` §3), charged `O((log log n)³)` rounds per Lemma 9.

use cc_clique::RoundLedger;
use rand::Rng;

/// Errors for hitting-set construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HittingError {
    /// A set was smaller than the promised minimum size `k`.
    SetTooSmall {
        /// Index of the offending set.
        index: usize,
        /// Its actual size.
        size: usize,
        /// The promised minimum.
        k: usize,
    },
    /// An element was outside the universe `0..N`.
    ElementOutOfRange {
        /// Index of the offending set.
        index: usize,
        /// The offending element.
        element: usize,
        /// Universe size.
        universe: usize,
    },
}

impl std::fmt::Display for HittingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HittingError::SetTooSmall { index, size, k } => {
                write!(f, "set {index} has {size} elements, below the promised {k}")
            }
            HittingError::ElementOutOfRange {
                index,
                element,
                universe,
            } => write!(
                f,
                "set {index} contains {element}, outside the universe 0..{universe}"
            ),
        }
    }
}

impl std::error::Error for HittingError {}

fn validate(universe: usize, k: usize, sets: &[Vec<usize>]) -> Result<(), HittingError> {
    for (index, s) in sets.iter().enumerate() {
        if s.len() < k {
            return Err(HittingError::SetTooSmall {
                index,
                size: s.len(),
                k,
            });
        }
        for &e in s {
            if e >= universe {
                return Err(HittingError::ElementOutOfRange {
                    index,
                    element: e,
                    universe,
                });
            }
        }
    }
    Ok(())
}

/// `true` if `a` (sorted or not) hits every set.
pub fn hits_all(a: &[usize], sets: &[Vec<usize>]) -> bool {
    let mut marked = vec![false; a.iter().copied().max().map_or(0, |m| m + 1)];
    for &e in a {
        marked[e] = true;
    }
    sets.iter()
        .all(|s| s.iter().any(|&e| e < marked.len() && marked[e]))
}

/// Lemma 8: randomized hitting set by independent sampling at rate
/// `min(1, c·ln(N)/k)`. Costs zero rounds (sampling is local; one broadcast
/// round to announce membership is charged).
///
/// The result hits all sets w.h.p. but is **not** checked here; callers that
/// need certainty should retry (the failure probability is `N^{-(c-1)}`).
///
/// # Errors
///
/// Returns an error if a set is smaller than `k` or out of range.
pub fn random_hitting_set(
    universe: usize,
    k: usize,
    sets: &[Vec<usize>],
    c: f64,
    rng: &mut impl Rng,
    ledger: &mut RoundLedger,
) -> Result<Vec<usize>, HittingError> {
    validate(universe, k, sets)?;
    let p = (c * (universe.max(2) as f64).ln() / k.max(1) as f64).min(1.0);
    let a: Vec<usize> = (0..universe).filter(|_| rng.gen_bool(p)).collect();
    ledger.charge_broadcast("announce hitting set membership");
    Ok(a)
}

/// Lemma 9: deterministic hitting set of size `O(N log L / k)`.
///
/// Computed by greedy max-coverage: repeatedly pick the element contained in
/// the most not-yet-hit sets. Since every set has ≥ `k` of the `N` elements,
/// each pick hits at least a `k/N` fraction of the remainder, so at most
/// `⌈(N/k)·ln L⌉ + 1` picks are needed. Rounds are charged per Lemma 9
/// (`O((log log n)³)` via the PRG + conditional expectations protocol).
///
/// # Errors
///
/// Returns an error if a set is smaller than `k` or out of range.
pub fn deterministic_hitting_set(
    universe: usize,
    k: usize,
    sets: &[Vec<usize>],
    ledger: &mut RoundLedger,
) -> Result<Vec<usize>, HittingError> {
    validate(universe, k, sets)?;
    ledger.charge_conditional_expectation("deterministic hitting set", universe as u64);
    // The indices of the sets containing element `e`, in set order:
    // `containing[start[e]..start[e + 1]]`, filled by counting sort.
    let mut start = vec![0usize; universe + 1];
    for &e in sets.iter().flatten() {
        start[e + 1] += 1;
    }
    for e in 0..universe {
        start[e + 1] += start[e];
    }
    let mut next = start.clone();
    let mut containing = vec![0u32; start[universe]];
    for (si, s) in sets.iter().enumerate() {
        for &e in s {
            containing[next[e]] = si as u32;
            next[e] += 1;
        }
    }
    // cover[e] = sets containing e that are still unhit, kept current as
    // sets are hit.
    let mut cover: Vec<usize> = start.windows(2).map(|w| w[1] - w[0]).collect();
    let mut unhit: Vec<bool> = vec![true; sets.len()];
    let mut remaining = sets.len();
    let mut chosen = Vec::new();
    while remaining > 0 {
        // Pick the element covering the most unhit sets (ties: smallest id).
        let (best, best_cover) =
            cover
                .iter()
                .enumerate()
                .fold((0, 0), |acc, (e, &c)| if c > acc.1 { (e, c) } else { acc });
        debug_assert!(best_cover > 0, "validated sets are nonempty");
        chosen.push(best);
        for &si in &containing[start[best]..start[best + 1]] {
            let si = si as usize;
            if unhit[si] {
                unhit[si] = false;
                remaining -= 1;
                for &e in &sets[si] {
                    cover[e] -= 1;
                }
            }
        }
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn intervals(universe: usize, k: usize) -> Vec<Vec<usize>> {
        (0..universe)
            .step_by(k)
            .map(|start| (start..start + k).map(|e| e % universe).collect())
            .collect()
    }

    #[test]
    fn random_hitting_hits_whp_and_is_small() {
        let universe = 400;
        let k = 40;
        let sets = intervals(universe, k);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ledger = RoundLedger::new(universe);
        let a = random_hitting_set(universe, k, &sets, 3.0, &mut rng, &mut ledger).unwrap();
        assert!(hits_all(&a, &sets));
        // Size ≤ 4 · c·N ln N / k with the seed above (expected ≈ 3N ln N/k ≈ 180).
        assert!(a.len() < 300, "size = {}", a.len());
        assert_eq!(ledger.total_rounds(), 1);
    }

    #[test]
    fn deterministic_hitting_hits_always() {
        let universe = 200;
        let k = 20;
        let sets = intervals(universe, k);
        let mut ledger = RoundLedger::new(universe);
        let a = deterministic_hitting_set(universe, k, &sets, &mut ledger).unwrap();
        assert!(hits_all(&a, &sets));
        // Disjoint intervals: exactly one pick each.
        assert_eq!(a.len(), sets.len());
        assert!(ledger.total_rounds() > 0);
    }

    #[test]
    fn deterministic_size_bound() {
        // Overlapping random-ish sets: size must stay ≤ (N/k)(ln L + 1) + 1.
        let universe = 128;
        let k = 16;
        let sets: Vec<Vec<usize>> = (0..60)
            .map(|i| {
                (0..k)
                    .map(|j| (i * 7 + j * 11) % universe)
                    .collect::<Vec<_>>()
            })
            .map(|mut s: Vec<usize>| {
                s.sort_unstable();
                s.dedup();
                while s.len() < k {
                    let next = (s.last().unwrap() + 1) % universe;
                    if !s.contains(&next) {
                        s.push(next);
                    }
                    s.sort_unstable();
                }
                s
            })
            .collect();
        let mut ledger = RoundLedger::new(universe);
        let a = deterministic_hitting_set(universe, k, &sets, &mut ledger).unwrap();
        assert!(hits_all(&a, &sets));
        let bound = (universe as f64 / k as f64) * ((sets.len() as f64).ln() + 1.0) + 1.0;
        assert!(
            (a.len() as f64) <= bound,
            "size {} exceeds greedy bound {bound}",
            a.len()
        );
    }

    /// The greedy that recounts every element's cover in every round: the
    /// reference the maintained counts must reproduce.
    fn greedy_recounting(universe: usize, sets: &[Vec<usize>]) -> Vec<usize> {
        let mut unhit: Vec<bool> = vec![true; sets.len()];
        let mut remaining = sets.len();
        let mut containing: Vec<Vec<u32>> = vec![Vec::new(); universe];
        for (si, s) in sets.iter().enumerate() {
            for &e in s {
                containing[e].push(si as u32);
            }
        }
        let mut chosen = Vec::new();
        while remaining > 0 {
            let mut best = 0usize;
            let mut best_cover = 0usize;
            for e in 0..universe {
                let cover = containing[e]
                    .iter()
                    .filter(|&&si| unhit[si as usize])
                    .count();
                if cover > best_cover {
                    best_cover = cover;
                    best = e;
                }
            }
            chosen.push(best);
            for &si in &containing[best] {
                if unhit[si as usize] {
                    unhit[si as usize] = false;
                    remaining -= 1;
                }
            }
        }
        chosen
    }

    /// On the `(k,d)`-nearest sets the hopsets hit — every vertex's list,
    /// and the full lists only — and on sets with repeated elements.
    #[test]
    fn maintained_counts_match_recounting() {
        use cc_graphs::{bfs, generators, Graph, INF};
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let two_parts = Graph::from_edges(
            30,
            &(0..29)
                .filter(|&v| v != 11)
                .map(|v| (v, v + 1))
                .chain([(2, 8), (15, 25)])
                .collect::<Vec<_>>(),
        );
        for (name, g) in [
            ("grid", generators::grid(7, 6)),
            ("gnp", generators::gnp(60, 0.06, &mut rng)),
            ("caveman", generators::caveman(5, 6)),
            ("disconnected", two_parts),
        ] {
            let n = g.n();
            for k in [1, 2, 3, 5, 8, 13, n - 1, n, n + 7] {
                for d in [1, 2, 3, 5, INF] {
                    let lists: Vec<Vec<usize>> = (0..n)
                        .map(|v| {
                            bfs::knearest_reference(&g, v, k, d)
                                .iter()
                                .map(|&(u, _)| u as usize)
                                .collect()
                        })
                        .collect();
                    let full: Vec<Vec<usize>> =
                        lists.iter().filter(|s| s.len() >= k).cloned().collect();
                    let doubled: Vec<Vec<usize>> = lists
                        .iter()
                        .map(|s| s.iter().chain(s.iter().step_by(2)).copied().collect())
                        .collect();
                    for (kind, sets, min) in [
                        ("all", &lists, 1),
                        ("full", &full, k),
                        ("repeated", &doubled, 1),
                    ] {
                        let mut ledger = RoundLedger::new(n);
                        let got = deterministic_hitting_set(n, min, sets, &mut ledger).unwrap();
                        assert_eq!(
                            got,
                            greedy_recounting(n, sets),
                            "{name}/{kind}: k={k} d={d}"
                        );
                        assert!(hits_all(&got, sets));
                    }
                }
            }
        }
    }

    #[test]
    fn undersized_set_rejected() {
        let sets = vec![vec![0, 1]];
        let mut ledger = RoundLedger::new(8);
        let err = deterministic_hitting_set(8, 3, &sets, &mut ledger).unwrap_err();
        assert!(matches!(err, HittingError::SetTooSmall { .. }));
    }

    #[test]
    fn out_of_range_rejected() {
        let sets = vec![vec![0, 99]];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ledger = RoundLedger::new(8);
        let err = random_hitting_set(8, 2, &sets, 2.0, &mut rng, &mut ledger).unwrap_err();
        assert!(matches!(err, HittingError::ElementOutOfRange { .. }));
    }

    #[test]
    fn empty_instance_is_trivial() {
        let mut ledger = RoundLedger::new(8);
        let a = deterministic_hitting_set(8, 1, &[], &mut ledger).unwrap();
        assert!(a.is_empty());
        assert!(hits_all(&a, &[]));
    }
}
