//! The `(S,d)`-source detection problem (Thm 11 of the paper, from \[3\]).
//!
//! Given a set `S` of sources and a hop bound `d`, every vertex learns, for
//! each source, the length of the shortest path to it that uses at most `d`
//! edges. Works on weighted graphs (in this workspace: unions `G ∪ H` of the
//! input graph with hopset/emulator edges).
//!
//! Round cost: `O((m^{1/3}|S|^{2/3}/n + 1)·d)` — linear in `d`, which is
//! exactly why the paper pairs it with hopsets: a `(β, ε, t)`-hopset lets one
//! call it with `d = β = O(log t / ε)` instead of `d = t`.

use cc_clique::RoundLedger;
use cc_graphs::{dijkstra, Dist, WeightedGraph, INF};

/// Result of an `(S,d)`-source detection run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceDetection {
    sources: Vec<usize>,
    hops: usize,
    n: usize,
    /// Source-major rows: `dist[i * n + v]` = length of the shortest
    /// `≤ hops`-edge path from `v` to `sources[i]`.
    dist: Vec<Dist>,
    /// Per-source predecessor rows in the same layout (see
    /// [`SourceDetection::run_with_parents`]).
    parents: Option<Vec<u32>>,
}

impl SourceDetection {
    /// Runs `(S,d)`-source detection on the weighted graph `g`, charging the
    /// Thm 11 round cost to `ledger`. The sources' searches are sharded
    /// over `threads` workers; the result is the same at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        threads: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::run_impl(g, sources, hops, threads, false, ledger)
    }

    /// [`SourceDetection::run`] with per-source predecessor tracking, so
    /// every detected distance comes with a reconstructible walk over `g`
    /// ([`SourceDetection::chain`]). Distances and charged rounds are
    /// identical to [`SourceDetection::run`] — in the model the witnesses
    /// ride the very messages that carry the distances.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run_with_parents(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        threads: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::run_impl(g, sources, hops, threads, true, ledger)
    }

    fn run_impl(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        threads: usize,
        with_parents: bool,
        ledger: &mut RoundLedger,
    ) -> Self {
        assert!(!sources.is_empty(), "source detection needs ≥ 1 source");
        assert!(
            sources.iter().all(|&s| s < g.n()),
            "source out of range for n = {}",
            g.n()
        );
        ledger.charge_source_detection(
            "(S,d)-source detection",
            g.m() as u64,
            sources.len() as u64,
            hops as u64,
        );
        let (dist, parents) =
            dijkstra::hop_limited_from_sources(g, sources, hops, threads, with_parents);
        SourceDetection {
            sources: sources.to_vec(),
            hops,
            n: g.n(),
            dist,
            parents,
        }
    }

    /// The walk behind the detected distance of `(v, sources[i])`: the
    /// vertex sequence `sources[i], …, v` over `g`, whose weight is at most
    /// `dist_to_source_index(v, i)`. `None` when `v` was not detected or
    /// parents were not recorded.
    pub fn chain(&self, i: usize, v: usize) -> Option<Vec<usize>> {
        let parents = self.parents.as_ref()?;
        let row = &parents[i * self.n..(i + 1) * self.n];
        dijkstra::chain_from_hop_parents(row, self.sources[i], v)
    }

    /// The sources, in the order used for indexing.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// The hop bound `d`.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Distance from `v` to the `i`-th source (`INF` if unreachable within
    /// the hop bound).
    pub fn dist_to_source_index(&self, v: usize, i: usize) -> Dist {
        self.dist[i * self.n + v]
    }

    /// Distance from `v` to source vertex `s` (`None` if `s` is not a
    /// source).
    pub fn dist_to(&self, v: usize, s: usize) -> Option<Dist> {
        self.sources
            .iter()
            .position(|&x| x == s)
            .map(|i| self.dist_to_source_index(v, i))
    }

    /// Iterator over `(source, distance)` pairs of `v`, skipping `INF`.
    pub fn detected(&self, v: usize) -> impl Iterator<Item = (usize, Dist)> + '_ {
        self.sources
            .iter()
            .enumerate()
            .map(move |(i, &s)| (s, self.dist_to_source_index(v, i)))
            .filter(|&(_, d)| d < INF)
    }

    /// The nearest source to `v` (ties by source order), if any is within
    /// the hop bound.
    pub fn nearest_source(&self, v: usize) -> Option<(usize, Dist)> {
        self.nearest_sources(v, 1).into_iter().next()
    }

    /// The `k` nearest detected sources to `v`, sorted by
    /// `(distance, source id)` — the `(S, d, k)`-source detection output of
    /// \[3\] (footnote 7 of the paper: the applications use `k = |S|`, but
    /// the general variant restricts each vertex's output to its `k`
    /// closest sources).
    pub fn nearest_sources(&self, v: usize, k: usize) -> Vec<(usize, Dist)> {
        let mut found: Vec<(Dist, usize)> = self.detected(v).map(|(s, d)| (d, s)).collect();
        found.sort_unstable();
        found.truncate(k);
        found.into_iter().map(|(d, s)| (s, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, Graph};

    fn weighted(g: &Graph) -> WeightedGraph {
        WeightedGraph::from_unweighted(g)
    }

    #[test]
    fn full_hops_matches_bfs() {
        let g = generators::grid(5, 4);
        let wg = weighted(&g);
        let sources = [0usize, 7, 19];
        let mut ledger = RoundLedger::new(g.n());
        let sd = SourceDetection::run(&wg, &sources, g.n(), 1, &mut ledger);
        for &s in &sources {
            let exact = bfs::sssp(&g, s);
            for v in 0..g.n() {
                assert_eq!(sd.dist_to(v, s), Some(exact[v]));
            }
        }
    }

    #[test]
    fn hop_bound_truncates() {
        let g = generators::path(8);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(8);
        let sd = SourceDetection::run(&wg, &[0], 3, 1, &mut ledger);
        assert_eq!(sd.dist_to(3, 0), Some(3));
        assert_eq!(sd.dist_to(4, 0), Some(INF));
        assert_eq!(sd.detected(4).count(), 0);
    }

    #[test]
    fn weighted_hops_count_edges_not_weight() {
        // One heavy edge: 2 hops reach weight-10 path.
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 10), (1, 2, 10)]);
        let mut ledger = RoundLedger::new(3);
        let sd = SourceDetection::run(&wg, &[0], 2, 1, &mut ledger);
        assert_eq!(sd.dist_to(2, 0), Some(20));
        let sd = SourceDetection::run(&wg, &[0], 1, 1, &mut ledger);
        assert_eq!(sd.dist_to(2, 0), Some(INF));
    }

    #[test]
    fn nearest_source_picks_minimum() {
        let g = generators::path(9);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(9);
        let sd = SourceDetection::run(&wg, &[0, 8], 8, 1, &mut ledger);
        assert_eq!(sd.nearest_source(1), Some((0, 1)));
        assert_eq!(sd.nearest_source(7), Some((8, 1)));
        // Midpoint ties break by source order.
        assert_eq!(sd.nearest_source(4), Some((0, 4)));
    }

    #[test]
    fn nearest_k_sources_sorted_and_truncated() {
        let g = generators::path(9);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(9);
        let sd = SourceDetection::run(&wg, &[0, 4, 8], 8, 1, &mut ledger);
        // From vertex 3: sources at distances 3 (v0), 1 (v4), 5 (v8).
        assert_eq!(sd.nearest_sources(3, 2), vec![(4, 1), (0, 3)]);
        assert_eq!(sd.nearest_sources(3, 10).len(), 3);
        // Hop-bounded: from vertex 0 with 2 hops only sources within 2 hops.
        let sd = SourceDetection::run(&wg, &[0, 4, 8], 2, 1, &mut ledger);
        assert_eq!(sd.nearest_sources(3, 10), vec![(4, 1)]);
    }

    #[test]
    fn parent_chains_are_real_bounded_walks() {
        let g = generators::caveman(4, 5);
        let wg = weighted(&g);
        let sources = [0usize, 9, 17];
        let mut l1 = RoundLedger::new(g.n());
        let mut l2 = RoundLedger::new(g.n());
        let plain = SourceDetection::run(&wg, &sources, 6, 1, &mut l1);
        let sd = SourceDetection::run_with_parents(&wg, &sources, 6, 3, &mut l2);
        assert_eq!(l1.total_rounds(), l2.total_rounds(), "same charge");
        assert!(plain.chain(0, 3).is_none(), "no parents recorded");
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                let d = sd.dist_to_source_index(v, i);
                assert_eq!(d, plain.dist_to_source_index(v, i), "same distances");
                if d >= INF {
                    continue;
                }
                let chain = sd.chain(i, v).expect("detected vertices have chains");
                assert_eq!(chain[0], s);
                assert_eq!(*chain.last().unwrap(), v);
                let weight: Dist = chain
                    .windows(2)
                    .map(|w| {
                        wg.neighbors(w[0])
                            .iter()
                            .filter(|&&(x, _)| x as usize == w[1])
                            .map(|&(_, wt)| wt)
                            .min()
                            .expect("chain hop is an edge")
                    })
                    .sum();
                assert!(weight <= d, "chain weight {weight} exceeds estimate {d}");
            }
        }
    }

    #[test]
    fn rounds_linear_in_hops() {
        let g = generators::cycle(64);
        let wg = weighted(&g);
        let mut l1 = RoundLedger::new(64);
        let mut l2 = RoundLedger::new(64);
        let _ = SourceDetection::run(&wg, &[0, 1], 10, 1, &mut l1);
        let _ = SourceDetection::run(&wg, &[0, 1], 20, 1, &mut l2);
        assert_eq!(l2.total_rounds(), 2 * l1.total_rounds());
    }

    #[test]
    #[should_panic(expected = "≥ 1 source")]
    fn empty_sources_rejected() {
        let g = generators::path(4);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(4);
        let _ = SourceDetection::run(&wg, &[], 2, 1, &mut ledger);
    }
}
