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
//!
//! Over a hopset union ([`SourceDetection::over_hopset`]) the local
//! computation is often far cheaper than `d` hops: a source whose BFS depth
//! in the hopset's base graph is at most `d` has its BFS row as its exact
//! row (`dijkstra::hop_limited_over_union`). The charge does not depend on
//! that. Every run is charged Thm 11's formula at the caller's `d`, which
//! every hopset caller sets to the worst case `β`, however shallow its
//! sources are.

use cc_clique::RoundLedger;
use cc_graphs::{dijkstra, Dist, WeightedGraph, INF};

use crate::hopset::BoundedHopset;

/// Result of an `(S,d)`-source detection run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceDetection {
    sources: Vec<usize>,
    hops: usize,
    n: usize,
    /// Source-major rows: `dist[i * n + v]` = length of the shortest
    /// `≤ hops`-edge path from `v` to `sources[i]`.
    dist: Vec<Dist>,
    /// Per-source predecessor rows in the same layout, allocated by the
    /// first [`SourceDetection::record_parents`] that asks for one.
    parents: Option<Vec<u32>>,
    /// Per source: its parent row has been recorded.
    recorded: Vec<bool>,
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
        Self::charge(g, sources, hops, ledger);
        let (dist, _) = dijkstra::hop_limited_from_sources(g, sources, hops, threads, false);
        Self::new(g, sources, hops, dist)
    }

    /// [`SourceDetection::run`] over the union `G ∪ H` the hopset `hs`
    /// keeps, at its hop bound `β`. Distances and charged rounds are those
    /// of [`SourceDetection::run`]; a source whose BFS depth in `G` is at
    /// most `β` takes its BFS row and skips the Bellman–Ford search.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn over_hopset(
        hs: &BoundedHopset,
        sources: &[usize],
        threads: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::charge(&hs.union, sources, hs.beta, ledger);
        let dist =
            dijkstra::hop_limited_over_union(&hs.union, &hs.base_degree, sources, hs.beta, threads);
        Self::new(&hs.union, sources, hs.beta, dist)
    }

    /// Records the predecessor rows of the listed source indices, sharded
    /// over `threads` workers, so the walks behind their detected
    /// distances are available ([`SourceDetection::chain`]). `g` is the
    /// graph the run searched. Each row is the one a hop-limited
    /// Bellman–Ford search from that source records, whatever else is
    /// recorded: sources are searched independently. In the model the
    /// witnesses ride the very messages that carry the distances, so
    /// recording charges nothing.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn record_parents(
        &mut self,
        g: &WeightedGraph,
        indices: impl IntoIterator<Item = usize>,
        threads: usize,
    ) {
        let mut wanted = vec![false; self.sources.len()];
        for i in indices {
            wanted[i] = !self.recorded[i];
        }
        if !wanted.contains(&true) {
            return;
        }
        let rows = self.sources.len() * self.n;
        let parents = self.parents.get_or_insert_with(|| vec![u32::MAX; rows]);
        dijkstra::fill_hop_parents(g, &self.sources, self.hops, threads, &wanted, parents);
        for (recorded, want) in self.recorded.iter_mut().zip(wanted) {
            *recorded |= want;
        }
    }

    fn charge(g: &WeightedGraph, sources: &[usize], hops: usize, ledger: &mut RoundLedger) {
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
    }

    fn new(g: &WeightedGraph, sources: &[usize], hops: usize, dist: Vec<Dist>) -> Self {
        SourceDetection {
            sources: sources.to_vec(),
            hops,
            n: g.n(),
            dist,
            parents: None,
            recorded: vec![false; sources.len()],
        }
    }

    /// The walk behind the detected distance of `(v, sources[i])`: the
    /// vertex sequence `sources[i], …, v` over the searched graph, whose
    /// weight is at most `dist_to_source_index(v, i)`. `None` when `v` was
    /// not detected or the source's parents were not recorded.
    pub fn chain(&self, i: usize, v: usize) -> Option<Vec<usize>> {
        if !self.recorded[i] {
            return None;
        }
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
        // k = 1 is the nearest source; ties break by source id.
        let sd = SourceDetection::run(&wg, &[8, 0], 8, 1, &mut ledger);
        assert_eq!(sd.nearest_sources(1, 1), vec![(0, 1)]);
        assert_eq!(sd.nearest_sources(7, 1), vec![(8, 1)]);
        assert_eq!(sd.nearest_sources(4, 1), vec![(0, 4)]);
    }

    #[test]
    fn parent_chains_are_real_bounded_walks() {
        let g = generators::caveman(4, 5);
        let wg = weighted(&g);
        let sources = [0usize, 9, 17];
        let mut ledger = RoundLedger::new(g.n());
        let mut sd = SourceDetection::run(&wg, &sources, 6, 1, &mut ledger);
        assert!(sd.chain(0, 3).is_none(), "no parents recorded");
        sd.record_parents(&wg, [0], 1);
        assert!(sd.chain(1, 3).is_none(), "only the asked rows");
        sd.record_parents(&wg, 0..sources.len(), 3);
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                let d = sd.dist_to_source_index(v, i);
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

    /// The certified kernel against the Bellman–Ford kernel on real
    /// hopset unions: every row, and the parent row of every source asked
    /// for (and no other), bit for bit, at hop bounds on both sides of the
    /// sources' BFS depths in the base graph.
    #[test]
    fn certified_rows_match_bellman_ford() {
        use crate::hopset::{self, BasisCache, HopsetParams};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut two_parts: Vec<(usize, usize)> = (0..59).map(|v| (v, v + 1)).collect();
        two_parts.extend(
            generators::caveman(4, 6)
                .edges()
                .map(|(u, v)| (u + 60, v + 60)),
        );
        let graphs = [
            ("grid 9x11", generators::grid(9, 11)),
            ("gnp 90", generators::gnp(90, 0.05, &mut rng)),
            ("caveman 6x8", generators::caveman(6, 8)),
            ("cycle 240", generators::cycle(240)),
            ("two parts", Graph::from_edges(84, &two_parts)),
        ];
        let (mut certified, mut fallback) = (0usize, 0usize);
        for (name, g) in &graphs {
            let n = g.n();
            let sources: Vec<usize> = (0..n).step_by(7).collect();
            let depths: Vec<usize> = sources
                .iter()
                .map(|&s| {
                    let d = bfs::sssp(g, s);
                    d.into_iter().filter(|&x| x < INF).max().unwrap_or(0) as usize
                })
                .collect();
            let (lo, hi) = (*depths.iter().min().unwrap(), *depths.iter().max().unwrap());
            for randomized in [false, true] {
                for record in [false, true] {
                    let params = HopsetParams::scaled(n, 16, 0.5).with_paths(record);
                    let mut ledger = RoundLedger::new(n);
                    let hs = if randomized {
                        hopset::build_randomized(
                            g,
                            params,
                            &mut rng,
                            &mut BasisCache::default(),
                            &mut ledger,
                        )
                    } else {
                        hopset::build_deterministic(
                            g,
                            params,
                            &mut BasisCache::default(),
                            &mut ledger,
                        )
                    };
                    let union = &hs.union;
                    for h in [0, 1, lo.max(1) - 1, (lo + hi) / 2, hi, hs.beta] {
                        let at = format!("{name} randomized={randomized} record={record} h={h}");
                        let (want_dist, want_parents) =
                            dijkstra::hop_limited_from_sources(union, &sources, h, 1, true);
                        let want_parents = want_parents.unwrap();
                        certified += depths.iter().filter(|&&d| d <= h).count();
                        fallback += depths.iter().filter(|&&d| d > h).count();
                        for threads in 1..=4 {
                            let at = format!("{at} threads={threads}");
                            let dist = dijkstra::hop_limited_over_union(
                                union,
                                &hs.base_degree,
                                &sources,
                                h,
                                threads,
                            );
                            assert_eq!(dist, want_dist, "{at}: rows");
                            let wanted: Vec<bool> =
                                (0..sources.len()).map(|i| (i + threads) % 3 != 0).collect();
                            let mut rows = vec![u32::MAX; sources.len() * n];
                            dijkstra::fill_hop_parents(
                                union, &sources, h, threads, &wanted, &mut rows,
                            );
                            for (i, &want) in wanted.iter().enumerate() {
                                let row = &rows[i * n..(i + 1) * n];
                                if want {
                                    assert_eq!(row, &want_parents[i * n..(i + 1) * n], "{at}: {i}");
                                } else {
                                    assert!(row.iter().all(|&p| p == u32::MAX), "{at}: {i}");
                                }
                            }
                        }
                    }
                    // Through the toolkit at `β`: the chains of every pair of
                    // the sources asked for, and none of the others.
                    let at = format!("{name} randomized={randomized} record={record}");
                    let (want_dist, want_parents) =
                        dijkstra::hop_limited_from_sources(union, &sources, hs.beta, 1, true);
                    let want_parents = want_parents.unwrap();
                    let mut sd = SourceDetection::over_hopset(&hs, &sources, 2, &mut ledger);
                    let asked: Vec<usize> = (0..sources.len()).step_by(2).collect();
                    sd.record_parents(union, asked.iter().copied(), 3);
                    for (i, &s) in sources.iter().enumerate() {
                        let want_row = &want_parents[i * n..(i + 1) * n];
                        for v in 0..n {
                            assert_eq!(sd.dist_to_source_index(v, i), want_dist[i * n + v]);
                            let want = if asked.contains(&i) {
                                dijkstra::chain_from_hop_parents(want_row, s, v)
                            } else {
                                None
                            };
                            assert_eq!(sd.chain(i, v), want, "{at}: chain ({i},{v})");
                        }
                    }
                }
            }
        }
        assert!(certified > 0 && fallback > 0, "both kinds of source occur");
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
