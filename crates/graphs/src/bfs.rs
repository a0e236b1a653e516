//! Breadth-first search reference algorithms on unweighted graphs.
//!
//! These are the exact, centralized ground-truth routines against which all
//! Congested Clique algorithms are validated, plus the truncated variants
//! used by the distance-sensitive tool-kit.

use std::collections::VecDeque;

use crate::dist::{Dist, INF};
use crate::graph::Graph;

/// Single-source shortest path distances by BFS.
///
/// Unreachable vertices get [`INF`].
pub fn sssp(g: &Graph, src: usize) -> Vec<Dist> {
    let mut dist = vec![INF; g.n()];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            let v = v as usize;
            if dist[v] == INF {
                dist[v] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Exact all-pairs distances: one BFS per vertex. `O(n·m)` time; ground
/// truth for experiments and tests.
pub fn apsp_exact(g: &Graph) -> Vec<Vec<Dist>> {
    (0..g.n()).map(|v| sssp(g, v)).collect()
}

/// The ball `B(src, radius)`: every vertex within distance `radius`, with its
/// distance, sorted by `(distance, vertex)`.
pub fn ball(g: &Graph, src: usize, radius: Dist) -> Vec<(u32, Dist)> {
    let mut out = Vec::new();
    let mut dist = vec![INF; g.n()];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    out.push((src as u32, 0));
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        if du == radius {
            continue;
        }
        for &v in g.neighbors(u) {
            let v = v as usize;
            if dist[v] == INF {
                dist[v] = du + 1;
                out.push((v as u32, du + 1));
                q.push_back(v);
            }
        }
    }
    out.sort_unstable_by_key(|&(v, d)| (d, v));
    out
}

/// Reference implementation of the `(k,d)`-nearest problem (§2 of the
/// paper): the `k ≥ 1` closest vertices within distance `d` of `src` (all of
/// them if fewer than `k`), ties broken by vertex id, **including `src`
/// itself at distance 0**, sorted by `(distance, vertex)`.
///
/// This computes exactly the object that iterated filtered min-plus squaring
/// computes (Claim 59); `cc-toolkit` cross-checks the two. One search; a
/// caller running many reuses a [`KNearestBfs`].
pub fn knearest_reference(g: &Graph, src: usize, k: usize, d: Dist) -> Vec<(u32, Dist)> {
    KNearestBfs::new(g.n()).run(g, src, k, d)
}

/// Scratch of [`knearest_reference`] searches: a distance buffer that every
/// search restores to [`INF`] at the entries it set, and the visit order by
/// BFS level, so one worker runs any number of searches on an `n`-vertex
/// graph with one allocation.
#[derive(Clone, Debug)]
pub struct KNearestBfs {
    dist: Vec<Dist>,
    order: Vec<u32>,
    /// Start of each BFS level in `order`, then its end.
    bounds: Vec<usize>,
}

impl KNearestBfs {
    /// Scratch for graphs of at most `n` vertices.
    pub fn new(n: usize) -> Self {
        KNearestBfs {
            dist: vec![INF; n],
            order: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// [`knearest_reference`] of `src`. The BFS stops at the first level
    /// that brings the count to `k`; only that level is cut, by selecting
    /// its smallest ids instead of sorting it whole.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the scratch was made for.
    pub fn run(&mut self, g: &Graph, src: usize, k: usize, d: Dist) -> Vec<(u32, Dist)> {
        let n = g.n();
        assert!(n <= self.dist.len(), "scratch sized for fewer vertices");
        self.order.clear();
        self.bounds.clear();
        self.dist[src] = 0;
        self.order.push(src as u32);
        self.bounds.push(0);
        let mut depth: Dist = 0;
        while self.order.len() < k && depth < d && self.order.len() < n {
            let (start, end) = (self.bounds[self.bounds.len() - 1], self.order.len());
            for i in start..end {
                for &v in g.neighbors(self.order[i] as usize) {
                    if self.dist[v as usize] == INF {
                        self.dist[v as usize] = depth + 1;
                        self.order.push(v);
                    }
                }
            }
            depth += 1;
            if self.order.len() == end {
                break;
            }
            self.bounds.push(end);
        }
        self.bounds.push(self.order.len());
        let mut out = Vec::with_capacity(self.order.len().min(k));
        for (level, w) in self.bounds.windows(2).enumerate() {
            if out.len() == k {
                break;
            }
            let ids = &mut self.order[w[0]..w[1]];
            let take = (k - out.len()).min(ids.len());
            if take < ids.len() {
                ids.select_nth_unstable(take);
            }
            let ids = &mut ids[..take];
            ids.sort_unstable();
            out.extend(ids.iter().map(|&v| (v, level as Dist)));
        }
        for &v in &self.order {
            self.dist[v as usize] = INF;
        }
        out
    }
}

/// Multi-source BFS: distance from each vertex to the nearest source, plus
/// that source's id (ties broken by BFS order, then smallest source id at
/// equal distance).
pub fn nearest_source(g: &Graph, sources: &[usize]) -> (Vec<Dist>, Vec<Option<u32>>) {
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut owner: Vec<Option<u32>> = vec![None; n];
    let mut q = VecDeque::new();
    let mut sorted: Vec<usize> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        dist[s] = 0;
        owner[s] = Some(s as u32);
        q.push_back(s);
    }
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            let v = v as usize;
            if dist[v] == INF {
                dist[v] = du + 1;
                owner[v] = owner[u];
                q.push_back(v);
            }
        }
    }
    (dist, owner)
}

/// Eccentricity of `src` (max finite distance from it).
pub fn eccentricity(g: &Graph, src: usize) -> Dist {
    sssp(g, src)
        .into_iter()
        .filter(|&d| d < INF)
        .max()
        .unwrap_or(0)
}

/// Graph diameter (max eccentricity over vertices); `O(n·m)`.
pub fn diameter(g: &Graph) -> Dist {
    (0..g.n()).map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn sssp_on_path() {
        let g = generators::path(5);
        assert_eq!(sssp(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(sssp(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn sssp_unreachable_is_inf() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = sssp(&g, 0);
        assert_eq!(d[2], INF);
    }

    #[test]
    fn ball_respects_radius() {
        let g = generators::path(10);
        let b = ball(&g, 5, 2);
        let ids: Vec<u32> = b.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![5, 4, 6, 3, 7]);
    }

    #[test]
    fn ball_zero_radius_is_self() {
        let g = generators::cycle(6);
        assert_eq!(ball(&g, 2, 0), vec![(2, 0)]);
    }

    #[test]
    fn knearest_matches_ball_prefix() {
        let g = generators::grid(5, 5);
        for v in 0..g.n() {
            let b = ball(&g, v, 3);
            for k in [1usize, 3, 7, 100] {
                let got = knearest_reference(&g, v, k, 3);
                let want: Vec<(u32, Dist)> = b.iter().copied().take(k).collect();
                assert_eq!(got, want, "v={v} k={k}");
            }
        }
    }

    /// The `(k,d)`-nearest search that allocates its distance buffer per
    /// call and sorts every level: the reference [`KNearestBfs`] must
    /// reproduce.
    fn knearest_sorting_every_level(g: &Graph, src: usize, k: usize, d: Dist) -> Vec<(u32, Dist)> {
        let mut levels: Vec<Vec<u32>> = vec![vec![src as u32]];
        let mut dist = vec![INF; g.n()];
        dist[src] = 0;
        let mut collected = 1usize;
        let mut frontier = vec![src];
        let mut depth: Dist = 0;
        while !frontier.is_empty() && depth < d && collected < g.n() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    let v = v as usize;
                    if dist[v] == INF {
                        dist[v] = depth + 1;
                        next.push(v);
                    }
                }
            }
            depth += 1;
            if next.is_empty() {
                break;
            }
            collected += next.len();
            levels.push(next.iter().map(|&v| v as u32).collect());
            frontier = next;
            if collected >= k {
                break;
            }
        }
        let mut out = Vec::with_capacity(collected.min(k));
        'outer: for (d_level, level) in levels.iter_mut().enumerate() {
            level.sort_unstable();
            for &v in level.iter() {
                out.push((v, d_level as Dist));
                if out.len() == k {
                    break 'outer;
                }
            }
        }
        out
    }

    #[test]
    fn reused_scratch_matches_sorting_every_level() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let two_parts = Graph::from_edges(
            30,
            &(0..29)
                .filter(|&v| v != 14)
                .map(|v| (v, v + 1))
                .chain([(3, 9), (20, 27)])
                .collect::<Vec<_>>(),
        );
        for (name, g) in [
            ("grid", generators::grid(7, 6)),
            ("gnp", generators::gnp(60, 0.06, &mut rng)),
            ("caveman", generators::caveman(5, 6)),
            ("disconnected", two_parts),
        ] {
            let n = g.n();
            let mut bfs = KNearestBfs::new(n);
            for k in [1, 2, 3, 5, 8, 13, n - 1, n, n + 7] {
                for d in [1, 2, 3, 5, INF] {
                    for v in 0..n {
                        assert_eq!(
                            bfs.run(&g, v, k, d),
                            knearest_sorting_every_level(&g, v, k, d),
                            "{name}: v={v} k={k} d={d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn knearest_distance_bound_binds() {
        let g = generators::path(10);
        // Only 3 vertices within distance 1 of vertex 5.
        let got = knearest_reference(&g, 5, 10, 1);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(_, d)| d <= 1));
    }

    #[test]
    fn nearest_source_ownership() {
        let g = generators::path(7);
        let (dist, owner) = nearest_source(&g, &[0, 6]);
        assert_eq!(dist[3], 3);
        assert_eq!(owner[1], Some(0));
        assert_eq!(owner[5], Some(6));
    }

    #[test]
    fn diameter_of_known_families() {
        assert_eq!(diameter(&generators::path(10)), 9);
        assert_eq!(diameter(&generators::cycle(10)), 5);
        assert_eq!(diameter(&generators::complete(5)), 1);
    }

    #[test]
    fn apsp_is_symmetric() {
        let g = generators::grid(4, 3);
        let d = apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(d[u][v], d[v][u]);
            }
            assert_eq!(d[u][u], 0);
        }
    }
}
