//! Graph generators for tests and experiments.
//!
//! Random generators take an explicit `&mut impl Rng` so that every
//! experiment is reproducible from a seed.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Graph;

/// Path on `n` vertices (`0 — 1 — … — n−1`).
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle on `n` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star with center 0 and `n − 1` leaves.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// `w × h` grid graph.
pub fn grid(w: usize, h: usize) -> Graph {
    let idx = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, &edges)
}

/// Erdős–Rényi `G(n, p)`.
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Connected `G(n, p)`: a uniform random spanning tree plus `G(n, p)` edges.
/// Guaranteed connected; edge count ≈ `n − 1 + p·n(n−1)/2`.
pub fn connected_gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut edges = random_tree_edges(n, rng);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

fn random_tree_edges(n: usize, rng: &mut impl Rng) -> Vec<(usize, usize)> {
    // Random attachment order over a random permutation: each new vertex
    // attaches to a uniformly random earlier vertex.
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n {
        let j = rng.gen_range(0..i);
        edges.push((perm[i], perm[j]));
    }
    edges
}

/// Uniformly-grown random tree on `n` vertices.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    Graph::from_edges(n, &random_tree_edges(n, rng))
}

/// Preferential-attachment (Barabási–Albert-style) graph: starts from a small
/// clique of `m0 + 1` vertices; each new vertex attaches to `m0` distinct
/// existing vertices chosen proportionally to degree.
///
/// # Panics
///
/// Panics if `m0 == 0` or `n ≤ m0`.
pub fn preferential_attachment(n: usize, m0: usize, rng: &mut impl Rng) -> Graph {
    assert!(m0 >= 1, "attachment degree must be positive");
    assert!(n > m0, "need more vertices than the attachment degree");
    let mut edges = Vec::new();
    // Repeated-endpoint list: sampling an index uniformly is degree-biased.
    let mut endpoints: Vec<usize> = Vec::new();
    let seed = m0 + 1;
    for u in 0..seed {
        for v in (u + 1)..seed {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in seed..n {
        let mut chosen = Vec::with_capacity(m0);
        let mut guard = 0;
        while chosen.len() < m0 && guard < 100 * m0 {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        for &t in &chosen {
            edges.push((v, t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Connected caveman graph: `cliques` cliques of `size` vertices arranged in
/// a ring, adjacent cliques joined by one edge. High local density, large
/// diameter — a stress case for near-additive emulators.
///
/// # Panics
///
/// Panics if `cliques < 3` or `size < 2`.
pub fn caveman(cliques: usize, size: usize) -> Graph {
    assert!(cliques >= 3, "caveman ring needs at least 3 cliques");
    assert!(size >= 2, "cliques need at least 2 vertices");
    let n = cliques * size;
    let mut edges = Vec::new();
    for c in 0..cliques {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                edges.push((base + u, base + v));
            }
        }
        // Bridge from last vertex of this clique to first of the next.
        let next = ((c + 1) % cliques) * size;
        edges.push((base + size - 1, next));
    }
    Graph::from_edges(n, &edges)
}

/// Watts–Strogatz small world: a ring lattice where each vertex connects to
/// its `k/2` nearest neighbors on each side, with every edge rewired to a
/// random endpoint with probability `p`.
///
/// # Panics
///
/// Panics if `k < 2`, `k` is odd, or `n ≤ k`.
pub fn watts_strogatz(n: usize, k: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and ≥ 2");
    assert!(n > k, "need n > k");
    let mut edges = Vec::new();
    for v in 0..n {
        for j in 1..=(k / 2) {
            let u = (v + j) % n;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                // Rewire: random endpoint avoiding self-loop.
                let mut w = rng.gen_range(0..n);
                if w == v {
                    w = (w + 1) % n;
                }
                edges.push((v, w));
            } else {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The `d`-dimensional hypercube (`2^d` vertices; vertices adjacent iff
/// their labels differ in one bit).
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: usize) -> Graph {
    assert!((1..=20).contains(&d), "dimension must be in 1..=20");
    let n = 1usize << d;
    let mut edges = Vec::new();
    for v in 0..n {
        for b in 0..d {
            let u = v ^ (1 << b);
            if u > v {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Complete bipartite graph `K_{a,b}` (vertices `0..a` on one side).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..a {
        for v in 0..b {
            edges.push((u, a + v));
        }
    }
    Graph::from_edges(a + b, &edges)
}

/// Barbell: two `k`-cliques connected by a path of `bridge` vertices.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    let n = 2 * k + bridge;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u, v));
            edges.push((k + bridge + u, k + bridge + v));
        }
    }
    // Path through the bridge.
    let mut prev = k - 1;
    for b in 0..bridge {
        edges.push((prev, k + b));
        prev = k + b;
    }
    edges.push((prev, k + bridge));
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!(g.m(), 7);
        assert!((0..7).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 4 * 2 + 3 * 3); // horizontal rows + vertical cols
        assert!(g.is_connected());
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 100;
        let p = 0.1;
        let g = gnp(n, p, &mut rng(1));
        let expect = p * (n * (n - 1)) as f64 / 2.0;
        let got = g.m() as f64;
        assert!((got - expect).abs() < 0.35 * expect, "m = {got}");
    }

    #[test]
    fn connected_gnp_is_connected() {
        for seed in 0..5 {
            let g = connected_gnp(60, 0.01, &mut rng(seed));
            assert!(g.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        let g = random_tree(50, &mut rng(2));
        assert_eq!(g.m(), 49);
        assert!(g.is_connected());
    }

    #[test]
    fn preferential_attachment_is_connected_with_hubs() {
        let g = preferential_attachment(200, 2, &mut rng(3));
        assert!(g.is_connected());
        assert!(
            g.max_degree() >= 8,
            "expected hubs, max degree {}",
            g.max_degree()
        );
    }

    #[test]
    fn caveman_structure() {
        let g = caveman(4, 5);
        assert_eq!(g.n(), 20);
        assert!(g.is_connected());
        // Ring of cliques has diameter roughly cliques/2 · 2.
        assert!(crate::bfs::diameter(&g) >= 4);
    }

    #[test]
    fn barbell_diameter_spans_bridge() {
        let g = barbell(4, 3);
        assert!(g.is_connected());
        assert_eq!(crate::bfs::diameter(&g), 3 + 2 + 1);
    }

    #[test]
    fn watts_strogatz_shapes() {
        // p = 0: pure ring lattice, exactly nk/2 edges, diameter ~ n/k.
        let g = watts_strogatz(24, 4, 0.0, &mut rng(1));
        assert_eq!(g.m(), 24 * 2);
        assert!((0..24).all(|v| g.degree(v) == 4));
        // p = 0.3: same edge count (rewiring preserves count up to dedup),
        // smaller diameter w.h.p.
        let g0 = watts_strogatz(100, 4, 0.0, &mut rng(2));
        let g3 = watts_strogatz(100, 4, 0.3, &mut rng(2));
        assert!(crate::bfs::diameter(&g3) <= crate::bfs::diameter(&g0));
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 16 * 4 / 2);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert_eq!(crate::bfs::diameter(&g), 4);
        // Distance = Hamming distance.
        let d = crate::bfs::sssp(&g, 0);
        for v in 0..16usize {
            assert_eq!(d[v], v.count_ones());
        }
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert_eq!(crate::bfs::diameter(&g), 2);
        assert!(!g.has_edge(0, 1)); // same side
        assert!(g.has_edge(0, 3));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_rejected() {
        let _ = cycle(2);
    }
}
