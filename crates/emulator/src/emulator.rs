//! The emulator object and its verification utilities.

use cc_graphs::{bfs, dijkstra, Dist, Graph, WeightedGraph, INF};

use crate::params::EmulatorParams;

/// A constructed near-additive emulator.
#[derive(Clone, Debug)]
pub struct Emulator {
    /// The weighted emulator graph `H` on the same vertex set as `G`.
    pub graph: WeightedGraph,
    /// `levels[v] = max{i : v ∈ Sᵢ}` for the hierarchy used.
    pub levels: Vec<u8>,
    /// Per-edge provenance when the emulator was built with
    /// [`crate::clique::CliqueEmulatorConfig::record_paths`]: every emulator
    /// edge unrolls into a real walk in `G` of weight at most the edge's
    /// (non-top-level edges via their `(k,δ)`-nearest parent chains,
    /// top-level edges via their hop-limited walks over `G` ∪ hopset).
    pub routes: Option<cc_routes::Unroller>,
}

impl Emulator {
    /// Number of emulator edges.
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Members of level set `Sᵢ` (vertices with level ≥ `i`).
    pub fn level_set(&self, i: usize) -> Vec<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize >= i)
            .map(|(v, _)| v)
            .collect()
    }

    /// All-pairs distances *in the emulator* (each vertex, having learned
    /// the whole emulator, runs Dijkstra locally — the computation behind
    /// Thm 32).
    pub fn apsp(&self) -> Vec<Vec<Dist>> {
        dijkstra::apsp_exact(&self.graph)
    }

    /// An emulator route from `u` to `v`: the vertex sequence of a shortest
    /// path *in the emulator* together with its length (which is the
    /// `(1+ε, β)`-approximate distance). Each emulator edge is a shortcut
    /// whose weight upper-bounds the corresponding `G`-distance, so the
    /// route is a valid high-level itinerary through `G`.
    pub fn route(&self, u: usize, v: usize) -> Option<(Vec<usize>, Dist)> {
        let tree = dijkstra::sssp_tree(&self.graph, u);
        if tree.dist(v) >= INF {
            return None;
        }
        tree.path_to(v).map(|p| (p, tree.dist(v)))
    }

    /// Verifies the emulator against its parameters on graph `g` (exact
    /// all-pairs comparison; `O(n·m)` — intended for tests/experiments).
    pub fn verify(&self, g: &Graph, params: &EmulatorParams) -> EmulatorReport {
        self.verify_with_bounds(
            g,
            params.multiplicative_bound(),
            params.additive_bound() as f64,
            params.size_bound(),
        )
    }

    /// Verifies against explicit `(1+ε̂, β̂)` bounds and a size bound.
    pub fn verify_with_bounds(
        &self,
        g: &Graph,
        mult_bound: f64,
        add_bound: f64,
        size_bound: f64,
    ) -> EmulatorReport {
        let exact = bfs::apsp_exact(g);
        let emud = self.apsp();
        let n = g.n();
        let mut max_add_err = 0.0f64;
        let mut max_ratio = 1.0f64;
        let mut lower_violations = 0usize;
        let mut missed = 0usize;
        let mut worst_pair = (0usize, 0usize);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = exact[u][v];
                if d == 0 || d >= INF {
                    continue;
                }
                let h = emud[u][v];
                if h >= INF {
                    missed += 1;
                    continue;
                }
                if h < d {
                    lower_violations += 1;
                }
                let add_err = h as f64 - mult_bound * d as f64;
                if add_err > max_add_err {
                    max_add_err = add_err;
                    worst_pair = (u, v);
                }
                max_ratio = max_ratio.max(h as f64 / d as f64);
            }
        }
        EmulatorReport {
            edges: self.m(),
            size_bound,
            max_additive_error: max_add_err,
            additive_bound: add_bound,
            max_ratio,
            lower_violations,
            missed,
            worst_pair,
            within_bounds: lower_violations == 0 && missed == 0 && max_add_err <= add_bound + 1e-6,
        }
    }
}

/// Result of verifying an emulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EmulatorReport {
    /// Number of emulator edges.
    pub edges: usize,
    /// The `O(r·n^{1+1/2^r})` size bound (without the hidden constant).
    pub size_bound: f64,
    /// Max over pairs of `d_H − (1+20εr)·d_G` (must be ≤ β).
    pub max_additive_error: f64,
    /// The additive bound `β` checked against.
    pub additive_bound: f64,
    /// Max `d_H/d_G` ratio observed.
    pub max_ratio: f64,
    /// Pairs with `d_H < d_G` (must be 0: emulator weights never undercut).
    pub lower_violations: usize,
    /// Finite pairs with no emulator path (must be 0 on connected inputs).
    pub missed: usize,
    /// The pair attaining the worst additive error.
    pub worst_pair: (usize, usize),
    /// `true` iff all of the above hold within the stated bounds.
    pub within_bounds: bool,
}

impl EmulatorReport {
    /// Measured edges divided by the (constant-free) size bound.
    pub fn size_ratio(&self) -> f64 {
        self.edges as f64 / self.size_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::generators;

    /// Hand-built emulator: the graph itself is always a (1+0, 0)-emulator.
    #[test]
    fn identity_emulator_verifies() {
        let g = generators::grid(4, 4);
        let emu = Emulator {
            routes: None,
            graph: WeightedGraph::from_unweighted(&g),
            levels: vec![0; g.n()],
        };
        let report = emu.verify_with_bounds(&g, 1.0, 0.0, g.m() as f64);
        assert!(report.within_bounds);
        assert_eq!(report.lower_violations, 0);
        assert!((report.max_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_emulator_misses_are_counted() {
        let g = generators::path(4);
        // Emulator with a single edge: most pairs unreachable.
        let emu = Emulator {
            routes: None,
            graph: WeightedGraph::from_edges(4, &[(0, 1, 1)]),
            levels: vec![0; 4],
        };
        let report = emu.verify_with_bounds(&g, 1.0, 10.0, 10.0);
        assert!(report.missed > 0);
        assert!(!report.within_bounds);
    }

    #[test]
    fn undercutting_detected() {
        let g = generators::path(5);
        let mut wg = WeightedGraph::from_unweighted(&g);
        wg.add_edge(0, 4, 1); // cheats: true distance is 4
        let emu = Emulator {
            routes: None,
            graph: wg,
            levels: vec![0; 5],
        };
        let report = emu.verify_with_bounds(&g, 1.0, 10.0, 10.0);
        assert!(report.lower_violations > 0);
        assert!(!report.within_bounds);
    }

    #[test]
    fn route_matches_estimate_and_endpoints() {
        let g = generators::caveman(4, 4);
        let emu = Emulator {
            routes: None,
            graph: WeightedGraph::from_unweighted(&g),
            levels: vec![0; g.n()],
        };
        let apsp = emu.apsp();
        for u in [0usize, 5] {
            for v in [3usize, 12] {
                let (path, len) = emu.route(u, v).expect("connected");
                assert_eq!(path[0], u);
                assert_eq!(*path.last().unwrap(), v);
                assert_eq!(len, apsp[u][v]);
            }
        }
    }

    #[test]
    fn route_none_when_disconnected() {
        let emu = Emulator {
            routes: None,
            graph: WeightedGraph::from_edges(3, &[(0, 1, 1)]),
            levels: vec![0; 3],
        };
        assert!(emu.route(0, 2).is_none());
        assert_eq!(emu.route(0, 1).unwrap().1, 1);
    }

    #[test]
    fn level_sets_nest() {
        let emu = Emulator {
            routes: None,
            graph: WeightedGraph::new(5),
            levels: vec![0, 1, 2, 1, 0],
        };
        assert_eq!(emu.level_set(0).len(), 5);
        assert_eq!(emu.level_set(1), vec![1, 2, 3]);
        assert_eq!(emu.level_set(2), vec![2]);
        assert!(emu.level_set(3).is_empty());
    }
}
