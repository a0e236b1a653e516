//! Graph representations: unweighted CSR graphs and weighted adjacency
//! graphs.

use crate::dist::{Dist, INF};

/// A simple undirected unweighted graph in CSR (compressed sparse row) form.
///
/// Self-loops and parallel edges are removed at construction. Vertices are
/// dense indices `0..n`.
///
/// # Example
///
/// ```
/// use cc_graphs::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 1)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3); // duplicate collapsed
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Self-loops are
    /// dropped and duplicate edges collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        // Counting sort into the CSR arrays, then sort and deduplicate each
        // list in place: two allocations, whatever the vertex count.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n = {n}");
            if u != v {
                offsets[u + 1] += 1;
                offsets[v + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut next = offsets.clone();
        for &(u, v) in edges {
            if u != v {
                targets[next[u]] = v as u32;
                next[u] += 1;
                targets[next[v]] = u as u32;
                next[v] += 1;
            }
        }
        // List `v` spans `start..offsets[v + 1]` before compaction; its
        // deduplicated entries move down to `offsets[v]..`.
        let (mut start, mut write) = (0, 0);
        for v in 0..n {
            let end = offsets[v + 1];
            targets[start..end].sort_unstable();
            offsets[v] = write;
            for i in start..end {
                if i == start || targets[i] != targets[i - 1] {
                    targets[write] = targets[i];
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        targets.truncate(write);
        Graph { offsets, targets }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (v as usize) > u)
                .map(move |&v| (u, v as usize))
        })
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` if all vertices are reachable from vertex 0 (or `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v as usize);
                }
            }
        }
        count == n
    }

    /// Induced subgraph keeping only edges whose *both* endpoints satisfy the
    /// predicate on their degree in `self`, plus edges incident to vertices
    /// satisfying it — concretely, keeps every edge with at least one
    /// endpoint of degree ≤ `max_degree`. Used for the `G'` of Thm 34.
    pub fn low_degree_subgraph(&self, max_degree: usize) -> Graph {
        let edges: Vec<(usize, usize)> = self
            .edges()
            .filter(|&(u, v)| self.degree(u) <= max_degree || self.degree(v) <= max_degree)
            .collect();
        Graph::from_edges(self.n(), &edges)
    }
}

/// A weighted undirected graph with adjacency lists, used for emulators,
/// hopsets, and unions `G ∪ H` of the input graph with auxiliary weighted
/// edges.
///
/// Parallel edges are permitted (shortest-path routines take the minimum), so
/// `add_edge` is O(1).
///
/// # Example
///
/// ```
/// use cc_graphs::{Graph, WeightedGraph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let mut u = WeightedGraph::from_unweighted(&g);
/// u.add_edge(0, 2, 1); // shortcut
/// assert_eq!(u.n(), 3);
/// assert!(u.m() >= 3);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WeightedGraph {
    adj: Vec<Vec<(u32, Dist)>>,
    m: usize,
}

impl WeightedGraph {
    /// Creates an empty weighted graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Converts an unweighted graph: every edge gets weight 1.
    pub fn from_unweighted(g: &Graph) -> Self {
        let mut wg = WeightedGraph::new(g.n());
        for (u, v) in g.edges() {
            wg.add_edge(u, v, 1);
        }
        wg
    }

    /// Builds from a weighted edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize, Dist)]) -> Self {
        let mut wg = WeightedGraph::new(n);
        for &(u, v, w) in edges {
            wg.add_edge(u, v, w);
        }
        wg
    }

    /// Adds the undirected edge `{u, v}` with weight `w`. Self-loops are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, w: Dist) {
        let n = self.n();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n = {n}");
        if u == v {
            return;
        }
        self.adj[u].push((v as u32, w));
        self.adj[v].push((u as u32, w));
        self.m += 1;
    }

    /// The union `g ∪ other`: every edge of `g` with weight 1, then every
    /// edge of `other` in [`WeightedGraph::edges`] order. Each vertex's list
    /// therefore starts with its `g.degree(v)` edges of `g`, and is
    /// allocated at exactly its final length.
    ///
    /// # Panics
    ///
    /// Panics if vertex counts differ.
    pub fn union_of(g: &Graph, other: &WeightedGraph) -> Self {
        assert_eq!(g.n(), other.n(), "union of graphs of different order");
        let mut union = WeightedGraph {
            adj: (0..g.n())
                .map(|v| Vec::with_capacity(g.degree(v) + other.adj[v].len()))
                .collect(),
            m: 0,
        };
        for (a, b) in g.edges() {
            union.add_edge(a, b, 1);
        }
        for (a, b, w) in other.edges() {
            union.add_edge(a, b, w);
        }
        union
    }

    /// Reserves room for exactly `additional` more entries in `v`'s list.
    pub fn reserve_exact(&mut self, v: usize, additional: usize) {
        self.adj[v].reserve_exact(additional);
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges (parallel edges counted individually).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Weighted neighbor list of `v` (unsorted, may contain parallels).
    pub fn neighbors(&self, v: usize) -> &[(u32, Dist)] {
        &self.adj[v]
    }

    /// Iterates over undirected edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, Dist)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.adj[u]
                .iter()
                .filter(move |&&(v, _)| (v as usize) > u)
                .map(move |&(v, w)| (u, v as usize, w))
        })
    }

    /// The largest finite edge weight (0 for an empty graph).
    pub fn max_weight(&self) -> Dist {
        self.edges()
            .map(|(_, _, w)| w)
            .filter(|&w| w < INF)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction_dedups_and_sorts() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 2), (3, 1)]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(4), 0);

        // A random multigraph with self-loops and repeats, against per-vertex
        // sorted sets.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..400)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let mut want = vec![std::collections::BTreeSet::new(); n];
        for &(u, v) in &edges {
            if u != v {
                want[u].insert(v as u32);
                want[v].insert(u as u32);
            }
        }
        let g = Graph::from_edges(n, &edges);
        for (v, set) in want.iter().enumerate() {
            assert_eq!(g.neighbors(v), set.iter().copied().collect::<Vec<_>>());
        }
        assert_eq!(2 * g.m(), want.iter().map(|s| s.len()).sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3), (3, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn connectivity() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        let g = Graph::from_edges(1, &[]);
        assert!(g.is_connected());
    }

    #[test]
    fn low_degree_subgraph_keeps_incident_edges() {
        // Star on 5 vertices: center 0 has degree 4, leaves degree 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Leaves have degree ≤ 2, so all edges survive.
        let sub = g.low_degree_subgraph(2);
        assert_eq!(sub.m(), 4);
        // A triangle of degree-2 vertices bolted onto the star center.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let sub = g.low_degree_subgraph(1);
        // Vertex 3 has degree 1, so only (0,3) survives.
        assert_eq!(sub.edges().collect::<Vec<_>>(), vec![(0, 3)]);
    }

    #[test]
    fn weighted_union() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let b = WeightedGraph::from_edges(3, &[(1, 2, 5), (0, 1, 4)]);
        let a = WeightedGraph::union_of(&g, &b);
        assert_eq!(a.m(), 3);
        assert_eq!(a.max_weight(), 5);
        // G's edges lead every list, then `b`'s in edge order.
        assert_eq!(a.neighbors(1), &[(0, 1), (0, 4), (2, 5)]);
        assert!((0..3).all(|v| a.adj[v].capacity() == a.adj[v].len()));
    }

    #[test]
    fn weighted_self_loop_ignored() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(1, 1, 3);
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "different order")]
    fn union_of_mismatched_orders_panics() {
        let g = Graph::from_edges(2, &[]);
        let _ = WeightedGraph::union_of(&g, &WeightedGraph::new(3));
    }
}
