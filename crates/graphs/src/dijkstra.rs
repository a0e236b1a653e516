//! Shortest paths on weighted graphs: a bucket-queue Dijkstra and
//! hop-limited Bellman–Ford (the computation behind `(S,d)`-source
//! detection), with a BFS certificate that skips Bellman–Ford over hopset
//! unions when the hop bound cannot bind.

use crate::dist::{dadd, Dist, INF};
use crate::graph::WeightedGraph;

/// Reusable scratch of the bucket-queue Dijkstra (Dial's algorithm): a
/// circular array of at least `max_weight + 1` buckets (rounded up to a
/// power of two, so a bucket index is a mask), plus distance and parent
/// buffers. Sized once and reused across sources, so a sweep allocates per
/// worker, not per source.
///
/// Every queued tentative distance lies in `[cur, cur + max_weight]`,
/// where `cur` is the distance being settled, so the ring never wraps onto
/// a live value. A run costs `O(m + D)` for the largest finite distance
/// `D`, and the workspace holds `O(n + max_weight)` words: the kernel is
/// meant for the small integer weights of emulators and unit graphs.
#[derive(Clone, Debug)]
pub struct DialWorkspace {
    max_weight: Dist,
    buckets: Vec<Vec<u32>>,
    dist: Vec<Dist>,
    parent: Vec<Option<u32>>,
}

impl DialWorkspace {
    /// A workspace for graphs whose finite edge weights are at most
    /// `max_weight` ([`WeightedGraph::max_weight`]).
    pub fn new(max_weight: Dist) -> Self {
        let slots = (max_weight as usize + 1).next_power_of_two();
        DialWorkspace {
            max_weight,
            buckets: vec![Vec::new(); slots],
            dist: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Distances from `src` ([`INF`] when unreachable), in the workspace's
    /// distance buffer.
    pub fn sssp(&mut self, g: &WeightedGraph, src: usize) -> &[Dist] {
        self.run::<false>(g, src);
        &self.dist
    }

    /// Distances from `src` plus predecessors: `parent[v]` is the smallest
    /// `u` with `dist[u] + w(u, v) = dist[v]` over the edges `(u, v, w)`
    /// (`None` for `src` and unreachable vertices), which makes paths
    /// deterministic.
    ///
    /// The parent is updated on a strict improvement and lowered on a tie,
    /// as each settled vertex relaxes its edges. Every vertex with a finite
    /// distance settles exactly once, at its final distance, and relaxes
    /// every edge then; an offer that is not tight for the final distance
    /// is overwritten by the first tight one, and each later tight offer
    /// keeps the smaller id. So the parent is the smallest tight
    /// predecessor whatever order equal distances settle in, weight-0
    /// edges included, and equals the parent of any other label-setting
    /// Dijkstra that applies this rule.
    pub fn sssp_with_parents(
        &mut self,
        g: &WeightedGraph,
        src: usize,
    ) -> (&[Dist], &[Option<u32>]) {
        self.run::<true>(g, src);
        (&self.dist, &self.parent)
    }

    fn run<const PARENTS: bool>(&mut self, g: &WeightedGraph, src: usize) {
        let n = g.n();
        self.dist.clear();
        self.dist.resize(n, INF);
        if PARENTS {
            self.parent.clear();
            self.parent.resize(n, None);
        }
        let mask = self.buckets.len() - 1;
        let (dist, parent, buckets) = (&mut self.dist, &mut self.parent, &mut self.buckets);
        dist[src] = 0;
        buckets[0].push(u32::try_from(src).expect("vertex ids fit in u32"));
        let mut queued = 1usize;
        let mut cur: Dist = 0;
        while queued > 0 {
            let slot = cur as usize & mask;
            // Weight-0 edges push into this very bucket; popping until it
            // is empty settles them at `cur` too.
            while let Some(u) = buckets[slot].pop() {
                queued -= 1;
                if dist[u as usize] != cur {
                    continue; // stale: `u` settled earlier at a lower distance
                }
                for &(v, w) in g.neighbors(u as usize) {
                    let nd = dadd(cur, w);
                    let dv = &mut dist[v as usize];
                    if nd < *dv {
                        debug_assert!(w <= self.max_weight, "weight {w} exceeds the workspace");
                        *dv = nd;
                        if PARENTS {
                            parent[v as usize] = Some(u);
                        }
                        buckets[nd as usize & mask].push(v);
                        queued += 1;
                    } else if PARENTS && nd == *dv {
                        let p = &mut parent[v as usize];
                        if p.is_some_and(|p| u < p) {
                            *p = Some(u);
                        }
                    }
                }
            }
            cur += 1;
        }
    }
}

/// Single-source shortest path distances on a weighted graph (Dijkstra).
pub fn sssp(g: &WeightedGraph, src: usize) -> Vec<Dist> {
    DialWorkspace::new(g.max_weight()).sssp(g, src).to_vec()
}

/// Exact all-pairs distances on a weighted graph (one Dijkstra per vertex).
pub fn apsp_exact(g: &WeightedGraph) -> Vec<Vec<Dist>> {
    let mut ws = DialWorkspace::new(g.max_weight());
    (0..g.n()).map(|v| ws.sssp(g, v).to_vec()).collect()
}

/// Dijkstra with predecessor tracking: returns `(dist, parent)` where
/// `parent[v]` is the predecessor of `v` on a shortest path from `src`
/// (`None` for `src` and unreachable vertices). Ties are broken toward the
/// smaller predecessor id, making paths deterministic
/// ([`DialWorkspace::sssp_with_parents`]).
pub fn sssp_with_parents(g: &WeightedGraph, src: usize) -> (Vec<Dist>, Vec<Option<u32>>) {
    let mut ws = DialWorkspace::new(g.max_weight());
    ws.run::<true>(g, src);
    (ws.dist, ws.parent)
}

/// Calls `fill(ws, i, &mut items[i])` for every item, sharding `items` into
/// contiguous runs over `threads` scoped workers. Each worker owns one
/// [`DialWorkspace::new`]`(max_weight)`, in which `fill` typically runs a
/// search of a graph whose weights are at most `max_weight` — computed
/// once by the caller, not per source. Each call writes only its own item
/// and reads shared inputs, so the items come out bit-identical at any
/// thread count (DESIGN.md §7.4).
pub fn sweep<T: Send>(
    items: &mut [T],
    max_weight: Dist,
    threads: usize,
    fill: impl Fn(&mut DialWorkspace, usize, &mut T) + Sync,
) {
    sharded(items, threads, || DialWorkspace::new(max_weight), fill);
}

/// The sharding behind [`sweep`], the hop-limited kernels and the
/// short-range row kernels: contiguous runs of `items` over `threads`
/// scoped workers, each with its own `scratch()`, calling
/// `fill(scratch, i, &mut items[i])` once per item. When `fill` writes
/// only its own item and reads shared inputs, the items come out
/// bit-identical at any thread count.
pub fn sharded<S, T: Send>(
    items: &mut [T],
    threads: usize,
    scratch: impl Fn() -> S + Sync,
    fill: impl Fn(&mut S, usize, &mut T) + Sync,
) {
    let threads = threads.clamp(1, items.len().max(1));
    let shard = items.len().div_ceil(threads);
    let run = |first: usize, chunk: &mut [T]| {
        let mut s = scratch();
        for (i, item) in chunk.iter_mut().enumerate() {
            fill(&mut s, first + i, item);
        }
    };
    if threads == 1 {
        run(0, items);
        return;
    }
    let run = &run;
    std::thread::scope(|scope| {
        for (t, chunk) in items.chunks_mut(shard).enumerate() {
            scope.spawn(move || run(t * shard, chunk));
        }
    });
}

/// A rooted shortest-path tree: distances plus deterministic predecessors,
/// the exact reference object route reconstruction is validated against.
///
/// Built by [`sssp_tree`]; wraps the `(dist, parent)` arrays of
/// [`sssp_with_parents`] behind path-level queries so tests and benches stop
/// re-implementing parent walking by hand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShortestPathTree {
    src: usize,
    dist: Vec<Dist>,
    parent: Vec<Option<u32>>,
}

impl ShortestPathTree {
    /// The root.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Distance from the root to `v` ([`INF`] when unreachable).
    pub fn dist(&self, v: usize) -> Dist {
        self.dist[v]
    }

    /// The full distance row.
    pub fn dists(&self) -> &[Dist] {
        &self.dist
    }

    /// The predecessor of `v` on its shortest path from the root (`None`
    /// for the root and unreachable vertices).
    pub fn parent(&self, v: usize) -> Option<u32> {
        self.parent[v]
    }

    /// The shortest path `src, …, v` as a vertex sequence, or `None` when
    /// `v` is unreachable.
    pub fn path_to(&self, v: usize) -> Option<Vec<usize>> {
        path_from_parents(&self.parent, self.src, v)
    }
}

/// Single-source shortest paths with deterministic predecessor tracking,
/// packaged as a [`ShortestPathTree`].
pub fn sssp_tree(g: &WeightedGraph, src: usize) -> ShortestPathTree {
    let (dist, parent) = sssp_with_parents(g, src);
    ShortestPathTree { src, dist, parent }
}

/// Reconstructs the shortest path from `src` to `dst` using the parent
/// array of [`sssp_with_parents`]. Returns the vertex sequence
/// `src, …, dst`, or `None` if `dst` is unreachable.
fn path_from_parents(parent: &[Option<u32>], src: usize, dst: usize) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur] {
        cur = p as usize;
        path.push(cur);
        if cur == src {
            path.reverse();
            return Some(path);
        }
        if path.len() > parent.len() {
            return None; // cycle guard (corrupt parent array)
        }
    }
    None
}

/// `h`-hop-limited distances from every source, sharded over `threads`
/// scoped workers: returns `(dist, parents)` in source-major rows of `n`
/// entries, so `dist[i * n + v]` is the length of the shortest path from
/// `sources[i]` to `v` using at most `h` edges of `g` (`INF` if none).
///
/// With `with_parents`, `parents[i * n + v]` is the predecessor of `v` on
/// the search from `sources[i]` (`u32::MAX` for the source itself and
/// unreached vertices). Walking that chain from `v` back to the source
/// yields a real walk in `g`; because every parent assignment strictly
/// lowered the tentative distance, distances strictly decrease along the
/// chain (so it terminates at the source) and the walk's weight is **at
/// most** `dist[i * n + v]` — late relaxations can only shorten the
/// recorded prefix.
///
/// This is the centralized computation performed by the `(S,d)`-source
/// detection primitive of Thm 11 on an arbitrary weighted graph; the round
/// cost is charged separately by the caller. Searches over a hopset union
/// go through [`hop_limited_over_union`] instead. Every source runs its
/// own search and writes only its own rows, which are allocated before any
/// worker starts, so the output is bit-identical at any thread count.
pub fn hop_limited_from_sources(
    g: &WeightedGraph,
    sources: &[usize],
    h: usize,
    threads: usize,
    with_parents: bool,
) -> (Vec<Dist>, Option<Vec<u32>>) {
    let n = g.n();
    let mut dist = vec![INF; sources.len() * n];
    let mut parents = with_parents.then(|| vec![u32::MAX; sources.len() * n]);
    let mut rows = hop_rows(sources, n, &mut dist, parents.as_deref_mut());
    sharded(
        &mut rows,
        threads,
        || BellmanFord::new(n),
        |bf, _, row| bf.run(g, row.src, h, row.dist, row.parents.as_deref_mut()),
    );
    (dist, parents)
}

/// The distance rows of [`hop_limited_from_sources`] over a hopset union
/// `G ∪ H`, bit for bit, without parents ([`fill_hop_parents`] computes a
/// source's row where a caller needs it). `base_degree[u]` is the degree
/// of `u` in the graph `G` the hopset was built on.
///
/// The first `base_degree[u]` entries of `u`'s union list must be its `G`
/// edges at weight 1 ([`WeightedGraph::union_of`]), and the other edges
/// must weigh at least their endpoints' `G` distance, as hopset edges do.
/// Then no walk from `s` to `v` weighs less than `d_G(s,v)`, and the BFS
/// path of `G` realizes it in `d_G(s,v)` hops. So when every vertex `G`
/// reaches from `s` lies within `h` hops of it, the BFS row of `G` is the
/// exact `h`-hop row of the union, unreached vertices included. Each
/// source runs that BFS first, stopping as soon as it finds a vertex
/// deeper than `h`; only those deeper sources run the Bellman–Ford search.
/// The sources are sharded as in [`hop_limited_from_sources`], so the
/// output is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `base_degree` does not hold one degree per vertex.
pub fn hop_limited_over_union(
    union: &WeightedGraph,
    base_degree: &[u32],
    sources: &[usize],
    h: usize,
    threads: usize,
) -> Vec<Dist> {
    let n = union.n();
    assert_eq!(base_degree.len(), n, "one base degree per vertex");
    debug_assert!(
        (0..n).all(|u| union
            .neighbors(u)
            .get(..base_degree[u] as usize)
            .is_some_and(|head| head.iter().all(|&(_, w)| w == 1))),
        "each union list must begin with the base graph's neighbours at weight 1"
    );
    let mut dist = vec![INF; sources.len() * n];
    let mut rows = hop_rows(sources, n, &mut dist, None);
    sharded(
        &mut rows,
        threads,
        || (BellmanFord::new(n), Vec::new()),
        |(bf, queue), _, row| {
            if !bfs_within(union, base_degree, row.src, h, row.dist, queue) {
                bf.run(union, row.src, h, row.dist, None);
            }
        },
    );
    dist
}

/// Replaces row `i` of the source-major `parents` with the Bellman–Ford
/// predecessor row of `sources[i]` over `g` at hop bound `h`, for every
/// `i` with `wanted[i]`: the row [`hop_limited_from_sources`] records for
/// that source, since each source's search is independent of the others.
/// The wanted rows are sharded over `threads` workers.
///
/// # Panics
///
/// Panics if `wanted` or `parents` does not match `sources`.
pub fn fill_hop_parents(
    g: &WeightedGraph,
    sources: &[usize],
    h: usize,
    threads: usize,
    wanted: &[bool],
    parents: &mut [u32],
) {
    let n = g.n();
    assert_eq!(wanted.len(), sources.len(), "one flag per source");
    assert_eq!(
        parents.len(),
        sources.len() * n,
        "one parent row per source"
    );
    let mut rows: Vec<(usize, &mut [u32])> = sources
        .iter()
        .zip(parents.chunks_mut(n.max(1)))
        .zip(wanted)
        .filter(|&(_, &want)| want)
        .map(|((&src, row), _)| (src, row))
        .collect();
    sharded(
        &mut rows,
        threads,
        || (BellmanFord::new(n), vec![INF; n]),
        |(bf, cur), _, (src, row)| {
            cur.fill(INF);
            row.fill(u32::MAX);
            bf.run(g, *src, h, cur, Some(row));
        },
    );
}

/// One source's output rows in a hop-limited search.
struct HopRow<'a> {
    src: usize,
    dist: &'a mut [Dist],
    parents: Option<&'a mut [u32]>,
}

/// Splits source-major `dist` (and `parents`) into one row per source.
fn hop_rows<'a>(
    sources: &[usize],
    n: usize,
    dist: &'a mut [Dist],
    parents: Option<&'a mut [u32]>,
) -> Vec<HopRow<'a>> {
    let mut parent_rows = parents.map(|p| p.chunks_mut(n.max(1)));
    sources
        .iter()
        .zip(dist.chunks_mut(n.max(1)))
        .map(|(&src, dist)| HopRow {
            src,
            dist,
            parents: parent_rows
                .as_mut()
                .map(|p| p.next().expect("one parent row per source")),
        })
        .collect()
}

/// The BFS certificate of [`hop_limited_over_union`]: searches the base
/// graph (the first `base_degree[u]` edges of each union list) from `src`
/// into `row` (all `INF` on entry) and returns `true` when every reached
/// vertex lies within `h` hops. Otherwise it stops at the first vertex
/// deeper than `h`, restores the entries it wrote to `INF` and returns
/// `false`. `queue` is scratch.
fn bfs_within(
    union: &WeightedGraph,
    base_degree: &[u32],
    src: usize,
    h: usize,
    row: &mut [Dist],
    queue: &mut Vec<u32>,
) -> bool {
    queue.clear();
    row[src] = 0;
    queue.push(src as u32);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let u = u as usize;
        let du = row[u];
        for &(v, _) in &union.neighbors(u)[..base_degree[u] as usize] {
            if row[v as usize] < INF {
                continue;
            }
            if du as usize >= h {
                for &x in queue.iter() {
                    row[x as usize] = INF;
                }
                return false;
            }
            row[v as usize] = du + 1;
            queue.push(v);
        }
    }
    true
}

/// Per-worker scratch of the hop-limited Bellman–Ford: the frontier of
/// the current hop, the next one, and each vertex's slot in the next.
/// Sources are independent, and per-source frontiers settle much faster
/// in practice than a joint sweep.
struct BellmanFord {
    slot: Vec<usize>,
    frontier: Vec<(usize, Dist)>,
    next: Vec<(usize, Dist)>,
}

impl BellmanFord {
    fn new(n: usize) -> Self {
        BellmanFord {
            slot: vec![usize::MAX; n],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The `h`-hop search from `src` over `g` into `cur` (all `INF` on
    /// entry), and into `parent` (all `u32::MAX` on entry) when tracked.
    fn run(
        &mut self,
        g: &WeightedGraph,
        src: usize,
        h: usize,
        cur: &mut [Dist],
        mut parent: Option<&mut [u32]>,
    ) {
        let (slot, frontier, next) = (&mut self.slot, &mut self.frontier, &mut self.next);
        // Frontier entries carry the distance at enqueue time so that a
        // value improved during hop j only propagates at hop j+1 (strict
        // synchronous hop semantics).
        cur[src] = 0;
        frontier.clear();
        frontier.push((src, 0));
        for _hop in 0..h {
            next.clear();
            for &(u, du) in frontier.iter() {
                for &(v, w) in g.neighbors(u) {
                    let v = v as usize;
                    let nd = dadd(du, w);
                    if nd < cur[v] {
                        cur[v] = nd;
                        if let Some(p) = parent.as_deref_mut() {
                            p[v] = u as u32;
                        }
                        if slot[v] == usize::MAX {
                            slot[v] = next.len();
                            next.push((v, nd));
                        } else {
                            next[slot[v]].1 = nd;
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            for &(v, _) in next.iter() {
                slot[v] = usize::MAX;
            }
            std::mem::swap(frontier, next);
        }
    }
}

/// Walks a hop-limited parent row back from `v`, returning the vertex
/// sequence `src, …, v` (`None` when `v` was not reached or `parents` is
/// inconsistent).
pub fn chain_from_hop_parents(parents: &[u32], src: usize, v: usize) -> Option<Vec<usize>> {
    if src == v {
        return Some(vec![src]);
    }
    let mut chain = vec![v];
    let mut cur = v;
    while parents[cur] != u32::MAX {
        cur = parents[cur] as usize;
        chain.push(cur);
        if cur == src {
            chain.reverse();
            return Some(chain);
        }
        if chain.len() > parents.len() {
            return None; // cycle guard (corrupt parent array)
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = generators::grid(4, 4);
        let wg = WeightedGraph::from_unweighted(&g);
        for v in 0..g.n() {
            assert_eq!(sssp(&wg, v), crate::bfs::sssp(&g, v));
        }
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        // 0 -5- 1, 0 -1- 2 -1- 1: the two-hop path is shorter.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 5), (0, 2, 1), (2, 1, 1)]);
        let d = sssp(&g, 0);
        assert_eq!(d[1], 2);
    }

    #[test]
    fn parallel_edges_take_min() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 7), (0, 1, 3)]);
        assert_eq!(sssp(&g, 0)[1], 3);
    }

    #[test]
    fn hop_limit_binds() {
        // Path of weight-1 edges: 0-1-2-3; and a heavy direct edge 0-3.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)]);
        let pair = |g: &WeightedGraph, h| hop_limited_from_sources(g, &[0], h, 1, false).0[3];
        assert_eq!(pair(&g, 3), 3);
        assert_eq!(pair(&g, 2), 10);
        assert_eq!(pair(&g, 1), 10);
        let iso = WeightedGraph::from_edges(4, &[(0, 1, 1)]);
        assert_eq!(pair(&iso, 5), INF);
    }

    #[test]
    fn hop_limited_multi_source_agrees_with_single() {
        let g = generators::gnp(40, 0.1, &mut seeded(3));
        let wg = WeightedGraph::from_unweighted(&g);
        let sources = [0usize, 5, 17];
        let n = g.n();
        let (all, _) = hop_limited_from_sources(&wg, &sources, 4, 2, false);
        for (i, &s) in sources.iter().enumerate() {
            let (single, _) = hop_limited_from_sources(&wg, &[s], 4, 1, false);
            assert_eq!(all[i * n..(i + 1) * n], single[..]);
        }
    }

    #[test]
    fn enough_hops_equals_dijkstra() {
        let g = generators::gnp(30, 0.15, &mut seeded(9));
        let wg = WeightedGraph::from_unweighted(&g);
        let hops = g.n();
        let (hl, _) = hop_limited_from_sources(&wg, &[0], hops, 1, false);
        assert_eq!(hl, sssp(&wg, 0));
    }

    /// Weight of a path (vertex sequence) in `g`, taking the minimum over
    /// parallel edges; panics if a hop is not an edge.
    fn path_weight(g: &WeightedGraph, path: &[usize]) -> Dist {
        path.windows(2)
            .map(|w| {
                g.neighbors(w[0])
                    .iter()
                    .filter(|&&(x, _)| x as usize == w[1])
                    .map(|&(_, wt)| wt)
                    .min()
                    .expect("consecutive path vertices are adjacent")
            })
            .sum()
    }

    #[test]
    fn tree_reconstructs_shortest_paths() {
        let g = generators::grid(5, 5);
        let wg = WeightedGraph::from_unweighted(&g);
        let tree = sssp_tree(&wg, 0);
        for v in 0..g.n() {
            let path = tree.path_to(v).expect("grid is connected");
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), v);
            // Path length (in weight) must equal the distance.
            assert_eq!(path_weight(&wg, &path), tree.dist(v), "path to {v}");
        }
    }

    #[test]
    fn unreachable_path_is_none() {
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 1)]);
        let tree = sssp_tree(&wg, 0);
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.path_to(0), Some(vec![0]));
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.src(), 0);
    }

    #[test]
    fn parent_distances_agree_with_plain_sssp() {
        let g = generators::gnp(40, 0.12, &mut seeded(17));
        let wg = WeightedGraph::from_unweighted(&g);
        let tree = sssp_tree(&wg, 3);
        assert_eq!(tree.dists(), &sssp(&wg, 3)[..]);
    }

    #[test]
    fn hop_limited_parents_agree_and_chains_are_real_walks() {
        let g = generators::gnp(40, 0.1, &mut seeded(23));
        let mut wg = WeightedGraph::from_unweighted(&g);
        wg.add_edge(0, 30, 7); // a heavy shortcut exercises weighted hops
        let sources = [0usize, 5, 17];
        for h in [2usize, 4, 40] {
            let n = wg.n();
            let (plain, none) = hop_limited_from_sources(&wg, &sources, h, 1, false);
            assert_eq!(none, None, "no parents unless asked for");
            let (dist, parents) = hop_limited_from_sources(&wg, &sources, h, 1, true);
            let parents = parents.expect("parents requested");
            assert_eq!(dist, plain, "h={h}: parents must not change distances");
            for (i, &s) in sources.iter().enumerate() {
                let row = &parents[i * n..(i + 1) * n];
                for v in 0..n {
                    let d = dist[i * n + v];
                    if d >= INF {
                        assert_eq!(chain_from_hop_parents(row, s, v), None);
                        continue;
                    }
                    let chain = chain_from_hop_parents(row, s, v)
                        .unwrap_or_else(|| panic!("no chain for ({s},{v}) h={h}"));
                    assert_eq!(chain[0], s);
                    assert_eq!(*chain.last().unwrap(), v);
                    // The chain is a real walk of weight ≤ the reported
                    // distance (late relaxations can only shorten it).
                    assert!(path_weight(&wg, &chain) <= d, "({s},{v}) h={h}");
                }
            }
        }
    }

    /// The serial, vertex-major kernel the sharded one replaced, kept as
    /// the reference: `dist[v][i]` plus per-source parent rows.
    fn serial_reference(
        g: &WeightedGraph,
        sources: &[usize],
        h: usize,
    ) -> (Vec<Vec<Dist>>, Vec<Vec<u32>>) {
        let n = g.n();
        let mut dist = vec![vec![INF; sources.len()]; n];
        let mut parents = vec![vec![u32::MAX; n]; sources.len()];
        for (i, &src) in sources.iter().enumerate() {
            let mut cur = vec![INF; n];
            cur[src] = 0;
            let parent = &mut parents[i];
            let mut frontier: Vec<(usize, Dist)> = vec![(src, 0)];
            let mut slot = vec![usize::MAX; n];
            for _hop in 0..h {
                let mut next: Vec<(usize, Dist)> = Vec::new();
                for &(u, du) in &frontier {
                    for &(v, w) in g.neighbors(u) {
                        let v = v as usize;
                        let nd = dadd(du, w);
                        if nd < cur[v] {
                            cur[v] = nd;
                            parent[v] = u as u32;
                            if slot[v] == usize::MAX {
                                slot[v] = next.len();
                                next.push((v, nd));
                            } else {
                                next[slot[v]].1 = nd;
                            }
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                for &(v, _) in &next {
                    slot[v] = usize::MAX;
                }
                frontier = next;
            }
            for (v, row) in dist.iter_mut().enumerate() {
                row[i] = cur[v];
            }
        }
        (dist, parents)
    }

    #[test]
    fn sharded_kernel_matches_the_serial_reference() {
        let g = generators::gnp(53, 0.08, &mut seeded(31));
        let mut wg = WeightedGraph::from_unweighted(&g);
        wg.add_edge(2, 40, 5); // weighted shortcuts reorder the relaxations
        wg.add_edge(7, 51, 3);
        let n = wg.n();
        // 7 sources split unevenly over 2–4 threads; 2 sources under 3–4
        // threads leave workers idle; one source runs alone.
        let source_sets: [&[usize]; 4] = [&[0, 3, 9, 14, 22, 40, 52], &[51, 7], &[5], &[]];
        for sources in source_sets {
            for h in [0usize, 1, 3, 60] {
                let (want_dist, want_parents) = serial_reference(&wg, sources, h);
                for threads in 1..=4 {
                    for with_parents in [false, true] {
                        let (dist, parents) =
                            hop_limited_from_sources(&wg, sources, h, threads, with_parents);
                        let at = format!("|S|={} h={h} threads={threads}", sources.len());
                        assert_eq!(dist.len(), sources.len() * n, "{at}");
                        for (i, want_parent) in want_parents.iter().enumerate() {
                            for v in 0..n {
                                assert_eq!(dist[i * n + v], want_dist[v][i], "{at} ({i},{v})");
                            }
                            if let Some(p) = &parents {
                                assert_eq!(p[i * n..(i + 1) * n], want_parent[..], "{at}");
                            }
                        }
                        assert_eq!(parents.is_some(), with_parents, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "base graph's neighbours at weight 1")]
    fn certified_kernel_checks_the_union_layout() {
        // The shortcut, not the base edge 0–1, leads vertex 0's list.
        let g = generators::path(4);
        let mut union = WeightedGraph::from_edges(4, &[(0, 3, 3)]);
        for (u, v) in g.edges() {
            union.add_edge(u, v, 1);
        }
        let degree: Vec<u32> = (0..4).map(|u| g.degree(u) as u32).collect();
        let _ = hop_limited_over_union(&union, &degree, &[0], 3, 1);
    }

    /// The binary-heap Dijkstra the bucket queue replaced, kept as the
    /// reference for distances and parents.
    fn heap_sssp_with_parents(g: &WeightedGraph, src: usize) -> (Vec<Dist>, Vec<Option<u32>>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![INF; g.n()];
        let mut parent: Vec<Option<u32>> = vec![None; g.n()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(Reverse((0 as Dist, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in g.neighbors(u) {
                let v = v as usize;
                let nd = dadd(d, w);
                if nd < dist[v] || (nd == dist[v] && parent[v].is_some_and(|p| (u as u32) < p)) {
                    let improved = nd < dist[v];
                    dist[v] = nd;
                    parent[v] = Some(u as u32);
                    if improved {
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        (dist, parent)
    }

    /// The plain heap `sssp` the bucket queue replaced.
    fn heap_sssp(g: &WeightedGraph, src: usize) -> Vec<Dist> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![INF; g.n()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(Reverse((0 as Dist, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in g.neighbors(u) {
                let v = v as usize;
                let nd = dadd(d, w);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// A seeded random graph on `n` vertices with weights in `lo..=hi`:
    /// ~2 edges per vertex among the first `n - n/8` vertices (the rest
    /// stay unreachable), a parallel copy of every fifth edge at another
    /// weight, and one `INF`-weight edge.
    fn random_weighted(n: usize, lo: Dist, hi: Dist, seed: u64) -> WeightedGraph {
        use rand::Rng;
        let mut rng = seeded(seed);
        let mut g = WeightedGraph::new(n);
        let reach = (n - n / 8).max(1);
        for i in 0..2 * reach {
            let (u, v) = (rng.gen_range(0..reach), rng.gen_range(0..reach));
            g.add_edge(u, v, lo + rng.gen_range(0..hi - lo + 1));
            if i % 5 == 0 {
                g.add_edge(u, v, lo + rng.gen_range(0..hi - lo + 1));
            }
        }
        if n > 1 {
            g.add_edge(0, n - 1, INF);
        }
        g
    }

    #[test]
    fn bucket_queue_matches_the_heap_kernel() {
        // Weight 0 is outside the pipelines' inputs but inside the
        // parent rule's proof, so it is pinned too.
        for (lo, hi) in [(1, 1), (1, 4), (1, 1000), (0, 3)] {
            for n in [1usize, 2, 97] {
                for seed in 0..4 {
                    let g = random_weighted(n, lo, hi, seed * 1000 + n as u64 + u64::from(hi));
                    let mut ws = DialWorkspace::new(g.max_weight());
                    for src in 0..n {
                        let at = format!("w={lo}..={hi} n={n} seed={seed} src={src}");
                        let (want_dist, want_parent) = heap_sssp_with_parents(&g, src);
                        assert_eq!(heap_sssp(&g, src), want_dist, "{at}");
                        assert_eq!(sssp(&g, src), want_dist, "{at}: sssp");
                        assert_eq!(ws.sssp(&g, src), &want_dist[..], "{at}: reused");
                        let (dist, parent) = sssp_with_parents(&g, src);
                        assert_eq!(dist, want_dist, "{at}: parents' dist");
                        assert_eq!(parent, want_parent, "{at}: parents");
                        let (dist, parent) = ws.sssp_with_parents(&g, src);
                        assert_eq!(dist, &want_dist[..], "{at}: reused parents' dist");
                        assert_eq!(parent, &want_parent[..], "{at}: reused parents");
                    }
                    if n == 97 {
                        assert_eq!(sssp(&g, 0)[n - 1], INF, "seed={seed}: unreachable tail");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_covers_empty_single_and_oversubscribed_inputs() {
        // Item i must hold the search from vertex i whatever the split: no
        // items, one item, more threads than items, and uneven shards.
        let g = random_weighted(97, 1, 4, 5);
        let want: Vec<(Vec<Dist>, Vec<Option<u32>>)> =
            (0..g.n()).map(|s| heap_sssp_with_parents(&g, s)).collect();
        for len in [0usize, 1, 2, 3, 5, 97] {
            for threads in [1usize, 2, 3, 4, 8, 200] {
                let mut items = vec![(Vec::new(), Vec::new()); len];
                sweep(&mut items, g.max_weight(), threads, |ws, i, item| {
                    let (d, p) = ws.sssp_with_parents(&g, i);
                    *item = (d.to_vec(), p.to_vec());
                });
                assert_eq!(items, want[..len], "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_graph_all_inf() {
        let g = Graph::from_edges(3, &[]);
        let wg = WeightedGraph::from_unweighted(&g);
        let d = sssp(&wg, 0);
        assert_eq!(d, vec![0, INF, INF]);
    }

    fn seeded(s: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
