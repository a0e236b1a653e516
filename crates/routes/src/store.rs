//! Per-pair and per-row witness stores filled by the distance pipelines.

use std::sync::Arc;

use cc_graphs::{DistStorage, Graph};

use crate::arena::{EmitStack, RecId, RouteArena};
use crate::tree::TreeRows;
use crate::unroller::Unroller;

/// The witness of one vertex pair in a [`PathStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairWitness {
    /// No witness has been set for the pair.
    None,
    /// An interned path record running `min(u,v) → max(u,v)` (reversed when
    /// `rev` is set).
    Rec {
        /// The record.
        rec: RecId,
        /// Emit the record reversed to run `min → max`.
        rev: bool,
    },
    /// Midpoint decomposition: the pair's walk is the walk to `via` followed
    /// by the walk from `via` — both again witnessed pairs of this store.
    /// Every `Via` is set when the pair's estimate drops to at least the sum
    /// of the two halves' estimates, and estimates only decrease, so
    /// expansion strictly descends and terminates (`DESIGN.md` §8.2).
    Via(u32),
    /// The path from `min(u,v)` to `max(u,v)` in the tree of the lower
    /// endpoint, one of the store's [`TreeRows`].
    Tree,
}

/// The per-pair witness table a pipeline fills alongside its symmetric
/// estimate matrix.
///
/// The store holds witnesses only; the distances are the pipeline's
/// estimates. A pipeline sets a pair's witness exactly when it strictly
/// lowers the pair's estimate ([`DistanceMatrix::improve`] returns `true`),
/// so every witness's walk weighs at most the estimate it was set with, and
/// recording never changes an estimate (`DESIGN.md` §8).
///
/// [`DistanceMatrix::improve`]: https://docs.rs/cc-core
#[derive(Clone, Debug)]
pub struct PathStore {
    n: usize,
    /// One witness per packed pair.
    entries: Vec<PairWitness>,
    /// Shortcut provenance (hopset/emulator records absorbed in) plus the
    /// arena all `Rec` witnesses and tree hops live in.
    routes: Unroller,
    /// The trees `Tree` witnesses walk, shared by every copy of the store.
    trees: Option<Arc<TreeRows>>,
}

impl PathStore {
    /// An empty store for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        PathStore {
            n,
            entries: vec![PairWitness::None; n * (n + 1) / 2],
            routes: Unroller::new(),
            trees: None,
        }
    }

    /// Rebuilds a store from frozen parts (snapshot loading). The arena and
    /// the trees are taken as-is — no copy, so zero-copy (shared-section)
    /// columns stay zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != n(n+1)/2` or the trees are over another
    /// `n`.
    pub fn from_parts(
        n: usize,
        arena: RouteArena,
        entries: Vec<PairWitness>,
        trees: Option<Arc<TreeRows>>,
    ) -> Self {
        assert_eq!(entries.len(), n * (n + 1) / 2, "one witness per pair");
        assert!(trees.as_ref().is_none_or(|t| t.n() == n), "trees over n");
        PathStore {
            n,
            entries,
            routes: Unroller::from_arena(arena),
            trees,
        }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The record arena (snapshot saving).
    pub fn arena(&self) -> &RouteArena {
        self.routes.arena()
    }

    /// The shortcut-provenance unroller, read-only (resolve shortcut hops
    /// into a [`RecordBatch`](crate::RecordBatch) built away from the
    /// arena).
    pub fn routes(&self) -> &Unroller {
        &self.routes
    }

    /// The shortcut-provenance unroller (absorb substrate routes, intern
    /// chains).
    pub fn routes_mut(&mut self) -> &mut Unroller {
        &mut self.routes
    }

    /// Absorbs a substrate's shortcut provenance (hopset or emulator
    /// routes) so later walks can step over its shortcut edges.
    pub fn absorb_routes(&mut self, routes: &Unroller) {
        self.routes.absorb(routes);
    }

    /// Raw packed witness table, indexed like
    /// [`DistStorage::packed_index`].
    pub fn witnesses(&self) -> &[PairWitness] {
        &self.entries
    }

    /// The trees `Tree` witnesses walk, if any were set.
    pub fn trees(&self) -> Option<&Arc<TreeRows>> {
        self.trees.as_ref()
    }

    /// Sets every pair `{u, v}` that has no witness yet and that the tree of
    /// its lower endpoint reaches to [`PairWitness::Tree`], and keeps
    /// `trees` to serve them. Hop records of the trees name records of this
    /// store's arena.
    ///
    /// # Panics
    ///
    /// Panics if the trees are over another `n`, or the store holds trees
    /// already.
    pub fn set_trees(&mut self, trees: Arc<TreeRows>) {
        assert_eq!(trees.n(), self.n, "trees over n");
        assert!(self.trees.is_none(), "one set of trees per store");
        let n = self.n;
        for u in 0..n {
            // Row `u` of the packed table: pairs `(u, v)` for `v ≥ u`.
            let row = DistStorage::packed_index(n, u, u);
            let entries = &mut self.entries[row..row + n - u];
            for (entry, reached) in entries.iter_mut().zip(trees.reached_from(u).skip(u)) {
                if reached && *entry == PairWitness::None {
                    *entry = PairWitness::Tree;
                }
            }
        }
        self.trees = Some(trees);
    }

    #[inline]
    fn set(&mut self, u: usize, v: usize, witness: PairWitness) {
        debug_assert_ne!(u, v, "the diagonal has no witness");
        self.entries[DistStorage::packed_index(self.n, u, v)] = witness;
    }

    /// Sets the witness of `{u, v}` to the direct `G` edge.
    pub fn set_edge(&mut self, u: usize, v: usize) {
        let rec = self
            .routes
            .arena_mut()
            .edge(u.min(v) as u32, u.max(v) as u32);
        self.set(u, v, PairWitness::Rec { rec, rev: false });
    }

    /// Sets the witness of `{u, v}` to an interned record (a path `u → v`
    /// in this store's arena).
    pub fn set_rec(&mut self, u: usize, v: usize, rec: RecId) {
        self.set(
            u,
            v,
            PairWitness::Rec {
                rec,
                rev: u > v, // stored canonically as min → max
            },
        );
    }

    /// Interns a walk given as a vertex sequence over `G` ∪ registered
    /// shortcuts and sets it as the witness of its endpoints. Panics in
    /// debug builds if a hop cannot be resolved.
    pub fn set_walk(&mut self, g: &Graph, verts: &[u32]) {
        match self.routes.intern_walk(g, verts) {
            Some(rec) => {
                let (u, v) = (verts[0] as usize, verts[verts.len() - 1] as usize);
                self.set_rec(u, v, rec);
            }
            None => debug_assert!(false, "unresolvable hop in a set walk"),
        }
    }

    /// Sets the witness of `{u, v}` to the midpoint decomposition through
    /// `w`. The caller guarantees that the pair's new estimate is at least
    /// `δ(u,w) + δ(w,v)` (the pivot-routing pattern), which is what keeps
    /// expansion well-founded, so `w` is never `u` or `v`.
    pub fn set_via(&mut self, u: usize, v: usize, w: usize) {
        debug_assert!(w != u && w != v, "degenerate midpoint {w} of ({u},{v})");
        self.set(u, v, PairWitness::Via(w as u32));
    }
    /// Expands the witnessed walk for `(u, v)` into directed `G` edges
    /// running `u → v` (`Some(vec![])` on the diagonal). Returns `None` when
    /// the pair has no witness, an endpoint is out of range, or — on
    /// corrupted (snapshot-loaded) stores — expansion exceeds its budget.
    pub fn emit(&self, u: usize, v: usize) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        self.emit_into(u, v, &mut out, &mut EmitStack::default())?;
        Some(out)
    }

    /// Like [`PathStore::emit`], but appends into a caller-provided buffer
    /// (per-worker scratch on serving paths) over the caller's reusable
    /// `stack`, and returns the number of edges appended. On failure the
    /// buffer is truncated back to its original length.
    pub fn emit_into(
        &self,
        u: usize,
        v: usize,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) -> Option<usize> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let start = out.len();
        if u == v {
            return Some(0);
        }
        let arena = self.routes.arena().view();
        stack.pairs.clear();
        stack.pairs.push((u as u32, v as u32));
        // Well-formed stores strictly descend in estimate on every Via, so
        // the walk has at most `δ(u,v)` edges; the budget only trips on
        // corrupt snapshots (where it turns a cycle into a clean None).
        let mut budget: u64 = 64 * (self.n as u64) * (self.n as u64) + 1024;
        while let Some((x, y)) = stack.pairs.pop() {
            let Some(rest) = budget.checked_sub(1) else {
                out.truncate(start);
                return None;
            };
            budget = rest;
            let idx = DistStorage::packed_index(self.n, x as usize, y as usize);
            let emitted = match self.entries[idx] {
                PairWitness::None => false,
                PairWitness::Rec { rec, rev } => {
                    arena.emit_into(rec, rev ^ (x > y), out, stack);
                    true
                }
                PairWitness::Tree => self.trees.as_ref().is_some_and(|trees| {
                    let (lo, hi) = (x.min(y) as usize, x.max(y) as usize);
                    trees.emit_into(lo, hi, x > y, arena, out, stack).is_some()
                }),
                // A midpoint at an endpoint or out of range: corrupt.
                PairWitness::Via(w) if w == x || w == y || w as usize >= self.n => false,
                PairWitness::Via(w) => {
                    stack.pairs.push((w, y));
                    stack.pairs.push((x, w));
                    true
                }
            };
            if !emitted {
                out.truncate(start);
                return None;
            }
        }
        Some(out.len() - start)
    }
}

/// The row-shaped witness store for multi-source (MSSP) results: one record
/// per `(source, vertex)` cell, no midpoint decomposition. Like
/// [`PathStore`] it holds no distances: a cell's record is set exactly when
/// the cell's estimate strictly drops.
#[derive(Clone, Debug)]
pub struct RowStore {
    n: usize,
    sources: Vec<u32>,
    /// Records oriented `source → vertex`, `|S| × n` row-major.
    recs: Vec<Option<RecId>>,
    routes: Unroller,
}

impl RowStore {
    /// An empty store for the given source rows.
    pub fn new(n: usize, sources: &[usize]) -> Self {
        RowStore {
            n,
            recs: vec![None; sources.len() * n],
            sources: sources.iter().map(|&s| s as u32).collect(),
            routes: Unroller::new(),
        }
    }

    /// Rebuilds a store from frozen parts (snapshot loading).
    ///
    /// # Panics
    ///
    /// Panics if `recs.len() != sources.len() * n`.
    pub fn from_parts(
        n: usize,
        sources: Vec<u32>,
        arena: RouteArena,
        recs: Vec<Option<RecId>>,
    ) -> Self {
        assert_eq!(recs.len(), sources.len() * n, "one record per cell");
        RowStore {
            n,
            sources,
            recs,
            routes: Unroller::from_arena(arena),
        }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The source vertices, in row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// The record arena (snapshot saving).
    pub fn arena(&self) -> &RouteArena {
        self.routes.arena()
    }

    /// The raw record table, row-major like the estimate rows.
    pub fn recs(&self) -> &[Option<RecId>] {
        &self.recs
    }

    /// Read-only shortcut provenance, as [`PathStore::routes`].
    pub fn routes(&self) -> &Unroller {
        &self.routes
    }

    /// Shortcut-provenance access (absorb substrate routes, intern chains).
    pub fn routes_mut(&mut self) -> &mut Unroller {
        &mut self.routes
    }

    /// Absorbs a substrate's shortcut provenance.
    pub fn absorb_routes(&mut self, routes: &Unroller) {
        self.routes.absorb(routes);
    }

    /// Sets the record (oriented `sources[i] → v`) of cell `(i, v)`.
    pub fn set_rec(&mut self, i: usize, v: usize, rec: RecId) {
        debug_assert_ne!(v, self.sources[i] as usize, "the source cell has no record");
        self.recs[i * self.n + v] = Some(rec);
    }

    /// Sets the record of cell `(i, v)` to the direct `G` edge
    /// `(sources[i], v)`.
    pub fn set_edge(&mut self, i: usize, v: usize) {
        let rec = self.routes.arena_mut().edge(self.sources[i], v as u32);
        self.set_rec(i, v, rec);
    }

    /// Interns a walk (vertex sequence from `sources[i]` to `v` over `G` ∪
    /// registered shortcuts) and sets it as the record of cell `(i, v)`.
    /// Panics in debug builds if a hop cannot be resolved.
    pub fn set_walk(&mut self, g: &Graph, i: usize, verts: &[u32]) {
        debug_assert_eq!(verts[0], self.sources[i], "walk must start at the source");
        match self.routes.intern_walk(g, verts) {
            Some(rec) => self.set_rec(i, verts[verts.len() - 1] as usize, rec),
            None => debug_assert!(false, "unresolvable hop in a set walk"),
        }
    }

    /// Expands the witnessed walk of cell `(i, v)` into directed `G` edges
    /// running `sources[i] → v` (`Some(vec![])` when `v` is the source
    /// itself).
    pub fn emit(&self, i: usize, v: usize) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        self.emit_into(i, v, &mut out, &mut EmitStack::default())?;
        Some(out)
    }

    /// Like [`RowStore::emit`], but appends into a caller-provided buffer
    /// over the caller's reusable `stack`, and returns the number of edges
    /// appended.
    pub fn emit_into(
        &self,
        i: usize,
        v: usize,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) -> Option<usize> {
        if v >= self.n {
            return None;
        }
        if v == self.sources[i] as usize {
            return Some(0);
        }
        let start = out.len();
        let rec = self.recs[i * self.n + v]?;
        self.routes.arena().emit_into(rec, false, out, stack);
        Some(out.len() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::HopTable;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn set_walks_emit_in_both_orientations() {
        let g = path_graph(5);
        let mut s = PathStore::new(5);
        s.set_walk(&g, &[0, 1, 2, 1, 2, 3]);
        // A later set replaces the witness: the store does not compare.
        s.set_walk(&g, &[3, 2, 1, 0]);
        assert_eq!(s.emit(0, 3).unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.emit(3, 0).unwrap(), vec![(3, 2), (2, 1), (1, 0)]);
        assert_eq!(s.emit(2, 2).unwrap(), vec![], "diagonal is empty");
        assert_eq!(s.emit(0, 4), None, "no witness yet");
        assert_eq!(s.emit(0, 9), None, "out of range");
    }

    #[test]
    fn via_decomposition_expands_both_halves() {
        let g = path_graph(5);
        let mut s = PathStore::new(5);
        s.set_edge(0, 1);
        s.set_edge(1, 2);
        s.set_walk(&g, &[2, 3, 4]);
        // (0,2) via 1, then (0,4) via 2 — nested Via resolution.
        s.set_via(0, 2, 1);
        s.set_via(0, 4, 2);
        assert_eq!(s.emit(0, 4).unwrap(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(s.emit(4, 0).unwrap()[0], (4, 3));
    }

    #[test]
    fn corrupt_via_cycle_returns_none() {
        // Hand-built cycle (only reachable through from_parts — pipelines
        // cannot create one): (0,2) via 1 and (0,1) via 2.
        let s0 = PathStore::new(3);
        let mut entries = s0.witnesses().to_vec();
        entries[DistStorage::packed_index(3, 0, 2)] = PairWitness::Via(1);
        entries[DistStorage::packed_index(3, 0, 1)] = PairWitness::Via(2);
        entries[DistStorage::packed_index(3, 1, 2)] = PairWitness::Via(0);
        let s = PathStore::from_parts(3, RouteArena::new(), entries, None);
        assert_eq!(s.emit(0, 2), None, "budget breaks the cycle");
    }

    /// Path 0–6 plus the edge (1,7), and an emulator over it with the
    /// weight-2 shortcut (1,4), whose route 1-2-3-4 the store absorbs: the
    /// trees of the emulator as a store's tree rows.
    fn tree_store() -> PathStore {
        let mut edges: Vec<(usize, usize)> = (0..6).map(|v| (v, v + 1)).collect();
        edges.push((1, 7));
        let g = Graph::from_edges(8, &edges);
        let mut shortcut = Unroller::new();
        let rec = shortcut.intern_walk(&g, &[1, 2, 3, 4]).unwrap();
        shortcut.register(1, 4, rec);
        let mut s = PathStore::new(8);
        s.absorb_routes(&shortcut);
        let (_, hop, _) = s.routes().rec_between(1, 4).unwrap();
        let mut over: Vec<(usize, usize, cc_graphs::Dist)> =
            edges.iter().map(|&(u, v)| (u, v, 1)).collect();
        over.push((1, 4, 2));
        let over = cc_graphs::WeightedGraph::from_edges(8, &over);
        let hops = HopTable::new(8, vec![(1, 4, hop)]);
        let mut parents = vec![0u32; 64];
        for (src, row) in parents.chunks_mut(8).enumerate() {
            let (_, tree) = cc_graphs::dijkstra::sssp_with_parents(&over, src);
            hops.write_row(row, &tree);
        }
        s.set_trees(Arc::new(TreeRows::new(parents, hops)));
        s
    }

    /// Tree routes cross the emulator hop in both orientations: the row of
    /// 0 crosses it upward (1 → 4), the row of 5 downward (4 → 1, its route
    /// emitted reversed), and each pair's reverse route is the same walk
    /// backwards.
    #[test]
    fn tree_routes_cross_emulator_hops_both_ways() {
        let s = tree_store();
        let up = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        assert_eq!(s.emit(0, 5).unwrap(), up);
        let down = vec![(5, 4), (4, 3), (3, 2), (2, 1), (1, 7)];
        assert_eq!(s.emit(5, 7).unwrap(), down);
        for (walk, (u, v)) in [(up, (0, 5)), (down, (5, 7))] {
            let back: Vec<(u32, u32)> = walk.iter().rev().map(|&(x, y)| (y, x)).collect();
            assert_eq!(s.emit(v, u).unwrap(), back, "({v},{u})");
        }
        // Rows that never take the shortcut emit plain `G` walks.
        assert_eq!(s.emit(2, 3).unwrap(), vec![(2, 3)]);
        assert_eq!(s.emit(6, 2).unwrap(), vec![(6, 5), (5, 4), (4, 3), (3, 2)]);
        // A reused stack and buffer give the same walks, appended.
        let (mut out, mut stack) = (vec![(9, 9)], EmitStack::default());
        assert_eq!(s.emit_into(0, 5, &mut out, &mut stack), Some(5));
        assert_eq!(s.emit_into(7, 5, &mut out, &mut stack), Some(5));
        assert_eq!(out.len(), 11);
        assert_eq!(out[6..], [(7, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    /// A corrupt parent cycle (only a snapshot can hold one) answers
    /// `None` through the emission budget instead of looping.
    #[test]
    fn tree_parent_cycle_returns_none() {
        let s = tree_store();
        let trees = s.trees().unwrap();
        let (parents, start, hi, rec) = trees.sections();
        let mut parents = parents.to_vec();
        // Row 0: 3's parent is 4, and 4's parent is 3.
        parents[3] = 4;
        parents[4] = 3;
        let cyclic = TreeRows::from_sections(8, parents, start.to_vec(), hi.to_vec(), rec.to_vec())
            .expect("a cycle passes the section checks");
        let s = PathStore::from_parts(
            8,
            s.arena().clone(),
            s.witnesses().to_vec(),
            Some(Arc::new(cyclic)),
        );
        assert_eq!(s.emit(0, 5), None, "budget breaks the cycle");
        assert_eq!(s.emit(5, 0), None);
        assert_eq!(
            s.emit(0, 1).unwrap(),
            vec![(0, 1)],
            "other chains still emit"
        );
    }

    #[test]
    fn row_store_sets_and_emits() {
        let g = path_graph(6);
        let mut r = RowStore::new(6, &[2]);
        r.set_edge(0, 3);
        r.set_walk(&g, 0, &[2, 1, 0]);
        assert_eq!(r.emit(0, 0).unwrap(), vec![(2, 1), (1, 0)]);
        assert_eq!(r.emit(0, 3).unwrap(), vec![(2, 3)]);
        assert_eq!(r.emit(0, 2).unwrap(), vec![], "source cell is empty");
        assert_eq!(r.emit(0, 5), None, "no witness");
        assert_eq!(r.sources(), &[2]);
    }

    #[test]
    fn stores_absorb_substrate_routes() {
        // A shortcut (0,3) registered in a substrate unroller is usable by
        // walks set in the store after absorption.
        let g = path_graph(6);
        let mut substrate = Unroller::new();
        let rec = substrate.intern_walk(&g, &[0, 1, 2, 3]).unwrap();
        substrate.register(0, 3, rec);
        let mut s = PathStore::new(6);
        s.absorb_routes(&substrate);
        s.set_walk(&g, &[5, 4, 3, 0]); // hop (3,0) is the shortcut
        assert_eq!(
            s.emit(5, 0).unwrap(),
            vec![(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]
        );
        let mut r = RowStore::new(6, &[5]);
        r.absorb_routes(&substrate);
        r.set_walk(&g, 0, &[5, 4, 3, 0]);
        assert_eq!(r.emit(0, 0).unwrap().len(), 5);
    }
}
