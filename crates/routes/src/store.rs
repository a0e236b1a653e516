//! Per-pair and per-row witness stores filled by the distance pipelines.

use cc_graphs::{Dist, DistStorage, Graph, INF};

use crate::arena::{RecId, RouteArena};
use crate::unroller::Unroller;

/// The witness of one vertex pair in a [`PathStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairWitness {
    /// No finite estimate has been offered for the pair.
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
    /// Every `Via` is recorded with a value that is at least the sum of the
    /// two halves' values at record time, and values only decrease, so
    /// expansion strictly descends and terminates (`DESIGN.md` §8.2).
    Via(u32),
}

/// The per-pair witness table a pipeline fills alongside its symmetric
/// estimate matrix.
///
/// The store mirrors the estimate values on its own (`offer_*` updates value
/// and witness atomically with the same strict-improvement rule the
/// [`DistanceMatrix`] uses), so recording witnesses never changes the
/// pipeline's estimates — the offers are a parallel shadow of the existing
/// `improve` calls.
///
/// [`DistanceMatrix`]: https://docs.rs/cc-core
#[derive(Clone, Debug)]
pub struct PathStore {
    n: usize,
    /// Mirrored best values, packed upper triangle (diagonal 0).
    best: Vec<Dist>,
    /// One witness per packed pair.
    entries: Vec<PairWitness>,
    /// Shortcut provenance (hopset/emulator records absorbed in) plus the
    /// arena all `Rec` witnesses live in.
    routes: Unroller,
}

impl PathStore {
    /// An empty store for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        let entries = n * (n + 1) / 2;
        let mut best = vec![INF; entries];
        for u in 0..n {
            best[DistStorage::packed_index(n, u, u)] = 0;
        }
        PathStore {
            n,
            best,
            entries: vec![PairWitness::None; entries],
            routes: Unroller::new(),
        }
    }

    /// Rebuilds a store from frozen parts (snapshot loading). The arena is
    /// taken as-is — no copy, so zero-copy (shared-section) arenas stay
    /// zero-copy. Mirrored values are not part of snapshots; the rebuilt
    /// store only serves [`PathStore::emit`].
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != n(n+1)/2`.
    pub fn from_parts(n: usize, arena: RouteArena, entries: Vec<PairWitness>) -> Self {
        assert_eq!(entries.len(), n * (n + 1) / 2, "one witness per pair");
        let routes = Unroller::from_arena(arena);
        let mut best = vec![INF; entries.len()];
        for u in 0..n {
            best[DistStorage::packed_index(n, u, u)] = 0;
        }
        PathStore {
            n,
            best,
            entries,
            routes,
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

    /// The mirrored best value for `(u, v)` (`0` on the diagonal, [`INF`]
    /// before any offer).
    pub fn value(&self, u: usize, v: usize) -> Dist {
        self.best[DistStorage::packed_index(self.n, u, v)]
    }

    /// The witness of `(u, v)` in wire form — used by snapshots and tests.
    pub fn witness(&self, u: usize, v: usize) -> PairWitness {
        self.entries[DistStorage::packed_index(self.n, u, v)]
    }

    /// Raw packed witness table, indexed like
    /// [`DistStorage::packed_index`].
    pub fn witnesses(&self) -> &[PairWitness] {
        &self.entries
    }

    #[inline]
    fn offer(&mut self, u: usize, v: usize, d: Dist, witness: PairWitness) {
        if u == v || d >= INF {
            return;
        }
        let idx = DistStorage::packed_index(self.n, u, v);
        if d < self.best[idx] {
            self.best[idx] = d;
            self.entries[idx] = witness;
        }
    }

    /// Offers the direct `G` edge `{u, v}` (weight 1).
    pub fn offer_edge(&mut self, u: usize, v: usize) {
        if u == v || self.value(u, v) <= 1 {
            return;
        }
        let rec = self
            .routes
            .arena_mut()
            .edge(u.min(v) as u32, u.max(v) as u32);
        self.offer(u, v, 1, PairWitness::Rec { rec, rev: false });
    }

    /// Offers an interned record (a path `u → v` in this store's arena) at
    /// value `d`.
    pub fn offer_rec(&mut self, u: usize, v: usize, d: Dist, rec: RecId) {
        self.offer(
            u,
            v,
            d,
            PairWitness::Rec {
                rec,
                rev: u > v, // stored canonically as min → max
            },
        );
    }

    /// Offers a walk given as a vertex sequence over `G` ∪ registered
    /// shortcuts at value `d`. No-op (and no interning) unless it improves;
    /// panics in debug builds if a hop cannot be resolved.
    pub fn offer_walk(&mut self, g: &Graph, d: Dist, verts: &[u32]) {
        if verts.len() < 2 {
            return;
        }
        let (u, v) = (verts[0] as usize, verts[verts.len() - 1] as usize);
        if u == v || d >= INF || d >= self.value(u, v) {
            return;
        }
        match self.routes.intern_walk(g, verts) {
            Some(rec) => self.offer_rec(u, v, d, rec),
            None => debug_assert!(false, "unresolvable hop in offered walk"),
        }
    }

    /// Offers the midpoint decomposition through `w` at value `d`. The
    /// caller guarantees `d ≥ value(u,w) + value(w,v)` at call time (the
    /// pivot-routing pattern), which is what keeps expansion well-founded.
    /// A degenerate midpoint (`w ∈ {u, v}`) is ignored — it restates the
    /// pair's own value and can never strictly improve it.
    pub fn offer_via(&mut self, u: usize, v: usize, d: Dist, w: usize) {
        if w == u || w == v {
            return;
        }
        self.offer(u, v, d, PairWitness::Via(w as u32));
    }

    /// Expands the witnessed walk for `(u, v)` into directed `G` edges
    /// running `u → v` (`Some(vec![])` on the diagonal). Returns `None` when
    /// the pair has no witness, an endpoint is out of range, or — on
    /// corrupted (snapshot-loaded) stores — expansion exceeds its budget.
    pub fn emit(&self, u: usize, v: usize) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        self.emit_into(u, v, &mut out)?;
        Some(out)
    }

    /// Like [`PathStore::emit`], but appends into a caller-provided buffer
    /// (per-worker scratch on serving paths) and returns the number of edges
    /// appended. On failure the buffer is truncated back to its original
    /// length.
    pub fn emit_into(&self, u: usize, v: usize, out: &mut Vec<(u32, u32)>) -> Option<usize> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let start = out.len();
        if u == v {
            return Some(0);
        }
        let mut stack: Vec<(u32, u32)> = vec![(u as u32, v as u32)];
        // Well-formed stores strictly descend in value on every Via, so the
        // walk has at most `value(u,v)` edges; the budget only trips on
        // corrupt snapshots (where it turns a cycle into a clean None).
        let mut budget: u64 = 64 * (self.n as u64) * (self.n as u64) + 1024;
        while let Some((x, y)) = stack.pop() {
            let Some(rest) = budget.checked_sub(1) else {
                out.truncate(start);
                return None;
            };
            budget = rest;
            let idx = DistStorage::packed_index(self.n, x as usize, y as usize);
            match self.entries[idx] {
                PairWitness::None => {
                    out.truncate(start);
                    return None;
                }
                PairWitness::Rec { rec, rev } => {
                    self.routes.arena().emit_into(rec, rev ^ (x > y), out);
                }
                PairWitness::Via(w) => {
                    if w == x || w == y || w as usize >= self.n {
                        out.truncate(start);
                        return None; // corrupt snapshot
                    }
                    stack.push((w, y));
                    stack.push((x, w));
                }
            }
        }
        Some(out.len() - start)
    }
}

/// The row-shaped witness store for multi-source (MSSP) results: one record
/// per `(source, vertex)` cell, no midpoint decomposition.
#[derive(Clone, Debug)]
pub struct RowStore {
    n: usize,
    sources: Vec<u32>,
    /// Mirrored best values, `|S| × n` row-major.
    best: Vec<Dist>,
    /// Records oriented `source → vertex`.
    recs: Vec<Option<RecId>>,
    routes: Unroller,
}

impl RowStore {
    /// An empty store for the given source rows.
    pub fn new(n: usize, sources: &[usize]) -> Self {
        let sources: Vec<u32> = sources.iter().map(|&s| s as u32).collect();
        let mut best = vec![INF; sources.len() * n];
        for (i, &s) in sources.iter().enumerate() {
            best[i * n + s as usize] = 0;
        }
        RowStore {
            n,
            recs: vec![None; sources.len() * n],
            best,
            sources,
            routes: Unroller::new(),
        }
    }

    /// Rebuilds a store from frozen parts (snapshot loading; mirrored values
    /// are not serialized).
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
        let routes = Unroller::from_arena(arena);
        let mut best = vec![INF; recs.len()];
        for (i, &s) in sources.iter().enumerate() {
            best[i * n + s as usize] = 0;
        }
        RowStore {
            n,
            sources,
            best,
            recs,
            routes,
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

    /// The mirrored best value of cell `(i, v)`.
    pub fn value(&self, i: usize, v: usize) -> Dist {
        self.best[i * self.n + v]
    }

    /// Offers a record (oriented `sources[i] → v`) at value `d`.
    pub fn offer_rec(&mut self, i: usize, v: usize, d: Dist, rec: RecId) {
        if v == self.sources[i] as usize || d >= INF {
            return;
        }
        let idx = i * self.n + v;
        if d < self.best[idx] {
            self.best[idx] = d;
            self.recs[idx] = Some(rec);
        }
    }

    /// Offers the direct `G` edge `(sources[i], v)` (weight 1).
    pub fn offer_edge(&mut self, i: usize, v: usize) {
        let s = self.sources[i] as usize;
        if v == s || self.value(i, v) <= 1 {
            return;
        }
        let rec = self.routes.arena_mut().edge(s as u32, v as u32);
        self.offer_rec(i, v, 1, rec);
    }

    /// Offers a walk (vertex sequence from `sources[i]` to `v` over `G` ∪
    /// registered shortcuts) at value `d`. No-op unless it improves.
    pub fn offer_walk(&mut self, g: &Graph, i: usize, d: Dist, verts: &[u32]) {
        if verts.len() < 2 {
            return;
        }
        debug_assert_eq!(verts[0], self.sources[i], "walk must start at the source");
        let v = verts[verts.len() - 1] as usize;
        if d >= INF || d >= self.value(i, v) {
            return;
        }
        match self.routes.intern_walk(g, verts) {
            Some(rec) => self.offer_rec(i, v, d, rec),
            None => debug_assert!(false, "unresolvable hop in offered walk"),
        }
    }

    /// Expands the witnessed walk of cell `(i, v)` into directed `G` edges
    /// running `sources[i] → v` (`Some(vec![])` when `v` is the source
    /// itself).
    pub fn emit(&self, i: usize, v: usize) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        self.emit_into(i, v, &mut out)?;
        Some(out)
    }

    /// Like [`RowStore::emit`], but appends into a caller-provided buffer
    /// and returns the number of edges appended.
    pub fn emit_into(&self, i: usize, v: usize, out: &mut Vec<(u32, u32)>) -> Option<usize> {
        if v >= self.n {
            return None;
        }
        if v == self.sources[i] as usize {
            return Some(0);
        }
        let start = out.len();
        let rec = self.recs[i * self.n + v]?;
        self.routes.arena().emit_into(rec, false, out);
        Some(out.len() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn offers_mirror_strict_improvement() {
        let g = path_graph(5);
        let mut s = PathStore::new(5);
        assert_eq!(s.value(0, 3), INF);
        s.offer_walk(&g, 3, &[0, 1, 2, 3]);
        assert_eq!(s.value(0, 3), 3);
        assert_eq!(s.value(3, 0), 3, "values are symmetric");
        // A worse offer neither changes the value nor the witness.
        s.offer_walk(&g, 5, &[0, 1, 2, 1, 2, 3]);
        assert_eq!(s.value(0, 3), 3);
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
        s.offer_edge(0, 1);
        s.offer_edge(1, 2);
        s.offer_walk(&g, 2, &[2, 3, 4]);
        // (0,2) via 1, then (0,4) via 2 — nested Via resolution.
        s.offer_via(0, 2, 2, 1);
        s.offer_via(0, 4, 4, 2);
        assert_eq!(s.emit(0, 4).unwrap(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(s.emit(4, 0).unwrap()[0], (4, 3));
    }

    #[test]
    fn corrupt_via_cycle_returns_none() {
        // Hand-built cycle (only reachable through from_parts — offers
        // cannot create one): (0,2) via 1 and (0,1) via 2.
        let s0 = PathStore::new(3);
        let mut entries = s0.witnesses().to_vec();
        entries[DistStorage::packed_index(3, 0, 2)] = PairWitness::Via(1);
        entries[DistStorage::packed_index(3, 0, 1)] = PairWitness::Via(2);
        entries[DistStorage::packed_index(3, 1, 2)] = PairWitness::Via(0);
        let s = PathStore::from_parts(3, RouteArena::new(), entries);
        assert_eq!(s.emit(0, 2), None, "budget breaks the cycle");
    }

    #[test]
    fn row_store_offers_and_emits() {
        let g = path_graph(6);
        let mut r = RowStore::new(6, &[2]);
        r.offer_edge(0, 3);
        r.offer_walk(&g, 0, 2, &[2, 1, 0]);
        assert_eq!(r.value(0, 0), 2);
        assert_eq!(r.value(0, 2), 0);
        assert_eq!(r.emit(0, 0).unwrap(), vec![(2, 1), (1, 0)]);
        assert_eq!(r.emit(0, 3).unwrap(), vec![(2, 3)]);
        assert_eq!(r.emit(0, 2).unwrap(), vec![], "source cell is empty");
        assert_eq!(r.emit(0, 5), None, "no witness");
        assert_eq!(r.sources(), &[2]);
    }

    #[test]
    fn stores_absorb_substrate_routes() {
        // A shortcut (0,3) registered in a substrate unroller is usable by
        // walks offered to the store after absorption.
        let g = path_graph(6);
        let mut substrate = Unroller::new();
        let rec = substrate.intern_walk(&g, &[0, 1, 2, 3]).unwrap();
        substrate.register(0, 3, rec);
        let mut s = PathStore::new(6);
        s.absorb_routes(&substrate);
        s.offer_walk(&g, 5, &[5, 4, 3, 0]); // hop (3,0) is the shortcut
        assert_eq!(
            s.emit(5, 0).unwrap(),
            vec![(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]
        );
        let mut r = RowStore::new(6, &[5]);
        r.absorb_routes(&substrate);
        r.offer_walk(&g, 0, 5, &[5, 4, 3, 0]);
        assert_eq!(r.emit(0, 0).unwrap().len(), 5);
    }
}
