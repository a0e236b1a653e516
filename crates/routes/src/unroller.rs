//! Shortcut-edge provenance: unrolling hopset/emulator edges into `G` edges.

use cc_graphs::Graph;

use crate::arena::{RecId, RouteArena};

/// Provenance for a set of *shortcut edges*: every registered pair `{u, v}`
/// maps to the shortest known path record, so any shortcut edge — or any walk
/// whose hops are `G` edges or registered shortcuts — can be recursively
/// expanded into original-graph edges.
///
/// Construction layers compose: a hopset registers its bunch edges (interned
/// from `(k,t)`-nearest parent chains) and then each interconnection
/// iteration's edges, whose defining walks step over `G` and *earlier*
/// hopset edges only. The arena's append-only id order is exactly that
/// layering, which is why unrolling terminates (`DESIGN.md` §8.2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Unroller {
    arena: RouteArena,
    /// Canonical pair `{min, max}` → (edge count of the record, record as a
    /// path `min → max`), kept as one row per `min`: `(max, edge count,
    /// record)` sorted by `max`. Lookups and inserts touch one vertex's
    /// row, and the rows in order visit the pairs in `(min, max)` order —
    /// [`Unroller::absorb`] merges in that order, never an
    /// address-dependent one (the `unordered-iter` rule, `DESIGN.md`
    /// §11.1).
    by_pair: Vec<Vec<(u32, u32, RecId)>>,
}

impl Unroller {
    /// An empty unroller.
    pub fn new() -> Self {
        Unroller::default()
    }

    /// Wraps an already-built arena (typically reconstructed from a snapshot
    /// — zero-copy when the arena's sections are shared views) without
    /// copying its records. The pair registry starts empty; stores that keep
    /// their own witness tables never consult it.
    pub fn from_arena(arena: RouteArena) -> Self {
        Unroller {
            arena,
            by_pair: Vec::new(),
        }
    }

    /// The record arena.
    pub fn arena(&self) -> &RouteArena {
        &self.arena
    }

    /// Mutable access to the record arena (for interning caller-built
    /// chains, e.g. `(k,d)`-nearest parent chains).
    pub fn arena_mut(&mut self) -> &mut RouteArena {
        &mut self.arena
    }

    /// Registers `rec` (a path `u → v` in this arena) as provenance for the
    /// shortcut pair `{u, v}`. Keeps the record with the fewest `G` edges;
    /// on equal length the first registration wins (deterministic given a
    /// deterministic registration order).
    ///
    /// # Panics
    ///
    /// Panics if `u == v`.
    pub fn register(&mut self, u: usize, v: usize, rec: RecId) {
        assert_ne!(u, v, "shortcut pairs cannot be self-loops");
        let len = self.arena.len_of(rec);
        let (lo, hi) = (u.min(v), u.max(v) as u32);
        if lo >= self.by_pair.len() {
            self.by_pair.resize_with(lo + 1, Vec::new);
        }
        let slot = self.by_pair[lo].binary_search_by_key(&hi, |e| e.0);
        // Decide before interning: a losing registration must not leave a
        // dead Rev node in the append-only arena (it would be carried into
        // every absorbing store and snapshot).
        if slot.is_ok_and(|i| self.by_pair[lo][i].1 <= len) {
            return;
        }
        let stored = if u < v { rec } else { self.arena.rev(rec) };
        match slot {
            Ok(i) => self.by_pair[lo][i] = (hi, len, stored),
            Err(i) => self.by_pair[lo].insert(i, (hi, len, stored)),
        }
    }

    /// The best record for pair `{u, v}`: `(edge count, record, reversed)`
    /// where `reversed` tells whether the record must be emitted reversed to
    /// run `u → v`.
    pub fn rec_between(&self, u: usize, v: usize) -> Option<(u32, RecId, bool)> {
        let row = self.by_pair.get(u.min(v))?;
        let i = row.binary_search_by_key(&(u.max(v) as u32), |e| e.0).ok()?;
        let (_, len, rec) = row[i];
        Some((len, rec, u > v))
    }

    /// Like [`Unroller::rec_between`], but returns a record already oriented
    /// `u → v` (interning a `Rev` node when needed).
    fn oriented(&mut self, u: usize, v: usize) -> Option<(u32, RecId)> {
        let (len, rec, reversed) = self.rec_between(u, v)?;
        let rec = if reversed { self.arena.rev(rec) } else { rec };
        Some((len, rec))
    }

    /// Interns a walk given as a vertex sequence whose hops are `G` edges or
    /// registered shortcut pairs, resolving each hop to the shortest known
    /// expansion (`G` edges win — they are always at least as short). Returns
    /// `None` when the walk has fewer than two vertices or some hop is
    /// neither a `G` edge nor registered.
    pub fn intern_walk(&mut self, g: &Graph, verts: &[u32]) -> Option<RecId> {
        if verts.len() < 2 {
            return None;
        }
        let mut acc: Option<RecId> = None;
        for hop in verts.windows(2) {
            let (x, y) = (hop[0] as usize, hop[1] as usize);
            let rec = if g.has_edge(x, y) {
                self.arena.edge(hop[0], hop[1])
            } else {
                self.oriented(x, y)?.1
            };
            acc = Some(match acc {
                Some(prev) => self.arena.cat(prev, rec),
                None => rec,
            });
        }
        acc
    }

    /// Fully expands the shortcut pair `{u, v}` into directed `G` edges
    /// running `u → v`.
    pub fn unroll(&self, u: usize, v: usize) -> Option<Vec<(u32, u32)>> {
        let (_, rec, reversed) = self.rec_between(u, v)?;
        Some(self.arena.emit(rec, reversed))
    }

    /// Merges every record and registered pair of `other` into `self`
    /// (arena ids shift; pair conflicts keep the shorter record).
    pub fn absorb(&mut self, other: &Unroller) {
        let offset = self.arena.absorb(&other.arena);
        if self.by_pair.len() < other.by_pair.len() {
            self.by_pair.resize_with(other.by_pair.len(), Vec::new);
        }
        let shift =
            |&(v, len, rec): &(u32, u32, RecId)| (v, len, RecId::from_index(rec.index() + offset));
        for (mine, theirs) in self.by_pair.iter_mut().zip(&other.by_pair) {
            if mine.is_empty() {
                mine.extend(theirs.iter().map(shift));
                continue;
            }
            // Merge two rows sorted by `max`; on a shared pair the shorter
            // record wins, ours on a tie.
            let mut merged = Vec::with_capacity(mine.len() + theirs.len());
            let (mut i, mut j) = (0, 0);
            loop {
                match (mine.get(i).copied(), theirs.get(j).map(shift)) {
                    (Some(x), Some(y)) if x.0 == y.0 => {
                        merged.push(if x.1 <= y.1 { x } else { y });
                        (i, j) = (i + 1, j + 1);
                    }
                    (Some(x), Some(y)) if x.0 < y.0 => {
                        merged.push(x);
                        i += 1;
                    }
                    (Some(x), None) => {
                        merged.push(x);
                        i += 1;
                    }
                    (_, Some(y)) => {
                        merged.push(y);
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
            *mine = merged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn register_keeps_the_shortest_record() {
        let g = path_graph(4);
        let mut u = Unroller::new();
        let long = u.intern_walk(&g, &[0, 1, 2, 3, 2, 3]).unwrap();
        u.register(0, 3, long);
        assert_eq!(u.unroll(0, 3).unwrap().len(), 5);
        let short = u.intern_walk(&g, &[0, 1, 2, 3]).unwrap();
        u.register(0, 3, short);
        assert_eq!(u.unroll(0, 3).unwrap().len(), 3);
        // A longer re-registration does not displace the short one.
        u.register(3, 0, long);
        assert_eq!(u.unroll(0, 3).unwrap().len(), 3);
    }

    #[test]
    fn walks_resolve_through_registered_shortcuts() {
        // Layered shortcuts: (0,2) over G edges, then (0,4) over G ∪ {(0,2)}.
        let g = path_graph(5);
        let mut u = Unroller::new();
        let low = u.intern_walk(&g, &[0, 1, 2]).unwrap();
        u.register(0, 2, low);
        let high = u.intern_walk(&g, &[0, 2, 3, 4]).expect("hop (0,2) known");
        u.register(0, 4, high);
        assert_eq!(
            u.unroll(0, 4).unwrap(),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
        // Reverse orientation unrolls the same walk backwards.
        assert_eq!(
            u.unroll(4, 0).unwrap(),
            vec![(4, 3), (3, 2), (2, 1), (1, 0)]
        );
        // A hop that is neither a G edge nor registered fails cleanly.
        assert!(u.intern_walk(&g, &[1, 4]).is_none());
        assert!(u.intern_walk(&g, &[3]).is_none(), "degenerate walk");
    }

    #[test]
    fn absorb_merges_pairs_with_shorter_wins() {
        let g = path_graph(4);
        let mut a = Unroller::new();
        let long = a.intern_walk(&g, &[0, 1, 2, 1, 2, 3]).unwrap();
        a.register(0, 3, long);
        let mut b = Unroller::new();
        let short = b.intern_walk(&g, &[0, 1, 2, 3]).unwrap();
        b.register(0, 3, short);
        let mid = b.intern_walk(&g, &[1, 2, 3]).unwrap();
        b.register(1, 3, mid);
        a.absorb(&b);
        assert_eq!(a.unroll(0, 3).unwrap().len(), 3, "shorter record wins");
        assert_eq!(a.unroll(3, 1).unwrap(), vec![(3, 2), (2, 1)]);
    }

    /// Absorbing merges rows pair by pair: pairs only one side knows are
    /// kept, a shared pair keeps the shorter record (ours on a tie), and
    /// absorbed record ids shift past our arena.
    #[test]
    fn absorb_merges_interleaved_rows() {
        let g = path_graph(8);
        let walk = |u: &mut Unroller, verts: &[u32]| {
            let rec = u.intern_walk(&g, verts).unwrap();
            let (x, y) = (verts[0] as usize, verts[verts.len() - 1] as usize);
            u.register(x, y, rec);
        };
        let mut a = Unroller::new();
        walk(&mut a, &[2, 3, 4, 3, 4]);
        walk(&mut a, &[2, 3, 4, 5, 6]);
        walk(&mut a, &[7, 6, 5, 4, 3, 2, 1]);
        let mut b = Unroller::new();
        walk(&mut b, &[1, 2, 3]);
        walk(&mut b, &[2, 3, 4]);
        walk(&mut b, &[2, 3, 4, 5]);
        walk(&mut b, &[6, 5, 4, 3, 2]);
        let before = a.arena().len() as u32;
        a.absorb(&b);
        let len = |u: usize, v: usize| a.rec_between(u, v).map(|(len, _, _)| len);
        assert_eq!(len(2, 4), Some(2), "their shorter record wins");
        assert_eq!(len(2, 6), Some(4), "ours wins a tie");
        assert_eq!(len(1, 7), Some(6), "ours alone");
        assert_eq!(len(1, 3), Some(2), "theirs alone");
        assert_eq!(len(2, 5), Some(3), "theirs alone, between ours");
        let (_, rec, _) = a.rec_between(1, 3).unwrap();
        assert!(rec.index() >= before, "absorbed ids shift");
        assert_eq!(a.unroll(3, 1).unwrap(), vec![(3, 2), (2, 1)]);
        assert_eq!(a.unroll(6, 2).unwrap().len(), 4);
    }

    /// Two independent absorb-merges of the same unrollers must agree on
    /// every unrolled walk — the pair table's iteration order may not leak
    /// into results (regression for the BTreeMap conversion; the
    /// `unordered-iter` rule pins this statically).
    #[test]
    fn absorb_results_are_stable_across_runs() {
        let g = path_graph(8);
        let run = || {
            let mut a = Unroller::new();
            for s in 0..5usize {
                let walk: Vec<u32> = (s as u32..=s as u32 + 2).collect();
                let rec = a.intern_walk(&g, &walk).unwrap();
                a.register(s, s + 2, rec);
            }
            let mut b = Unroller::new();
            for s in 0..4usize {
                let walk: Vec<u32> = (s as u32..=s as u32 + 3).collect();
                let rec = b.intern_walk(&g, &walk).unwrap();
                b.register(s, s + 3, rec);
            }
            a.absorb(&b);
            let mut out = Vec::new();
            for u in 0..8 {
                for v in 0..8 {
                    if let Some(edges) = a.unroll(u, v) {
                        out.push((u, v, edges));
                    }
                }
            }
            out
        };
        assert_eq!(run(), run(), "absorb must be bit-identical across runs");
    }

    #[test]
    fn intern_walk_register_via_mutable_reference() {
        // `register` accepts recs built through `arena_mut` too.
        let mut u = Unroller::new();
        let rec = {
            let arena = u.arena_mut();
            let e = arena.edge(5, 6);
            let f = arena.edge(6, 7);
            arena.cat(e, f)
        };
        u.register(5, 7, rec);
        assert_eq!(u.unroll(7, 5).unwrap(), vec![(7, 6), (6, 5)]);
        assert_eq!(u.rec_between(5, 7).unwrap().0, 2);
        assert!(u.rec_between(5, 6).is_none());
    }
}
