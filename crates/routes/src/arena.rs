//! The append-only arena of path records.

use cc_graphs::PodData;

/// Handle of a record in a [`RouteArena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecId(pub(crate) u32);

impl RecId {
    /// The raw index (stable for the lifetime of the arena; snapshot files
    /// store it).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw index (snapshot loading). The caller is
    /// responsible for range-checking against [`RouteArena::len`].
    pub fn from_index(i: u32) -> Self {
        RecId(i)
    }
}

/// One record. Children of [`Node::Cat`] and [`Node::Rev`] always have
/// strictly smaller indices than the node itself — the arena is built
/// append-only — so the node graph is a DAG and every walk over it
/// terminates. This is the termination argument for unrolling arbitrarily
/// nested shortcut edges (`DESIGN.md` §8.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Node {
    /// A single original-graph edge `u → v`.
    Edge(u32, u32),
    /// Concatenation: the path of the first child followed by the second.
    Cat(u32, u32),
    /// The reversed path of the child.
    Rev(u32),
}

/// Node tag: a single `G` edge.
pub const TAG_EDGE: u8 = 0;
/// Node tag: concatenation of two earlier records.
pub const TAG_CAT: u8 = 1;
/// Node tag: reversal of an earlier record.
pub const TAG_REV: u8 = 2;

/// Append-only arena of path records with structural sharing.
///
/// A long path that extends another path by one edge costs one `Cat` node,
/// so the parent chains of BFS/Dijkstra trees intern in `O(1)` amortized per
/// vertex, and the full expansion is only materialized on
/// [`RouteArena::emit_into`].
///
/// Storage is struct-of-arrays — one `u8` tag plus two `u32` operands plus a
/// cached `u32` length per record — exactly the section layout of snapshot
/// format v2, so a mapped snapshot serves its arena as zero-copy
/// [`PodData`] views and the first mutation (if any) transparently converts
/// to owned storage.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RouteArena {
    /// `TAG_EDGE` / `TAG_CAT` / `TAG_REV` per record.
    tags: PodData<u8>,
    /// First operand: edge source, first cat child, or rev child.
    ops_a: PodData<u32>,
    /// Second operand: edge target or second cat child (0 for `Rev`).
    ops_b: PodData<u32>,
    /// Number of `G`-edges of each record (the walk's weight on unweighted
    /// inputs), kept incrementally so weights are O(1) without emitting.
    lens: PodData<u32>,
}

impl RouteArena {
    /// An empty arena.
    pub fn new() -> Self {
        RouteArena::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when no record has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// `true` when the record tables are zero-copy views into a shared byte
    /// buffer (a mapped snapshot) rather than owned allocations.
    pub fn is_shared(&self) -> bool {
        self.tags.is_shared()
    }

    /// The raw SoA sections `(tags, ops_a, ops_b, lens)` — the exact order
    /// and element types of the v2 snapshot sections.
    pub fn sections(&self) -> (&[u8], &[u32], &[u32], &[u32]) {
        (&self.tags, &self.ops_a, &self.ops_b, &self.lens)
    }

    /// Rebuilds an arena directly from its four SoA sections (typically
    /// zero-copy views into a mapped v2 snapshot), validating every record
    /// against the DAG invariant — children strictly smaller than their
    /// node, edge endpoints below `n`, no self-loop edges, known tags, and
    /// cached lengths consistent with the children — before accepting.
    /// Returns `None` on any violation or on mismatched section lengths.
    /// O(records) reads, no allocation.
    pub fn from_sections(
        tags: impl Into<PodData<u8>>,
        ops_a: impl Into<PodData<u32>>,
        ops_b: impl Into<PodData<u32>>,
        lens: impl Into<PodData<u32>>,
        n: usize,
    ) -> Option<RouteArena> {
        let (tags, ops_a, ops_b, lens) = (tags.into(), ops_a.into(), ops_b.into(), lens.into());
        let count = tags.len();
        if ops_a.len() != count || ops_b.len() != count || lens.len() != count {
            return None;
        }
        u32::try_from(count).ok()?;
        for i in 0..count {
            let (a, b) = (ops_a[i], ops_b[i]);
            let want = match tags[i] {
                TAG_EDGE => {
                    if a == b || a as usize >= n || b as usize >= n {
                        return None;
                    }
                    1
                }
                TAG_CAT => {
                    if a as usize >= i || b as usize >= i {
                        return None;
                    }
                    lens[a as usize].checked_add(lens[b as usize])?
                }
                TAG_REV => {
                    if a as usize >= i || b != 0 {
                        return None;
                    }
                    lens[a as usize]
                }
                _ => return None,
            };
            if lens[i] != want {
                return None;
            }
        }
        Some(RouteArena {
            tags,
            ops_a,
            ops_b,
            lens,
        })
    }

    fn node(&self, i: usize) -> Node {
        match self.tags[i] {
            TAG_EDGE => Node::Edge(self.ops_a[i], self.ops_b[i]),
            TAG_CAT => Node::Cat(self.ops_a[i], self.ops_b[i]),
            _ => Node::Rev(self.ops_a[i]),
        }
    }

    fn push(&mut self, node: Node, len: u32) -> RecId {
        let id = u32::try_from(self.len()).expect("arena exceeds u32 records");
        let (tag, a, b) = match node {
            Node::Edge(u, v) => (TAG_EDGE, u, v),
            Node::Cat(x, y) => (TAG_CAT, x, y),
            Node::Rev(x) => (TAG_REV, x, 0),
        };
        self.tags.push(tag);
        self.ops_a.push(a);
        self.ops_b.push(b);
        self.lens.push(len);
        RecId(id)
    }

    /// Interns a single `G`-edge record `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are never part of a route).
    pub fn edge(&mut self, u: u32, v: u32) -> RecId {
        assert_ne!(u, v, "route edges cannot be self-loops");
        self.push(Node::Edge(u, v), 1)
    }

    /// Interns the concatenation `a ++ b`.
    ///
    /// # Panics
    ///
    /// Panics if either child is out of range.
    pub fn cat(&mut self, a: RecId, b: RecId) -> RecId {
        let n = self.len() as u32;
        assert!(a.0 < n && b.0 < n, "cat children must already be interned");
        let len = self.lens[a.0 as usize] + self.lens[b.0 as usize];
        self.push(Node::Cat(a.0, b.0), len)
    }

    /// Interns the reversal of `a`. Reversing a `Rev` node collapses back to
    /// its child instead of stacking.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn rev(&mut self, a: RecId) -> RecId {
        assert!((a.0 as usize) < self.len(), "rev child out of range");
        if self.tags[a.0 as usize] == TAG_REV {
            return RecId(self.ops_a[a.0 as usize]);
        }
        self.push(Node::Rev(a.0), self.lens[a.0 as usize])
    }

    /// Number of `G`-edges of record `id` (the walk's weight on unweighted
    /// graphs).
    pub fn len_of(&self, id: RecId) -> u32 {
        self.lens[id.0 as usize]
    }

    /// Appends the expansion of `id` (reversed if `reversed`) to `out` as a
    /// sequence of directed `G`-edges `(x, y)`, consecutive edges sharing
    /// their middle vertex. Iterative — safe for arbitrarily deep `Cat`
    /// chains.
    pub fn emit_into(&self, id: RecId, reversed: bool, out: &mut Vec<(u32, u32)>) {
        let mut stack: Vec<(u32, bool)> = vec![(id.0, reversed)];
        while let Some((id, rev)) = stack.pop() {
            match self.node(id as usize) {
                Node::Edge(u, v) => out.push(if rev { (v, u) } else { (u, v) }),
                Node::Cat(a, b) => {
                    // Forward: a then b — push b first so a pops first.
                    // Reversed: rev(b) then rev(a).
                    if rev {
                        stack.push((a, true));
                        stack.push((b, true));
                    } else {
                        stack.push((b, false));
                        stack.push((a, false));
                    }
                }
                Node::Rev(a) => stack.push((a, !rev)),
            }
        }
    }

    /// The full expansion of `id` as a fresh vector.
    pub fn emit(&self, id: RecId, reversed: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len_of(id) as usize);
        self.emit_into(id, reversed, &mut out);
        out
    }

    /// Appends a copy of every record of `other`, returning the index offset:
    /// a record `r` of `other` becomes `RecId(r.index() + offset)` here.
    /// O(|other|); id order (and therefore the DAG invariant) is preserved.
    pub fn absorb(&mut self, other: &RouteArena) -> u32 {
        let offset = u32::try_from(self.len()).expect("arena exceeds u32 records");
        self.tags.extend_from_slice(&other.tags);
        for i in 0..other.len() {
            let shift = if other.tags[i] == TAG_EDGE { 0 } else { offset };
            self.ops_a.push(other.ops_a[i] + shift);
            let b_shift = if other.tags[i] == TAG_CAT { offset } else { 0 };
            self.ops_b.push(other.ops_b[i] + b_shift);
        }
        self.lens.extend_from_slice(&other.lens);
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_cat_and_rev_emit_correctly() {
        let mut a = RouteArena::new();
        let e01 = a.edge(0, 1);
        let e12 = a.edge(1, 2);
        let p = a.cat(e01, e12);
        assert_eq!(a.len_of(p), 2);
        assert_eq!(a.emit(p, false), vec![(0, 1), (1, 2)]);
        assert_eq!(a.emit(p, true), vec![(2, 1), (1, 0)]);
        let r = a.rev(p);
        assert_eq!(a.emit(r, false), vec![(2, 1), (1, 0)]);
        assert_eq!(a.emit(r, true), vec![(0, 1), (1, 2)]);
        // Rev of Rev collapses.
        assert_eq!(a.rev(r), p);
    }

    #[test]
    fn deep_cat_chain_emits_iteratively() {
        // 40k-edge linked chain: a recursive emit would overflow the stack.
        let mut a = RouteArena::new();
        let mut rec = a.edge(0, 1);
        for i in 1..40_000u32 {
            let e = a.edge(i, i + 1);
            rec = a.cat(rec, e);
        }
        assert_eq!(a.len_of(rec), 40_000);
        let edges = a.emit(rec, false);
        assert_eq!(edges.len(), 40_000);
        assert_eq!(edges[0], (0, 1));
        assert_eq!(edges[39_999], (39_999, 40_000));
        let back = a.emit(rec, true);
        assert_eq!(back[0], (40_000, 39_999));
    }

    #[test]
    fn absorb_shifts_ids_and_preserves_expansions() {
        let mut a = RouteArena::new();
        let _pad = a.edge(7, 8);
        let mut b = RouteArena::new();
        let e = b.edge(0, 1);
        let f = b.edge(1, 2);
        let p = b.cat(e, f);
        let offset = a.absorb(&b);
        assert_eq!(offset, 1);
        let p2 = RecId(p.index() + offset);
        assert_eq!(a.emit(p2, false), b.emit(p, false));
        assert_eq!(a.len_of(p2), 2);
    }

    #[test]
    fn absorb_shifts_rev_nodes_too() {
        let mut b = RouteArena::new();
        let e = b.edge(0, 1);
        let r = b.rev(e);
        let c = b.cat(r, e);
        let mut a = RouteArena::new();
        let _pad = a.edge(5, 6);
        let _pad2 = a.edge(6, 7);
        let offset = a.absorb(&b);
        let c2 = RecId(c.index() + offset);
        assert_eq!(a.emit(c2, false), vec![(1, 0), (0, 1)]);
    }

    #[test]
    fn from_sections_round_trips_and_rejects_corruption() {
        let mut a = RouteArena::new();
        let e = a.edge(0, 1);
        let f = a.edge(1, 2);
        let c = a.cat(e, f);
        let _r = a.rev(c);
        let (tags, ops_a, ops_b, lens) = a.sections();
        let (tags, ops_a, ops_b, lens) =
            (tags.to_vec(), ops_a.to_vec(), ops_b.to_vec(), lens.to_vec());
        let b =
            RouteArena::from_sections(tags.clone(), ops_a.clone(), ops_b.clone(), lens.clone(), 3)
                .expect("valid sections");
        assert_eq!(a, b);
        // Forward cat reference.
        let mut bad_a = ops_a.clone();
        bad_a[2] = 3;
        assert!(
            RouteArena::from_sections(tags.clone(), bad_a, ops_b.clone(), lens.clone(), 3)
                .is_none()
        );
        // Inconsistent cached length.
        let mut bad_lens = lens.clone();
        bad_lens[2] = 7;
        assert!(
            RouteArena::from_sections(tags.clone(), ops_a.clone(), ops_b.clone(), bad_lens, 3)
                .is_none()
        );
        // Unknown tag.
        let mut bad_tags = tags.clone();
        bad_tags[0] = 9;
        assert!(
            RouteArena::from_sections(bad_tags, ops_a.clone(), ops_b.clone(), lens.clone(), 3)
                .is_none()
        );
        // Rev with nonzero second operand.
        let mut bad_b = ops_b.clone();
        bad_b[3] = 1;
        assert!(RouteArena::from_sections(tags, ops_a, bad_b, lens, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_edge_rejected() {
        let mut a = RouteArena::new();
        let _ = a.edge(3, 3);
    }
}
