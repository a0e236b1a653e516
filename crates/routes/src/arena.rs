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
/// cached `u32` length per record — exactly the section layout of the
/// snapshot format, so a mapped snapshot serves its arena as zero-copy
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
    /// and element types of the snapshot sections.
    pub fn sections(&self) -> (&[u8], &[u32], &[u32], &[u32]) {
        (&self.tags, &self.ops_a, &self.ops_b, &self.lens)
    }

    /// Rebuilds an arena directly from its four SoA sections (typically
    /// zero-copy views into a mapped snapshot), validating every record
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
        let arena = RouteArena {
            tags: tags.into(),
            ops_a: ops_a.into(),
            ops_b: ops_b.into(),
            lens: lens.into(),
        };
        // One slice per column for the whole check: indexing a mapped
        // `PodData` per record would resolve its owner's bytes each time.
        let (tags, ops_a, ops_b, lens) = arena.sections();
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
        Some(arena)
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

    /// The record columns as slices, read once per route rather than once
    /// per record: indexing a mapped [`PodData`] resolves its owner's bytes
    /// on every access.
    pub(crate) fn view(&self) -> ArenaView<'_> {
        ArenaView {
            tags: &self.tags,
            ops_a: &self.ops_a,
            ops_b: &self.ops_b,
        }
    }

    /// Appends the expansion of `id` (reversed if `reversed`) to `out` as a
    /// sequence of directed `G`-edges `(x, y)`, consecutive edges sharing
    /// their middle vertex. Iterative over `stack`'s record stack — safe for
    /// arbitrarily deep `Cat` chains, and allocation-free once the stack
    /// has grown.
    pub fn emit_into(
        &self,
        id: RecId,
        reversed: bool,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) {
        self.view().emit_into(id, reversed, out, stack);
    }

    /// The full expansion of `id` as a fresh vector.
    pub fn emit(&self, id: RecId, reversed: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len_of(id) as usize);
        self.emit_into(id, reversed, &mut out, &mut EmitStack::default());
        out
    }

    /// Appends a copy of every record of `other`, returning the index offset:
    /// a record `r` of `other` becomes `RecId(r.index() + offset)` here.
    /// O(|other|); id order (and therefore the DAG invariant) is preserved.
    pub fn absorb(&mut self, other: &RouteArena) -> u32 {
        let offset = u32::try_from(self.len()).expect("arena exceeds u32 records");
        let (tags, ops_a, ops_b, lens) = other.sections();
        self.tags.extend_from_slice(tags);
        self.ops_a.extend(
            tags.iter()
                .zip(ops_a)
                .map(|(&tag, &a)| if tag == TAG_EDGE { a } else { a + offset }),
        );
        self.ops_b.extend(
            tags.iter()
                .zip(ops_b)
                .map(|(&tag, &b)| if tag == TAG_CAT { b + offset } else { b }),
        );
        self.lens.extend_from_slice(lens);
        offset
    }

    /// Appends every record of `batch` in batch order, relocating its
    /// batch-local operands: local record `i` becomes
    /// `RecId(offset + i)`, where `offset` — the arena length before the
    /// call — is returned ([`BatchRef::resolve`] maps a handle). Arena
    /// operands are kept as they are. The arena ends up exactly as if the
    /// batch's `edge`/`cat`/`rev` calls had been made on it directly at
    /// this point, including the `Rev`-of-`Rev` collapse, so interning a
    /// batch away from the arena changes no record id. The batch's lengths
    /// and tags are copied as they are; only the operands are rewritten.
    ///
    /// # Panics
    ///
    /// Panics if the batch references an arena record this arena does not
    /// hold.
    pub fn append_batch(&mut self, batch: &RecordBatch) -> u32 {
        let offset = u32::try_from(self.len()).expect("arena exceeds u32 records");
        assert!(
            batch.arena_refs <= self.len(),
            "batch references records this arena does not hold"
        );
        u32::try_from(self.len() + batch.len()).expect("arena exceeds u32 records");
        self.tags.extend_from_slice(&batch.tags);
        self.ops_a
            .extend(batch.relocated(&batch.ops_a, LOCAL_A, offset));
        self.ops_b
            .extend(batch.relocated(&batch.ops_b, LOCAL_B, offset));
        self.lens.extend_from_slice(&batch.lens);
        offset
    }
}

/// Reusable work stacks for route emission: one per serving worker or per
/// batch, passed to every `emit_into`, so emitting a route allocates
/// nothing once the stacks have grown to the deepest route seen.
#[derive(Debug, Default)]
pub struct EmitStack {
    /// Pending pair expansions of a [`crate::PathStore`] walk.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Pending arena records, each with its orientation.
    pub(crate) records: Vec<(u32, bool)>,
}

/// The columns of a [`RouteArena`] that emission reads, as slices.
#[derive(Clone, Copy)]
pub(crate) struct ArenaView<'a> {
    tags: &'a [u8],
    ops_a: &'a [u32],
    ops_b: &'a [u32],
}

impl ArenaView<'_> {
    /// [`RouteArena::emit_into`] over the hoisted columns.
    pub(crate) fn emit_into(
        &self,
        id: RecId,
        reversed: bool,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) {
        let stack = &mut stack.records;
        stack.clear();
        stack.push((id.0, reversed));
        while let Some((id, rev)) = stack.pop() {
            let i = id as usize;
            let (a, b) = (self.ops_a[i], self.ops_b[i]);
            match self.tags[i] {
                TAG_EDGE => out.push(if rev { (b, a) } else { (a, b) }),
                TAG_CAT => {
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
                _ => stack.push((a, !rev)),
            }
        }
    }
}

/// An operand of a [`RecordBatch`] record: a record already in the arena
/// the batch will be appended to, or an earlier record of the batch itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchRef {
    /// A record of the arena.
    Arena(RecId),
    /// The batch's `i`-th record.
    Local(u32),
}

impl BatchRef {
    /// The arena id of this operand once its batch was appended at
    /// `offset` (the value [`RouteArena::append_batch`] returned).
    pub fn resolve(self, offset: u32) -> RecId {
        match self {
            BatchRef::Arena(id) => id,
            BatchRef::Local(i) => RecId(offset + i),
        }
    }
}

/// `RecordBatch::local` bit: the first operand is batch-local.
const LOCAL_A: u8 = 1;
/// `RecordBatch::local` bit: the second operand is batch-local.
const LOCAL_B: u8 = 2;

/// Records built away from their arena: the same `edge`/`cat`/`rev`
/// calls as on a [`RouteArena`], with operands that are arena ids or
/// batch-local ids, so several batches can be filled in parallel against
/// one read-only arena and then appended in a fixed order with
/// [`RouteArena::append_batch`].
///
/// Storage mirrors the arena's columns, lengths included, plus one byte of
/// flags per record marking the operands that are batch-local indices;
/// appending rewrites only those.
#[derive(Clone, Debug, Default)]
pub struct RecordBatch {
    tags: Vec<u8>,
    ops_a: Vec<u32>,
    ops_b: Vec<u32>,
    lens: Vec<u32>,
    local: Vec<u8>,
    /// One past the largest arena id referenced.
    arena_refs: usize,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// An empty batch with room for `records` records.
    pub fn with_capacity(records: usize) -> Self {
        RecordBatch {
            tags: Vec::with_capacity(records),
            ops_a: Vec::with_capacity(records),
            ops_b: Vec::with_capacity(records),
            lens: Vec::with_capacity(records),
            local: Vec::with_capacity(records),
            arena_refs: 0,
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The operand word, local flag and length of `r`, checked against
    /// `arena` and this batch.
    fn operand(&mut self, arena: &RouteArena, r: BatchRef) -> (u32, bool, u32) {
        match r {
            BatchRef::Arena(id) => {
                let i = id.0 as usize;
                assert!(i < arena.len(), "arena operand out of range");
                self.arena_refs = self.arena_refs.max(i + 1);
                (id.0, false, arena.lens[i])
            }
            BatchRef::Local(i) => {
                assert!((i as usize) < self.len(), "batch operand out of range");
                (i, true, self.lens[i as usize])
            }
        }
    }

    /// The operand column `ops` with every operand flagged `bit` moved up
    /// by `offset`.
    fn relocated<'b>(
        &'b self,
        ops: &'b [u32],
        bit: u8,
        offset: u32,
    ) -> impl Iterator<Item = u32> + 'b {
        ops.iter()
            .zip(&self.local)
            .map(move |(&op, &local)| if local & bit != 0 { op + offset } else { op })
    }

    fn push(&mut self, tag: u8, a: u32, b: u32, len: u32, local: u8) -> BatchRef {
        let id = u32::try_from(self.len()).expect("batch exceeds u32 records");
        self.tags.push(tag);
        self.ops_a.push(a);
        self.ops_b.push(b);
        self.lens.push(len);
        self.local.push(local);
        BatchRef::Local(id)
    }

    /// Adds a single `G`-edge record `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are never part of a route).
    pub fn edge(&mut self, u: u32, v: u32) -> BatchRef {
        assert_ne!(u, v, "route edges cannot be self-loops");
        self.push(TAG_EDGE, u, v, 1, 0)
    }

    /// Adds the concatenation `a ++ b`; `arena` is the arena the batch
    /// will be appended to.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range of `arena` or of the batch.
    pub fn cat(&mut self, arena: &RouteArena, a: BatchRef, b: BatchRef) -> BatchRef {
        let (a, a_local, a_len) = self.operand(arena, a);
        let (b, b_local, b_len) = self.operand(arena, b);
        let local = if a_local { LOCAL_A } else { 0 } | if b_local { LOCAL_B } else { 0 };
        self.push(TAG_CAT, a, b, a_len + b_len, local)
    }

    /// Adds the reversal of `a`. Like [`RouteArena::rev`], reversing a
    /// `Rev` record — of the batch, or of `arena`, the arena the batch will
    /// be appended to — collapses back to its child instead of stacking.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range of `arena` or of the batch.
    pub fn rev(&mut self, arena: &RouteArena, a: BatchRef) -> BatchRef {
        let (id, local, len) = self.operand(arena, a);
        let (tags, ops_a, child_local) = if local {
            (
                &self.tags[..],
                &self.ops_a[..],
                self.local[id as usize] & LOCAL_A != 0,
            )
        } else {
            (&arena.tags[..], &arena.ops_a[..], false)
        };
        if tags[id as usize] == TAG_REV {
            let child = ops_a[id as usize];
            return if child_local {
                BatchRef::Local(child)
            } else {
                BatchRef::Arena(RecId(child))
            };
        }
        self.push(TAG_REV, id, 0, len, if local { LOCAL_A } else { 0 })
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

    /// One random `edge`/`cat`/`rev` call, with operands drawn from the
    /// arena's records and the calls made so far.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Edge(u32, u32),
        Cat(Pick, Pick),
        Rev(Pick),
    }

    /// An operand: the `i`-th arena record or the `i`-th earlier call.
    #[derive(Clone, Copy, Debug)]
    enum Pick {
        Arena(u32),
        Call(usize),
    }

    fn random_ops(rng: &mut impl rand::Rng, arena_len: u32, count: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(count);
        let pick = |rng: &mut dyn rand::RngCore, calls: usize| {
            if calls == 0 || rng.next_u32() & 1 == 0 {
                Pick::Arena(rng.next_u32() % arena_len)
            } else {
                Pick::Call(rng.next_u32() as usize % calls)
            }
        };
        for k in 0..count {
            let u = rng.gen_range(0..20u32);
            let v = (u + 1 + rng.gen_range(0..19u32)) % 20;
            ops.push(match rng.gen_range(0..3u32) {
                0 => Op::Edge(u, v),
                1 => Op::Cat(pick(rng, k), pick(rng, k)),
                _ => Op::Rev(pick(rng, k)),
            });
        }
        ops
    }

    /// Applies `ops` directly to `arena`, returning each call's id.
    fn apply_direct(arena: &mut RouteArena, ops: &[Op]) -> Vec<RecId> {
        let mut out: Vec<RecId> = Vec::new();
        for &op in ops {
            let id = |p: Pick, out: &[RecId]| match p {
                Pick::Arena(i) => RecId(i),
                Pick::Call(k) => out[k],
            };
            let rec = match op {
                Op::Edge(u, v) => arena.edge(u, v),
                Op::Cat(a, b) => {
                    let (a, b) = (id(a, &out), id(b, &out));
                    arena.cat(a, b)
                }
                Op::Rev(a) => {
                    let a = id(a, &out);
                    arena.rev(a)
                }
            };
            out.push(rec);
        }
        out
    }

    /// Records `ops` into a batch against the read-only `arena`.
    fn apply_batch(arena: &RouteArena, ops: &[Op]) -> (RecordBatch, Vec<BatchRef>) {
        let mut batch = RecordBatch::new();
        let mut out: Vec<BatchRef> = Vec::new();
        for &op in ops {
            let r = |p: Pick| match p {
                Pick::Arena(i) => BatchRef::Arena(RecId(i)),
                Pick::Call(k) => out[k],
            };
            let rec = match op {
                Op::Edge(u, v) => batch.edge(u, v),
                Op::Cat(a, b) => {
                    let (a, b) = (r(a), r(b));
                    batch.cat(arena, a, b)
                }
                Op::Rev(a) => {
                    let a = r(a);
                    batch.rev(arena, a)
                }
            };
            out.push(rec);
        }
        (batch, out)
    }

    #[test]
    fn appended_batches_equal_direct_interning() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for round in 0..40 {
            // A base arena that already holds Rev records.
            let mut base = RouteArena::new();
            let e = base.edge(0, 1);
            let f = base.edge(1, 2);
            let c = base.cat(e, f);
            let _ = base.rev(c);
            let _ = base.rev(e);
            let ops = random_ops(&mut rng, base.len() as u32, 1 + round % 17 * 3);
            let mut direct = base.clone();
            let want = apply_direct(&mut direct, &ops);
            // Two batches in a row: the second sees the first appended.
            let split = ops.len() / 2;
            let mut appended = base.clone();
            let (b1, r1) = apply_batch(&appended, &ops[..split]);
            let offset1 = appended.append_batch(&b1);
            let first: Vec<RecId> = r1.iter().map(|r| r.resolve(offset1)).collect();
            let rest: Vec<Op> = ops[split..]
                .iter()
                .map(|&op| {
                    let relink = |p: Pick| match p {
                        Pick::Call(k) if k < split => Pick::Arena(first[k].index()),
                        Pick::Call(k) => Pick::Call(k - split),
                        other => other,
                    };
                    match op {
                        Op::Edge(u, v) => Op::Edge(u, v),
                        Op::Cat(a, b) => Op::Cat(relink(a), relink(b)),
                        Op::Rev(a) => Op::Rev(relink(a)),
                    }
                })
                .collect();
            let (b2, r2) = apply_batch(&appended, &rest);
            let offset2 = appended.append_batch(&b2);
            let got: Vec<RecId> = first
                .into_iter()
                .chain(r2.iter().map(|r| r.resolve(offset2)))
                .collect();
            assert_eq!(got, want, "round {round}: {ops:?}");
            assert_eq!(appended.sections(), direct.sections(), "round {round}");
            assert_eq!(b1.len() + b2.len(), direct.len() - base.len());
        }
    }

    #[test]
    fn batch_rev_collapses_arena_and_local_revs() {
        let mut arena = RouteArena::new();
        let e = arena.edge(0, 1);
        let f = arena.edge(1, 2);
        let c = arena.cat(e, f);
        let r = arena.rev(c);
        let mut batch = RecordBatch::new();
        // Rev of an arena Rev is its arena child; nothing is pushed.
        assert_eq!(batch.rev(&arena, BatchRef::Arena(r)), BatchRef::Arena(c));
        assert!(batch.is_empty());
        // Rev of an arena non-Rev pushes; reversing that local Rev
        // collapses back to the arena record.
        let local = batch.rev(&arena, BatchRef::Arena(e));
        assert_eq!(local, BatchRef::Local(0));
        assert_eq!(batch.rev(&arena, local), BatchRef::Arena(e));
        // A local record reversed twice collapses to itself.
        let g = batch.edge(2, 3);
        let cat = batch.cat(&arena, BatchRef::Arena(c), g);
        let rc = batch.rev(&arena, cat);
        assert_eq!(batch.rev(&arena, rc), cat);
        assert_eq!(batch.len(), 4);
        let offset = arena.append_batch(&batch);
        assert_eq!(offset, 4);
        assert_eq!(
            arena.emit(rc.resolve(offset), false),
            vec![(3, 2), (2, 1), (1, 0)]
        );
        assert_eq!(arena.len_of(cat.resolve(offset)), 3);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn batch_for_a_longer_arena_is_rejected() {
        let mut big = RouteArena::new();
        let e = big.edge(0, 1);
        let f = big.edge(1, 2);
        let mut batch = RecordBatch::new();
        batch.cat(&big, BatchRef::Arena(e), BatchRef::Arena(f));
        let mut small = RouteArena::new();
        let _ = small.edge(4, 5);
        small.append_batch(&batch);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_edge_rejected() {
        let mut a = RouteArena::new();
        let _ = a.edge(3, 3);
    }
}
