//! Shortest-path trees kept as parent rows.

use cc_graphs::{Graph, PodData};

use crate::arena::{ArenaView, EmitStack, RecId};

/// Parent word of a root or an unreached vertex.
const NO_PARENT: u32 = u32::MAX;
/// Parent-word flag: the hop to the parent is not a `G` edge, so it
/// emits the route of its entry in the hop table.
const HOP_FLAG: u32 = 1 << 31;

/// Shortest-path trees of one graph over the vertices of `G`, one parent row
/// per source: the recorded emulator sweep keeps its Dijkstra trees this
/// way instead of interning them as arena records (`DESIGN.md` §7.4).
///
/// Row `s`, column `v` holds `v`'s parent in the tree from `s`, with a flag
/// when that hop is not a `G` edge. A flagged hop is an emulator edge: its
/// route is the record the hop table names for the pair, a path from the
/// lower to the higher endpoint in the arena of the [`crate::PathStore`]
/// that holds the rows. An unflagged hop is the `G` edge itself. A route
/// walks the parent chain, so its walk is the tree path with every hop
/// expanded: the same walk, edge for edge, as concatenating the hops.
///
/// Every column is a [`PodData`], the layout of the snapshot sections, so
/// a mapped snapshot serves the rows in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeRows {
    n: usize,
    /// `n × n` parent words, row-major: the parent's id, with `HOP_FLAG`
    /// set for an emulator hop; `NO_PARENT` at the root and where the row's
    /// tree does not reach.
    parents: PodData<u32>,
    /// The hop table, one row per lower endpoint: the pairs `(lo, hi)` of
    /// lower endpoint `lo` are `hop_hi[hop_start[lo]..hop_start[lo + 1]]`,
    /// ascending, with their records at the same positions of `hop_rec`.
    hop_start: PodData<u32>,
    hop_hi: PodData<u32>,
    hop_rec: PodData<u32>,
}

impl TreeRows {
    /// Rows over `n` vertices from their parent words (written by
    /// [`TreeRows::write_row`], `n` words per row) and the hop table
    /// `hops`: `(lo, hi, record)` per emulator edge that is not a `G` edge,
    /// the record running `lo → hi`, in any order (a repeated entry counts
    /// once).
    ///
    /// # Panics
    ///
    /// Panics if `parents` does not hold `n` rows of `n` words, if `n`
    /// does not fit the parent words, or if a hop is not a pair `lo < hi <
    /// n` or has two records.
    pub fn new(n: usize, parents: Vec<u32>, mut hops: Vec<(u32, u32, RecId)>) -> Self {
        assert!(
            n < HOP_FLAG as usize,
            "vertex ids must leave the hop flag free"
        );
        assert_eq!(parents.len(), n * n, "one parent row per source");
        hops.sort_unstable_by_key(|&(lo, hi, rec)| (lo, hi, rec.index()));
        hops.dedup();
        let mut hop_start = vec![0u32; n + 1];
        for &(lo, hi, _) in &hops {
            assert!(lo < hi && (hi as usize) < n, "hop ({lo},{hi}) out of range");
            hop_start[lo as usize + 1] += 1;
        }
        for v in 0..n {
            hop_start[v + 1] += hop_start[v];
        }
        assert!(
            hops.windows(2)
                .all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)),
            "one record per hop"
        );
        TreeRows {
            n,
            parents: parents.into(),
            hop_start: hop_start.into(),
            hop_hi: hops.iter().map(|&(_, hi, _)| hi).collect::<Vec<_>>().into(),
            hop_rec: hops
                .iter()
                .map(|&(_, _, rec)| rec.index())
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Writes one tree's parent row: `parents` as a Dijkstra returns them
    /// (`None` at the root and at unreached vertices), each hop flagged
    /// when `g` has no edge for it.
    pub fn write_row(row: &mut [u32], parents: &[Option<u32>], g: &Graph) {
        for (v, (word, parent)) in row.iter_mut().zip(parents).enumerate() {
            *word = match *parent {
                None => NO_PARENT,
                Some(p) if g.has_edge(p as usize, v) => p,
                Some(p) => p | HOP_FLAG,
            };
        }
    }

    /// Rebuilds rows from their four columns (typically zero-copy views
    /// into a mapped snapshot), validating them first: `n × n` parent
    /// words, each `NO_PARENT` or a vertex below `n`; a hop table of
    /// ascending rows of pairs `lo < hi < n`; and a hop-table entry for
    /// every flagged hop. A parent cycle is not checked here: emission
    /// walks at most `n` hops and answers `None` past that. Returns the
    /// reason on the first violation. O(cells) reads, no allocation.
    pub fn from_sections(
        n: usize,
        parents: impl Into<PodData<u32>>,
        hop_start: impl Into<PodData<u32>>,
        hop_hi: impl Into<PodData<u32>>,
        hop_rec: impl Into<PodData<u32>>,
    ) -> Result<TreeRows, &'static str> {
        let rows = TreeRows {
            n,
            parents: parents.into(),
            hop_start: hop_start.into(),
            hop_hi: hop_hi.into(),
            hop_rec: hop_rec.into(),
        };
        if n >= HOP_FLAG as usize || n.checked_mul(n) != Some(rows.parents.len()) {
            return Err("tree parent rows do not match n");
        }
        let (start, hi, rec) = (
            rows.hop_start.as_slice(),
            rows.hop_hi.as_slice(),
            &rows.hop_rec,
        );
        if start.len() != n + 1 || start.first() != Some(&0) || rec.len() != hi.len() {
            return Err("tree hop table shape mismatch");
        }
        if start.last().map(|&s| s as usize) != Some(hi.len()) {
            return Err("tree hop table shape mismatch");
        }
        for lo in 0..n {
            let (s, e) = (start[lo] as usize, start[lo + 1] as usize);
            let Some(row) = hi.get(s..e) else {
                return Err("tree hop table shape mismatch");
            };
            let mut prev = lo;
            for &h in row {
                if h as usize <= prev || h as usize >= n {
                    return Err("tree hop out of range");
                }
                prev = h as usize;
            }
        }
        let hops = rows.hops();
        for row in rows.parents.chunks_exact(n.max(1)) {
            let mut flagged = false;
            for &word in row {
                if word != NO_PARENT {
                    if (word & !HOP_FLAG) as usize >= n {
                        return Err("tree parent out of range");
                    }
                    flagged |= word & HOP_FLAG != 0;
                }
            }
            if !flagged {
                continue;
            }
            for (v, &word) in row.iter().enumerate() {
                let p = (word & !HOP_FLAG) as usize;
                if word != NO_PARENT && word & HOP_FLAG != 0 && hops.get(p, v).is_none() {
                    return Err("tree hop has no record");
                }
            }
        }
        Ok(rows)
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The raw columns `(parents, hop_start, hop_hi, hop_rec)` — the exact
    /// order and element types of the snapshot sections.
    pub fn sections(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (&self.parents, &self.hop_start, &self.hop_hi, &self.hop_rec)
    }

    /// `true` when every hop record is below `records`, the length of the
    /// arena the rows are served with.
    pub fn hop_records_below(&self, records: usize) -> bool {
        self.hop_rec.iter().all(|&r| (r as usize) < records)
    }

    /// Per vertex `v`, whether the tree from `src` reaches `v` (`false`
    /// at `src` itself).
    pub(crate) fn reached_from(&self, src: usize) -> impl Iterator<Item = bool> + '_ {
        self.parents[src * self.n..(src + 1) * self.n]
            .iter()
            .map(|&word| word != NO_PARENT)
    }

    /// The hop table's columns as slices, read once per route.
    fn hops(&self) -> Hops<'_> {
        Hops {
            start: &self.hop_start,
            hi: &self.hop_hi,
            rec: &self.hop_rec,
        }
    }

    /// Appends the walk of the tree path from `src` to `v` in `G` to `out`,
    /// running `v → src` when `toward_root` and `src → v` otherwise, with
    /// emulator hops expanded from `arena`; returns the edge count. `None`
    /// (with `out` as it was) when the tree does not reach `v`, a flagged
    /// hop has no record, or the chain does not reach `src` within `n`
    /// hops — a parent cycle, which only a corrupt snapshot holds.
    pub(crate) fn emit_into(
        &self,
        src: usize,
        v: usize,
        toward_root: bool,
        arena: ArenaView<'_>,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) -> Option<usize> {
        let n = self.n;
        let start = out.len();
        let row = self.parents.get(src * n..src * n + n)?;
        let hops = self.hops();
        let mut x = v;
        // A chain of `n` hops repeats a vertex.
        for _ in 0..n {
            if x == src {
                if !toward_root {
                    out[start..].reverse();
                    for e in &mut out[start..] {
                        *e = (e.1, e.0);
                    }
                }
                return Some(out.len() - start);
            }
            let word = row[x];
            let p = (word & !HOP_FLAG) as usize;
            if word == NO_PARENT || p >= n {
                break;
            }
            if word & HOP_FLAG == 0 {
                out.push((x as u32, p as u32));
            } else {
                let Some(rec) = hops.get(x, p) else {
                    break;
                };
                arena.emit_into(rec, x > p, out, stack);
            }
            x = p;
        }
        out.truncate(start);
        None
    }
}

/// The hop table of a [`TreeRows`], as slices.
struct Hops<'a> {
    start: &'a [u32],
    hi: &'a [u32],
    rec: &'a [u32],
}

impl Hops<'_> {
    /// The record of the emulator hop `{a, b}`, running from the lower
    /// endpoint to the higher.
    fn get(&self, a: usize, b: usize) -> Option<RecId> {
        let (lo, hi) = (a.min(b), a.max(b) as u32);
        let (s, e) = (
            *self.start.get(lo)? as usize,
            *self.start.get(lo + 1)? as usize,
        );
        let i = self.hi.get(s..e)?.binary_search(&hi).ok()?;
        Some(RecId::from_index(*self.rec.get(s + i)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows over 4 vertices: the trees of the path 0-1-2-3 plus the
    /// emulator edge (0, 3), whose hop record is 7.
    fn columns() -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let trees: [[Option<u32>; 4]; 4] = [
            [None, Some(0), Some(1), Some(0)],
            [Some(1), None, Some(1), Some(2)],
            [Some(1), Some(2), None, Some(2)],
            [Some(3), Some(2), Some(3), None],
        ];
        let mut parents = vec![0u32; 16];
        for (row, tree) in parents.chunks_mut(4).zip(&trees) {
            TreeRows::write_row(row, tree, &g);
        }
        let rows = TreeRows::new(4, parents, vec![(0, 3, RecId::from_index(7))]);
        let (p, s, h, r) = rows.sections();
        (p.to_vec(), s.to_vec(), h.to_vec(), r.to_vec())
    }

    #[test]
    fn sections_round_trip_and_corruption_is_refused() {
        let (parents, start, hi, rec) = columns();
        assert_eq!(parents[3], HOP_FLAG, "0 → 3 is the flagged emulator hop");
        assert_eq!(parents[12], 3 | HOP_FLAG, "3 → 0 is too");
        let load = |p: &[u32], s: &[u32], h: &[u32], r: &[u32]| {
            TreeRows::from_sections(4, p.to_vec(), s.to_vec(), h.to_vec(), r.to_vec())
        };
        let rows = load(&parents, &start, &hi, &rec).expect("valid columns");
        assert!(rows.hop_records_below(8) && !rows.hop_records_below(7));

        let mut far = parents.clone();
        far[6] = 4;
        assert_eq!(
            load(&far, &start, &hi, &rec),
            Err("tree parent out of range")
        );
        let mut flagged = parents.clone();
        flagged[6] |= HOP_FLAG;
        assert_eq!(
            load(&flagged, &start, &hi, &rec),
            Err("tree hop has no record")
        );
        let short = &parents[..12];
        assert_eq!(
            load(short, &start, &hi, &rec),
            Err("tree parent rows do not match n")
        );
        assert_eq!(
            load(&parents, &start[..4], &hi, &rec),
            Err("tree hop table shape mismatch")
        );
        assert_eq!(
            load(&parents, &start, &[0], &rec),
            Err("tree hop out of range")
        );
    }
}
