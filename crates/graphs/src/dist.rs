//! The distance scalar used throughout the workspace, plus the physical
//! storage layouts distance tables are frozen into for serving.

use crate::pod::PodData;

/// Distance value. Unweighted distances are at most `n`; emulator and hopset
/// weights are sums of at most `n` unit lengths, so `u32` suffices for every
/// graph this workspace handles.
pub type Dist = u32;

/// "Infinite" distance: large enough to dominate every real distance, small
/// enough that `INF + INF` does not overflow `u32`.
pub const INF: Dist = u32::MAX / 4;

/// Saturating distance addition: any sum involving [`INF`] stays [`INF`], and
/// finite sums are clamped to [`INF`].
///
/// # Example
///
/// ```
/// use cc_graphs::{dadd, INF};
///
/// assert_eq!(dadd(2, 3), 5);
/// assert_eq!(dadd(INF, 3), INF);
/// assert_eq!(dadd(INF, INF), INF);
/// ```
#[inline]
pub fn dadd(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b).min(INF)
}

/// `true` when `d` represents a real (finite) distance.
#[inline]
pub fn is_finite(d: Dist) -> bool {
    d < INF
}

/// The physical layout of a [`DistStorage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageKind {
    /// Packed upper triangle (diagonal included), `n(n+1)/2` entries —
    /// half the memory of a square `n × n` table.
    SymmetricPacked,
    /// Only the rows of selected source vertices, `|S| × n` entries —
    /// the shape MSSP results come in.
    RowSparse,
}

impl StorageKind {
    /// Short lowercase label (used by benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::SymmetricPacked => "symmetric",
            StorageKind::RowSparse => "rowsparse",
        }
    }
}

/// An immutable distance table in one of two physical layouts.
///
/// This is the read-side counterpart of the mutable estimate matrices the
/// pipelines build: once estimates are final they are frozen into a
/// `DistStorage`, which answers `get(u, v)` lock-free from shared
/// references. All layouts treat a missing entry as [`INF`] and are
/// symmetric-by-convention: a row-sparse table answers `(u, v)` from the
/// row of `v` when only `v` is a source.
///
/// Entry indexing (the order of [`DistStorage::data`]) is part of the
/// public contract — snapshot files and per-entry provenance tags index
/// into it:
///
/// * `SymmetricPacked`: for `u ≤ v`, `data[packed_index(n, u, v)]`
///   (row-major upper triangle, diagonal included — see
///   [`DistStorage::packed_index`]).
/// * `RowSparse`: `data[i * n + v]` where `i` is the position of `u` in
///   `sources`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistStorage {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Repr {
    /// Packed upper triangle of a symmetric table: `n(n+1)/2` entries.
    SymmetricPacked { n: usize, data: PodData<Dist> },
    /// Rows of selected sources only: `sources.len() * n` entries,
    /// `data[i * n + v] = δ(sources[i], v)`.
    RowSparse {
        n: usize,
        /// Source vertices, in input order (duplicates allowed; the first
        /// occurrence wins on lookup).
        sources: PodData<u32>,
        /// First-occurrence row of each vertex (`NO_ROW` for non-sources):
        /// the O(1) index point lookups go through. Always owned — derived
        /// at construction, never part of a snapshot.
        row_of: Vec<u32>,
        data: PodData<Dist>,
    },
}

/// `row_of` sentinel for vertices that are not sources.
const NO_ROW: u32 = u32::MAX;

impl DistStorage {
    /// Wraps a packed upper triangle (an owned `Vec` or a shared snapshot
    /// section — anything convertible to [`PodData`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n(n+1)/2`.
    pub fn symmetric_packed(n: usize, data: impl Into<PodData<Dist>>) -> Self {
        let data = data.into();
        assert_eq!(
            data.len(),
            n * (n + 1) / 2,
            "packed storage needs n(n+1)/2 entries"
        );
        DistStorage {
            repr: Repr::SymmetricPacked { n, data },
        }
    }

    /// Wraps source rows. Duplicate sources are allowed; the first
    /// occurrence wins on lookup.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != sources.len() * n` or a source is `≥ n`.
    pub fn row_sparse(
        n: usize,
        sources: impl Into<PodData<u32>>,
        data: impl Into<PodData<Dist>>,
    ) -> Self {
        let (sources, data) = (sources.into(), data.into());
        assert_eq!(
            data.len(),
            sources.len() * n,
            "row-sparse storage needs |S|·n entries"
        );
        assert!(
            sources.iter().all(|&s| (s as usize) < n),
            "source out of range"
        );
        let mut row_of = vec![NO_ROW; n];
        for (i, &s) in sources.iter().enumerate() {
            if row_of[s as usize] == NO_ROW {
                row_of[s as usize] = i as u32;
            }
        }
        DistStorage {
            repr: Repr::RowSparse {
                n,
                sources,
                row_of,
                data,
            },
        }
    }

    /// `true` when the entry table is a zero-copy view into a shared byte
    /// buffer (a mapped snapshot) rather than an owned allocation.
    pub fn is_shared(&self) -> bool {
        match &self.repr {
            Repr::SymmetricPacked { data, .. } | Repr::RowSparse { data, .. } => data.is_shared(),
        }
    }

    /// The layout tag.
    pub fn kind(&self) -> StorageKind {
        match &self.repr {
            Repr::SymmetricPacked { .. } => StorageKind::SymmetricPacked,
            Repr::RowSparse { .. } => StorageKind::RowSparse,
        }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        match &self.repr {
            Repr::SymmetricPacked { n, .. } | Repr::RowSparse { n, .. } => *n,
        }
    }

    /// Number of stored entries (the length of the entry index space).
    pub fn entries(&self) -> usize {
        self.data().len()
    }

    /// Payload bytes held by the table: the distance entries, plus the
    /// source list and its O(1) lookup index for row-sparse layouts.
    pub fn bytes(&self) -> usize {
        let extra = match &self.repr {
            Repr::RowSparse {
                sources, row_of, ..
            } => {
                std::mem::size_of_val(sources.as_slice()) + std::mem::size_of_val(row_of.as_slice())
            }
            _ => 0,
        };
        std::mem::size_of_val(self.data()) + extra
    }

    /// The raw entry array, in the documented entry order.
    pub fn data(&self) -> &[Dist] {
        match &self.repr {
            Repr::SymmetricPacked { data, .. } | Repr::RowSparse { data, .. } => data,
        }
    }

    /// The source list of a row-sparse table (`None` for the packed layout).
    pub fn sources(&self) -> Option<&[u32]> {
        match &self.repr {
            Repr::RowSparse { sources, .. } => Some(sources),
            _ => None,
        }
    }

    /// The entry index of `(u, v)` in the packed-upper-triangle layout
    /// (orientation is normalized, so `u > v` is fine). This is the single
    /// definition freeze sites and lookups share.
    ///
    /// # Panics
    ///
    /// May panic (or return a wrong index) if `u ≥ n` or `v ≥ n`;
    /// callers bounds-check first.
    #[inline]
    pub fn packed_index(n: usize, u: usize, v: usize) -> usize {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        a * (2 * n - a + 1) / 2 + (b - a)
    }

    /// Looks up `(u, v)`, returning the value together with the entry index
    /// it came from (the index provenance tags are keyed by). Returns `None`
    /// for out-of-range vertices and for row-sparse lookups where neither
    /// endpoint is a source. A stored [`INF`] is returned as-is.
    ///
    /// Row-sparse ties (both endpoints are sources) resolve to the smaller
    /// value; on equal values the row of `u` wins.
    #[inline]
    pub fn lookup(&self, u: usize, v: usize) -> Option<(Dist, usize)> {
        let n = self.n();
        if u >= n || v >= n {
            return None;
        }
        match &self.repr {
            Repr::SymmetricPacked { data, .. } => {
                let idx = Self::packed_index(n, u, v);
                Some((data[idx], idx))
            }
            Repr::RowSparse { row_of, data, .. } => {
                let entry = |x: usize, y: usize| match row_of[x] {
                    NO_ROW => None,
                    i => {
                        let idx = i as usize * n + y;
                        Some((data[idx], idx))
                    }
                };
                let fwd = entry(u, v);
                let rev = entry(v, u);
                match (fwd, rev) {
                    (Some(f), Some(r)) => Some(if r.0 < f.0 { r } else { f }),
                    (f, r) => f.or(r),
                }
            }
        }
    }

    /// The stored estimate for `(u, v)`, [`INF`] when nothing is stored.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> Dist {
        self.lookup(u, v).map_or(INF, |(d, _)| d)
    }

    /// Borrows the full row of `u` when the layout physically holds one:
    /// `RowSparse` when `u` is a source. `SymmetricPacked` rows are not
    /// contiguous — use [`DistStorage::copy_row`] there.
    pub fn row(&self, u: usize) -> Option<&[Dist]> {
        let n = self.n();
        if u >= n {
            return None;
        }
        match &self.repr {
            Repr::SymmetricPacked { .. } => None,
            Repr::RowSparse { row_of, data, .. } => match row_of[u] {
                NO_ROW => None,
                i => Some(&data[i as usize * n..(i as usize + 1) * n]),
            },
        }
    }

    /// Materializes the row of `u` into `out` (length `n`), for every
    /// layout. Entries with no stored estimate become [`INF`]; row-sparse
    /// rows of a non-source `u` are filled from the source rows' columns.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n` or `out.len() != n`.
    pub fn copy_row(&self, u: usize, out: &mut [Dist]) {
        let n = self.n();
        assert!(u < n, "vertex {u} out of range for n = {n}");
        assert_eq!(out.len(), n, "output row length mismatch");
        match &self.repr {
            Repr::SymmetricPacked { data, .. } => {
                // One pass with an incremental index walk instead of a
                // packed_index multiply per cell: column u of row v and
                // column u of row v+1 are exactly n-v-1 entries apart in
                // the packed triangle, so the whole column above the
                // diagonal is a strided scan starting at packed(0,u) = u.
                let mut idx = u;
                for v in 0..u {
                    out[v] = data[idx];
                    idx += n - v - 1;
                }
                let start = Self::packed_index(n, u, u);
                out[u..n].copy_from_slice(&data[start..start + (n - u)]);
            }
            Repr::RowSparse {
                sources,
                row_of,
                data,
                ..
            } => match row_of[u] {
                NO_ROW => {
                    out.fill(INF);
                    for (i, &s) in sources.iter().enumerate() {
                        let d = data[i * n + u];
                        let slot = &mut out[s as usize];
                        *slot = (*slot).min(d);
                    }
                }
                i => out.copy_from_slice(&data[i as usize * n..(i as usize + 1) * n]),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_absorbs() {
        assert_eq!(dadd(INF, 0), INF);
        assert_eq!(dadd(0, INF), INF);
        assert_eq!(dadd(INF - 1, INF - 1), INF);
    }

    #[test]
    fn finite_sums_are_exact() {
        assert_eq!(dadd(100, 200), 300);
        assert_eq!(dadd(0, 0), 0);
    }

    #[test]
    fn no_overflow_at_extremes() {
        // INF + INF must not wrap around u32.
        assert!(INF.checked_add(INF).is_some());
    }

    #[test]
    fn finiteness_predicate() {
        assert!(is_finite(0));
        assert!(is_finite(INF - 1));
        assert!(!is_finite(INF));
    }

    /// A symmetric 4×4 reference table: d(u,v) = |u-v| except (0,3) missing.
    fn reference_full(n: usize) -> Vec<Dist> {
        let mut data = vec![INF; n * n];
        for u in 0..n {
            for v in 0..n {
                if !(u == 0 && v == n - 1 || v == 0 && u == n - 1) {
                    data[u * n + v] = u.abs_diff(v) as Dist;
                }
            }
        }
        data
    }

    fn packed_from_full(n: usize, full: &[Dist]) -> Vec<Dist> {
        let mut data = Vec::with_capacity(n * (n + 1) / 2);
        for u in 0..n {
            for v in u..n {
                data.push(full[u * n + v]);
            }
        }
        data
    }

    #[test]
    fn layouts_agree_on_get() {
        let n = 4;
        let full_data = reference_full(n);
        let sym = DistStorage::symmetric_packed(n, packed_from_full(n, &full_data));
        let rows = DistStorage::row_sparse(n, (0..n as u32).collect::<Vec<_>>(), full_data.clone());
        for u in 0..n {
            for v in 0..n {
                assert_eq!(sym.get(u, v), full_data[u * n + v], "({u},{v})");
                assert_eq!(rows.get(u, v), full_data[u * n + v], "({u},{v})");
            }
        }
        assert_eq!(sym.get(0, 3), INF);
        assert_eq!(sym.get(9, 0), INF, "out of range is INF");
        assert_eq!(sym.kind(), StorageKind::SymmetricPacked);
        assert_eq!(rows.kind(), StorageKind::RowSparse);
    }

    #[test]
    fn symmetric_packed_halves_the_bytes() {
        let n = 64;
        let square_bytes = n * n * std::mem::size_of::<Dist>();
        let sym = DistStorage::symmetric_packed(n, vec![0; n * (n + 1) / 2]);
        assert!(sym.bytes() * 2 <= square_bytes + n * std::mem::size_of::<Dist>());
        assert!(sym.bytes() < square_bytes * 55 / 100 + 1);
    }

    #[test]
    fn row_sparse_answers_both_orientations() {
        let n = 5;
        // Source 2 only: row = exact cycle distances from 2 on a 5-cycle.
        let row: Vec<Dist> = vec![2, 1, 0, 1, 2];
        let rs = DistStorage::row_sparse(n, vec![2], row.clone());
        assert_eq!(rs.get(2, 4), 2, "forward row");
        assert_eq!(rs.get(4, 2), 2, "symmetric fallback via the source row");
        assert_eq!(rs.get(0, 1), INF, "neither endpoint is a source");
        assert_eq!(rs.row(2), Some(&row[..]));
        assert_eq!(rs.row(3), None);
        assert_eq!(rs.sources(), Some(&[2u32][..]));
    }

    #[test]
    fn copy_row_matches_get_everywhere() {
        let n = 4;
        let full_data = reference_full(n);
        let storages = [
            DistStorage::symmetric_packed(n, packed_from_full(n, &full_data)),
            DistStorage::row_sparse(n, vec![1, 3], {
                let mut rows = full_data[n..2 * n].to_vec();
                rows.extend_from_slice(&full_data[3 * n..4 * n]);
                rows
            }),
        ];
        let mut out = vec![0; n];
        for s in &storages {
            for u in 0..n {
                s.copy_row(u, &mut out);
                for v in 0..n {
                    assert_eq!(out[v], s.get(u, v), "{:?} row {u} col {v}", s.kind());
                }
            }
        }
    }

    #[test]
    fn lookup_reports_the_entry_index() {
        let n = 3;
        let rows = DistStorage::row_sparse(n, vec![0, 1, 2], vec![0, 5, 9, 5, 0, 2, 9, 2, 0]);
        assert_eq!(rows.lookup(1, 2), Some((2, 5)));
        let sym = DistStorage::symmetric_packed(n, vec![0, 5, 9, 0, 2, 0]);
        assert_eq!(sym.lookup(2, 1), Some((2, 4)), "orientation normalized");
    }

    #[test]
    fn duplicate_sources_first_occurrence_wins() {
        let n = 3;
        // Source 1 listed twice with different rows; lookups must serve the
        // first row. Source list round-trips verbatim.
        let rows = vec![9, 0, 9, /* dup: */ 5, 0, 5];
        let rs = DistStorage::row_sparse(n, vec![1, 1], rows);
        assert_eq!(rs.get(1, 0), 9);
        assert_eq!(rs.get(0, 1), 9);
        assert_eq!(rs.sources(), Some(&[1u32, 1][..]));
        assert_eq!(rs.row(1), Some(&[9, 0, 9][..]));
    }

    #[test]
    fn packed_index_normalizes_orientation() {
        for n in [1usize, 2, 5, 9] {
            let mut seen = vec![false; n * (n + 1) / 2];
            for u in 0..n {
                for v in u..n {
                    let idx = DistStorage::packed_index(n, u, v);
                    assert_eq!(idx, DistStorage::packed_index(n, v, u));
                    assert!(!seen[idx], "index collision at ({u},{v}) n={n}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "surjective for n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "n(n+1)/2")]
    fn packed_length_is_validated() {
        let _ = DistStorage::symmetric_packed(4, vec![0; 9]);
    }
}
