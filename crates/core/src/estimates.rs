//! Distance-estimate matrices shared by the APSP algorithms.

use cc_graphs::{Dist, INF};

/// A symmetric `n × n` matrix of distance estimates, initialized to ∞ with a
/// zero diagonal. All updates keep the minimum (estimates only improve) and
/// are applied symmetrically — the algorithms of the paper all produce
/// symmetric estimates on undirected inputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<Dist>,
}

impl DistanceMatrix {
    /// Fresh matrix: ∞ everywhere, 0 on the diagonal.
    pub fn new(n: usize) -> Self {
        let mut data = vec![INF; n * n];
        for i in 0..n {
            data[i * n + i] = 0;
        }
        DistanceMatrix { n, data }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current estimate `δ(u, v)`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> Dist {
        self.data[u * self.n + v]
    }

    /// Borrows the full row of `u` (`row(u)[v] = δ(u, v)`). By symmetry this
    /// is also the column of `u`, so callers that previously walked
    /// `get(u, 0..n)` — or materialized both orientations — can iterate one
    /// contiguous slice instead.
    #[inline]
    pub fn row(&self, u: usize) -> &[Dist] {
        &self.data[u * self.n..(u + 1) * self.n]
    }

    /// The rows as disjoint mutable slices, in row order, so callers can
    /// lower them in place across scoped workers. The caller must leave the
    /// matrix symmetric: every writer lowers row `u` to the `u`-th row of a
    /// symmetric table.
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksMut<'_, Dist> {
        let n = self.n.max(1);
        self.data.chunks_mut(n)
    }

    /// Debug-build check that the symmetric-write invariant held up.
    /// [`DistanceMatrix::improve`] and merge write both orientations; the
    /// row writers ([`DistanceMatrix::rows_mut`]) lower each row to a row of
    /// a symmetric table. This micro-assert catches any fast path that
    /// forgets. Compiled out of release builds.
    #[inline]
    pub(crate) fn debug_assert_symmetric(&self) {
        #[cfg(debug_assertions)]
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                debug_assert_eq!(
                    self.data[u * self.n + v],
                    self.data[v * self.n + u],
                    "symmetry broken at ({u},{v})"
                );
            }
        }
    }

    /// Lowers `δ(u,v)` (and `δ(v,u)`) to `min(current, value)`, and
    /// returns whether the entry strictly dropped — the moment a
    /// path-recording pipeline sets the pair's witness.
    #[inline]
    pub fn improve(&mut self, u: usize, v: usize, value: Dist) -> bool {
        let n = self.n;
        let lowered = value < self.data[u * n + v];
        if lowered {
            self.data[u * n + v] = value;
            self.data[v * n + u] = value;
        }
        lowered
    }

    /// Merges another matrix pointwise. Both operands are symmetric, so the
    /// element-wise pass needs no per-entry branch or mirrored second write:
    /// `min` compiles to branch-free selects over the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&mut self, other: &DistanceMatrix) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = (*a).min(b);
        }
        self.debug_assert_symmetric();
    }

    /// Number of finite off-diagonal (ordered) entries.
    pub fn finite_pairs(&self) -> usize {
        let mut count = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v && self.get(u, v) < INF {
                    count += 1;
                }
            }
        }
        count
    }

    /// View as closure for the stretch evaluator.
    pub fn as_fn(&self) -> impl Fn(usize, usize) -> Dist + '_ {
        move |u, v| self.get(u, v)
    }

    /// Dense row copies (`rows[u][v] = δ(u,v)`), the common currency of the
    /// [`crate::Algorithm`] interface.
    pub fn to_rows(&self) -> Vec<Vec<Dist>> {
        (0..self.n).map(|u| self.row(u).to_vec()).collect()
    }

    /// The flat row-major entry array (every row of a `RowSparse` freeze).
    pub fn to_flat(&self) -> Vec<Dist> {
        self.data.clone()
    }

    /// The packed upper triangle, diagonal included (the `SymmetricPacked`
    /// freeze layout) — `n(n+1)/2` entries, half the memory of the square.
    pub fn to_packed(&self) -> Vec<Dist> {
        self.debug_assert_symmetric();
        let mut packed = Vec::with_capacity(self.n * (self.n + 1) / 2);
        for u in 0..self.n {
            packed.extend_from_slice(&self.row(u)[u..]);
        }
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_matrix_is_diagonal_zero() {
        let m = DistanceMatrix::new(3);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 1), INF);
        assert_eq!(m.finite_pairs(), 0);
    }

    #[test]
    fn improve_is_symmetric_and_monotone() {
        let mut m = DistanceMatrix::new(3);
        assert!(m.improve(0, 1, 5));
        assert_eq!(m.get(1, 0), 5);
        assert!(!m.improve(0, 1, 7), "a larger value does not lower");
        assert_eq!(m.get(0, 1), 5);
        assert!(m.improve(1, 0, 2));
        assert_eq!(m.get(0, 1), 2);
        assert!(!m.improve(0, 1, 2), "an equal value does not lower");
        assert!(!m.improve(2, 2, 0), "nor does the diagonal");
    }

    #[test]
    fn merge_takes_pointwise_min() {
        let mut a = DistanceMatrix::new(2);
        a.improve(0, 1, 9);
        let mut b = DistanceMatrix::new(2);
        b.improve(0, 1, 4);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_mismatch_panics() {
        let mut a = DistanceMatrix::new(2);
        let b = DistanceMatrix::new(3);
        a.merge(&b);
    }

    #[test]
    fn row_view_matches_get() {
        let mut m = DistanceMatrix::new(4);
        m.improve(0, 2, 3);
        m.improve(1, 3, 7);
        for u in 0..4 {
            let row = m.row(u);
            assert_eq!(row.len(), 4);
            for v in 0..4 {
                assert_eq!(row[v], m.get(u, v));
            }
        }
    }

    #[test]
    fn packed_export_round_trips_through_storage() {
        use cc_graphs::DistStorage;
        let mut m = DistanceMatrix::new(5);
        m.improve(0, 1, 2);
        m.improve(2, 4, 6);
        m.improve(1, 4, 1);
        let sym = DistStorage::symmetric_packed(5, m.to_packed());
        let rows = DistStorage::row_sparse(5, vec![0, 1, 2, 3, 4], m.to_flat());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(sym.get(u, v), m.get(u, v));
                assert_eq!(rows.get(u, v), m.get(u, v));
            }
        }
    }
}
