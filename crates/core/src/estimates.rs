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
    /// row writers ([`DistanceMatrix::rows_mut`], the row kernel plus its
    /// mirror) restore symmetry once they finish. This micro-assert catches
    /// any fast path that forgets. Compiled out of release builds.
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

    /// Lowers row `u` through `w`: `δ(u,v) = min(δ(u,v), via + δ(w,v))` for
    /// every `v` (saturating), over two contiguous row slices — the
    /// pivot-routing kernel of `apsp2` and `apsp3`. Entries never exceed
    /// [`INF`] `= u32::MAX / 4`, so with `via` clamped to `INF` the plain sum
    /// cannot overflow, and its `min` with the row equals the saturating
    /// [`dadd`](cc_graphs::dadd) candidate.
    ///
    /// Only row `u` is written. Column `u` stays stale until
    /// [`DistanceMatrix::mirror_row`], which callers run once after their
    /// last relaxation of `u`. Deferring it is exact for the routing
    /// loops: the only column-`u` entry a relaxation of `u` reads is
    /// `δ(w,u)`, at `v = u`, and that candidate can never lower
    /// `δ(u,u) = 0` (DESIGN.md §7.4). With `u == w` the candidate
    /// `via + δ(u,v)` never undercuts `δ(u,v)`, so the call is a no-op.
    pub(crate) fn relax_row_via(&mut self, u: usize, w: usize, via: Dist) {
        let n = self.n;
        let (row, leg) = match u.cmp(&w) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                let (lo, hi) = self.data.split_at_mut(w * n);
                (&mut lo[u * n..(u + 1) * n], &hi[..n])
            }
            std::cmp::Ordering::Greater => {
                let (lo, hi) = self.data.split_at_mut(u * n);
                (&mut hi[..n], &lo[w * n..(w + 1) * n])
            }
        };
        let via = via.min(INF);
        for (d, &l) in row.iter_mut().zip(leg) {
            *d = (*d).min(via + l);
        }
    }

    /// Restores symmetry after [`DistanceMatrix::relax_row_via`]: copies
    /// every entry of row `u` that differs from `before` — the row as it was
    /// before the relaxations — into column `u`. Exact because the
    /// relaxations only lowered row `u` from a symmetric state and nothing
    /// wrote column `u` in between; skipping the unchanged entries saves the
    /// strided column writes.
    pub(crate) fn mirror_row(&mut self, u: usize, before: &[Dist]) {
        let n = self.n;
        for v in 0..n {
            let d = self.data[u * n + v];
            if d != before[v] {
                self.data[v * n + u] = d;
            }
        }
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
    use cc_graphs::dadd;

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

    /// The pivot-routing loop `relax_row_via` + `mirror_row` replaced,
    /// pinned here as the reference: per `v ≠ u`, a symmetric `improve` of
    /// `δ(u,v)` with `via + δ(w,v)` for every finite leg.
    fn scalar_route(m: &mut DistanceMatrix, u: usize, w: usize, via: Dist) {
        for v in 0..m.n() {
            if v != u {
                let leg = m.get(w, v);
                if leg < INF {
                    m.improve(u, v, dadd(via, leg));
                }
            }
        }
    }

    fn random_symmetric(n: usize, rng: &mut impl rand::Rng) -> DistanceMatrix {
        let mut m = DistanceMatrix::new(n);
        for u in 0..n {
            for v in u + 1..n {
                match rng.gen_range(0..8) {
                    0 | 1 => {} // INF leg
                    2 => _ = m.improve(u, v, INF - 1 - rng.gen_range(0..4u32)),
                    _ => _ = m.improve(u, v, rng.gen_range(1..40)),
                }
            }
        }
        m
    }

    #[test]
    fn row_kernel_matches_the_scalar_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        for n in [1usize, 2, 5, 17, 32] {
            for _ in 0..20 {
                let mut fast = random_symmetric(n, &mut rng);
                let mut slow = fast.clone();
                // Several rows in a row, each relaxed through several
                // midpoints before its one mirror — the Case 3a shape.
                for _ in 0..rng.gen_range(1..6) {
                    let u = rng.gen_range(0..n);
                    let before = fast.row(u).to_vec();
                    for _ in 0..rng.gen_range(1..5) {
                        // u == w, progressive (Case 2/3a) and saturating via.
                        let w = if rng.gen_bool(0.2) {
                            u
                        } else {
                            rng.gen_range(0..n)
                        };
                        let via = match rng.gen_range(0..4) {
                            0 => INF - 1,
                            1 => rng.gen_range(0..3),
                            _ => slow.get(u, w),
                        };
                        fast.relax_row_via(u, w, via);
                        scalar_route(&mut slow, u, w, via);
                        assert_eq!(fast.row(u), slow.row(u), "n={n} u={u} w={w}");
                    }
                    fast.mirror_row(u, &before);
                    assert_eq!(fast, slow, "n={n} u={u}");
                }
            }
        }
    }

    #[test]
    fn row_kernel_saturates_and_skips_infinite_legs() {
        let mut m = DistanceMatrix::new(3);
        m.improve(0, 1, 4);
        m.improve(1, 2, 3);
        let before = m.row(0).to_vec();
        m.relax_row_via(0, 1, INF);
        m.mirror_row(0, &before);
        assert_eq!(m.get(0, 2), INF, "saturating via stays infinite");
        let before = m.row(2).to_vec();
        m.relax_row_via(2, 1, 3);
        m.mirror_row(2, &before);
        assert_eq!((m.get(2, 0), m.get(0, 2)), (7, 7));
        assert_eq!(m.get(2, 2), 0, "the diagonal never moves");
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
