//! Dense min-plus matrices: the algebraic baseline of the "first era".
//!
//! The product kernel tiles the `i`/`k` loops so the panel of `other` rows a
//! tile consumes stays cache-resident across the tile's output rows, skips
//! all-∞ `(i, k)` cells before touching the panel, and keeps the inner
//! `j`-loop branch-free (`min` select) so it vectorizes. It runs serially:
//! its one pipeline caller, the `matrix_squaring` baseline, is measured in
//! charged rounds, not wall time.

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph, INF};

/// A dense `n × n` matrix over the min-plus semiring.
///
/// # Example
///
/// ```
/// use cc_matrix::DenseMatrix;
/// use cc_graphs::generators;
///
/// let g = generators::path(4);
/// let a = DenseMatrix::adjacency(&g);
/// let a2 = a.minplus(&a);
/// assert_eq!(a2.get(0, 2), 2);
/// assert_eq!(a2.get(0, 3), cc_graphs::INF);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseMatrix {
    pub(crate) n: usize,
    pub(crate) data: Vec<Dist>,
}

/// Output rows processed per tile: the tile's output rows (`I_TILE · n`
/// words) stay resident while a `k`-panel streams through them.
const I_TILE: usize = 16;

/// `other` rows per panel: `K_TILE · n` words (256 KiB at `n = 1024`) are
/// reused by every row of the `i`-tile before the panel is evicted.
const K_TILE: usize = 64;

impl DenseMatrix {
    /// All-∞ matrix (the min-plus zero matrix).
    pub fn infinite(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![INF; n * n],
        }
    }

    /// Adjacency matrix of an unweighted graph: 0 diagonal, 1 on edges.
    pub fn adjacency(g: &Graph) -> Self {
        let mut m = Self::infinite(g.n());
        for i in 0..g.n() {
            m.set(i, i, 0);
        }
        for (u, v) in g.edges() {
            m.set(u, v, 1);
            m.set(v, u, 1);
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        self.data[i * self.n + j]
    }

    /// Sets entry `(i, j)`. Values above [`INF`] are clamped to [`INF`]
    /// (any "infinity" a caller writes behaves as the canonical ∞), which
    /// keeps every stored entry `≤ INF` — the invariant the raw-sum product
    /// kernel's no-wrap argument stands on.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Dist) {
        self.data[i * self.n + j] = v.min(INF);
    }

    /// Min-plus product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut out = DenseMatrix::infinite(self.n);
        product_blocked(self, other, &mut out.data);
        out
    }

    /// Min-plus square with the dense-product round cost charged to `ledger`
    /// (`Θ(n^{1/3})` per product; Censor-Hillel et al.).
    pub fn square_charged(&self, ledger: &mut RoundLedger) -> DenseMatrix {
        ledger.charge_dense_minplus("dense min-plus square");
        self.minplus(self)
    }
}

/// Computes `a · b` into the all-∞ row-major arena `out`, with `i`/`k`
/// tiling and a skip-∞ test per `(i, k)` cell.
fn product_blocked(a: &DenseMatrix, b: &DenseMatrix, out: &mut [Dist]) {
    let n = a.n;
    let mut i0 = 0;
    while i0 < n {
        let iend = (i0 + I_TILE).min(n);
        let mut k0 = 0;
        while k0 < n {
            let kend = (k0 + K_TILE).min(n);
            for i in i0..iend {
                let arow = &a.data[i * n..(i + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for k in k0..kend {
                    let av = arow[k];
                    if av >= INF {
                        continue;
                    }
                    let brow = &b.data[k * n..(k + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        // av < INF < 2³⁰ and bv ≤ INF, so the raw sum cannot
                        // wrap u32; sums ≥ INF lose to the ∞-initialized cell.
                        *o = (*o).min(av + bv);
                    }
                }
            }
            k0 = kend;
        }
        i0 = iend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};

    /// The min-plus identity: 0 on the diagonal, ∞ elsewhere.
    fn identity(n: usize) -> DenseMatrix {
        DenseMatrix::adjacency(&Graph::from_edges(n, &[]))
    }

    #[test]
    fn identity_is_neutral() {
        let g = generators::cycle(5);
        let a = DenseMatrix::adjacency(&g);
        let id = identity(5);
        assert_eq!(a.minplus(&id), a);
        assert_eq!(id.minplus(&a), a);
    }

    #[test]
    fn repeated_squaring_reaches_apsp() {
        let g = generators::gnp(24, 0.15, &mut seeded(5));
        let exact = bfs::apsp_exact(&g);
        let mut a = DenseMatrix::adjacency(&g);
        let mut hops = 1usize;
        while hops < g.n() {
            a = a.minplus(&a);
            hops *= 2;
        }
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(a.get(u, v), exact[u][v], "({u},{v})");
            }
        }
    }

    #[test]
    fn product_is_hop_bounded() {
        let g = generators::path(6);
        let a = DenseMatrix::adjacency(&g);
        let a2 = a.minplus(&a);
        assert_eq!(a2.get(0, 2), 2);
        assert_eq!(a2.get(0, 3), INF); // 3 hops needed
    }

    #[test]
    fn oversized_infinity_is_clamped_and_does_not_wrap() {
        // The old dadd-based kernel saturated; the raw-sum kernel relies on
        // set() clamping instead. A caller's u32::MAX "infinity" must stay
        // non-finite through a product, never wrap to a small distance.
        let mut a = identity(3);
        a.set(0, 1, u32::MAX);
        assert_eq!(a.get(0, 1), INF);
        let p = a.minplus(&a);
        assert_eq!(p.get(0, 1), INF);
        assert_eq!(p.get(0, 2), INF);
    }

    #[test]
    fn charged_square_charges_cbrt_n() {
        let g = generators::cycle(27);
        let a = DenseMatrix::adjacency(&g);
        let mut ledger = cc_clique::RoundLedger::new(27);
        let _ = a.square_charged(&mut ledger);
        assert_eq!(ledger.total_rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = DenseMatrix::infinite(2);
        let b = DenseMatrix::infinite(3);
        let _ = a.minplus(&b);
    }

    fn seeded(s: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
