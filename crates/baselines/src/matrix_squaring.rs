//! The algebraic "first era" baseline: exact APSP by repeated dense
//! min-plus squaring.
//!
//! `⌈log₂ n⌉` squarings of the adjacency matrix compute exact APSP; each
//! dense semiring product costs `Θ(n^{1/3})` rounds \[Censor-Hillel et al.,
//! *Algebraic methods in the congested clique*\], for a total of
//! `Θ(n^{1/3} log n)` — polynomial, the complexity class the paper's
//! poly(log log n) algorithms escape.

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph};
use cc_matrix::DenseMatrix;

/// Exact APSP by iterated dense squaring. Returns the exact distance matrix
/// (as a [`DenseMatrix`] in min-plus form).
pub fn apsp(g: &Graph, ledger: &mut RoundLedger) -> DenseMatrix {
    let mut phase = ledger.enter("matrix-squaring");
    let mut a = DenseMatrix::adjacency(g);
    let mut reach = 1usize;
    while reach < g.n().max(2) - 1 {
        a = a.square_charged(&mut phase);
        reach *= 2;
    }
    a
}

/// The round formula: `⌈log₂ n⌉ · ⌈n^{1/3}⌉`.
pub fn rounds(n: usize) -> u64 {
    let iters = cc_clique::cost::model::log2_ceil(n.max(2) as u64 - 1);
    iters * cc_clique::cost::model::dense_minplus(n as u64)
}

/// Exact distances as plain vectors (convenience for comparisons).
pub fn apsp_rows(g: &Graph, ledger: &mut RoundLedger) -> Vec<Vec<Dist>> {
    let m = apsp(g, ledger);
    (0..g.n())
        .map(|u| (0..g.n()).map(|v| m.get(u, v)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};

    #[test]
    fn matches_bfs_ground_truth() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let g = cc_graphs::generators::connected_gnp(40, 0.08, &mut rng);
        let mut ledger = RoundLedger::new(40);
        let got = apsp_rows(&g, &mut ledger);
        assert_eq!(got, bfs::apsp_exact(&g));
    }

    #[test]
    fn rounds_are_polynomial() {
        let g = generators::cycle(1000);
        let mut ledger = RoundLedger::new(1000);
        let _ = apsp(&g, &mut ledger);
        assert_eq!(ledger.total_rounds(), rounds(1000));
        assert!(ledger.total_rounds() >= 10 * 10); // log n · n^{1/3}
    }
}
