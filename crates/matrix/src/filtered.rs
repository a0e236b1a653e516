//! Filtered min-plus products and iterated filtered squaring
//! (Thm 58 and Claim 59 of the paper, following \[3\]).
//!
//! For a matrix `P` and filter width `ρ`, the *filtered* matrix `P̄` keeps in
//! each row only the `ρ` smallest finite entries (ties broken by column id).
//! Iterating `A_{i+1} = filter(A_i · A_i)` from the filtered adjacency matrix
//! computes, after `⌈log₂ d⌉` iterations, the `(ρ, d)`-nearest sets of every
//! vertex (Claim 59) — while every intermediate matrix stays `ρ`-sparse.
//!
//! One [`MinplusWorkspace`] is threaded through the whole squaring loop, so
//! the repeated products reuse scratch and run on the workspace's worker
//! threads.

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph};

use crate::sparse::SparseMatrix;
use crate::workspace::MinplusWorkspace;

/// Keeps the `rho` smallest finite entries of each row, ties broken by
/// smaller column id. Rows with at most `rho` entries are unchanged.
pub fn filter_rows(m: &SparseMatrix, rho: usize) -> SparseMatrix {
    let n = m.n();
    let mut out = SparseMatrix::with_row_capacity(n, m.nnz().min(n.saturating_mul(rho)));
    let mut by_value: Vec<(Dist, u32)> = Vec::new();
    let mut kept: Vec<(u32, Dist)> = Vec::new();
    for i in 0..n {
        let row = m.row(i);
        if row.len() <= rho {
            out.push_sorted_row(row);
            continue;
        }
        by_value.clear();
        by_value.extend(row.iter().map(|&(c, v)| (v, c)));
        by_value.sort_unstable();
        by_value.truncate(rho);
        kept.clear();
        kept.extend(by_value.iter().map(|&(v, c)| (c, v)));
        kept.sort_unstable_by_key(|&(c, _)| c);
        out.push_sorted_row(&kept);
    }
    out
}

/// Filtered min-plus product: `filter(S · T, rho)` on the workspace `ws`,
/// charging the Thm 58 round cost to `ledger` (`W` is taken from the
/// largest value produced; round charges do not depend on the thread
/// count).
pub fn filtered_product(
    s: &SparseMatrix,
    t: &SparseMatrix,
    rho: usize,
    ws: &mut MinplusWorkspace,
    ledger: &mut RoundLedger,
    label: &str,
) -> SparseMatrix {
    let (product, _) = s.minplus(t, ws);
    let out = filter_rows(&product, rho);
    let w = out.max_value().max(1) as u64;
    ledger.charge_filtered_minplus(label, s.density(), t.density(), rho as u64, w);
    out
}

/// Iterated filtered squaring (Claim 59): starting from the filtered
/// adjacency matrix of `g`, squares (with filtering to width `rho`)
/// `⌈log₂ d⌉` times on the workspace `ws`. The resulting matrix holds, for
/// every vertex `u`, the distances to (at least) its `rho` nearest vertices
/// among those within distance `d` — the `(k,d)`-nearest object for
/// `k = rho` (entries beyond `d` may appear and are dropped here).
///
/// Rounds charged: one filtered product per iteration (Thm 10 total:
/// `O((k/n^{2/3} + log d) · log d)`).
pub fn knearest_matrix(
    g: &Graph,
    rho: usize,
    d: Dist,
    ws: &mut MinplusWorkspace,
    ledger: &mut RoundLedger,
) -> SparseMatrix {
    let mut phase = ledger.enter("knearest-matrix");
    let mut a = filter_rows(&SparseMatrix::adjacency(g), rho);
    let mut reach: Dist = 1;
    let mut iter = 0;
    while reach < d {
        iter += 1;
        a = filtered_product(
            &a,
            &a,
            rho,
            ws,
            &mut phase,
            &format!("filtered square #{iter}"),
        );
        reach = reach.saturating_mul(2);
    }
    // Drop entries beyond the distance bound d.
    let n = a.n();
    let mut out = SparseMatrix::with_row_capacity(n, a.nnz());
    let mut kept: Vec<(u32, Dist)> = Vec::new();
    for i in 0..n {
        kept.clear();
        kept.extend(a.row(i).iter().copied().filter(|&(_, v)| v <= d));
        out.push_sorted_row(&kept);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::RowBuilder;
    use cc_clique::RoundLedger;
    use cc_graphs::{bfs, generators, INF};

    #[test]
    fn filter_keeps_smallest_with_id_ties() {
        let mut b = RowBuilder::new(5);
        for (c, v) in [(0, 5), (1, 2), (2, 2), (3, 1), (4, 9)] {
            b.push(0, c, v);
        }
        let f = filter_rows(&b.build(), 3);
        // Smallest: (3,1), then ties at 2 -> columns 1 and 2.
        assert_eq!(f.row(0), &[(1, 2), (2, 2), (3, 1)]);
    }

    #[test]
    fn filter_noop_when_row_small() {
        let g = generators::cycle(6);
        let a = SparseMatrix::adjacency(&g);
        let f = filter_rows(&a, 10);
        assert_eq!(f, a);
    }

    /// [`knearest_matrix`] on a serial one-shot workspace.
    fn knearest(g: &Graph, rho: usize, d: Dist, ledger: &mut RoundLedger) -> SparseMatrix {
        knearest_matrix(g, rho, d, &mut MinplusWorkspace::new(), ledger)
    }

    #[test]
    fn knearest_matrix_matches_reference() {
        let mut rng = seeded(21);
        for (name, g) in [
            ("grid", generators::grid(5, 4)),
            ("caveman", generators::caveman(4, 4)),
            ("gnp", generators::connected_gnp(30, 0.08, &mut rng)),
        ] {
            let mut ledger = RoundLedger::new(g.n());
            for (k, d) in [(3usize, 2u32), (5, 4), (8, 7), (100, 3)] {
                let m = knearest(&g, k, d, &mut ledger);
                for v in 0..g.n() {
                    let want = bfs::knearest_reference(&g, v, k, d);
                    let mut got: Vec<(u32, Dist)> =
                        m.row(v).iter().map(|&(c, dist)| (c, dist)).collect();
                    got.sort_unstable_by_key(|&(c, dist)| (dist, c));
                    assert_eq!(got, want, "{name} v={v} k={k} d={d}");
                }
            }
        }
    }

    #[test]
    fn workspace_and_threads_do_not_change_the_object() {
        let g = generators::caveman(4, 5);
        let serial = {
            let mut ledger = RoundLedger::new(g.n());
            knearest(&g, 6, 8, &mut ledger)
        };
        for threads in [2, 5] {
            let mut ws = MinplusWorkspace::with_threads(threads);
            let mut ledger = RoundLedger::new(g.n());
            let got = knearest_matrix(&g, 6, 8, &mut ws, &mut ledger);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn knearest_matrix_respects_distance_bound() {
        let g = generators::path(12);
        let mut ledger = RoundLedger::new(12);
        let m = knearest(&g, 100, 3, &mut ledger);
        for v in 0..12 {
            for &(_, dist) in m.row(v) {
                assert!(dist <= 3);
            }
        }
        assert_eq!(m.get(0, 3), 3);
        assert_eq!(m.get(0, 4), INF);
    }

    #[test]
    fn rounds_scale_with_log_d() {
        let g = generators::cycle(256);
        let mut l1 = RoundLedger::new(256);
        let _ = knearest(&g, 8, 4, &mut l1);
        let mut l2 = RoundLedger::new(256);
        let _ = knearest(&g, 8, 64, &mut l2);
        assert!(l2.total_rounds() > l1.total_rounds());
        // log d = 6 vs 2 → roughly 3x the iterations; allow slack for the
        // per-iteration log W term growing with d.
        assert!(l2.total_rounds() <= 8 * l1.total_rounds());
    }

    #[test]
    fn d_one_is_filtered_adjacency() {
        let g = generators::star(8);
        let mut ledger = RoundLedger::new(8);
        let m = knearest(&g, 3, 1, &mut ledger);
        assert_eq!(ledger.total_rounds(), 0); // no products needed
                                              // Center keeps itself + 2 smallest leaves.
        assert_eq!(m.row(0).len(), 3);
    }

    fn seeded(s: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
