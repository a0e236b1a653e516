//! Property tests pinning the CSR min-plus kernels to their references.
//!
//! Two families of properties over random gnp / grid / caveman graphs:
//!
//! 1. **Reference agreement** — the CSR sparse product and the blocked dense
//!    product both equal a naive triple loop entry-for-entry (first and
//!    second squarings of the adjacency matrix, so both the sparse-row and
//!    the dense-row emit paths of the CSR kernel are hit).
//! 2. **Thread determinism** — `threads ∈ {1, 2, 4, 8}` produce bit-identical
//!    matrices (values *and* nnz) for both kernels, including when a warm
//!    workspace is reused across products.

use cc_graphs::{dadd, generators, Dist, Graph, INF};
use cc_matrix::{DenseMatrix, MinplusWorkspace, SparseMatrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One random graph from the (family, size, seed) triple.
fn graph_for(family: usize, size: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => generators::gnp(size, 0.12, &mut rng),
        1 => generators::grid(3 + size % 5, 3 + size / 5),
        _ => generators::caveman(3 + size % 4, 3 + size % 5),
    }
}

/// The reference product: `c[i][j] = min_k get(i, k) + get(k, j)`, as a
/// row-major `n × n` table.
fn naive_square(n: usize, get: impl Fn(usize, usize) -> Dist) -> Vec<Dist> {
    let mut c = vec![INF; n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                c[i * n + j] = c[i * n + j].min(dadd(get(i, k), get(k, j)));
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_agree_entry_for_entry((family, size, seed) in (0usize..3, 12usize..40, 0u64..1 << 40)) {
        let g = graph_for(family, size, seed);
        let n = g.n();
        let s = SparseMatrix::adjacency(&g);
        let d = DenseMatrix::adjacency(&g);
        // CSR adjacency rows: the diagonal plus the sorted neighbor list.
        for u in 0..n {
            let mut want: Vec<(u32, Dist)> = g.neighbors(u).iter().map(|&v| (v, 1)).collect();
            want.push((u as u32, 0));
            want.sort_unstable();
            prop_assert_eq!(s.row(u), &want[..], "csr adjacency row {}", u);
            for v in 0..n {
                prop_assert_eq!(d.get(u, v), s.get(u, v), "dense adjacency at ({},{})", u, v);
            }
        }
        // First squaring: sparse rows; second squaring: dense-ish rows.
        let mut reference = naive_square(n, |i, j| s.get(i, j));
        let (mut sp, mut dp) = (s, d);
        for power in 0..2 {
            if power > 0 {
                reference = naive_square(n, |i, j| reference[i * n + j]);
            }
            sp = sp.minplus(&sp);
            dp = dp.minplus(&dp);
            for u in 0..n {
                for v in 0..n {
                    let want = reference[u * n + v];
                    prop_assert_eq!(sp.get(u, v), want, "csr vs naive at ({},{}) power {}", u, v, power);
                    prop_assert_eq!(dp.get(u, v), want, "dense vs naive at ({},{}) power {}", u, v, power);
                }
            }
            let finite = reference.iter().filter(|&&x| x < INF).count();
            prop_assert_eq!(sp.nnz(), finite, "csr nnz mismatch at power {}", power);
        }
    }

    /// Witness-carrying kernels: values bit-identical to the plain kernels,
    /// witnesses realize their entries, and threads ∈ {1, 2, 4, 8} are
    /// bit-identical (values AND witnesses) for both the sparse and the
    /// dense kernel.
    #[test]
    fn witness_kernels_are_bit_identical_across_threads((family, size, seed) in (0usize..3, 12usize..40, 0u64..1 << 40)) {
        let g = graph_for(family, size, seed);
        let n = g.n();
        let s = SparseMatrix::adjacency(&g);
        let d = DenseMatrix::adjacency(&g);
        let mut ws = MinplusWorkspace::new();
        let sparse_serial = s.minplus_with_witness(&s, &mut ws);
        let dense_serial = d.minplus_with_witness(&d, &ws);
        // Values must equal the plain kernels'.
        prop_assert_eq!(&sparse_serial.0, &s.minplus(&s));
        prop_assert_eq!(&dense_serial.0, &d.minplus(&d));
        // Sparse witnesses realize their entries from the inputs.
        for i in 0..n {
            let wrow = &sparse_serial.1[sparse_serial.0.row_range(i)];
            for (&(j, v), &k) in sparse_serial.0.row(i).iter().zip(wrow) {
                let k = k as usize;
                prop_assert_eq!(
                    s.get(i, k) + s.get(k, j as usize), v,
                    "sparse witness at ({},{})", i, j
                );
            }
        }
        // Dense witnesses: finite cells realized, ∞ cells sentinel.
        for i in 0..n {
            for j in 0..n {
                let v = dense_serial.0.get(i, j);
                let k = dense_serial.1[i * n + j];
                if v >= INF {
                    prop_assert_eq!(k, u32::MAX);
                } else {
                    let k = k as usize;
                    prop_assert_eq!(d.get(i, k) + d.get(k, j), v, "dense witness at ({},{})", i, j);
                }
            }
        }
        for threads in [2usize, 4, 8] {
            let mut ws = MinplusWorkspace::with_threads(threads);
            prop_assert_eq!(&s.minplus_with_witness(&s, &mut ws), &sparse_serial, "sparse, threads = {}", threads);
            // Warm-workspace reuse must stay identical too.
            prop_assert_eq!(&s.minplus_with_witness(&s, &mut ws), &sparse_serial, "sparse warm, threads = {}", threads);
            prop_assert_eq!(&d.minplus_with_witness(&d, &ws), &dense_serial, "dense, threads = {}", threads);
        }
    }

    #[test]
    fn thread_counts_are_bit_identical((family, size, seed) in (0usize..3, 12usize..40, 0u64..1 << 40)) {
        let g = graph_for(family, size, seed);
        let s = SparseMatrix::adjacency(&g);
        let d = DenseMatrix::adjacency(&g);
        let sparse_serial = s.minplus(&s);
        let dense_serial = d.minplus(&d);
        for threads in [2usize, 4, 8] {
            let mut ws = MinplusWorkspace::with_threads(threads);
            let sp = s.minplus_with(&s, &mut ws);
            prop_assert_eq!(&sp, &sparse_serial, "sparse kernel, threads = {}", threads);
            prop_assert_eq!(sp.nnz(), sparse_serial.nnz());
            // Second product from the warm workspace (scratch reuse path).
            let sp2 = sp.minplus_with(&sp, &mut ws);
            prop_assert_eq!(sp2, sparse_serial.minplus(&sparse_serial), "warm workspace, threads = {}", threads);
            let dp = d.minplus_with(&d, &ws);
            prop_assert_eq!(dp, dense_serial.clone(), "dense kernel, threads = {}", threads);
        }
    }
}
