//! Property tests pinning the min-plus kernels to their references.
//!
//! Two families of properties over random gnp / grid / caveman graphs:
//!
//! 1. **Reference agreement** — the CSR sparse product and the blocked dense
//!    product both equal a naive triple loop entry-for-entry (first and
//!    second squarings of the adjacency matrix, so both the sparse-row and
//!    the dense-row emit paths of the CSR kernel are hit).
//! 2. **Witnesses and thread determinism** — every sparse witness realizes
//!    its entry, and `threads ∈ {1, 2, 4, 8}` produce bit-identical
//!    matrices and witnesses, including when a warm workspace is reused
//!    across products.

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
            sp = sp.minplus(&sp, &mut MinplusWorkspace::new()).0;
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

    /// The sparse kernel: witnesses realize their entries, and threads ∈
    /// {1, 2, 4, 8} are bit-identical (values AND witnesses), on a cold
    /// workspace and on a warm one reused for a second product.
    #[test]
    fn sparse_kernel_is_bit_identical_across_threads((family, size, seed) in (0usize..3, 12usize..40, 0u64..1 << 40)) {
        let g = graph_for(family, size, seed);
        let n = g.n();
        let s = SparseMatrix::adjacency(&g);
        let mut ws = MinplusWorkspace::new();
        let serial = s.minplus(&s, &mut ws);
        let serial_square = serial.0.minplus(&serial.0, &mut ws);
        prop_assert_eq!(serial.1.len(), serial.0.nnz(), "one witness per finite entry");
        for i in 0..n {
            let wrow = &serial.1[serial.0.row_range(i)];
            for (&(j, v), &k) in serial.0.row(i).iter().zip(wrow) {
                let k = k as usize;
                prop_assert_eq!(
                    s.get(i, k) + s.get(k, j as usize), v,
                    "witness at ({},{})", i, j
                );
            }
        }
        for threads in [2usize, 4, 8] {
            let mut ws = MinplusWorkspace::with_threads(threads);
            let par = s.minplus(&s, &mut ws);
            prop_assert_eq!(&par, &serial, "threads = {}", threads);
            // Second product from the warm workspace (scratch reuse path).
            prop_assert_eq!(&par.0.minplus(&par.0, &mut ws), &serial_square, "warm workspace, threads = {}", threads);
        }
    }
}
