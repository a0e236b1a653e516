//! Min-plus (tropical) semiring matrices with Congested Clique round costs.
//!
//! Distance computation by matrix methods iterates *distance products*: with
//! `A` the adjacency matrix of a graph (0 on the diagonal, 1 on edges, ∞
//! elsewhere), `A^k[u][v]` under min-plus is the length of the shortest
//! `≤ k`-edge path from `u` to `v`. The paper's distance-sensitive tool-kit
//! (Thm 10) squares **filtered** sparse matrices: after each product only the
//! `ρ` smallest entries of each row are kept, which keeps every intermediate
//! matrix sparse and each product cheap (Thm 58).
//!
//! This crate implements:
//!
//! * [`dense::DenseMatrix`] — dense min-plus matrices with a serial
//!   cache-blocked, skip-∞ product kernel (`Θ(n^{1/3})` rounds each, the
//!   algebraic baseline),
//! * [`sparse::SparseMatrix`] — CSR row-sparse matrices (contiguous
//!   `(column, value)` arena + row offsets) with density tracking, batched
//!   construction through [`sparse::RowBuilder`], and one sparse product
//!   kernel (Thm 36 cost) that also returns the smallest witness of every
//!   finite entry,
//! * [`workspace::MinplusWorkspace`] — reusable scratch plus the
//!   worker-thread count of the sparse kernel, which shards output rows
//!   across scoped threads with bit-identical results at any thread count,
//! * [`filtered`] — row filtering and the iterated filtered squaring of
//!   Claim 59, the computational core of the `(k,d)`-nearest primitive.
//!
//! Round accounting is orthogonal to wall-clock execution: callers charge
//! the Thm 36 / Thm 58 formulas from the operands' densities (the filtered
//! products and [`DenseMatrix::square_charged`] do so themselves), so the
//! charge never depends on the thread count.
//!
//! # Example
//!
//! ```
//! use cc_graphs::generators;
//! use cc_matrix::{MinplusWorkspace, SparseMatrix};
//!
//! let g = generators::cycle(6);
//! let a = SparseMatrix::adjacency(&g);
//! let (a2, witnesses) = a.minplus(&a, &mut MinplusWorkspace::new());
//! assert_eq!(a2.get(0, 2), 2); // two hops around the cycle
//! // Entry (0, 2) is third in row 0 (columns 0, 1, 2, 4, 5); it is
//! // realized through vertex 1.
//! assert_eq!(witnesses[a2.row_range(0)][2], 1);
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod dense;
pub mod filtered;
pub mod sparse;
pub mod workspace;

pub use dense::DenseMatrix;
pub use sparse::{RowBuilder, SparseMatrix};
pub use workspace::MinplusWorkspace;
