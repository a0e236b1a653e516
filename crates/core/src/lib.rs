//! Approximate shortest paths in the Congested Clique in `poly(log log n)`
//! rounds — the applications of Dory–Parter (PODC 2020), §4 and §5.2.
//!
//! Built on the `(1+ε, β)`-emulator of [`cc_emulator`] and the
//! distance-sensitive tool-kit of [`cc_toolkit`], this crate provides the
//! paper's three headline algorithms for unweighted undirected graphs, in
//! randomized and deterministic variants:
//!
//! | Problem | Theorem | Module |
//! |---|---|---|
//! | `(1+ε, β)`-APSP | Thm 32 / 51 | [`apsp_additive`] |
//! | `(1+ε)`-MSSP from `O(√n)` sources | Thm 33 / 52 | [`mssp`] |
//! | `(2+ε)`-APSP | Thm 34 / 53 | [`apsp2`] |
//! | `(3+ε)`-APSP (warm-up of §4.3) | — | [`apsp3`] |
//!
//! The common recipe: the emulator, once collected by every vertex
//! (`O(log log n)` rounds — it has `O(n log log n)` edges), answers every
//! *long* distance (`d ≥ t = Θ(β/ε)`) with stretch `1+Θ(ε)`; the *short*
//! distances (`d ≤ t`) are recovered by `t`-bounded tools whose round
//! complexity is `poly(log t) = poly(log log n)`.
//!
//! All algorithms return a [`DistanceMatrix`] (or per-source rows) of
//! estimates `δ` with `d_G(u,v) ≤ δ(u,v)` always, plus the approximation
//! guarantee actually proven for the chosen parameters.
//!
//! # Example
//!
//! The [`Solver`] session API is the one way to run a pipeline: configure
//! it once, then issue queries that share the cached substrates.
//!
//! ```
//! use cc_core::{Execution, SolverBuilder};
//! use cc_graphs::generators;
//!
//! let g = generators::caveman(6, 6);
//! let mut solver = SolverBuilder::new(g.clone())
//!     .eps(0.5)
//!     .execution(Execution::Seeded(1))
//!     .build()?;
//! let result = solver.apsp_2eps()?;
//! let exact = cc_graphs::bfs::apsp_exact(&g);
//! for u in 0..g.n() {
//!     for v in 0..g.n() {
//!         if u != v {
//!             assert!(result.estimates.get(u, v) >= exact[u][v]);
//!         }
//!     }
//! }
//! // A follow-up MSSP query reuses the emulator built above.
//! let rounds_before = solver.total_rounds();
//! let _ = solver.mssp(&[0, 6, 12])?;
//! assert!(solver.total_rounds() > rounds_before);
//! # Ok::<(), cc_core::CcError>(())
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod apsp2;
pub mod apsp3;
pub mod apsp_additive;
pub mod error;
pub mod estimates;
pub mod mssp;
pub mod oracle;
pub mod path_oracle;
mod pipeline;
pub mod snapshot;
pub mod solver;

pub use algorithm::{Algorithm, AlgorithmOutput};
pub use cc_routes::EmitStack;
pub use error::CcError;
pub use estimates::DistanceMatrix;
pub use oracle::{DistOracle, Guarantee, GuaranteeKind, PointEstimate, SnapshotError};
pub use path_oracle::{PathOracle, PathProvider, Route};
pub use solver::{Execution, ParamProfile, Solver, SolverBuilder};
