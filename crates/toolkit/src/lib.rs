//! The distance-sensitive tool-kit of Dory–Parter (PODC 2020), §2 and
//! Appendix B.
//!
//! Censor-Hillel et al. (PODC 2019) built a tool-kit for distance computation
//! in the Congested Clique — `k`-nearest neighbors, source detection,
//! hopsets — with `poly(log n)` round complexity. The key idea of
//! Dory–Parter is that their applications only ever query distances up to a
//! small threshold `t = O(β/ε)`, so the tools can be made *distance
//! sensitive*: their round complexity drops from `poly(log n)` to
//! `poly(log t)`.
//!
//! This crate implements the three bounded tools plus one unbounded helper:
//!
//! * [`knearest`] — the `(k,d)`-nearest problem (Thm 10):
//!   `O((k/n^{2/3} + log d)·log d)` rounds.
//! * [`source_detection`] — the `(S,d)`-source detection problem (Thm 11):
//!   `O((m^{1/3}|S|^{2/3}/n + 1)·d)` rounds.
//! * [`hopset`] — bounded `(β, ε, t)`-hopsets (Thm 12): `O(log²t/ε)` rounds,
//!   `O(n^{3/2} log n)` edges, `β = O(log t / ε)`.
//! * [`through_sets`] — distance-through-sets (Thm 35): `O(ρ^{2/3}/n^{1/3})`
//!   rounds.
//!
//! # Example
//!
//! ```
//! use cc_clique::RoundLedger;
//! use cc_graphs::generators;
//! use cc_toolkit::knearest::{KNearest, Strategy};
//!
//! let g = generators::grid(6, 6);
//! let mut ledger = RoundLedger::new(g.n());
//! let kn = KNearest::compute(&g, 5, 3, Strategy::TruncatedBfs, &mut ledger);
//! assert_eq!(kn.list(0).len(), 5);
//! assert_eq!(kn.dist(0, 0), Some(0));
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod hopset;
pub mod knearest;
pub mod source_detection;
pub mod through_sets;

pub use hopset::{BasisCache, BoundedHopset, HopsetParams};
pub use knearest::{KNearest, Strategy};
pub use source_detection::SourceDetection;
