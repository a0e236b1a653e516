//! Path reconstruction for the Congested Clique shortest-path pipelines.
//!
//! The distance pipelines of this workspace compute *estimates* by composing
//! shortcut structures — `(k,d)`-nearest lists, bounded hopsets, emulator
//! edges, min-plus products — and every shortcut edge's weight upper-bounds a
//! real walk in the input graph `G`. This crate keeps that walk recoverable:
//!
//! * [`RouteArena`] — an append-only arena of *path records*. A record is a
//!   `G`-edge, the concatenation of two earlier records, or the reversal of
//!   an earlier record. Children always have strictly smaller ids than their
//!   parent, so the records form a DAG and every expansion terminates
//!   (`DESIGN.md` §8.2).
//! * [`Unroller`] — provenance for a set of shortcut edges: each pair maps
//!   to the shortest known record, so any hopset/emulator edge — or any walk
//!   over `G ∪ H` — recursively expands into original-graph edges.
//! * [`PathStore`] — the per-pair witness table a pipeline fills alongside
//!   its [`DistanceMatrix`]-style estimates: every finite pair carries a
//!   record, a *via*-midpoint whose two halves are again witnessed pairs,
//!   or the path to it in a shortest-path tree of [`TreeRows`].
//! * [`TreeRows`] — shortest-path trees as one parent row per source, the
//!   form the emulator sweep records its trees in.
//!   The store keeps no values of its own: the pipeline sets a pair's
//!   witness exactly when it strictly lowers the pair's estimate.
//! * [`RowStore`] — the row-shaped counterpart for multi-source (MSSP)
//!   results, under the same rule.
//!
//! All structures are plain data: once filled they are read-only and can be
//! queried lock-free from shared references.
//!
//! [`DistanceMatrix`]: https://docs.rs/cc-core
//!
//! # Example
//!
//! ```
//! use cc_routes::{RouteArena, Unroller};
//! use cc_graphs::Graph;
//!
//! // A shortcut edge (0,3) realized by the path 0-1-2-3.
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let mut unroller = Unroller::new();
//! let rec = unroller.intern_walk(&g, &[0, 1, 2, 3]).unwrap();
//! unroller.register(0, 3, rec);
//! assert_eq!(unroller.unroll(0, 3).unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
//! assert_eq!(unroller.unroll(3, 0).unwrap(), vec![(3, 2), (2, 1), (1, 0)]);
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod arena;
pub mod store;
pub mod tree;
pub mod unroller;

pub use arena::{BatchRef, EmitStack, RecId, RecordBatch, RouteArena, TAG_CAT, TAG_EDGE, TAG_REV};
pub use store::{PairWitness, PathStore, RowStore};
pub use tree::{HopTable, TreeRows};
pub use unroller::Unroller;
