//! # congested-clique
//!
//! A faithful, fully-tested reproduction of **Dory & Parter, “Exponentially
//! Faster Shortest Paths in the Congested Clique” (PODC 2020)** —
//! `poly(log log n)`-round algorithms for approximate shortest paths in
//! unweighted undirected graphs:
//!
//! * `(1+ε)`-approximate **multi-source shortest paths** from `O(√n)`
//!   sources ([`core::mssp`], Thm 3),
//! * `(2+ε)`-approximate **APSP** ([`core::apsp2`], Thm 4),
//! * `(1+ε, β)`-approximate **APSP** ([`core::apsp_additive`], Thm 5),
//!
//! plus every substrate they stand on: a Congested Clique simulator with
//! round accounting ([`clique`]), near-additive emulators ([`emulator`]),
//! the distance-sensitive tool-kit ([`toolkit`]), min-plus matrix machinery
//! ([`matrix`]), soft-hitting-set derandomization ([`derand`]), reference
//! graph algorithms ([`graphs`]) and baselines ([`baselines`]).
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! simulation methodology, and `EXPERIMENTS.md` for the experiment index.
//!
//! ## Quickstart
//!
//! The [`core::Solver`] session API is the front door: configure a session
//! once, then issue queries that share the cached emulator and hopsets.
//!
//! ```
//! use congested_clique::prelude::*;
//!
//! // A graph with dense local clusters and a large diameter.
//! let g = generators::caveman(8, 8);
//! let mut solver = SolverBuilder::new(g.clone())
//!     .eps(0.5)
//!     .execution(Execution::Seeded(7))
//!     .build()?;
//!
//! // (2+ε)-approximate all-pairs shortest paths, ε = 0.5.
//! let apsp = solver.apsp_2eps()?;
//! let exact = bfs::apsp_exact(&g);
//! let est = apsp.estimates.get(0, 40);
//! assert!(est >= exact[0][40]);
//! assert!(est as f64 <= 2.5 * exact[0][40] as f64);
//!
//! // Follow-up queries reuse the substrates; point lookups are free and
//! // carry the guarantee of the pipeline that produced them.
//! let landmarks = solver.mssp(&[0, 16, 32])?;
//! assert_eq!(landmarks.dist(0, 0), 0);
//! let answer = solver.estimate(0, 40).expect("estimate cached");
//! println!("d(0,40) ≤ {} under {}", answer.dist, answer.guarantee);
//!
//! // Freeze the read side into an Arc-shareable oracle for serving.
//! let oracle = std::sync::Arc::new(solver.freeze()?);
//! assert_eq!(oracle.dist(0, 40).map(|e| e.dist), Some(answer.dist));
//! println!("simulated rounds: {}", solver.total_rounds());
//! # Ok::<(), congested_clique::core::CcError>(())
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]

pub use cc_baselines as baselines;
pub use cc_clique as clique;
pub use cc_core as core;
pub use cc_derand as derand;
pub use cc_emulator as emulator;
pub use cc_graphs as graphs;
pub use cc_matrix as matrix;
pub use cc_routes as routes;
pub use cc_toolkit as toolkit;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use cc_clique::RoundLedger;
    pub use cc_core::apsp2::{self, Apsp2Config};
    pub use cc_core::apsp3::{self, Apsp3Config};
    pub use cc_core::apsp_additive;
    pub use cc_core::mssp::{self, MsspConfig};
    pub use cc_core::{
        Algorithm, AlgorithmOutput, CcError, DistOracle, DistanceMatrix, Execution, Guarantee,
        GuaranteeKind, ParamProfile, PointEstimate, Route, SnapshotError, Solver, SolverBuilder,
    };
    pub use cc_emulator::clique::CliqueEmulatorConfig;
    pub use cc_emulator::{Emulator, EmulatorParams};
    pub use cc_graphs::{
        bfs, generators, stretch, Dist, DistStorage, Graph, StorageKind, WeightedGraph, INF,
    };
}
