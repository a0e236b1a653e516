//! Derandomization substrate for the Congested Clique algorithms of
//! Dory–Parter (PODC 2020), §5.
//!
//! The paper derandomizes its constructions through three devices:
//!
//! * **Hitting sets** (Lemmas 8/9): a random set of rate `Θ(log n / k)` hits
//!   every given set of size ≥ k w.h.p.; deterministically, \[Parter–Yogev\]
//!   compute one in `O((log log n)³)` rounds from a short PRG seed.
//! * **Soft hitting sets** (Definition 42, Lemma 43): the paper's new
//!   relaxation — the selected set has size `O(N/Δ)` with **no** `log n`
//!   factor, and the total size of un-hit sets is bounded by `O(Δ·|L|)`
//!   instead of being zero. This is exactly the property the emulator's
//!   sampling hierarchy needs, and avoiding the `log n` factor is what keeps
//!   the deterministic emulator at `O(n log log n)` edges.
//! * **PRGs fooling read-once DNFs** (Thm 55, \[Gopalan et al.\]) driving a
//!   distributed method of conditional expectations (Thm 57).
//!
//! This crate implements the first two. The soft hitting set is selected by
//! the method of conditional expectations with *exact* conditional
//! probabilities (independent bits), which yields Definition 42
//! deterministically — the same guarantee the PRG route provides. The PRG's
//! role in the paper is to compress the seed so the distributed protocol
//! runs in `O((log log n)³)` rounds; no PRG is implemented, but exactly
//! those rounds are charged
//! ([`cc_clique::cost::model::conditional_expectation_rounds`]), and
//! `DESIGN.md` §3 documents the substitution.
//!
//! # Example
//!
//! ```
//! use cc_clique::RoundLedger;
//! use cc_derand::soft_hitting::{soft_hitting_set, SoftHittingInstance};
//!
//! // 8 sets, each of size 4, over a universe of 32 elements.
//! let sets: Vec<Vec<usize>> = (0..8).map(|u| (0..4).map(|i| (4 * u + i) % 32).collect()).collect();
//! let inst = SoftHittingInstance::new(32, 4, sets).unwrap();
//! let mut ledger = RoundLedger::new(32);
//! let z = soft_hitting_set(&inst, &mut ledger);
//! assert!(z.verify(&inst, 3.0));
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod hitting;
pub mod soft_hitting;

pub use hitting::{deterministic_hitting_set, random_hitting_set};
pub use soft_hitting::{soft_hitting_set, SoftHittingInstance, SoftHittingSet};
