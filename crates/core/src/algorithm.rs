//! One interface over every APSP-class algorithm in the workspace.
//!
//! The paper's pipelines (this crate) and the comparison baselines
//! (`cc_baselines`) historically exposed ad-hoc `run`/`apsp` functions with
//! different shapes, so every experiment binary re-wired each one by hand.
//! [`Algorithm`] normalizes them: estimates as dense rows, a proven
//! `(multiplicative, additive)` guarantee, rounds charged to the caller's
//! ledger, failures as [`CcError`]. Benches and tests iterate over
//! `&[&dyn Algorithm]` instead of copy-pasting call sites.

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph};

use crate::error::CcError;
use crate::solver::{Execution, Solver, SolverBuilder};

/// Runs `query` as the first query of a fresh scaled-profile session over
/// `g`, then charges the session's rounds to `ledger`.
fn first_query<T>(
    g: &Graph,
    eps: f64,
    execution: Execution,
    ledger: &mut RoundLedger,
    query: impl FnOnce(&mut Solver) -> Result<T, CcError>,
) -> Result<T, CcError> {
    let mut solver = SolverBuilder::new(g.clone())
        .eps(eps)
        .execution(execution)
        .build()?;
    let out = query(&mut solver);
    ledger.absorb(solver.ledger());
    out
}

/// Normalized output of one APSP-class run.
#[derive(Clone, Debug)]
pub struct AlgorithmOutput {
    /// `estimates[u][v] ≥ d(u,v)` for all pairs.
    pub estimates: Vec<Vec<Dist>>,
    /// The proven `(multiplicative, additive)` guarantee: for pairs the
    /// algorithm covers, `estimates[u][v] ≤ mult·d(u,v) + add`. For the
    /// multiplicative pipelines the bound is their short-range guarantee.
    pub guarantee: (f64, f64),
}

/// An all-pairs shortest-path algorithm driven through one interface.
pub trait Algorithm {
    /// Display name (used as the row label in experiment tables).
    fn name(&self) -> String;

    /// Runs on `g`, charging simulated rounds to `ledger`.
    ///
    /// Algorithms without a deterministic variant document how they treat
    /// [`Execution::Deterministic`].
    ///
    /// # Errors
    ///
    /// Returns [`CcError`] on invalid parameters or pipeline failures.
    fn run(
        &self,
        g: &Graph,
        execution: Execution,
        ledger: &mut RoundLedger,
    ) -> Result<AlgorithmOutput, CcError>;
}

/// The `(1+ε, β)`-APSP pipeline (Thm 5/32) under the scaled profile.
#[derive(Clone, Copy, Debug)]
pub struct NearAdditiveApsp {
    /// Accuracy `ε`.
    pub eps: f64,
}

impl Algorithm for NearAdditiveApsp {
    fn name(&self) -> String {
        format!("DP20 (1+{}, beta)-APSP", self.eps)
    }

    fn run(
        &self,
        g: &Graph,
        execution: Execution,
        ledger: &mut RoundLedger,
    ) -> Result<AlgorithmOutput, CcError> {
        let out = first_query(g, self.eps, execution, ledger, Solver::apsp_near_additive)?;
        Ok(AlgorithmOutput {
            estimates: out.estimates.to_rows(),
            guarantee: (out.multiplicative_bound, out.additive_bound),
        })
    }
}

/// The `(2+ε)`-APSP pipeline (Thm 4/34) under the scaled profile.
#[derive(Clone, Copy, Debug)]
pub struct TwoPlusEpsApsp {
    /// Accuracy `ε`.
    pub eps: f64,
}

impl Algorithm for TwoPlusEpsApsp {
    fn name(&self) -> String {
        format!("DP20 (2+{})-APSP", self.eps)
    }

    fn run(
        &self,
        g: &Graph,
        execution: Execution,
        ledger: &mut RoundLedger,
    ) -> Result<AlgorithmOutput, CcError> {
        let out = first_query(g, self.eps, execution, ledger, Solver::apsp_2eps)?;
        Ok(AlgorithmOutput {
            estimates: out.estimates.to_rows(),
            guarantee: (out.short_range_guarantee, 0.0),
        })
    }
}

/// The `(3+ε)`-APSP warm-up pipeline (§4.3) under the scaled profile.
#[derive(Clone, Copy, Debug)]
pub struct ThreePlusEpsApsp {
    /// Accuracy `ε`.
    pub eps: f64,
}

impl Algorithm for ThreePlusEpsApsp {
    fn name(&self) -> String {
        format!("DP20 (3+{})-APSP warm-up", self.eps)
    }

    fn run(
        &self,
        g: &Graph,
        execution: Execution,
        ledger: &mut RoundLedger,
    ) -> Result<AlgorithmOutput, CcError> {
        let out = first_query(g, self.eps, execution, ledger, Solver::apsp_3eps)?;
        Ok(AlgorithmOutput {
            estimates: out.estimates.to_rows(),
            guarantee: (out.short_range_guarantee, 0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};

    #[test]
    fn paper_pipelines_run_through_the_trait() {
        let g = generators::caveman(6, 6);
        let exact = bfs::apsp_exact(&g);
        let algorithms: Vec<Box<dyn Algorithm>> = vec![
            Box::new(NearAdditiveApsp { eps: 0.25 }),
            Box::new(TwoPlusEpsApsp { eps: 0.5 }),
            Box::new(ThreePlusEpsApsp { eps: 0.5 }),
        ];
        for alg in &algorithms {
            let mut ledger = RoundLedger::new(g.n());
            let out = alg.run(&g, Execution::Seeded(5), &mut ledger).unwrap();
            assert!(ledger.total_rounds() > 0, "{}", alg.name());
            for u in 0..g.n() {
                for v in 0..g.n() {
                    assert!(
                        out.estimates[u][v] >= exact[u][v],
                        "{} undercuts at ({u},{v})",
                        alg.name()
                    );
                }
            }
            assert!(out.guarantee.0 >= 1.0);
        }
    }

    #[test]
    fn deterministic_execution_reproduces() {
        let g = generators::grid(6, 6);
        let alg = TwoPlusEpsApsp { eps: 0.5 };
        let mut l1 = RoundLedger::new(g.n());
        let a = alg.run(&g, Execution::Deterministic, &mut l1).unwrap();
        let mut l2 = RoundLedger::new(g.n());
        let b = alg.run(&g, Execution::Deterministic, &mut l2).unwrap();
        assert_eq!(a.estimates, b.estimates);
    }
}
