//! `(1+ε, β)`-approximate APSP (Thm 32, deterministic: Thm 51).
//!
//! The direct application of the emulator: build a `(1+ε, β)`-emulator of
//! `O(n log log n)` edges, let every vertex learn all of it (Lenzen routing,
//! `O(log log n)` rounds), and have each vertex answer distance queries by
//! local Dijkstra on the emulator. Total: `O(log²β/ε)` rounds.

use std::sync::Arc;

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::Emulator;
use cc_graphs::Graph;

use crate::estimates::DistanceMatrix;
use crate::oracle::Guarantee;
use crate::pipeline::{Mode, Substrates};

/// Result of the near-additive APSP computation.
#[derive(Clone, Debug)]
pub struct AdditiveApsp {
    /// Estimates `δ` with `d_G ≤ δ ≤ (1+ε̂)d_G + β̂`: the session's
    /// long-range table, `Arc`-shared with the session.
    pub estimates: Arc<DistanceMatrix>,
    /// The emulator the estimates came from, shared with the session.
    pub emulator: Arc<Emulator>,
    /// The proven multiplicative bound `1+ε̂`.
    pub multiplicative_bound: f64,
    /// The proven additive bound `β̂`.
    pub additive_bound: f64,
    /// Per-pair path witnesses, recorded when the configuration set
    /// [`CliqueEmulatorConfig::record_paths`]. `Arc`-shared like the
    /// estimates.
    pub paths: Option<Arc<cc_routes::PathStore>>,
}

impl AdditiveApsp {
    /// The provenance every estimate of this result is served under.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee::near_additive(self.multiplicative_bound - 1.0, self.additive_bound)
    }
}

/// `(1+ε, β)`-APSP over the session's emulator configuration `emu`,
/// randomized (Thm 32) or deterministic (Thm 51) by `mode`.
pub(crate) fn run(
    g: &Graph,
    emu: &CliqueEmulatorConfig,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> AdditiveApsp {
    let mut phase = ledger.enter("apsp-additive");
    // The answer is the long-range table itself.
    let (estimates, paths) = substrates.long_range(g, emu, &mut mode, &mut phase);
    AdditiveApsp {
        estimates,
        emulator: substrates.emulator_for(g, emu, &mut mode, &mut phase),
        multiplicative_bound: emu.params.clique_multiplicative_bound(emu.eps_prime),
        additive_bound: emu.params.clique_additive_bound(emu.eps_prime),
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use cc_graphs::{bfs, generators, stretch};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn guarantee_holds_on_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (name, g) in [
            ("cycle", generators::cycle(64)),
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
        ] {
            let emu = pipeline::paper_emulator(g.n(), 0.25);
            let mut ledger = RoundLedger::new(g.n());
            let out = run(
                &g,
                &emu,
                Mode::Rng(&mut rng),
                &mut ledger,
                &mut Substrates::default(),
            );
            let exact = bfs::apsp_exact(&g);
            let report = stretch::evaluate(
                &exact,
                out.estimates.as_fn(),
                out.multiplicative_bound - 1.0,
            );
            assert!(
                report.satisfies(out.multiplicative_bound - 1.0, out.additive_bound),
                "{name}: {report:?}"
            );
        }
    }

    #[test]
    fn deterministic_matches_guarantee_and_reproduces() {
        let g = generators::caveman(6, 6);
        let emu = pipeline::paper_emulator(g.n(), 0.25);
        let mut l1 = RoundLedger::new(g.n());
        let a = run(&g, &emu, Mode::Det, &mut l1, &mut Substrates::default());
        let mut l2 = RoundLedger::new(g.n());
        let b = run(&g, &emu, Mode::Det, &mut l2, &mut Substrates::default());
        assert_eq!(a.estimates, b.estimates);
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate(&exact, a.estimates.as_fn(), a.multiplicative_bound - 1.0);
        assert!(report.satisfies(a.multiplicative_bound - 1.0, a.additive_bound));
    }

    #[test]
    fn estimates_never_undercut() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::connected_gnp(60, 0.06, &mut rng);
        let emu = pipeline::paper_emulator(g.n(), 0.3);
        let mut ledger = RoundLedger::new(g.n());
        let out = run(
            &g,
            &emu,
            Mode::Rng(&mut rng),
            &mut ledger,
            &mut Substrates::default(),
        );
        let exact = bfs::apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert!(out.estimates.get(u, v) >= exact[u][v]);
            }
        }
    }

    #[test]
    fn rounds_include_collection_cost() {
        let g = generators::grid(10, 10);
        let emu = pipeline::paper_emulator(g.n(), 0.25);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ledger = RoundLedger::new(g.n());
        let _ = run(
            &g,
            &emu,
            Mode::Rng(&mut rng),
            &mut ledger,
            &mut Substrates::default(),
        );
        let phases = ledger.by_phase();
        assert!(phases.contains_key("apsp-additive"));
    }
}
