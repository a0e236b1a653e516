//! The w.h.p. size variant (Thm 31, "A variant that works w.h.p").
//!
//! The basic randomized construction bounds the emulator size only *in
//! expectation*. Theorem 31 fixes this: sample `O(log n)` independent level
//! hierarchies, evaluate all of them against a **single** `(k,d)`-nearest
//! computation (Claim 30 — the nearest lists do not depend on the sampling),
//! and keep a run in which
//!
//! 1. the edges added by non-top-level vertices number `O(r·n^{1+1/2^r})`,
//! 2. `|S_r| = O(√n)`, and
//! 3. every heavy vertex sees an `S_r` member among its nearest (Claim 25).
//!
//! By Markov + the w.h.p. events, a constant fraction of runs qualify, so
//! `O(log n)` runs contain one w.h.p. Only the selected run's emulator is
//! materialized.

use cc_clique::{cost::model, RoundLedger};
use cc_graphs::Graph;
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::BasisCache;
use rand::Rng;

use crate::clique::{self, CliqueEmulatorConfig};
use crate::emulator::Emulator;

/// Statistics of the run-selection procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhpStats {
    /// Number of parallel runs simulated.
    pub runs: usize,
    /// Index of the selected run.
    pub chosen: usize,
    /// Edges added by non-top-level vertices in the selected run.
    pub low_level_edges: usize,
    /// `|S_r|` of the selected run.
    pub top_level_size: usize,
    /// Runs that satisfied all three events.
    pub qualifying_runs: usize,
}

/// Builds the emulator with the Thm 31 run-selection. Returns the emulator
/// of the best qualifying run (falling back to the smallest run if, against
/// w.h.p. odds, none qualifies — reported via
/// [`WhpStats::qualifying_runs`]` == 0`). The top-level hopset takes its
/// basis from `basis`.
pub fn build(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    rng: &mut impl Rng,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> (Emulator, WhpStats) {
    let mut phase = ledger.enter("emulator-whp");
    let n = g.n();
    let params = &config.params;
    let r = params.r();
    let runs = (2.0 * (n.max(2) as f64).log2()).ceil() as usize;

    // Announce all runs' memberships: levels fit in O(log log log n) bits, so
    // the O(log n) runs pack into O(log log log n) full-word rounds
    // (Claim 30).
    let lll = model::log2_ceil(model::log2_ceil(model::log2_ceil(n as u64).max(2)).max(2)).max(1);
    phase.charge("announce levels of all runs", lll);

    let mut kn = KNearest::compute_with(
        g,
        config.k,
        params.delta(r),
        Strategy::TruncatedBfs,
        config.threads,
        &mut phase,
    );
    if config.record_paths {
        kn = kn.with_parents(g);
    }

    // Evaluate each run (one aggregation round per run batch: the per-run
    // counters travel to distinct referee vertices in parallel — 2 rounds).
    phase.charge("per-run accounting and referee election", 2);
    let sr_bound = (3.0 * (n as f64).sqrt()).ceil() as usize;
    let mut best: Option<(usize, usize, bool)> = None; // (edges, run, qualifies)
    let mut qualifying = 0usize;
    let mut samples: Vec<Vec<u8>> = Vec::with_capacity(runs);
    for run in 0..runs {
        let levels = params.sample_levels(rng);
        let mut low_edges = 0usize;
        for v in 0..n {
            let i = levels[v] as usize;
            if i >= r {
                continue;
            }
            low_edges +=
                clique::edge_count_for_vertex(&kn, &levels, v, params.delta(i), config.k, i);
        }
        let sr_size = levels.iter().filter(|&&l| l as usize >= r).count();
        let hits = clique::heavy_vertices_hit(&kn, &levels, params, config.k);
        let qualifies = sr_size <= sr_bound && hits && sr_size >= 1;
        if qualifies {
            qualifying += 1;
        }
        let better = match best {
            None => true,
            Some((best_edges, _, best_q)) => {
                (qualifies && !best_q) || (qualifies == best_q && low_edges < best_edges)
            }
        };
        if better {
            best = Some((low_edges, run, qualifies));
        }
        samples.push(levels);
    }
    let (low_level_edges, chosen, _) = best.expect("at least one run");
    let levels = samples.swap_remove(chosen);
    let top_level_size = levels.iter().filter(|&&l| l as usize >= r).count();

    let rng_dyn: &mut dyn rand::RngCore = rng;
    let emu =
        clique::build_with_levels_and_kn(g, config, levels, &kn, Some(rng_dyn), basis, &mut phase);
    (
        emu,
        WhpStats {
            runs,
            chosen,
            low_level_edges,
            top_level_size,
            qualifying_runs: qualifying,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EmulatorParams;
    use cc_graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn config(n: usize, eps: f64, r: usize) -> CliqueEmulatorConfig {
        CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r).unwrap())
    }

    #[test]
    fn selected_run_is_within_size_bound() {
        let g = generators::caveman(16, 8);
        let cfg = config(g.n(), 0.25, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ledger = RoundLedger::new(g.n());
        let (emu, stats) = build(&g, &cfg, &mut rng, &mut BasisCache::default(), &mut ledger);
        assert!(stats.qualifying_runs > 0, "no qualifying run");
        // Thm 31: the chosen run's size satisfies the bound outright (not
        // just in expectation). Constant 8 as in the ideal-size test.
        assert!(
            (emu.m() as f64) <= 8.0 * cfg.params.size_bound(),
            "edges = {}",
            emu.m()
        );
        assert!(stats.top_level_size <= (3.0 * (g.n() as f64).sqrt()).ceil() as usize);
    }

    #[test]
    fn stretch_still_holds() {
        let g = generators::grid(9, 9);
        let cfg = config(g.n(), 0.25, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ledger = RoundLedger::new(g.n());
        let (emu, _) = build(&g, &cfg, &mut rng, &mut BasisCache::default(), &mut ledger);
        let report = emu.verify_with_bounds(
            &g,
            cfg.params.clique_multiplicative_bound(cfg.eps_prime),
            cfg.params.clique_additive_bound(cfg.eps_prime),
            cfg.params.size_bound(),
        );
        assert!(report.within_bounds, "{report:?}");
    }

    #[test]
    fn run_count_is_logarithmic() {
        let g = generators::cycle(128);
        let cfg = config(128, 0.25, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ledger = RoundLedger::new(128);
        let (_, stats) = build(&g, &cfg, &mut rng, &mut BasisCache::default(), &mut ledger);
        assert_eq!(stats.runs, 14); // 2·log₂(128) = 14
        assert!(stats.chosen < stats.runs);
    }

    #[test]
    fn knearest_computed_once() {
        // The whp variant must not multiply the k-nearest cost by the number
        // of runs: its total rounds stay close to a single clique build.
        let g = generators::cycle(96);
        let cfg = config(96, 0.25, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut l_whp = RoundLedger::new(96);
        let _ = build(&g, &cfg, &mut rng, &mut BasisCache::default(), &mut l_whp);
        let mut l_single = RoundLedger::new(96);
        let _ = clique::build(
            &g,
            &cfg,
            &mut rng,
            &mut BasisCache::default(),
            &mut l_single,
        );
        // A recomputation-per-run bug would cost ~runs× (14× here); allow a
        // generous constant factor for sampling variance between the two
        // builds' level draws.
        assert!(
            l_whp.total_rounds() <= 2 * l_single.total_rounds(),
            "whp {} vs single {}",
            l_whp.total_rounds(),
            l_single.total_rounds()
        );
    }
}
