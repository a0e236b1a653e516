//! `(3+ε)`-approximate APSP — the warm-up pipeline described at the start of
//! §4.3.
//!
//! Sample a hitting set `A` of size `O(√n)` so every vertex with a full
//! `(k, t)`-nearest list (`k = √n log n`) has an `A`-member among its
//! nearest. For a pair `(u, v)` within distance `t`: either `v` is among the
//! `(k,t)`-nearest of `u` (exact), or the nearest `A`-pivot `p_A(u)`
//! satisfies `d(u, p_A(u)) ≤ d(u,v)`, so routing through it costs at most
//! `3·d(u,v)`. Distances to `A` are `(1+ε/2)`-approximated via a bounded
//! hopset, giving `3+ε` overall. Long pairs come from the emulator.
//!
//! The short-range part is the nearest-list step and the nearest-pivot
//! step of `crate::pipeline`, which apsp2's Case 2 runs on its low-degree
//! subgraph `G'`. The full `(2+ε)` algorithm ([`crate::apsp2`]) refines
//! exactly this pipeline; keeping the `(3+ε)` variant makes the
//! refinement measurable (experiment T2 reports both).

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::params::ParamError;
use cc_graphs::{Dist, Graph};
use cc_routes::PathStore;
use std::sync::Arc;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::oracle::Guarantee;
use crate::pipeline::{self, HopsetGraph, Mode, Substrates};
use crate::solver::ParamProfile;

/// Per-query parameters of the `(3+ε)` pipeline. The emulator and the
/// other session-wide parameters belong to the [`crate::Solver`].
#[derive(Clone, Debug)]
pub struct Apsp3Config {
    /// Accuracy `ε`.
    pub eps: f64,
    /// Nearest-list width `k` (paper: `√n log n`).
    pub k: usize,
    /// The short/long threshold `t`, fixed by `(n, ε)` and the profile.
    t: Dist,
}

impl Apsp3Config {
    /// The configuration of `profile`.
    pub(crate) fn for_profile(
        n: usize,
        eps: f64,
        profile: ParamProfile,
    ) -> Result<Self, ParamError> {
        // Validated first: n < 2 must be an error, not a panic in `clamp(2, n)`.
        let t = pipeline::threshold(n, eps, profile)?;
        let mut k = (n as f64).sqrt();
        if let ParamProfile::Paper { .. } = profile {
            k *= (n.max(2) as f64).ln();
        }
        Ok(Apsp3Config {
            eps,
            k: (k.ceil() as usize).clamp(2, n),
            t,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t
    }
}

/// Result of the `(3+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp3 {
    /// The estimates, `Arc`-shared so memoized results clone cheaply.
    pub estimates: Arc<DistanceMatrix>,
    /// The threshold `t` used.
    pub t: Dist,
    /// The pivot set `A`.
    pub pivots: Vec<usize>,
    /// The proven short-range guarantee `3+ε`.
    pub short_range_guarantee: f64,
    /// Per-pair path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<Arc<PathStore>>,
}

impl Apsp3 {
    /// The provenance every estimate of this result is served under.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee::mult3(self.short_range_guarantee - 3.0)
    }
}

/// `(3+ε)`-APSP, randomized or deterministic by `mode`, over the
/// session's emulator configuration `emu`.
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub(crate) fn run(
    g: &Graph,
    cfg: &Apsp3Config,
    emu: &CliqueEmulatorConfig,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Apsp3, CcError> {
    let mut phase = ledger.enter("apsp3");
    let n = g.n();
    let t = cfg.threshold();
    // Long range + adjacency. Witness recording: a pair's witness is set
    // exactly when `delta` strictly improves it, and never read back, so the
    // estimates (and the rounds — witnesses ride the same messages) are
    // identical with recording on or off.
    let (table, table_paths) = substrates.long_range(g, emu, &mut mode, &mut phase);
    let mut delta = DistanceMatrix::clone(&table);
    let mut paths = table_paths.as_deref().cloned();

    // (k, t)-nearest: exact short distances to the k nearest.
    let lists = pipeline::nearest_lists(
        g,
        (cfg.k, t),
        emu.threads,
        &mut delta,
        paths.as_mut(),
        &mut phase,
    );
    // Pivot set A hitting every full (k,t)-list.
    let full_sets = lists.kn.full_sets();
    let pivots = substrates.hitting_set(n, cfg.k, &full_sets, &mut mode, &mut phase)?;
    if !pivots.is_empty() {
        // (1+ε/2)-approximate distances to A within 2t.
        let hs = substrates.hopset_for(
            HopsetGraph::Input,
            g,
            (2 * t, cfg.eps / 2.0),
            emu,
            &mut mode,
            &mut phase,
            paths.as_mut().map(PathStore::routes_mut),
        );
        pipeline::route_through_nearest_pivots(
            substrates,
            "announce nearest pivots",
            g,
            &hs,
            &pivots,
            &lists.kn,
            emu.threads,
            &mut delta,
            paths.as_mut(),
            &mut phase,
        );
    }

    Ok(Apsp3 {
        estimates: Arc::new(delta),
        t,
        pivots,
        short_range_guarantee: 3.0 + cfg.eps,
        paths: paths.map(Arc::new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, stretch};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `run` in a fresh session of `profile` at `ε = 0.5`.
    fn solve(g: &Graph, cfg: &Apsp3Config, profile: ParamProfile, mode: Mode<'_>) -> Apsp3 {
        let emu = pipeline::emulator_config(g.n(), 0.5, profile).unwrap();
        let mut subs = Substrates::default();
        run(g, cfg, &emu, mode, &mut RoundLedger::new(g.n()), &mut subs).unwrap()
    }

    fn assert_short_range(g: &Graph, out: &Apsp3) {
        let exact = bfs::apsp_exact(g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0);
        assert_eq!(report.missed, 0);
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "stretch {} exceeds {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }

    #[test]
    fn three_plus_eps_on_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (name, g) in [
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(72, 0.06, &mut rng)),
        ] {
            let cfg = Apsp3Config::for_profile(g.n(), 0.5, pipeline::PAPER).unwrap();
            let out = solve(&g, &cfg, pipeline::PAPER, Mode::Rng(&mut rng));
            let _ = name;
            assert_short_range(&g, &out);
        }
    }

    #[test]
    fn deterministic_three_plus_eps() {
        let g = generators::caveman(7, 7);
        let cfg = Apsp3Config::for_profile(g.n(), 0.5, pipeline::PAPER).unwrap();
        let out = solve(&g, &cfg, pipeline::PAPER, Mode::Det);
        assert_short_range(&g, &out);
    }

    #[test]
    fn small_graph_with_tiny_k_still_covered() {
        // k ≥ n: every list covers the whole ball, so estimates are exact
        // within t and no pivots are needed.
        let g = generators::cycle(12);
        let mut cfg = Apsp3Config::for_profile(12, 0.5, pipeline::PAPER).unwrap();
        cfg.k = 12;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = solve(&g, &cfg, pipeline::PAPER, Mode::Rng(&mut rng));
        let exact = bfs::apsp_exact(&g);
        for u in 0..12 {
            for v in 0..12 {
                if exact[u][v] <= out.t {
                    assert_eq!(out.estimates.get(u, v), exact[u][v]);
                }
            }
        }
    }
}
