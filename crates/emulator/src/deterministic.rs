//! The deterministic emulator (§5.1, Thm 50).
//!
//! Randomness enters the emulator only through the level sampling
//! `Sᵢ ← Sample(Sᵢ₋₁, pᵢ)`. The deterministic construction replaces it:
//!
//! 1. **Soft hitting sets** build `S'ᵢ₊₁ ⊆ S'ᵢ`: light vertices
//!    `v ∈ S'ᵢ` whose ball holds at least `Δ = c/pᵢ₊₁` vertices of `S'ᵢ`
//!    form the instance (`T_v = B(v,δᵢ) ∩ S'ᵢ`); Lemma 43 yields
//!    `|S'ᵢ₊₁| ≤ c·|S'ᵢ|/Δ = |S'ᵢ|·pᵢ₊₁` **without a `log n` factor**, and
//!    the un-hit mass bound caps the edges added by sparse vertices
//!    (Claim 46).
//! 2. A deterministic **hitting set** `A` (Lemma 9) of the heavy vertices'
//!    nearest-sets plays the w.h.p. role of `S_r` for heavy vertices;
//!    `Sᵢ = S'ᵢ ∪ A`.
//! 3. The construction then proceeds as in §3.5 with a deterministic hopset
//!    for the top level.
//!
//! Rounds: `O(log²β/ε + r·(log log n)³)` (Thm 50 — `O((log log n)⁴)` for
//! `r = log log n`).

use cc_clique::RoundLedger;
use cc_derand::hitting;
use cc_derand::soft_hitting::{soft_hitting_set, SoftHittingInstance};
use cc_graphs::Graph;
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::BasisCache;

use crate::clique::{self, CliqueEmulatorConfig};
use crate::emulator::Emulator;

/// The constant `c` of Lemma 43 realized by
/// [`cc_derand::soft_hitting::soft_hitting_set`].
pub const SOFT_HITTING_C: usize = 3;

/// Which derandomized selector builds the level sets — the ablation axis of
/// experiment A1.
///
/// The paper's point (§5, "the standard hitting set based arguments lead to
/// a logarithmic overhead in the size of the emulator"): selecting
/// `S'ᵢ₊₁` with a *plain* hitting set (Lemma 9) must hit **every** set and
/// therefore carries an `O(log n)` size factor; the *soft* hitting set
/// (Lemma 43) may miss a bounded mass and stays at `O(N/Δ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LevelSelector {
    /// Definition 42 / Lemma 43 — the paper's construction.
    #[default]
    SoftHitting,
    /// Lemma 9 plain hitting sets — the pre-existing technique, kept for
    /// the A1 ablation.
    PlainHitting,
}

/// Builds the deterministic emulator (Thm 50). No randomness is consumed.
/// The top-level hopset takes its basis from `basis`.
pub fn build(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> Emulator {
    build_with_selector(g, config, LevelSelector::SoftHitting, basis, ledger)
}

/// Builds the deterministic emulator with an explicit level-set selector
/// (see [`LevelSelector`]).
pub fn build_with_selector(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    selector: LevelSelector,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> Emulator {
    let mut phase = ledger.enter("emulator-det");
    let params = &config.params;
    let n = g.n();
    let r = params.r();
    let k = config.k;

    let mut kn = KNearest::compute_with(
        g,
        k,
        params.delta(r),
        Strategy::TruncatedBfs,
        config.threads,
        &mut phase,
    );
    if config.record_paths {
        kn = kn.with_parents(g);
    }

    // Iteratively build S'₀ ⊃ S'₁ ⊃ … ⊃ S'_r via soft hitting sets.
    let mut s_prime: Vec<Vec<bool>> = vec![vec![true; n]];
    // First iteration at which each vertex is heavy while in S'ᵢ (drives A).
    let mut heavy_first: Vec<Option<usize>> = vec![None; n];
    for i in 0..r {
        let current = &s_prime[i];
        let delta_i = params.delta(i);
        let p_next = params.p(i + 1);
        let threshold = ((SOFT_HITTING_C as f64) / p_next).ceil() as usize;

        // Universe R = S'ᵢ, re-indexed densely.
        let members: Vec<usize> = (0..n).filter(|&v| current[v]).collect();
        let mut index_of = vec![usize::MAX; n];
        for (idx, &v) in members.iter().enumerate() {
            index_of[v] = idx;
        }

        let mut instance_sets: Vec<Vec<usize>> = Vec::new();
        for &v in &members {
            // Ball membership from the (k, δ_r)-nearest list.
            let within: Vec<usize> = kn
                .list(v)
                .iter()
                .take_while(|&&(_, d)| d <= delta_i)
                .map(|&(u, _)| u as usize)
                .collect();
            let heavy = within.len() >= k;
            if heavy {
                if heavy_first[v].is_none() {
                    heavy_first[v] = Some(i);
                }
                continue; // heavy vertices are covered by A, not by L
            }
            let t_v: Vec<usize> = within
                .iter()
                .copied()
                .filter(|&u| current[u])
                .map(|u| index_of[u])
                .collect();
            if t_v.len() >= threshold {
                instance_sets.push(t_v);
            }
        }

        let selected: Vec<bool> = if members.is_empty() {
            Vec::new()
        } else {
            let chosen: Vec<usize> = match selector {
                LevelSelector::SoftHitting => {
                    let inst =
                        SoftHittingInstance::new(members.len(), threshold.max(1), instance_sets)
                            .expect("threshold-filtered sets are valid by construction");
                    soft_hitting_set(&inst, &mut phase).set
                }
                LevelSelector::PlainHitting => {
                    // Ablation: Lemma 9 must hit every set — pays the log
                    // factor the soft relaxation avoids.
                    hitting::deterministic_hitting_set(
                        members.len(),
                        threshold.max(1),
                        &instance_sets,
                        &mut phase,
                    )
                    .expect("threshold-filtered sets are valid by construction")
                }
            };
            let mut sel = vec![false; members.len()];
            for idx in chosen {
                sel[idx] = true;
            }
            sel
        };
        let mut next = vec![false; n];
        for (idx, &v) in members.iter().enumerate() {
            if selected[idx] {
                next[v] = true;
            }
        }
        s_prime.push(next);
    }

    // A: deterministic hitting set of the heavy vertices' nearest-sets
    // (universe V, sets of size k = n^{2/3} → |A| = O(n^{1/3} log n)).
    let heavy_sets: Vec<Vec<usize>> = (0..n)
        .filter_map(|v| {
            heavy_first[v].map(|i| {
                kn.list(v)
                    .iter()
                    .take_while(|&&(_, d)| d <= params.delta(i))
                    .map(|&(u, _)| u as usize)
                    .collect()
            })
        })
        .collect();
    let a: Vec<usize> = if heavy_sets.is_empty() {
        Vec::new()
    } else {
        let min_size = heavy_sets.iter().map(Vec::len).min().unwrap_or(k).max(1);
        hitting::deterministic_hitting_set(n, min_size.min(k), &heavy_sets, &mut phase)
            .expect("heavy nearest-sets are valid hitting-set input")
    };

    // Levels: Sᵢ = S'ᵢ ∪ A, so members of A sit at the top level.
    let mut levels: Vec<u8> = (0..n)
        .map(|v| {
            let mut level = 0u8;
            for (i, set) in s_prime.iter().enumerate().skip(1) {
                if set[v] {
                    level = i as u8;
                }
            }
            level
        })
        .collect();
    for &v in &a {
        levels[v] = r as u8;
    }

    clique::build_with_levels_and_kn(g, config, levels, &kn, None, basis, &mut phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EmulatorParams;
    use cc_graphs::generators;

    fn config(n: usize, eps: f64, r: usize) -> CliqueEmulatorConfig {
        CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r).unwrap())
    }

    #[test]
    fn deterministic_emulator_is_reproducible() {
        let g = generators::caveman(8, 8);
        let cfg = config(g.n(), 0.25, 2);
        let mut l1 = RoundLedger::new(g.n());
        let mut l2 = RoundLedger::new(g.n());
        let a = build(&g, &cfg, &mut BasisCache::default(), &mut l1);
        let b = build(&g, &cfg, &mut BasisCache::default(), &mut l2);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.levels, b.levels);
        assert_eq!(l1.total_rounds(), l2.total_rounds());
    }

    #[test]
    fn stretch_bound_holds_deterministically() {
        for (name, g) in [
            ("cycle", generators::cycle(64)),
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("barbell", generators::barbell(10, 20)),
        ] {
            let cfg = config(g.n(), 0.25, 2);
            let mut ledger = RoundLedger::new(g.n());
            let emu = build(&g, &cfg, &mut BasisCache::default(), &mut ledger);
            let report = emu.verify_with_bounds(
                &g,
                cfg.params.clique_multiplicative_bound(cfg.eps_prime),
                cfg.params.clique_additive_bound(cfg.eps_prime),
                cfg.params.size_bound(),
            );
            assert!(report.within_bounds, "{name}: {report:?}");
        }
    }

    #[test]
    fn size_bound_holds_always_not_just_expectation() {
        // Claim 46 bounds the size outright.
        for (name, g) in [
            ("caveman", generators::caveman(16, 8)),
            ("grid", generators::grid(12, 12)),
        ] {
            let cfg = config(g.n(), 0.25, 2);
            let mut ledger = RoundLedger::new(g.n());
            let emu = build(&g, &cfg, &mut BasisCache::default(), &mut ledger);
            assert!(
                (emu.m() as f64) <= 12.0 * cfg.params.size_bound(),
                "{name}: edges = {} vs bound {}",
                emu.m(),
                cfg.params.size_bound()
            );
        }
    }

    #[test]
    fn level_sets_shrink_geometrically() {
        let g = generators::caveman(12, 8);
        let cfg = config(g.n(), 0.25, 2);
        let mut ledger = RoundLedger::new(g.n());
        let emu = build(&g, &cfg, &mut BasisCache::default(), &mut ledger);
        let s1 = emu.level_set(1).len();
        let s0 = g.n();
        // |S₁| ≤ p₁·n·c + |A|: geometric decay with generous slack.
        assert!(s1 < s0, "S₁ did not shrink: {s1} of {s0}");
    }

    #[test]
    fn plain_hitting_ablation_is_valid_but_no_sparser() {
        // The A1 ablation: plain hitting sets still give a correct emulator
        // but cannot beat the soft-hitting size (the paper's log-factor
        // argument; at small n the gap may be modest, so only assert the
        // ordering direction and validity).
        let g = generators::caveman(12, 8);
        let cfg = config(g.n(), 0.25, 2);
        let mut l1 = RoundLedger::new(g.n());
        let soft = build_with_selector(
            &g,
            &cfg,
            LevelSelector::SoftHitting,
            &mut BasisCache::default(),
            &mut l1,
        );
        let mut l2 = RoundLedger::new(g.n());
        let plain = build_with_selector(
            &g,
            &cfg,
            LevelSelector::PlainHitting,
            &mut BasisCache::default(),
            &mut l2,
        );
        for emu in [&soft, &plain] {
            let report = emu.verify_with_bounds(
                &g,
                cfg.params.clique_multiplicative_bound(cfg.eps_prime),
                cfg.params.clique_additive_bound(cfg.eps_prime),
                cfg.params.size_bound(),
            );
            assert!(report.within_bounds, "{report:?}");
        }
        // Soft hitting selects O(N/Δ) level members; plain needs the full
        // cover. The level-1 set must not be smaller under plain selection
        // by more than noise.
        assert!(plain.level_set(1).len() + 4 >= soft.level_set(1).len());
    }

    #[test]
    fn rounds_include_soft_hitting_charges() {
        let g = generators::grid(10, 10);
        let cfg = config(g.n(), 0.25, 2);
        let mut ledger = RoundLedger::new(g.n());
        let _ = build(&g, &cfg, &mut BasisCache::default(), &mut ledger);
        // The (log log n)³-style conditional-expectation charges dominate a
        // single broadcast but stay far below poly(n).
        let total = ledger.total_rounds();
        assert!(total > 10, "rounds = {total}");
        assert!(total < 2_000, "rounds = {total}");
    }
}
