//! A1 (ablation) — why the paper invented *soft* hitting sets: building the
//! deterministic emulator's level hierarchy with plain (Lemma 9) hitting
//! sets instead of soft (Lemma 43) ones inflates the level sets — and hence
//! the emulator — by the very `log n` factor the paper set out to avoid
//! (§5, "the standard hitting set based arguments lead to a logarithmic
//! overhead in the size of the emulator").

#![forbid(unsafe_code)]

use cc_bench::{f3, Table};
use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::deterministic::{build_with_selector, LevelSelector};
use cc_emulator::EmulatorParams;
use cc_graphs::generators;
use cc_toolkit::BasisCache;

fn main() {
    let mut table = Table::new(
        "A1: deterministic emulator, soft vs plain hitting level selection",
        &[
            "graph",
            "n",
            "|S1| soft",
            "|S1| plain",
            "edges soft",
            "edges plain",
            "plain/soft",
            "both within stretch",
        ],
    );
    for n in [240usize, 504, 1008] {
        // Dense local neighborhoods are required for the hierarchy to
        // engage: the level-selection instance only contains vertices whose
        // radius-δ₀ ball holds ≥ Δ = 3/p₁ ≈ 3·n^{1/4} members of S'ᵢ.
        let clique_size = 24;
        let mut r = cc_bench::rng(n as u64);
        for (name, g) in [
            (
                "caveman-24",
                generators::caveman(n / clique_size, clique_size),
            ),
            (
                "gnp-dense",
                generators::connected_gnp(n, 24.0 / n as f64, &mut r),
            ),
        ] {
            let params = EmulatorParams::new(g.n(), 0.25, 2).expect("valid");
            let cfg = CliqueEmulatorConfig::scaled(params.clone());
            let mult = params.clique_multiplicative_bound(cfg.eps_prime);
            let add = params.clique_additive_bound(cfg.eps_prime);

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

            let ok = soft
                .verify_with_bounds(&g, mult, add, params.size_bound())
                .within_bounds
                && plain
                    .verify_with_bounds(&g, mult, add, params.size_bound())
                    .within_bounds;
            table.row(vec![
                name.to_string(),
                g.n().to_string(),
                soft.level_set(1).len().to_string(),
                plain.level_set(1).len().to_string(),
                soft.m().to_string(),
                plain.m().to_string(),
                f3(plain.m() as f64 / soft.m().max(1) as f64),
                ok.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "paper claim: plain hitting sets inflate the *hierarchy* |S'_i| by an\n\
         O(log n) factor (visible in the |S1| columns), which compounds per\n\
         level for larger r; the soft relaxation keeps |S'_i| at the sampled\n\
         rate, paying instead a bounded un-hit edge mass (Definition 42(ii),\n\
         visible as extra low-level edges at this scale). Both satisfy the\n\
         stretch and size bounds."
    );
}
