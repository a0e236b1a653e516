//! A2 (ablation) — why the clique emulator splits vertices at ball size
//! `n^{2/3}` (§3.5): the `(k,d)`-nearest width `k` is the knob.
//!
//! * `k = n^{2/3}` (paper): the `k/n^{2/3}` term of Thm 10 is 1 — cheap —
//!   and heavy vertices fall back to the `S_r` hitting argument.
//! * `k = n` ("learn the whole ball"): every ball is known exactly, no
//!   heavy/light split needed — but the `(k,d)`-nearest cost explodes by
//!   the `k/n^{2/3} = n^{1/3}` factor.
//! * `k = n^{1/3}` (too small): cheap, but many vertices become "heavy" and
//!   depend on the top-level fallback; correctness still holds, edges may
//!   inflate.

#![forbid(unsafe_code)]

use cc_bench::{f3, rng, Table};
use cc_clique::RoundLedger;
use cc_emulator::clique::{self, CliqueEmulatorConfig};
use cc_emulator::EmulatorParams;
use cc_graphs::generators;
use cc_toolkit::BasisCache;

fn main() {
    let mut table = Table::new(
        "A2: clique emulator vs (k,d)-nearest width k (caveman graphs)",
        &["n", "k", "k label", "edges", "rounds", "within stretch"],
    );
    for n in [512usize, 1024] {
        let g = generators::caveman(n / 8, 8);
        let nn = g.n();
        let params = EmulatorParams::new(nn, 0.25, 2).expect("valid");
        let k_paper = (nn as f64).powf(2.0 / 3.0).ceil() as usize;
        let k_small = (nn as f64).powf(1.0 / 3.0).ceil() as usize;
        for (label, k) in [
            ("n^(2/3) paper", k_paper),
            ("n full", nn),
            ("n^(1/3) small", k_small),
        ] {
            let mut cfg = CliqueEmulatorConfig::scaled(params.clone());
            cfg.k = k;
            let mut r = rng(nn as u64);
            let mut ledger = RoundLedger::new(nn);
            let emu = clique::build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut ledger);
            let report = emu.verify_with_bounds(
                &g,
                params.clique_multiplicative_bound(cfg.eps_prime),
                params.clique_additive_bound(cfg.eps_prime),
                params.size_bound(),
            );
            table.row(vec![
                nn.to_string(),
                k.to_string(),
                label.to_string(),
                emu.m().to_string(),
                ledger.total_rounds().to_string(),
                report.within_bounds.to_string(),
            ]);
            let _ = f3(0.0);
        }
    }
    table.print();
    println!(
        "paper claim: k = n^(2/3) balances the (k,d)-nearest round cost\n\
         against ball coverage; larger k wastes rounds on the k/n^(2/3)\n\
         term, smaller k leans on the heavy-vertex fallback."
    );
}
