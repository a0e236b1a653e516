//! T7 — Thm 12: bounded (β, ε, t)-hopsets — `O(n^{3/2} log n)` edges,
//! `β = O(log t/ε)`, `O(log²t/ε)` rounds, verified stretch ≤ 1+ε.

#![forbid(unsafe_code)]

use cc_bench::{f3, rng, Table};
use cc_clique::RoundLedger;
use cc_graphs::generators;
use cc_toolkit::hopset::{self, BasisCache, HopsetParams};

fn main() {
    let n = 512;
    let eps = 0.5;
    let mut table = Table::new(
        "T7: bounded hopsets (Thm 12), cycle n=512, eps = 0.5",
        &[
            "t",
            "profile",
            "edges",
            "edge bound",
            "beta",
            "worst ratio",
            "guar",
            "rounds",
        ],
    );
    let g = generators::cycle(n);
    let bound = (4.0 * (n as f64).powf(1.5) * (n as f64).ln()) as u64;
    for t in [8u32, 32, 128] {
        for (profile, params) in [
            ("paper", HopsetParams::paper(n, t, eps)),
            ("scaled", HopsetParams::scaled(n, t, eps)),
        ] {
            let mut r = rng(t as u64);
            let mut ledger = RoundLedger::new(n);
            let hs = hopset::build_randomized(
                &g,
                params,
                &mut r,
                &mut BasisCache::default(),
                &mut ledger,
            );
            let samples: Vec<usize> = (0..n).step_by(23).collect();
            let worst = hs.verify_from(&g, &samples);
            table.row(vec![
                t.to_string(),
                profile.to_string(),
                (hs.union.m() - g.m()).to_string(),
                bound.to_string(),
                hs.beta.to_string(),
                f3(worst),
                f3(1.0 + eps),
                ledger.total_rounds().to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "paper claim: beta-hop distances in G ∪ H (1+eps)-approximate all\n\
         pairs within t; rounds grow as log^2 t; size stays under\n\
         O(n^(3/2) log n). The scaled profile shows the same shape at a\n\
         quarter of the hop budget."
    );
}
