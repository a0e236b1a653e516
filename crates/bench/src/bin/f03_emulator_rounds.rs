//! F3 — Thm 29 vs the non-distance-sensitive route: emulator construction
//! rounds grow as `poly(log log n)`, the CHKL19-style hopset pipeline as
//! `poly(log n)`.

#![forbid(unsafe_code)]

use cc_bench::{f2, rng, Table};
use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::{whp, EmulatorParams};
use cc_graphs::generators;
use cc_toolkit::hopset::{self, BasisCache, HopsetParams};

fn main() {
    let eps = 0.25;
    let mut table = Table::new(
        "F3: emulator rounds (Thm 29) vs unbounded-hopset pipeline",
        &[
            "n",
            "delta_r",
            "emulator rounds",
            "t=n hopset rounds",
            "log^2(delta_r)",
            "log^2(n)",
        ],
    );
    for n in [256usize, 512, 1024, 2048] {
        let mut r = rng(n as u64);
        let g = generators::connected_gnp(n, 6.0 / n as f64, &mut r);
        let params = EmulatorParams::new(n, eps, 2).expect("valid");
        let cfg = CliqueEmulatorConfig::scaled(params.clone());
        let mut le = RoundLedger::new(n);
        let _ = whp::build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut le);

        // The same hopset primitive *without* the distance bound (t = n):
        // what a non-distance-sensitive pipeline pays.
        let mut lh = RoundLedger::new(n);
        let hp = HopsetParams::scaled(n, n as u32, eps);
        let _ = hopset::build_randomized(&g, hp, &mut r, &mut BasisCache::default(), &mut lh);

        let dr = params.delta(2) as f64;
        table.row(vec![
            n.to_string(),
            params.delta(2).to_string(),
            le.total_rounds().to_string(),
            lh.total_rounds().to_string(),
            f2(dr.log2().powi(2)),
            f2((n as f64).log2().powi(2)),
        ]);
    }
    table.print();
    println!(
        "paper claim: the emulator's round count tracks log^2(delta_r) —\n\
         independent of n for fixed (eps, r) — while the unbounded pipeline\n\
         tracks log^2(n) and keeps growing."
    );
}
