//! T4 — the emulator theorems (Thm 24 / 29 / 31): size `O(r·n^{1+1/2^r})`,
//! stretch `(1+ε, β)`, rounds `O(log²β/ε)`.

#![forbid(unsafe_code)]

use cc_bench::{f2, f3, rng, Table};
use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::{ideal, whp, EmulatorParams};
use cc_graphs::generators;
use cc_toolkit::BasisCache;

fn main() {
    let eps = 0.25;
    let mut table = Table::new(
        "T4: emulator size / stretch / rounds (Thm 24, 29, 31)",
        &[
            "graph",
            "n",
            "r",
            "edges",
            "size/bound",
            "max add err",
            "beta bound",
            "max ratio",
            "rounds",
            "ok",
        ],
    );
    for n in [256usize, 512, 1024] {
        let mut r = rng(7 + n as u64);
        let side = (n as f64).sqrt().round() as usize;
        for (name, g) in [
            ("gnp", generators::connected_gnp(n, 6.0 / n as f64, &mut r)),
            ("grid", generators::grid(side, side)),
            ("caveman", generators::caveman(n / 8, 8)),
        ] {
            let params = EmulatorParams::new(g.n(), eps, 2).expect("valid");
            let cfg = CliqueEmulatorConfig::scaled(params.clone());
            let mut ledger = RoundLedger::new(g.n());
            let (emu, _) = whp::build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut ledger);
            let report = emu.verify_with_bounds(
                &g,
                params.clique_multiplicative_bound(cfg.eps_prime),
                params.clique_additive_bound(cfg.eps_prime),
                params.size_bound(),
            );
            table.row(vec![
                name.to_string(),
                g.n().to_string(),
                params.r().to_string(),
                report.edges.to_string(),
                f3(report.size_ratio()),
                f2(report.max_additive_error),
                f2(report.additive_bound),
                f3(report.max_ratio),
                ledger.total_rounds().to_string(),
                report.within_bounds.to_string(),
            ]);
        }
    }
    table.print();

    // Ideal construction: expected-size across seeds (Thm 24 is an
    // expectation bound).
    let g = generators::caveman(64, 8);
    let params = EmulatorParams::new(g.n(), eps, 2).expect("valid");
    let runs = 8;
    let total: usize = (0..runs)
        .map(|s| ideal::build(&g, &params, &mut rng(s)).m())
        .sum();
    println!(
        "ideal construction, caveman n=512: mean edges over {runs} seeds = {:.0} (bound r*n^(1+1/2^r) = {:.0})",
        total as f64 / runs as f64,
        params.size_bound()
    );
    println!("paper claim: edges = O(r n^{{1+1/2^r}}), stretch (1+eps, beta), rounds O(log^2 beta / eps).");
}
