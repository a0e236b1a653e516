//! T2 — Thm 4/34: (2+ε)-APSP in Õ((log log n)²) rounds, with the (3+ε)
//! warm-up pipeline for comparison.

#![forbid(unsafe_code)]

use cc_bench::{f3, rng, session, Table};
use cc_core::Execution;
use cc_graphs::{bfs, generators, stretch};

fn main() {
    let eps = 0.5;
    let mut table = Table::new(
        "T2: (2+eps)-APSP vs the (3+eps) warm-up (Thm 4/34), eps = 0.5",
        &[
            "graph",
            "n",
            "max str 2+e",
            "mean str 2+e",
            "rounds 2+e",
            "max str 3+e",
            "rounds 3+e",
            "ok",
        ],
    );
    for n in [256usize, 400] {
        let mut r = rng(3 + n as u64);
        let side = (n as f64).sqrt().round() as usize;
        for (name, g) in [
            ("gnp", generators::connected_gnp(n, 6.0 / n as f64, &mut r)),
            ("grid", generators::grid(side, side)),
            ("caveman", generators::caveman(n / 8, 8)),
        ] {
            let nn = g.n();
            let exact = bfs::apsp_exact(&g);

            let execution = Execution::Seeded(3 + n as u64);
            let mut s2 = session(&g, eps, execution);
            let out2 = s2.apsp_2eps().expect("apsp2");
            let rep2 = stretch::evaluate_range(&exact, out2.estimates.as_fn(), 0.0, 1, out2.t);

            let mut s3 = session(&g, eps, execution);
            let out3 = s3.apsp_3eps().expect("apsp3");
            let rep3 = stretch::evaluate_range(&exact, out3.estimates.as_fn(), 0.0, 1, out3.t);

            let ok = rep2.lower_violations == 0
                && rep2.max_multiplicative <= out2.short_range_guarantee + 1e-9
                && rep3.max_multiplicative <= out3.short_range_guarantee + 1e-9;
            table.row(vec![
                name.to_string(),
                nn.to_string(),
                f3(rep2.max_multiplicative),
                f3(rep2.mean_multiplicative),
                s2.total_rounds().to_string(),
                f3(rep3.max_multiplicative),
                s3.total_rounds().to_string(),
                ok.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "paper claim: stretch <= 2+eps for pairs within t (here: all pairs,\n\
         since diameters < t); the (3+eps) warm-up is measurably worse on\n\
         dense-cluster graphs while the refined pipeline stays within 2+eps."
    );
}
