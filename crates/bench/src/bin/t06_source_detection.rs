//! T6 — Thm 11: (S,d)-source detection in
//! `O((m^{1/3}|S|^{2/3}/n + 1)·d)` rounds — linear in `d`, which is why the
//! paper pairs it with hopsets.

#![forbid(unsafe_code)]

use cc_bench::{rng, Table};
use cc_clique::RoundLedger;
use cc_graphs::{generators, WeightedGraph};
use cc_toolkit::source_detection::SourceDetection;

fn main() {
    let n = 1024;
    let mut r = rng(6);
    let g = generators::connected_gnp(n, 8.0 / n as f64, &mut r);
    let wg = WeightedGraph::from_unweighted(&g);
    let mut table = Table::new(
        "T6: (S,d)-source detection rounds (Thm 11), gnp n=1024 m~4096",
        &["|S|", "d", "rounds", "rounds/d"],
    );
    for s_count in [8usize, 32, 128] {
        let sources: Vec<usize> = (0..n).step_by(n / s_count).take(s_count).collect();
        for d in [4usize, 16, 64] {
            let mut ledger = RoundLedger::new(n);
            let _ = SourceDetection::run(&wg, &sources, d, 1, &mut ledger);
            let rounds = ledger.total_rounds();
            table.row(vec![
                s_count.to_string(),
                d.to_string(),
                rounds.to_string(),
                format!("{:.2}", rounds as f64 / d as f64),
            ]);
        }
    }
    table.print();
    println!(
        "paper claim: rounds/d is constant in d (linear dependence) and grows\n\
         with |S|^(2/3); with |S| = O(sqrt n) on a sparse graph the per-hop\n\
         cost is O(1)."
    );
}
