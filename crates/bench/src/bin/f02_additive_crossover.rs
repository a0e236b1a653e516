//! F2 — §4.1/4.2: the near-additive guarantee `(1+ε)d + β` approaches
//! `(1+ε)` as `d` grows, crossing below the multiplicative `(2+ε)` line once
//! `d > β/(1−ε)` — the paper's answer to its Question 2.
//!
//! On a long cycle (diameter `n/2`), bucket the measured approximation
//! ratio of the (1+ε, β)-APSP by true distance and compare with the
//! `(2+ε)`-line and with a Baswana–Sen 3-spanner baseline.

#![forbid(unsafe_code)]

use cc_bench::{f3, session, Table};
use cc_core::Execution;
use cc_graphs::{bfs, generators, stretch};

fn main() {
    let eps = 0.25;
    let n = 512;
    let g = generators::cycle(n);
    let exact = bfs::apsp_exact(&g);
    let mut solver = session(&g, eps, Execution::Seeded(2));
    let additive = solver.apsp_near_additive().expect("additive");

    // A genuinely multiplicative comparator: a (2k−1)-spanner with k = 2 on
    // a denser graph would show stretch ≈ 3; on the cycle the relevant
    // comparison is the analytic (2+eps) line.
    let ab = stretch::bucketed_profile(&exact, additive.estimates.as_fn());
    let mut table = Table::new(
        "F2: (1+eps, beta)-APSP ratio by distance (cycle n=512, eps=0.25)",
        &[
            "d in",
            "pairs",
            "measured mean",
            "measured max",
            "additive bound @d_lo",
            "(2+eps) line",
        ],
    );
    let beta = additive.additive_bound;
    let m = additive.multiplicative_bound;
    for a in ab.iter() {
        if a.pairs == 0 {
            continue;
        }
        // The proven ratio bound at distance d: (1+epŝ) + beta/d — report it
        // at the bucket's lower end.
        let bound = m + beta / a.lo as f64;
        table.row(vec![
            format!("[{},{}]", a.lo, a.hi),
            a.pairs.to_string(),
            f3(a.mean_ratio),
            f3(a.max_ratio),
            f3(bound),
            f3(2.0 + eps),
        ]);
    }
    table.print();
    // The empirical crossover: smallest d from which every later bucket's
    // max ratio stays below the (2+eps) line.
    let mut crossover = None;
    for (i, b) in ab.iter().enumerate() {
        if b.pairs == 0 {
            continue;
        }
        if ab[i..]
            .iter()
            .all(|c| c.pairs == 0 || c.max_ratio <= 2.0 + eps)
        {
            crossover = Some(b.lo);
            break;
        }
    }
    println!(
        "empirical crossover (max ratio <= 2+eps from here on) at d >= {:?}.\n\
         paper claim: near-additive beats any multiplicative guarantee for\n\
         long distances — the measured ratio column must decrease toward 1+eps.",
        crossover
    );
    println!("rounds: {}", solver.total_rounds());
}
