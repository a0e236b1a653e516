//! The deterministic pipeline (§5): soft hitting sets, deterministic
//! emulator, deterministic (2+ε)-APSP — bit-for-bit reproducible.
//!
//! Run with: `cargo run --release --example deterministic_pipeline`

use congested_clique::derand::soft_hitting::{soft_hitting_set, SoftHittingInstance};
use congested_clique::emulator::deterministic;
use congested_clique::prelude::*;
use congested_clique::toolkit::BasisCache;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The derandomization primitive: a soft hitting set (Definition 42).
    let universe = 512;
    let delta = 16;
    let sets: Vec<Vec<usize>> = (0..160)
        .map(|i| {
            (0..delta + i % 8)
                .map(|j| (i * 13 + j * 29) % universe)
                .collect::<Vec<_>>()
        })
        .map(|mut s| {
            s.sort_unstable();
            s.dedup();
            while s.len() < delta {
                let c = (s.last().copied().unwrap_or(0) + 1) % universe;
                if !s.contains(&c) {
                    s.push(c);
                    s.sort_unstable();
                }
            }
            s
        })
        .collect();
    let inst = SoftHittingInstance::new(universe, delta, sets)?;
    let mut ledger = RoundLedger::new(universe);
    let z = soft_hitting_set(&inst, &mut ledger);
    println!(
        "soft hitting set: |Z| = {} (≤ 3N/Δ = {}), un-hit mass = {} (≤ 3Δ|L| = {})",
        z.set.len(),
        3 * universe / delta,
        z.unhit_mass,
        3 * delta * inst.sets().len()
    );
    assert!(z.verify(&inst, 3.0));

    // 2. The deterministic emulator (Thm 50): no RNG anywhere.
    let g = generators::caveman(10, 8);
    let cfg = CliqueEmulatorConfig::scaled(EmulatorParams::new(g.n(), 0.25, 2)?);
    let mut l1 = RoundLedger::new(g.n());
    let emu1 = deterministic::build(&g, &cfg, &mut BasisCache::default(), &mut l1);
    let mut l2 = RoundLedger::new(g.n());
    let emu2 = deterministic::build(&g, &cfg, &mut BasisCache::default(), &mut l2);
    assert_eq!(emu1.graph, emu2.graph, "deterministic build must reproduce");
    println!(
        "\ndeterministic emulator: {} edges (bound ~ r·n^(1+1/2^r) = {:.0}), rounds = {}",
        emu1.m(),
        cfg.params.size_bound(),
        l1.total_rounds()
    );

    // 3. Deterministic (2+ε)-APSP (Thm 53) through a deterministic Solver
    //    session: two sessions must agree bit-for-bit.
    let mut solver = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Deterministic)
        .build()?;
    let out = solver.apsp_2eps()?;
    let mut solver2 = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Deterministic)
        .build()?;
    assert_eq!(
        out.estimates,
        solver2.apsp_2eps()?.estimates,
        "deterministic sessions must reproduce"
    );
    let exact = bfs::apsp_exact(&g);
    let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
    println!(
        "deterministic (2+eps)-APSP: max stretch {:.3} (guarantee {:.1}), rounds = {}",
        report.max_multiplicative,
        out.short_range_guarantee,
        solver.total_rounds()
    );
    assert!(report.max_multiplicative <= out.short_range_guarantee);

    // 4. Persist the solved session: freeze → snapshot → reload. The
    //    snapshot is a versioned little-endian binary format (DESIGN.md
    //    §9.2), so a fresh process can serve the estimates without
    //    re-running a single round of the pipeline.
    let oracle = solver.freeze()?;
    let path = std::env::temp_dir().join("deterministic_pipeline_oracle.snap");
    oracle.save_v2_to_path(&path)?;
    let served = DistOracle::load_from_path(&path)?;
    let snapshot_bytes = std::fs::metadata(&path)?.len();
    std::fs::remove_file(&path).ok();
    assert_eq!(served, oracle, "snapshot round trip must be bit-identical");
    let probe = served.dist(0, g.n() - 1).expect("frozen estimate");
    println!(
        "\nsnapshot: {snapshot_bytes} bytes ({} layout); reloaded oracle answers \
         d(0, {}) = {} under {}",
        served.storage_kind().label(),
        g.n() - 1,
        probe.dist,
        probe.guarantee
    );
    Ok(())
}
