//! `solve-gnp` and `solve-grid`: repeated solver sessions on one graph.
//!
//! One session is the user's whole job: build a solver, run
//! `apsp_2eps` → `apsp_near_additive` → `mssp` → freeze, then (untimed)
//! check every answer against exact BFS distances and its guarantee.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cc_clique::RoundLedger;
use cc_core::apsp2::Apsp2Config;
use cc_core::{DistOracle, Execution, ParamProfile, PathOracle, Solver, SolverBuilder};
use cc_graphs::{bfs, generators, Dist, Graph};
use cc_toolkit::{KNearest, Strategy};
use rand::SeedableRng;

use crate::check::{Stretch, Tally};
use crate::report::{median, Report};
use crate::trace::Tracer;

/// The solver settings every session uses.
const EPS: f64 = 0.5;
const THREADS: usize = 2;
/// Frozen-oracle lookups per timed batch, as `ccd` clients send them.
const DIST_BATCH: usize = 64;
const PATH_BATCH: usize = 16;
/// Routes checked edge by edge per session (seeded sample).
const ROUTE_SAMPLES: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Connected G(n, p), n = 2048, p = 10/n, drawn from the seed.
    Gnp,
    /// 48 × 48 grid with path recording; no random input.
    Grid,
}

impl Family {
    fn records_paths(self) -> bool {
        self == Family::Grid
    }

    fn generate(self, seed: u64) -> Graph {
        match self {
            Family::Gnp => {
                let n = 2048;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                generators::connected_gnp(n, 10.0 / n as f64, &mut rng)
            }
            Family::Grid => generators::grid(48, 48),
        }
    }
}

/// The session configuration shared by every workload.
pub fn builder(g: Graph, record_paths: bool, profile_stages: bool) -> SolverBuilder {
    SolverBuilder::new(g)
        .eps(EPS)
        .execution(Execution::Deterministic)
        .profile(ParamProfile::Scaled)
        .threads(THREADS)
        .record_paths(record_paths)
        .profile_stages(profile_stages)
}

/// ⌊√n⌋ evenly spaced MSSP sources.
fn sources(n: usize) -> Vec<usize> {
    let k = n.isqrt();
    (0..k).map(|i| i * n / k).collect()
}

enum Frozen {
    Dist(DistOracle),
    Paths(PathOracle),
}

impl Frozen {
    fn dist_oracle(&self) -> &DistOracle {
        match self {
            Frozen::Dist(o) => o,
            Frozen::Paths(p) => p.dist_oracle(),
        }
    }
}

/// What one session measured.
struct Session {
    traced: bool,
    setup: Duration,
    solve: Duration,
    freeze: Duration,
    rounds: u64,
    tally: Tally,
    stretch: Stretch,
    /// Per-layer values (traced sessions only).
    layers: BTreeMap<&'static str, f64>,
}

fn stage_ns(solver: &Solver) -> BTreeMap<&'static str, u64> {
    solver
        .stage_times()
        .into_iter()
        .map(|(name, stat)| (name, stat.total_ns))
        .collect()
}

/// Stages the solver profiles inside a query call.
const INNER_STAGES: [&str; 4] = [
    "emulator_build",
    "hopset_build",
    "hitting_sets",
    "minplus_products",
];

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The per-layer values a profiled session exposes: stage wall time from
/// `Solver::stage_times`, rounds per phase and messages from the ledger,
/// and the emulator's size.
pub fn solver_layers(solver: &Solver, emulator_edges: usize) -> Vec<(&'static str, f64)> {
    let stages = stage_ns(solver);
    let stage = |name: &str| secs(stages.get(name).copied().unwrap_or(0));
    let phases = solver.ledger().by_phase();
    let rounds = |phase: &str| phases.get(phase).copied().unwrap_or(0) as f64;
    vec![
        ("emulator.build_s", stage("emulator_build")),
        ("emulator.edges", emulator_edges as f64),
        ("toolkit.hopset_s", stage("hopset_build")),
        ("derand.hitting_sets_s", stage("hitting_sets")),
        ("matrix.minplus_s", stage("minplus_products")),
        ("clique.rounds.apsp2", rounds("apsp2")),
        ("clique.rounds.apsp-additive", rounds("apsp-additive")),
        ("clique.rounds.mssp", rounds("mssp")),
        (
            "clique.messages_total",
            solver.ledger().total_messages() as f64,
        ),
    ]
}

fn session(
    family: Family,
    seed: u64,
    idx: u64,
    exact: &[Vec<Dist>],
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let traced = tracer.is_on();
    let mut layers = BTreeMap::new();
    let root = tracer.enter("session", idx);

    let setup_span = tracer.enter("setup", idx);
    let (g, generate) = tracer.time("graphs.generate", idx, || family.generate(seed));
    let (solver, build) = tracer.time("core.build", idx, || {
        builder(g, family.records_paths(), traced).build()
    });
    let mut solver = solver.map_err(|e| format!("build: {e}"))?;
    let setup = tracer.exit(setup_span);

    let n = solver.n();
    let srcs = sources(n);
    let solve_span = tracer.enter("solve", idx);
    let stages_before = stage_ns(&solver);
    let (apsp2, apsp2_d) = tracer.time("core.apsp2", idx, || solver.apsp_2eps());
    let stages_apsp2 = stage_ns(&solver);
    let (additive, additive_d) = tracer.time("core.additive", idx, || solver.apsp_near_additive());
    let (mssp, mssp_d) = tracer.time("core.mssp", idx, || solver.mssp(&srcs));
    let (frozen, freeze) = tracer.time("core.freeze", idx, || match family {
        Family::Gnp => solver.freeze().map(Frozen::Dist),
        Family::Grid => solver.freeze_with_paths().map(Frozen::Paths),
    });
    let solve = tracer.exit(solve_span);
    let (apsp2, additive, mssp, frozen) = (
        apsp2.map_err(|e| format!("apsp_2eps: {e}"))?,
        additive.map_err(|e| format!("apsp_near_additive: {e}"))?,
        mssp.map_err(|e| format!("mssp: {e}"))?,
        frozen.map_err(|e| format!("freeze: {e}"))?,
    );

    // ── Check (untimed). ──────────────────────────────────────────────────
    let check_span = tracer.enter("check", idx);
    let mut tally = Tally::default();
    tally.matrix(&apsp2.estimates, exact, &apsp2.guarantee());
    tally.matrix(&additive.estimates, exact, &additive.guarantee());
    tally.rows(&mssp.sources, &mssp.estimates, exact, &mssp.guarantee_tag());
    let oracle = frozen.dist_oracle();
    let mut pairs = Vec::with_capacity(DIST_BATCH);
    let (mut lookup, mut batches) = (Duration::ZERO, 0u32);
    for u in 0..n {
        for v in 0..n {
            pairs.push((u, v));
            if pairs.len() == DIST_BATCH || (u, v) == (n - 1, n - 1) {
                let started = Instant::now();
                let answers = oracle.dist_batch(&pairs);
                lookup += started.elapsed();
                batches += 1;
                tally.answers(&pairs, &answers, exact);
                pairs.clear();
            }
        }
    }
    layers.insert(
        "oracle.dist_batch_us",
        lookup.as_secs_f64() * 1e6 / f64::from(batches),
    );
    if let Frozen::Paths(paths) = &frozen {
        let sample = crate::pairs(seed ^ idx, n, ROUTE_SAMPLES);
        for &(u, v) in &sample {
            tally.route(
                solver.graph(),
                exact[u as usize][v as usize],
                u as usize,
                v as usize,
                paths,
            );
        }
        let (mut emit, mut batches) = (Duration::ZERO, 0u32);
        for chunk in sample.chunks(PATH_BATCH) {
            let upairs = crate::widen(chunk);
            let started = Instant::now();
            std::hint::black_box(paths.path_batch(&upairs));
            emit += started.elapsed();
            batches += 1;
        }
        layers.insert(
            "routes.path_batch_us",
            emit.as_secs_f64() * 1e6 / f64::from(batches),
        );
        layers.insert("routes.witness_bytes", paths.witness_bytes() as f64);
    }
    let stretch = Stretch::of_matrix(&apsp2.estimates, exact);
    tracer.exit(check_span);

    if traced {
        // The (k, t)-nearest lists of the low-degree subgraph G' that
        // `apsp_2eps` builds, computed directly with the session's k and t.
        let cfg = Apsp2Config::scaled(n, EPS).map_err(|e| format!("apsp2 config: {e}"))?;
        let gp = solver
            .graph()
            .low_degree_subgraph(cfg.high_degree_threshold);
        let (_, knearest) = tracer.time("toolkit.knearest", idx, || {
            KNearest::compute_with(
                &gp,
                cfg.k,
                cfg.threshold(),
                Strategy::TruncatedBfs,
                THREADS,
                &mut RoundLedger::new(n),
            )
        });
        let inner_apsp2: u64 = INNER_STAGES
            .iter()
            .map(|s| stages_apsp2.get(s).unwrap_or(&0) - stages_before.get(s).unwrap_or(&0))
            .sum();
        layers.extend(solver_layers(&solver, additive.emulator.m()));
        layers.extend([
            ("graphs.generate_s", generate.as_secs_f64()),
            ("core.build_s", build.as_secs_f64()),
            ("core.apsp2_s", apsp2_d.as_secs_f64()),
            ("core.additive_s", additive_d.as_secs_f64()),
            ("core.mssp_s", mssp_d.as_secs_f64()),
            ("core.freeze_s", freeze.as_secs_f64()),
            (
                "core.apsp2_other_s",
                apsp2_d.as_secs_f64() - secs(inner_apsp2),
            ),
            ("toolkit.knearest_s", knearest.as_secs_f64()),
            ("core.oracle_bytes", oracle.storage_bytes() as f64),
        ]);
        tracer.note("profile_exposition", solver.profile_exposition());
        tracer.note("ledger", solver.ledger().report());
    }
    tracer.exit(root);
    Ok(Session {
        traced,
        setup,
        solve,
        freeze,
        rounds: solver.total_rounds(),
        tally,
        stretch,
        layers,
    })
}

/// Runs sessions for `seconds` (at least one; a traced run alternates
/// untraced and traced sessions and runs at least one of each).
pub fn run(family: Family, seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let trace_mode = tracer.is_on();
    let (graph, _) = tracer.time("graphs.generate", u64::MAX, || family.generate(seed));
    let (exact, reference) = tracer.time("graphs.reference", u64::MAX, || bfs::apsp_exact(&graph));
    report.detail("n", graph.n().to_string());
    report.detail("m", graph.m().to_string());
    drop(graph);

    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut errors = Vec::new();
    let mut idx = 0u64;
    loop {
        let have_plain = sessions.iter().any(|s| !s.traced);
        let have_traced = sessions.iter().any(|s| s.traced);
        let enough = have_plain && (!trace_mode || have_traced);
        // Out of time: stop once the run has what it reports, or once a
        // session has failed (a failing kind would never arrive).
        if started.elapsed().as_secs_f64() >= seconds && (enough || !errors.is_empty()) {
            break;
        }
        if idx >= 3 && sessions.is_empty() {
            break;
        }
        tracer.set_on(trace_mode && idx % 2 == 1);
        match session(family, seed, idx, &exact, tracer) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                tracer.close_all();
                errors.push(e);
            }
        }
        idx += 1;
    }
    tracer.set_on(trace_mode);

    report.attempted = idx;
    let Some(first) = sessions.first() else {
        report.failed = idx;
        report.detail("errors", crate::report::json_str(&errors.join("; ")));
        return;
    };
    // Rounds and stretch are deterministic: a session that disagrees with
    // the first is as wrong as one that broke a guarantee.
    let ok = |s: &Session| {
        s.tally.violations == 0
            && s.rounds == first.rounds
            && s.stretch.max == first.stretch.max
            && s.stretch.mean() == first.stretch.mean()
    };
    let ok_sessions = sessions.iter().filter(|s| ok(s)).count() as u64;
    report.failed = idx - ok_sessions;
    let violations: u64 = sessions.iter().map(|s| s.tally.violations).sum();
    let checked: u64 = sessions.iter().map(|s| s.tally.checked).sum();

    let plain: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    if plain.is_empty() {
        report.detail("errors", crate::report::json_str(&errors.join("; ")));
        return;
    }
    let solve_s: Vec<f64> = plain.iter().map(|s| s.solve.as_secs_f64()).collect();
    let setup_s: Vec<f64> = plain.iter().map(|s| s.setup.as_secs_f64()).collect();
    let freeze_s: Vec<f64> = plain.iter().map(|s| s.freeze.as_secs_f64()).collect();
    report.set("setup_s", median(&setup_s));
    report.set("latency_p50_ms", median(&solve_s) * 1e3);
    report.set("rounds_total", first.rounds as f64);
    report.set("stretch_max", first.stretch.max);
    report.set("stretch_mean", first.stretch.mean());
    report.set("ok_rate", ok_sessions as f64 / idx as f64);

    report.detail("sessions", plain.len().to_string());
    report.detail("solve_s", format!("{solve_s:?}"));
    report.detail("setup_s", format!("{setup_s:?}"));
    report.detail("freeze_s", format!("{freeze_s:?}"));
    report.detail("checked_answers", checked.to_string());
    report.detail("violations", violations.to_string());
    if !errors.is_empty() {
        report.detail("errors", crate::report::json_str(&errors.join("; ")));
    }

    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    if let Some(first_traced) = traced.first() {
        report.detail("traced_sessions", traced.len().to_string());
        let names: Vec<&'static str> = first_traced.layers.keys().copied().collect();
        for name in names {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|s| s.layers.get(name).copied())
                .collect();
            report.set(name, median(&values));
        }
        report.set("graphs.reference_s", reference.as_secs_f64());
        report.set("check.violations", violations as f64);
        let traced_solve: Vec<f64> = traced.iter().map(|s| s.solve.as_secs_f64()).collect();
        let plain_solve = median(&solve_s);
        report.set(
            "trace.overhead_share",
            median(&traced_solve) / plain_solve - 1.0,
        );
        let span_sums: Vec<f64> = traced
            .iter()
            .map(|s| {
                [
                    "core.apsp2_s",
                    "core.additive_s",
                    "core.mssp_s",
                    "core.freeze_s",
                ]
                .iter()
                .map(|k| s.layers[k])
                .sum()
            })
            .collect();
        report.set("trace.span_sum_share", median(&span_sums) / plain_solve);
    }
}
