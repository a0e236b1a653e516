//! The §3.5 Congested Clique implementation of the emulator.
//!
//! The ideal construction (§3.2) lets every vertex inspect its exact
//! `δᵢ`-ball, which a clique algorithm cannot afford when balls are dense.
//! The implementation therefore splits vertices by ball population:
//!
//! * **light** (`|B(v, δ_{i_v})| ≤ n^{2/3}`): the `(k,d)`-nearest computation
//!   with `k = n^{2/3}`, `d = δ_r` reveals the whole ball — proceed exactly
//!   as in §3.2 (Claim 26);
//! * **heavy**: the ball contains ≥ `n^{2/3}` vertices, so w.h.p. it contains
//!   a top-level (`S_r`) vertex (Claim 25); since `S_r ⊆ S_{i+1}` the vertex
//!   is *i-dense* and only needs its closest `S_{i+1}` vertex, which is
//!   within its `(k,d)`-nearest list;
//! * **top level** (`v ∈ S_r`): all of `S_r` must be interconnected within
//!   distance `δ_r`. A bounded `(β, ε', δ_r)`-hopset plus one
//!   `(S_r, β)`-source detection yields `(1+ε')`-approximate weights
//!   (Claim 27).
//!
//! Total: `O(log²δ_r / ε')` rounds (Lemma 28).

use cc_clique::RoundLedger;
use cc_graphs::{Dist, Graph, WeightedGraph};
use cc_toolkit::hopset::{self, BasisCache, HopsetParams};
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use rand::{Rng, RngCore};

use crate::emulator::Emulator;
use crate::params::EmulatorParams;

/// Configuration of the Congested Clique emulator construction.
#[derive(Clone, Debug)]
pub struct CliqueEmulatorConfig {
    /// The emulator parameter schedule.
    pub params: EmulatorParams,
    /// Approximation `ε'` used for the top-level (`S_r × S_r`) edge weights
    /// (Appendix C.3 sets `ε' = 20ε(r−1)`, clamped below 1 here).
    pub eps_prime: f64,
    /// The `(k,d)`-nearest width (paper: `n^{2/3}`).
    pub k: usize,
    /// Use the benchmark-scale hopset profile
    /// ([`HopsetParams::scaled`]) for the top-level stage instead of the
    /// paper-constant one.
    pub scaled_hopset: bool,
    /// Worker threads for the local `(k,d)`-nearest and hopset computations
    /// (`0` and `1` both mean serial). Purely wall-clock: the constructed
    /// emulator and the rounds charged are identical at any thread count.
    pub threads: usize,
    /// Record per-edge provenance ([`Emulator::routes`]) so every emulator
    /// edge unrolls into a real walk in `G`. Purely local witness
    /// bookkeeping: the constructed edges and the rounds charged are
    /// identical with or without it.
    pub record_paths: bool,
}

impl CliqueEmulatorConfig {
    /// The paper's configuration: `k = ⌈n^{2/3}⌉` and
    /// `ε' = min(20ε(r−1), 0.9)`.
    pub fn paper(params: EmulatorParams) -> Self {
        let n = params.n();
        let k = ((n as f64).powf(2.0 / 3.0).ceil() as usize).clamp(1, n);
        let eps_prime = (20.0 * params.eps() * (params.r() as f64 - 1.0)).clamp(0.05, 0.9);
        CliqueEmulatorConfig {
            params,
            eps_prime,
            k,
            scaled_hopset: false,
            threads: 1,
            record_paths: false,
        }
    }

    /// Returns the configuration with the worker-thread count set.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the configuration with per-edge path recording switched on or
    /// off.
    #[must_use]
    pub fn with_paths(mut self, record_paths: bool) -> Self {
        self.record_paths = record_paths;
        self
    }

    /// Benchmark-scale configuration: same exponents, tempered hopset
    /// constants (see `DESIGN.md` §6).
    pub fn scaled(params: EmulatorParams) -> Self {
        let mut c = Self::paper(params);
        c.scaled_hopset = true;
        c
    }
}

/// Builds the emulator in the Congested Clique cost model with freshly
/// sampled levels (Thm 29). The top-level hopset takes its basis from
/// `basis` (see [`BasisCache`]).
pub fn build(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    rng: &mut impl Rng,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> Emulator {
    let levels = config.params.sample_levels(rng);
    build_with_levels(g, config, levels, Some(rng), basis, ledger)
}

/// Builds the emulator for fixed levels. `rng = None` selects the
/// deterministic top-level machinery (deterministic hopset, Lemma 9 hitting
/// sets) — used by [`crate::deterministic`].
///
/// # Panics
///
/// Panics if `levels.len() != g.n()`.
pub fn build_with_levels(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    levels: Vec<u8>,
    rng: Option<&mut dyn RngCore>,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> Emulator {
    let mut phase = ledger.enter("emulator");
    // One communication round: every vertex broadcasts its level in
    // parallel (grounded by the engine in `announce_round_is_grounded`).
    phase.charge_broadcast("announce level membership");
    let mut kn = KNearest::compute_with(
        g,
        config.k,
        config.params.delta(config.params.r()),
        Strategy::TruncatedBfs,
        config.threads,
        &mut phase,
    );
    if config.record_paths {
        kn = kn.with_parents(g);
    }
    build_with_levels_and_kn(g, config, levels, &kn, rng, basis, &mut phase)
}

/// Core construction with a precomputed `(k, δ_r)`-nearest structure (shared
/// by the w.h.p. variant, which evaluates many level samples against one
/// `(k,d)`-nearest computation — Claim 30).
pub(crate) fn build_with_levels_and_kn(
    g: &Graph,
    config: &CliqueEmulatorConfig,
    levels: Vec<u8>,
    kn: &KNearest,
    rng: Option<&mut dyn RngCore>,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> Emulator {
    assert_eq!(levels.len(), g.n(), "one level per vertex");
    let params = &config.params;
    let r = params.r();
    // Witness bookkeeping is local-only: it must not change the edges built
    // or the rounds charged below.
    let mut routes = config.record_paths.then(cc_routes::Unroller::new);
    let mut edges: std::collections::BTreeMap<(u32, u32), Dist> = std::collections::BTreeMap::new();
    let mut add = |u: usize, v: usize, w: Dist| {
        let key = if u < v {
            (u as u32, v as u32)
        } else {
            (v as u32, u as u32)
        };
        edges
            .entry(key)
            .and_modify(|cur| *cur = (*cur).min(w))
            .or_insert(w);
    };

    // Non-top-level vertices via the (k,d)-nearest lists (Claim 26). When
    // recording, every edge registers its (k,d)-nearest parent chain: the
    // recorded walk's weight is the exact distance, i.e. the edge weight.
    for v in 0..g.n() {
        let i = levels[v] as usize;
        if i >= r {
            continue;
        }
        let plan = plan_for_vertex(kn, &levels, v, params.delta(i), config.k, i);
        let planned: Vec<(usize, Dist)> = match plan {
            VertexPlan::Dense { target, dist } => vec![(target, dist)],
            VertexPlan::Sparse { targets } => targets,
        };
        if planned.is_empty() {
            continue;
        }
        let recs = routes
            .as_mut()
            .map(|r| kn.route_recs(v, r.arena_mut()))
            .unwrap_or_default();
        for (u, d) in planned {
            add(v, u, d);
            if let Some(r) = routes.as_mut() {
                let idx = kn
                    .list(v)
                    .binary_search_by_key(&(d, u as u32), |&(c, dist)| (dist, c))
                    .expect("planned edge is a list entry");
                r.register(v, u, recs[idx].expect("non-root entry has a record"));
            }
        }
    }

    // Top level: S_r × S_r within δ_r via bounded hopset + source detection
    // (Claim 27). When recording, the hopset carries its own edge routes,
    // which the detection walks over G ∪ H resolve against.
    let sr: Vec<usize> = (0..g.n()).filter(|&v| levels[v] as usize >= r).collect();
    if sr.len() > 1 {
        let t = params.delta(r);
        let hp = if config.scaled_hopset {
            HopsetParams::scaled(g.n(), t, config.eps_prime)
        } else {
            HopsetParams::paper(g.n(), t, config.eps_prime)
        }
        .with_threads(config.threads)
        .with_paths(config.record_paths);
        let hs = match rng {
            Some(mut rng) => hopset::build_randomized(g, hp, &mut rng, basis, ledger),
            None => hopset::build_deterministic(g, hp, basis, ledger),
        };
        if let (Some(r), Some(hr)) = (routes.as_mut(), hs.routes.as_ref()) {
            r.absorb(hr);
        }
        let mut sd = SourceDetection::over_hopset(&hs, &sr, config.threads, ledger);
        if routes.is_some() {
            // Recording walks every detected pair within the threshold.
            sd.record_parents(&hs.union, 0..sr.len(), config.threads);
        }
        let threshold = ((1.0 + config.eps_prime) * t as f64).ceil() as Dist;
        for &v in &sr {
            for (i, &s) in sr.iter().enumerate() {
                let d = sd.dist_to_source_index(v, i);
                if s != v && d < cc_graphs::INF && d <= threshold {
                    add(v, s, d);
                    if let Some(r) = routes.as_mut() {
                        let chain: Vec<u32> = sd
                            .chain(i, v)
                            .expect("detected pair has a parent chain")
                            .into_iter()
                            .map(|x| x as u32)
                            .collect();
                        let rec = r
                            .intern_walk(g, &chain)
                            .expect("detection hops are G or hopset edges");
                        r.register(s, v, rec);
                    }
                }
            }
        }
        ledger.charge_lenzen("exchange top-level emulator edges", sr.len() as u64);
    }

    let mut graph = WeightedGraph::new(g.n());
    for (&(u, v), &w) in &edges {
        graph.add_edge(u as usize, v as usize, w);
    }
    Emulator {
        graph,
        levels,
        routes,
    }
}

/// What a non-top-level vertex contributes.
pub(crate) enum VertexPlan {
    /// i-dense: a single edge to the closest `S_{i+1}` vertex.
    Dense {
        /// The chosen `c_{i+1}(v)`.
        target: usize,
        /// Its exact distance.
        dist: Dist,
    },
    /// i-sparse: edges to every known `Sᵢ` vertex in the ball.
    Sparse {
        /// `(vertex, distance)` pairs.
        targets: Vec<(usize, Dist)>,
    },
}

/// Decides the edge plan of vertex `v` at level `i` from its `(k,d)`-nearest
/// list (Claims 25/26). Exposed crate-internally so the w.h.p. variant can
/// count edges per run without materializing emulators.
pub(crate) fn plan_for_vertex(
    kn: &KNearest,
    levels: &[u8],
    v: usize,
    delta_i: Dist,
    k: usize,
    i: usize,
) -> VertexPlan {
    let list = kn.list(v);
    let within: Vec<(usize, Dist)> = list
        .iter()
        .take_while(|&&(_, d)| d <= delta_i)
        .map(|&(u, d)| (u as usize, d))
        .collect();
    let heavy = within.len() >= k;
    // Dense check: closest vertex of level ≥ i+1 within δᵢ (the (dist, id)
    // order of the list makes the first hit the closest).
    let dense_target = within
        .iter()
        .find(|&&(u, _)| u != v && levels[u] as usize > i)
        .copied();
    if let Some((target, dist)) = dense_target {
        return VertexPlan::Dense { target, dist };
    }
    // Sparse: all known Sᵢ members of the ball. For a heavy vertex this
    // branch is the w.h.p. tail case (Claim 25 failed) — the known prefix of
    // the ball is used, which preserves weight correctness.
    let _ = heavy;
    let targets = within
        .into_iter()
        .filter(|&(u, _)| u != v && levels[u] as usize >= i)
        .collect();
    VertexPlan::Sparse { targets }
}

/// Returns the number of edges vertex `v` would add (Claim 30's per-run
/// accounting).
pub(crate) fn edge_count_for_vertex(
    kn: &KNearest,
    levels: &[u8],
    v: usize,
    delta_i: Dist,
    k: usize,
    i: usize,
) -> usize {
    match plan_for_vertex(kn, levels, v, delta_i, k, i) {
        VertexPlan::Dense { .. } => 1,
        VertexPlan::Sparse { targets } => targets.len(),
    }
}

/// `true` if every heavy vertex (full `(k, δ_{i_v})` prefix) sees a
/// top-level vertex in its list — the Claim 25 event.
pub(crate) fn heavy_vertices_hit(
    kn: &KNearest,
    levels: &[u8],
    params: &EmulatorParams,
    k: usize,
) -> bool {
    let r = params.r();
    for v in 0..levels.len() {
        let i = levels[v] as usize;
        if i >= r {
            continue;
        }
        let delta_i = params.delta(i);
        let list = kn.list(v);
        let within = list.iter().take_while(|&&(_, d)| d <= delta_i);
        let mut count = 0usize;
        let mut has_top = false;
        for &(u, _) in within {
            count += 1;
            if levels[u as usize] as usize >= r {
                has_top = true;
            }
        }
        if count >= k && !has_top {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config(n: usize, eps: f64, r: usize) -> CliqueEmulatorConfig {
        CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r).unwrap())
    }

    #[test]
    fn clique_emulator_meets_relaxed_bounds() {
        let mut r = rng(13);
        for (name, g) in [
            ("cycle", generators::cycle(60)),
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(70, 0.06, &mut r)),
        ] {
            let cfg = config(g.n(), 0.25, 2);
            let mut ledger = RoundLedger::new(g.n());
            let emu = build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut ledger);
            let report = emu.verify_with_bounds(
                &g,
                cfg.params.clique_multiplicative_bound(cfg.eps_prime),
                cfg.params.clique_additive_bound(cfg.eps_prime),
                cfg.params.size_bound(),
            );
            assert!(report.within_bounds, "{name}: {report:?}");
            assert!(ledger.total_rounds() > 0);
        }
    }

    #[test]
    fn matches_ideal_when_all_balls_light() {
        // On a bounded-degree graph every ball is far below n^{2/3}: the
        // clique construction's light path must reproduce §3.2 exactly,
        // except for the S_r×S_r stage, whose weights may stretch by (1+ε').
        let g = generators::cycle(48);
        let cfg = config(48, 0.25, 2);
        let levels = cfg.params.sample_levels(&mut rng(4));
        let ideal = crate::ideal::build_with_levels(&g, &cfg.params, levels.clone());
        let mut ledger = RoundLedger::new(48);
        let mut r = rng(5);
        let clique = build_with_levels(
            &g,
            &cfg,
            levels,
            Some(&mut r),
            &mut BasisCache::default(),
            &mut ledger,
        );
        // Compare non-top-level edges exactly.
        let top = |v: usize| clique.levels[v] as usize >= cfg.params.r();
        let mut ideal_low: Vec<_> = ideal
            .graph
            .edges()
            .filter(|&(u, v, _)| !(top(u) && top(v)))
            .collect();
        let mut clique_low: Vec<_> = clique
            .graph
            .edges()
            .filter(|&(u, v, _)| !(top(u) && top(v)))
            .collect();
        ideal_low.sort_unstable();
        clique_low.sort_unstable();
        assert_eq!(ideal_low, clique_low);
    }

    #[test]
    fn top_level_weights_respect_eps_prime() {
        let g = generators::grid(8, 8);
        let cfg = config(64, 0.25, 2);
        let mut r = rng(8);
        let mut ledger = RoundLedger::new(64);
        let emu = build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut ledger);
        let exact = bfs::apsp_exact(&g);
        for (u, v, w) in emu.graph.edges() {
            assert!(w >= exact[u][v], "undercut at ({u},{v})");
            assert!(
                (w as f64) <= (1.0 + cfg.eps_prime) * exact[u][v] as f64 + 1.0,
                "edge ({u},{v}) weight {w} vs d {}",
                exact[u][v]
            );
        }
    }

    #[test]
    fn recorded_routes_unroll_every_emulator_edge() {
        let g = generators::caveman(7, 7);
        let cfg = config(g.n(), 0.25, 2);
        let levels = cfg.params.sample_levels(&mut rng(6));
        // Same levels, same seed: recording must not change edges or rounds.
        let mut l_plain = RoundLedger::new(g.n());
        let mut r1 = rng(9);
        let plain = build_with_levels(
            &g,
            &cfg,
            levels.clone(),
            Some(&mut r1),
            &mut BasisCache::default(),
            &mut l_plain,
        );
        let rec_cfg = cfg.clone().with_paths(true);
        let mut l_rec = RoundLedger::new(g.n());
        let mut r2 = rng(9);
        let emu = build_with_levels(
            &g,
            &rec_cfg,
            levels,
            Some(&mut r2),
            &mut BasisCache::default(),
            &mut l_rec,
        );
        assert_eq!(emu.graph, plain.graph, "recording changed the emulator");
        assert_eq!(l_plain.total_rounds(), l_rec.total_rounds());
        assert!(plain.routes.is_none());
        let routes = emu.routes.as_ref().expect("routes recorded");
        let exact = bfs::apsp_exact(&g);
        for (u, v, w) in emu.graph.edges() {
            let walk = routes
                .unroll(u, v)
                .unwrap_or_else(|| panic!("edge ({u},{v}) has no route"));
            assert_eq!(walk[0].0 as usize, u);
            assert_eq!(walk[walk.len() - 1].1 as usize, v);
            for win in walk.windows(2) {
                assert_eq!(win[0].1, win[1].0, "edges must chain");
            }
            for &(x, y) in &walk {
                assert!(g.has_edge(x as usize, y as usize), "real G edge");
            }
            assert!(walk.len() as Dist <= w, "route longer than edge weight");
            assert!(walk.len() as Dist >= exact[u][v], "route undercuts");
        }
    }

    #[test]
    fn deterministic_emulator_records_routes() {
        let g = generators::grid(6, 6);
        let cfg = CliqueEmulatorConfig::scaled(EmulatorParams::loglog(g.n(), 0.5).unwrap())
            .with_paths(true);
        let mut ledger = RoundLedger::new(g.n());
        let emu = crate::deterministic::build(&g, &cfg, &mut BasisCache::default(), &mut ledger);
        let routes = emu.routes.as_ref().expect("routes recorded");
        for (u, v, w) in emu.graph.edges() {
            let walk = routes.unroll(u, v).expect("every edge unrolls");
            assert!(walk.len() as Dist <= w);
        }
    }

    #[test]
    fn rounds_match_the_log_squared_formula() {
        // Lemma 28: O(log²δ_r/ε') rounds. With the paper constants the
        // hidden factor is ≈ 4·β·iterations = 48·log²δ_r/ε'; check the
        // ledger lands in that regime rather than anywhere near poly(n).
        let g = generators::cycle(400);
        let cfg = config(400, 0.25, 2);
        let dr = cfg.params.delta(2) as f64;
        let log2 = dr.log2();
        let formula = 48.0 * log2 * log2 / cfg.eps_prime;
        let mut r = rng(2);
        let mut ledger = RoundLedger::new(400);
        let _ = build(&g, &cfg, &mut r, &mut BasisCache::default(), &mut ledger);
        let total = ledger.total_rounds() as f64;
        assert!(
            total < 3.0 * formula,
            "rounds = {total}, formula ≈ {formula}"
        );
        // The scaled profile tempers the constant by 4×.
        let mut ledger2 = RoundLedger::new(400);
        let cfg2 = CliqueEmulatorConfig::scaled(cfg.params.clone());
        let _ = build(&g, &cfg2, &mut r, &mut BasisCache::default(), &mut ledger2);
        assert!(ledger2.total_rounds() < ledger.total_rounds());
    }

    #[test]
    fn plan_logic_dense_prefers_closest() {
        let g = generators::path(8);
        let mut ledger = RoundLedger::new(8);
        let kn = KNearest::compute(&g, 8, 7, Strategy::TruncatedBfs, &mut ledger);
        // Levels: v3 level 1; v1 and v5 level 2 (r = 2).
        let mut levels = vec![0u8; 8];
        levels[3] = 1;
        levels[1] = 2;
        levels[5] = 2;
        let params = EmulatorParams::new(8, 0.25, 2).unwrap();
        match plan_for_vertex(&kn, &levels, 3, params.delta(1), 8, 1) {
            VertexPlan::Dense { target, dist } => {
                // Both 1 and 5 are at distance 2: tie broken by id.
                assert_eq!(target, 1);
                assert_eq!(dist, 2);
            }
            VertexPlan::Sparse { .. } => panic!("expected dense"),
        }
    }

    #[test]
    fn announce_round_is_grounded() {
        // `build_with_levels` charges `broadcast_one()` for announcing level
        // membership: every vertex broadcasts its level simultaneously (one
        // word each). Run that step as a real message-passing program: the
        // engine reports exactly one communication round (its trailing drain
        // step is free local computation — see `RunStats::rounds`) and
        // n(n−1) delivered messages.
        use cc_clique::cost::model;
        use cc_clique::programs::AllGather;
        use cc_clique::{Engine, NodeId};
        let n = 24usize;
        let params = EmulatorParams::new(n, 0.25, 2).unwrap();
        let levels = params.sample_levels(&mut rng(3));
        let nodes = levels
            .iter()
            .enumerate()
            .map(|(v, &lvl)| AllGather::new(NodeId::new(v), vec![lvl as u64]))
            .collect();
        let mut engine = Engine::new(nodes);
        let stats = engine.run().unwrap();
        assert_eq!(stats.rounds, model::broadcast_one());
        assert_eq!(stats.messages, (n * (n - 1)) as u64);
        // Every node ends up knowing all n levels.
        assert!(engine.nodes().iter().all(|p| p.collected().len() == n));
    }

    #[test]
    fn heavy_hit_check_detects_misses() {
        let g = generators::complete(30);
        let params = EmulatorParams::new(30, 0.25, 2).unwrap();
        let mut ledger = RoundLedger::new(30);
        // k = 5: every ball (the whole graph) is "heavy".
        let kn = KNearest::compute(&g, 5, params.delta(2), Strategy::TruncatedBfs, &mut ledger);
        let no_top = vec![0u8; 30];
        assert!(!heavy_vertices_hit(&kn, &no_top, &params, 5));
        let mut with_top = vec![0u8; 30];
        // Vertices 0..5 at top level: every 5-list contains one of them.
        for v in 0..5 {
            with_top[v] = 2;
        }
        assert!(heavy_vertices_hit(&kn, &with_top, &params, 5));
    }
}
