//! `(2+ε)`-approximate APSP (Thm 34, deterministic: Thm 53) — the paper's
//! most intricate pipeline.
//!
//! Essentially the best approximation achievable in sub-polynomial time: a
//! `(2−ε)`-approximation would imply sub-polynomial matrix multiplication
//! (§1.1). Distances split by a threshold `t = Θ(β/ε)`:
//!
//! * **`d ≥ t`** — the `(1+ε/2, β)`-emulator is already a `(1+ε)`
//!   approximation (Claim 37).
//! * **short, through a high-degree vertex** — a hitting set `S` of size
//!   `O(√n)` touches some neighbor of the path; `(1+ε/2)`-approximate
//!   distances to `S` (bounded hopset + source detection) plus
//!   distance-through-`S` give `2+ε` (Claims 38/39).
//! * **short, low-degree-only paths** — on the subgraph `G'` of low-degree
//!   edges: `(k,t)`-nearest lists; routing through a pivot set `A` hitting
//!   full lists (Case 2); routing through `A'`-attached neighbors for
//!   high-`G'`-degree border vertices (Case 3a); and an exact three-hop
//!   min-plus product `W₁·W₂·W₃` over the low-degree border edges `E''`
//!   (Case 3b) — Claims 40/41.
//!
//! Total: `O(log²β/ε)` rounds.

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::params::ParamError;
use cc_graphs::{Dist, Graph, INF};
use cc_matrix::{MinplusWorkspace, RowBuilder, SparseMatrix};
use cc_routes::{PathStore, RecId};
use cc_toolkit::through_sets::ThroughSets;
use std::sync::Arc;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::oracle::Guarantee;
use crate::pipeline::{self, HopsetGraph, Mode, NearestLists, Substrates};
use crate::solver::ParamProfile;

/// Per-query parameters of the `(2+ε)` pipeline. The emulator and the
/// other session-wide parameters belong to the [`crate::Solver`].
#[derive(Clone, Debug)]
pub struct Apsp2Config {
    /// Accuracy `ε`.
    pub eps: f64,
    /// Low-degree-phase nearest-list width `k` (paper: `n^{1/4} log²n`).
    pub k: usize,
    /// High-degree threshold (paper: `√n log n`).
    pub high_degree_threshold: usize,
    /// The short/long threshold `t`, fixed by `(n, ε)` and the profile.
    t: Dist,
}

impl Apsp2Config {
    /// Benchmark-scale profile: `r = ⌊log₂log₂ n⌋`, `k = n^{1/4}·ln n`, and
    /// tempered hopset constants.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn scaled(n: usize, eps: f64) -> Result<Self, ParamError> {
        Self::for_profile(n, eps, ParamProfile::Scaled)
    }

    /// The configuration of `profile`.
    pub(crate) fn for_profile(
        n: usize,
        eps: f64,
        profile: ParamProfile,
    ) -> Result<Self, ParamError> {
        // Validated first: n < 2 must be an error, not a panic in `clamp(2, n)`.
        let t = pipeline::threshold(n, eps, profile)?;
        let ln = (n.max(2) as f64).ln();
        let mut k = (n as f64).powf(0.25) * ln;
        if let ParamProfile::Paper { .. } = profile {
            k *= ln;
        }
        Ok(Apsp2Config {
            eps,
            k: (k.ceil() as usize).clamp(2, n),
            high_degree_threshold: (((n as f64).sqrt() * ln).ceil() as usize).max(2),
            t,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t
    }
}

/// Result of the `(2+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp2 {
    /// The estimates, `Arc`-shared so memoized results clone cheaply.
    pub estimates: Arc<DistanceMatrix>,
    /// The threshold `t` used.
    pub t: Dist,
    /// The proven guarantee for pairs within `t`: `2+ε`.
    pub short_range_guarantee: f64,
    /// High-degree hitting set `S`.
    pub high_degree_pivots: Vec<usize>,
    /// Low-degree pivot set `A`.
    pub low_degree_pivots: Vec<usize>,
    /// Per-pair path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<Arc<PathStore>>,
}

impl Apsp2 {
    /// The provenance every estimate of this result is served under.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee::mult2(self.short_range_guarantee - 2.0)
    }
}

/// `(2+ε)`-APSP, randomized (Thm 34) or deterministic (Thm 53) by `mode`,
/// over the session's emulator configuration `emu`.
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub(crate) fn run(
    g: &Graph,
    cfg: &Apsp2Config,
    emu: &CliqueEmulatorConfig,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Apsp2, CcError> {
    let mut phase = ledger.enter("apsp2");
    let n = g.n();
    let t = cfg.threshold();
    let threads = emu.threads;

    // ── Long range (Claim 37): emulator + adjacency. ──────────────────────
    // Witness recording: a pair's witness is set exactly when `delta`
    // strictly improves it, and never read back, so the estimates (and the
    // rounds — witnesses ride the same messages) are identical with
    // recording on or off.
    let (table, table_paths) = substrates.long_range(g, emu, &mut mode, &mut phase);
    let mut delta = DistanceMatrix::clone(&table);
    let mut paths = table_paths.as_deref().cloned();

    // ── Short paths through a high-degree vertex (Claims 38/39). ─────────
    let hdt = cfg.high_degree_threshold;
    let high_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| g.degree(v) >= hdt)
        .map(|v| g.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let s_pivots = substrates.hitting_set(n, hdt, &high_sets, &mut mode, &mut phase)?;
    if !s_pivots.is_empty() {
        let hs = substrates.hopset_for(
            HopsetGraph::Input,
            g,
            (2 * t, cfg.eps / 2.0),
            emu,
            &mut mode,
            &mut phase,
            paths.as_mut().map(PathStore::routes_mut),
        );
        substrates.timed("source_detection", || {
            pipeline::detect_pivots(
                g,
                &hs,
                &s_pivots,
                threads,
                &mut delta,
                paths.as_mut(),
                &mut phase,
            )
        });
        let sets: Vec<Vec<usize>> = vec![s_pivots.clone(); n];
        substrates.timed("through_sets", || {
            merge_through_sets(n, &sets, &mut delta, paths.as_mut(), &mut phase)
        });
    }

    // ── Short low-degree-only paths (Claims 40/41), on G'. ───────────────
    let gp = g.low_degree_subgraph(hdt);
    let k = cfg.k;

    // Step 2: (k,t)-nearest in G' (exact distances). Their records serve
    // again as the W₁/W₃ factor provenance of Case 3b.
    let lists =
        pipeline::nearest_lists(&gp, (k, t), threads, &mut delta, paths.as_mut(), &mut phase);
    let kn = &lists.kn;

    // Step 3: distance through the nearest-lists (Case 1 pairs).
    let kn_sets: Vec<Vec<usize>> = (0..n)
        .map(|u| kn.list(u).iter().map(|&(v, _)| v as usize).collect())
        .collect();
    substrates.timed("through_sets", || {
        merge_through_sets(n, &kn_sets, &mut delta, paths.as_mut(), &mut phase)
    });

    // Steps 4–7: pivot set A over full lists; route through p_A (Case 2).
    let a_pivots = substrates.hitting_set(n, k, &kn.full_sets(), &mut mode, &mut phase)?;
    // One hopset of G' serves steps 5 and 9.
    let gp_hopset = if a_pivots.is_empty() && gp.m() == 0 {
        None
    } else {
        Some(substrates.hopset_for(
            HopsetGraph::LowDegree,
            &gp,
            (2 * t, cfg.eps / 2.0),
            emu,
            &mut mode,
            &mut phase,
            paths.as_mut().map(PathStore::routes_mut),
        ))
    };
    if let (Some(hs), false) = (&gp_hopset, a_pivots.is_empty()) {
        pipeline::route_through_nearest_pivots(
            substrates,
            "announce nearest A-pivots",
            g,
            hs,
            &a_pivots,
            kn,
            threads,
            &mut delta,
            paths.as_mut(),
            &mut phase,
        );
    }

    // Steps 8–11: A' hits the neighborhoods of high-G'-degree vertices;
    // route through list-attached A'-members (Case 3a).
    let thresh2 = (n / (k * k)).max(1);
    let big_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| gp.degree(v) >= thresh2)
        .map(|v| gp.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let a2_pivots = substrates.hitting_set(n, thresh2, &big_sets, &mut mode, &mut phase)?;
    if let (Some(hs), false) = (&gp_hopset, a2_pivots.is_empty()) {
        substrates.timed("source_detection", || {
            pipeline::detect_pivots(
                g,
                hs,
                &a2_pivots,
                threads,
                &mut delta,
                paths.as_mut(),
                &mut phase,
            )
        });
        // Step 10: every vertex announces one A'-neighbor (1 round); each u
        // assembles A'_u from its list.
        phase.charge_broadcast("announce A'-attachments");
        let mut a2_mask = vec![false; n];
        for &a in &a2_pivots {
            a2_mask[a] = true;
        }
        let attachment: Vec<Option<u32>> = (0..n)
            .map(|v| {
                gp.neighbors(v)
                    .iter()
                    .copied()
                    .find(|&w| a2_mask[w as usize])
            })
            .collect();
        // Step 11: min-plus product of the (u, A'_u) estimates with the
        // (A', V) estimates — charged as a sparse product (Thm 36).
        phase.charge_sparse_minplus(
            "route through A'_u",
            k as u64,
            a2_pivots.len() as u64,
            n as u64,
        );
        substrates.timed("pivot_routing", || {
            for u in 0..n {
                let mut a_u: Vec<usize> = kn_sets[u]
                    .iter()
                    .filter_map(|&v| attachment[v].map(|w| w as usize))
                    .collect();
                a_u.sort_unstable();
                a_u.dedup();
                pipeline::route_through(&mut delta, paths.as_mut(), u, a_u);
            }
        });
    }

    // Steps 12–14: exact three-hop product over the border edges E''
    // (Case 3b): W₁ = nearest-lists, W₂ = edges leaving low-G'-degree
    // vertices, W₃ = W₁ᵀ.
    if gp.m() > 0 {
        let minplus_started = substrates.stages.borrow().start();
        let mut w1 = RowBuilder::new(n);
        for u in 0..n {
            for &(v, d) in kn.list(u) {
                w1.push(u, v as usize, d);
            }
        }
        let w1 = w1.build();
        let mut w2 = RowBuilder::new(n);
        for x in 0..n {
            if gp.degree(x) <= thresh2 {
                for &y in gp.neighbors(x) {
                    w2.push(x, y as usize, 1);
                }
            }
        }
        let w2 = w2.build();
        let w3 = w1.transpose();
        let mut ws = MinplusWorkspace::with_threads(threads);
        let (pm, wp) = w1.minplus(&w2, &mut ws);
        phase.charge_sparse_minplus(
            "E'' product W1·W2",
            w1.density(),
            w2.density(),
            pm.density(),
        );
        let (q, wq) = pm.minplus(&w3, &mut ws);
        phase.charge_sparse_minplus(
            "E'' product (W1·W2)·W3",
            pm.density(),
            w3.density(),
            q.density(),
        );
        lower_through_product(&mut delta, paths.as_mut(), &lists, &pm, &wp, &q, &wq);
        substrates
            .stages
            .borrow_mut()
            .stop("minplus_products", minplus_started);
    }

    Ok(Apsp2 {
        estimates: Arc::new(delta),
        t,
        short_range_guarantee: 2.0 + cfg.eps,
        high_degree_pivots: s_pivots,
        low_degree_pivots: a_pivots,
        paths: paths.map(Arc::new),
    })
}

/// Distance-through-sets (Thm 35) lowering `delta` straight from the
/// candidate stream, setting a `Via` witness at every pair a candidate
/// lowers when recording. The candidates come from the estimates as
/// gathered, so the result is the old table-then-merge answer; they arrive
/// in ascending `w` and only a strict improvement sets, so each pair keeps
/// the smallest realizing `w`.
fn merge_through_sets(
    n: usize,
    sets: &[Vec<usize>],
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    let gathered = ThroughSets::gather(n, sets, |v, w| delta.get(v, w), ledger);
    gathered.for_each_candidate(|u, v, d, w| {
        if !delta.improve(u, v, d) {
            return;
        }
        if let Some(p) = paths.as_deref_mut() {
            p.set_via(u, v, w);
        }
    });
}

/// Lowers `delta` to the Case 3b three-hop product `q = (W₁·W₂)·W₃` and,
/// when recording, sets a route at every entry it lowered. Each route is
/// assembled from the kernel witnesses — `u ⇝ k` from the
/// `(k,t)`-nearest record, the border edge `k → y`, and the reversed
/// nearest record `y ⇝ v`. Lowering and setting in one pass lets `(v,u)`
/// see the value `(u,v)` was lowered to.
fn lower_through_product(
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    lists: &NearestLists,
    pm: &SparseMatrix,
    wp: &[u32],
    q: &SparseMatrix,
    wq: &[u32],
) {
    let n = delta.n();
    // Column-indexed nearest-list records per vertex (recording only):
    // rec_of[u] is sorted by column, mirroring w1.row(u).
    let rec_of: Vec<Vec<(u32, RecId)>> = match paths {
        Some(_) => (0..n)
            .map(|u| {
                let mut row: Vec<(u32, RecId)> = lists
                    .kn
                    .list(u)
                    .iter()
                    .zip(&lists.recs[u])
                    .filter(|&(&(c, _), _)| c as usize != u)
                    .map(|(&(c, _), rec)| (c, rec.expect("non-root entry")))
                    .collect();
                row.sort_unstable_by_key(|&(c, _)| c);
                row
            })
            .collect(),
        None => Vec::new(),
    };
    let lookup = |row: &[(u32, RecId)], col: u32| -> RecId {
        let pos = row
            .binary_search_by_key(&col, |&(c, _)| c)
            .expect("witness column is a list entry");
        row[pos].1
    };
    // The arena is append-only, so only intern records for entries that
    // lower `delta` (and only the pm prefixes those entries reference) —
    // other records would sit in the arena for the session and bloat the
    // CCRO snapshot.
    let mut precs: Vec<Option<RecId>> = Vec::new();
    for u in 0..n {
        let prow = pm.row(u);
        let pwit = &wp[pm.row_range(u)];
        let qwit = &wq[q.row_range(u)];
        precs.clear();
        precs.resize(prow.len(), None);
        for (&(v, d), &y) in q.row(u).iter().zip(qwit) {
            let v = v as usize;
            if v == u || d >= INF || !delta.improve(u, v, d) {
                continue;
            }
            let Some(store) = paths.as_deref_mut() else {
                continue;
            };
            // q(u,v) = pm(u,y) + w3(y,v); w3 = W₁ᵀ, so the right leg is the
            // reversed nearest record of v toward y.
            let pos = prow
                .binary_search_by_key(&y, |&(c, _)| c)
                .expect("witness column is a pm entry");
            let left = *precs[pos].get_or_insert_with(|| {
                // pm(u,y) = w1(u,k) + w2(k,y); w2 entries are G' ⊆ G edges.
                let kk = pwit[pos];
                let hop = store.routes_mut().arena_mut().edge(kk, y);
                if kk as usize == u {
                    hop // w1 diagonal (distance 0): the border edge alone
                } else {
                    let prefix = lookup(&rec_of[u], kk);
                    store.routes_mut().arena_mut().cat(prefix, hop)
                }
            });
            let rec = if y as usize == v {
                left // w1 diagonal on the right: nothing to append
            } else {
                let fwd = lookup(&rec_of[v], y);
                let back = store.routes_mut().arena_mut().rev(fwd);
                store.routes_mut().arena_mut().cat(left, back)
            };
            store.set_rec(u, v, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, stretch};
    use cc_toolkit::knearest::{KNearest, Strategy};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `run` in a fresh session of `profile` at `ε = 0.5`.
    fn solve(g: &Graph, cfg: &Apsp2Config, profile: ParamProfile, mode: Mode<'_>) -> Apsp2 {
        let emu = pipeline::emulator_config(g.n(), 0.5, profile).unwrap();
        let mut subs = Substrates::default();
        run(g, cfg, &emu, mode, &mut RoundLedger::new(g.n()), &mut subs).unwrap()
    }

    fn assert_short_range(g: &Graph, out: &Apsp2, label: &str) {
        let exact = bfs::apsp_exact(g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{label}");
        assert_eq!(report.missed, 0, "{label}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{label}: stretch {} exceeds {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }

    #[test]
    fn two_plus_eps_on_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for (name, g) in [
            ("cycle", generators::cycle(56)),
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(72, 0.07, &mut rng)),
            ("star+path", generators::barbell(12, 16)),
        ] {
            let cfg = Apsp2Config::for_profile(g.n(), 0.5, pipeline::PAPER).unwrap();
            let out = solve(&g, &cfg, pipeline::PAPER, Mode::Rng(&mut rng));
            assert_short_range(&g, &out, name);
        }
    }

    #[test]
    fn deterministic_two_plus_eps() {
        for (name, g) in [
            ("caveman", generators::caveman(7, 7)),
            ("grid", generators::grid(7, 7)),
        ] {
            let cfg = Apsp2Config::for_profile(g.n(), 0.5, pipeline::PAPER).unwrap();
            let out = solve(&g, &cfg, pipeline::PAPER, Mode::Det);
            assert_short_range(&g, &out, name);
        }
    }

    /// Case 3b routes are assembled from the sparse kernel's witnesses. In
    /// a session every product entry ties an earlier stage (with
    /// `thresh2 = 1` the product only re-derives distance-through-lists), so
    /// here the product lowers a fresh estimate matrix, where its entries
    /// win: every stored route must be a real walk of `G` whose weight is
    /// the pair's estimate, no heavier than the product entry.
    #[test]
    fn product_routes_follow_the_kernel_witnesses() {
        let g = generators::random_tree(48, &mut ChaCha8Rng::seed_from_u64(5));
        let n = g.n();
        let kn = KNearest::compute(&g, 11, 12, Strategy::TruncatedBfs, &mut RoundLedger::new(n))
            .with_parents(&g);
        let mut store = PathStore::new(n);
        let recs = (0..n)
            .map(|u| kn.route_recs(u, store.routes_mut().arena_mut()))
            .collect();
        let lists = NearestLists { kn, recs };
        // The factors as `run` builds them, with G' = G and thresh2 = 1.
        let mut w1 = RowBuilder::new(n);
        for u in 0..n {
            for &(v, d) in lists.kn.list(u) {
                w1.push(u, v as usize, d);
            }
        }
        let w1 = w1.build();
        let mut w2 = RowBuilder::new(n);
        for x in (0..n).filter(|&x| g.degree(x) <= 1) {
            for &y in g.neighbors(x) {
                w2.push(x, y as usize, 1);
            }
        }
        let w2 = w2.build();
        let mut ws = MinplusWorkspace::with_threads(2);
        let (pm, wp) = w1.minplus(&w2, &mut ws);
        let (q, wq) = pm.minplus(&w1.transpose(), &mut ws);
        let mut delta = DistanceMatrix::new(n);
        lower_through_product(&mut delta, Some(&mut store), &lists, &pm, &wp, &q, &wq);
        let mut routed = 0;
        for u in 0..n {
            for &(v, d) in q.row(u) {
                let v = v as usize;
                if v == u {
                    continue;
                }
                let stored = delta.get(u, v);
                assert!(stored <= d, "({u},{v}): product entry {d} not applied");
                let walk = store.emit(u, v).expect("lowered pair has a route");
                assert_eq!(walk.len() as Dist, stored, "({u},{v}): walk weight");
                assert_eq!(walk[0].0 as usize, u, "({u},{v}): walk start");
                assert_eq!(walk[walk.len() - 1].1 as usize, v, "({u},{v}): walk end");
                for (i, &(x, y)) in walk.iter().enumerate() {
                    assert!(g.has_edge(x as usize, y as usize), "({u},{v}): ({x},{y})");
                    if i > 0 {
                        assert_eq!(walk[i - 1].1, x, "({u},{v}): walk is a chain");
                    }
                }
                routed += 1;
            }
        }
        assert!(routed > n, "the product reaches most pairs");
    }

    #[test]
    fn dense_graph_exercises_high_degree_phase() {
        // A star-heavy graph: the hub exceeds the √n·log n threshold.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut edges: Vec<(usize, usize)> = (1..40).map(|v| (0, v)).collect();
        edges.extend((1..39).map(|v| (v, v + 1)));
        let g = Graph::from_edges(40, &edges);
        let mut cfg = Apsp2Config::for_profile(40, 0.5, pipeline::PAPER).unwrap();
        cfg.high_degree_threshold = 10; // force the phase at this scale
        let out = solve(&g, &cfg, pipeline::PAPER, Mode::Rng(&mut rng));
        assert!(!out.high_degree_pivots.is_empty());
        assert_short_range(&g, &out, "hub");
    }

    #[test]
    fn estimates_are_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::connected_gnp(48, 0.08, &mut rng);
        let cfg = Apsp2Config::for_profile(48, 0.5, pipeline::PAPER).unwrap();
        let out = solve(&g, &cfg, pipeline::PAPER, Mode::Rng(&mut rng));
        for u in 0..48 {
            for v in 0..48 {
                assert_eq!(out.estimates.get(u, v), out.estimates.get(v, u));
            }
        }
    }

    #[test]
    fn scaled_profile_also_meets_guarantee() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::caveman(8, 8);
        let cfg = Apsp2Config::for_profile(g.n(), 0.5, ParamProfile::Scaled).unwrap();
        let out = solve(&g, &cfg, ParamProfile::Scaled, Mode::Rng(&mut rng));
        assert_short_range(&g, &out, "scaled");
    }
}
