//! Bounded hopsets (Thm 12 of the paper, Appendix B.3).
//!
//! A `(β, ε, t)`-hopset `H` of `G` is a weighted edge set on `V(G)` such
//! that for every pair with `d_G(u,v) = d^t_G(u,v)` (in unweighted graphs:
//! every pair at distance ≤ `t`),
//!
//! ```text
//! d_G(u,v) ≤ d^β_{G∪H}(u,v) ≤ (1+ε)·d_G(u,v),
//! ```
//!
//! i.e. `β` hops in `G ∪ H` suffice for a `(1+ε)`-approximation. Construction
//! (following \[3\], restricted to distance `t`):
//!
//! 1. `A₁` = hitting set of the `(k, t)`-nearest sets (`k = √n·log n`):
//!    every vertex with a full `k`-list has an `A₁` member among its nearest.
//! 2. Non-`A₁` vertices add their *bounded bunch*: edges to every vertex
//!    strictly closer than their nearest `A₁` vertex (Thorup–Zwick shape),
//!    plus the nearest `A₁` vertex itself — all within distance `t`.
//! 3. `⌈log₂ t⌉` iterations: in iteration `ℓ`, `A₁`-vertices learn their
//!    `≤ 4β`-hop distances in `G ∪ H^{(ℓ-1)}` to all of `A₁` by
//!    `(S,d)`-source detection and interconnect; `H^{(ℓ)}` is a
//!    `(β, ℓ·ε₀, 2^ℓ)`-hopset (Lemma 65).
//!
//! Only step 3 depends on `ε` and `β`. Steps 1–2 — the *basis*: the
//! `(k, t)`-nearest lists, `A₁` and the bunches `H⁰` with their routes —
//! go through a [`BasisCache`], which every builder takes by `&mut`. A
//! cache keeps one basis per graph and serves later requests on that graph
//! from it: a request at `t ≤ t₀` cuts the lists at `t`, and any `t` reuses
//! them when every list is full. `A₁` is always recomputed from the
//! request's lists, and `H⁰` is reused only when those lists and `A₁` equal
//! the basis's, so a shared cache builds exactly what a fresh one does,
//! and every request charges its own `(k,t)`-nearest, hitting set and
//! interconnection (`DESIGN.md` §4).
//!
//! Rounds: `O(log²t / ε)` (+`O((log log n)³)` for the deterministic hitting
//! set). Size: `O(n^{3/2} log n)` edges. `β = O(log t / ε)`.

use std::time::{Duration, Instant};

use cc_clique::RoundLedger;
use cc_derand::hitting::{self, HittingError};
use cc_graphs::{dijkstra, Dist, Graph, WeightedGraph, INF};
use cc_routes::Unroller;
use rand::Rng;

use crate::knearest::{KNearest, Strategy};

/// Parameters of a bounded-hopset construction.
#[derive(Clone, Copy, Debug)]
pub struct HopsetParams {
    /// Distance bound `t`: pairs within distance `t` get the guarantee.
    pub t: Dist,
    /// Target stretch `ε ∈ (0, 1)`.
    pub eps: f64,
    /// Pivot-hitting parameter `k` (paper: `√n·log n`).
    pub k: usize,
    /// Oversampling constant of the randomized hitting set (Lemma 8).
    pub hitting_c: f64,
    /// Constant of the hop bound `β = beta_factor/δ·…`; the paper's Lemma 65
    /// analysis uses 12 (from `β = 3/δ`, `δ = ε₀/4`). The `scaled` profile
    /// uses a smaller factor — worst-case-loose but empirically sufficient
    /// (every experiment re-verifies the guarantee).
    pub beta_factor: f64,
    /// Worker threads for the local `(k,t)`-nearest computation (`0` and `1`
    /// both mean serial). Purely wall-clock: the constructed hopset and the
    /// rounds charged are identical at any thread count.
    pub threads: usize,
    /// Record, per hopset edge, the walk in `G` that realizes it (an
    /// [`Unroller`] on [`BoundedHopset::routes`]). Purely local witness
    /// bookkeeping: the constructed edges and the rounds charged are
    /// identical with or without it.
    pub record_paths: bool,
}

impl HopsetParams {
    /// The paper's parameters for an `n`-vertex graph: `k = √n·ln n`
    /// (clamped to `n`), `β = 12·log t / ε`.
    ///
    /// # Panics
    ///
    /// Panics if `eps ∉ (0,1)` or `t = 0`.
    pub fn paper(n: usize, t: Dist, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
        assert!(t >= 1, "t must be at least 1");
        let k = (((n as f64).sqrt() * (n.max(2) as f64).ln()).ceil() as usize).clamp(1, n);
        HopsetParams {
            t,
            eps,
            k,
            hitting_c: 2.0,
            beta_factor: 12.0,
            threads: 1,
            record_paths: false,
        }
    }

    /// Returns the parameters with the worker-thread count set.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the parameters with per-edge path recording switched on or
    /// off.
    #[must_use]
    pub fn with_paths(mut self, record_paths: bool) -> Self {
        self.record_paths = record_paths;
        self
    }

    /// Benchmark-scale profile: identical exponents and pivot density,
    /// tempered hop-bound constant (`β = 3·log t / ε` instead of the
    /// worst-case `12·log t / ε`). The guarantee is re-verified empirically
    /// wherever this profile is used (DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Panics if `eps ∉ (0,1)` or `t = 0`.
    pub fn scaled(n: usize, t: Dist, eps: f64) -> Self {
        let mut p = Self::paper(n, t, eps);
        p.beta_factor = 3.0;
        p
    }

    /// Number of squaring iterations `⌈log₂ t⌉` (at least 1).
    pub fn iterations(&self) -> usize {
        (self.t.max(2) as f64).log2().ceil() as usize
    }

    /// Per-iteration stretch `ε₀ = ε / ⌈log₂ t⌉` (Lemma 65 requires
    /// `ε₀ < 1/log t`).
    pub fn eps_iter(&self) -> f64 {
        self.eps / self.iterations() as f64
    }

    /// The hop bound `β = beta_factor / ε₀`, i.e. `O(log t / ε)`.
    pub fn beta(&self) -> usize {
        (self.beta_factor / self.eps_iter()).ceil() as usize
    }
}

/// A constructed `(β, ε, t)`-hopset, kept as the union `G ∪ H` every
/// caller searches.
#[derive(Clone, Debug)]
pub struct BoundedHopset {
    /// `G ∪ H`: each vertex's list holds its `G` edges (weight 1) first,
    /// then its hopset edges `H` (weights `≥` true `G`-distances), and is
    /// allocated at exactly its length. `H` keeps the parallel copies every
    /// interconnection iteration appends, so `union.m() − g.m()` is the
    /// edge count the iterations' charges read.
    pub union: WeightedGraph,
    /// The hop bound `β`.
    pub beta: usize,
    /// The parameters used.
    pub params: HopsetParams,
    /// The pivot set `A₁`.
    pub a1: Vec<usize>,
    /// Per-edge provenance ([`HopsetParams::record_paths`]): every hopset
    /// edge unrolls into a real walk in `G` of weight at most the edge's.
    /// Bunch edges intern their `(k,t)`-nearest parent chains; iteration-`ℓ`
    /// interconnection edges intern their `≤ 4β`-hop walks over
    /// `G ∪ H^{(ℓ-1)}`, whose shortcut hops resolve against the records of
    /// earlier iterations — the arena's append-only order is the
    /// termination argument (`DESIGN.md` §8.2).
    pub routes: Option<Unroller>,
    /// Each vertex's degree in the graph `G` the hopset was built on: the
    /// length of the `G` prefix of its `union` list.
    pub(crate) base_degree: Vec<u32>,
}

impl BoundedHopset {
    /// The hopset edges `H`, as `(u, v, w)` with `u < v`, in the order they
    /// were added per vertex `u`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, Dist)> + '_ {
        self.base_degree
            .iter()
            .enumerate()
            .flat_map(move |(u, &deg)| {
                self.union.neighbors(u)[deg as usize..]
                    .iter()
                    .filter(move |&&(v, _)| (v as usize) > u)
                    .map(move |&(v, w)| (u, v as usize, w))
            })
    }

    /// Verifies the hopset guarantee from the given sample vertices: for
    /// every pair `(s, v)` with `s` a sample and `d_G(s,v) ≤ t`,
    /// `d^β_{G∪H}(s,v) ≤ (1+ε)·d_G(s,v)` and `≥ d_G(s,v)`.
    ///
    /// Returns the worst ratio observed.
    pub fn verify_from(&self, g: &Graph, samples: &[usize]) -> f64 {
        let (hop_dist, _) = dijkstra::hop_limited_from_sources(
            &self.union,
            samples,
            self.beta,
            self.params.threads,
            false,
        );
        let n = g.n();
        let mut worst: f64 = 1.0;
        for (i, &s) in samples.iter().enumerate() {
            let exact = cc_graphs::bfs::sssp(g, s);
            for v in 0..n {
                if v == s || exact[v] > self.params.t || exact[v] >= INF {
                    continue;
                }
                let got = hop_dist[i * n + v];
                assert!(got >= exact[v], "hopset below true distance at ({s},{v})");
                worst = worst.max(got as f64 / exact[v] as f64);
            }
        }
        worst
    }
}

/// Steps 1–2 of the construction on one graph: its `(k, t₀)`-nearest
/// lists (with parents when recording), and `A₁`, the bunches `H⁰` and
/// their routes built from them.
#[derive(Debug)]
struct Basis {
    graph: Graph,
    kn: KNearest,
    a1: Vec<usize>,
    /// The ledger charges `(label, rounds)` of the hitting set that picked
    /// `a1`, kept when it was the deterministic one.
    a1_charges: Option<Vec<(String, u64)>>,
    bunches: WeightedGraph,
    routes: Option<Unroller>,
}

/// `A₁`, the bunches `H⁰` built for it, and their routes when recording.
type Bunches = (Vec<usize>, WeightedGraph, Option<Unroller>);

/// The hopset bases (steps 1–2) of the graphs a caller builds hopsets on,
/// shared by every build that is passed the cache.
///
/// A request on graph `g` with `(k, t)` reuses `g`'s basis lists computed
/// at `(k, t₀)` when `t ≤ t₀` — cut at `t`, which is exactly the
/// `(k, t)`-nearest object — or when every basis list is full, since a
/// larger bound then finds the same lists. A recording request also needs
/// lists with parents. Otherwise it computes fresh lists, which replace
/// the basis. A randomized hitting set is always recomputed from the
/// request's lists (same RNG draws and charges as a fresh build). The
/// deterministic one is a function of the lists alone, so over the
/// basis's uncut lists it would return the basis's `A₁`: its charges are
/// replayed instead, and it is recomputed only over cut lists. The stored
/// bunches are reused, a recorded [`Unroller`] cloned, only when those
/// lists and `A₁` equal the basis's. Every request charges its own
/// `(k,t)`-nearest computation and hitting set, so a shared cache changes
/// no ledger entry: it builds bit-identical hopsets, only faster.
#[derive(Debug, Default)]
pub struct BasisCache {
    bases: Vec<Basis>,
    /// Whether basis computations are timed; off by default, and then no
    /// clock is read.
    timed: bool,
    /// Wall time of each basis computed since the last
    /// [`BasisCache::take_timings`].
    timings: Vec<Duration>,
}

impl BasisCache {
    /// Switches timing of basis computations on or off.
    pub fn set_timed(&mut self, timed: bool) {
        self.timed = timed;
    }

    /// Drains the wall times of the bases computed since the last call,
    /// one per basis, each covering steps 1–2 of the build that computed
    /// it. Empty unless timed.
    pub fn take_timings(&mut self) -> Vec<Duration> {
        std::mem::take(&mut self.timings)
    }

    /// Steps 1–2 of a build on `g`: the request's `(k, t)`-nearest lists
    /// (charged), `A₁` from `hitting_set` over their full lists, and the
    /// bunches with their routes when recording. `deterministic` says that
    /// `hitting_set` is a function of its input alone (Lemma 9).
    fn bunches(
        &mut self,
        g: &Graph,
        params: &HopsetParams,
        ledger: &mut RoundLedger,
        deterministic: bool,
        hitting_set: impl FnOnce(
            usize,
            &[Vec<usize>],
            &mut RoundLedger,
        ) -> Result<Vec<usize>, HittingError>,
    ) -> Bunches {
        let (n, k, t) = (g.n(), params.k, params.t);
        // `A₁` and the charges of the hitting set that picked it.
        let pivots = |kn: &KNearest, ledger: &mut RoundLedger| {
            let before = ledger.entries().len();
            let full_sets = kn.full_sets();
            let a1 = hitting_set(k.min(full_min_size(&full_sets, k)), &full_sets, ledger)
                .expect("(k,t)-nearest sets are valid hitting-set input");
            let charges = ledger.entries()[before..]
                .iter()
                .map(|e| (e.label.clone(), e.rounds))
                .collect();
            (a1, charges)
        };
        let slot = self.bases.iter().position(|b| b.graph == *g);
        let reuse = slot.filter(|&i| {
            let kn = &self.bases[i].kn;
            kn.k() == k
                && (kn.has_parents() || !params.record_paths)
                && (t <= kn.d() || kn.all_full())
        });
        let Some(i) = reuse else {
            let started = self.timed.then(Instant::now);
            let mut kn =
                KNearest::compute_with(g, k, t, Strategy::TruncatedBfs, params.threads, ledger);
            if params.record_paths {
                kn = kn.with_parents(g);
            }
            let (a1, charges) = pivots(&kn, ledger);
            let (h, routes) = bunches(g, params, &a1, &kn);
            let basis = Basis {
                graph: g.clone(),
                kn,
                a1: a1.clone(),
                a1_charges: deterministic.then_some(charges),
                bunches: h.clone(),
                routes: routes.clone(),
            };
            match slot {
                Some(i) => self.bases[i] = basis,
                None => self.bases.push(basis),
            }
            if let Some(started) = started {
                self.timings.push(started.elapsed());
            }
            return (a1, h, routes);
        };
        KNearest::charge(n, k, t, ledger);
        let basis = &self.bases[i];
        let cut = if t < basis.kn.d() {
            basis.kn.cut(t)
        } else {
            None
        };
        let kn = cut.as_ref().unwrap_or(&basis.kn);
        let replay = basis
            .a1_charges
            .as_ref()
            .filter(|_| deterministic && cut.is_none());
        let a1 = match replay {
            Some(charges) => {
                for (label, rounds) in charges {
                    ledger.charge(label.as_str(), *rounds);
                }
                basis.a1.clone()
            }
            None => pivots(kn, ledger).0,
        };
        if cut.is_none() && a1 == basis.a1 {
            let routes = basis.routes.clone().filter(|_| params.record_paths);
            return (a1, basis.bunches.clone(), routes);
        }
        let (h, routes) = bunches(g, params, &a1, kn);
        (a1, h, routes)
    }
}

/// Builds a `(β, ε, t)`-hopset with a randomized hitting set (Thm 12.1):
/// `O(log²t/ε)` rounds w.h.p. Steps 1–2 come from `basis`.
pub fn build_randomized(
    g: &Graph,
    params: HopsetParams,
    rng: &mut impl Rng,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let mut phase = ledger.enter("hopset");
    let bunches = basis.bunches(g, &params, &mut phase, false, |k, sets, ledger| {
        hitting::random_hitting_set(g.n(), k, sets, params.hitting_c, rng, ledger)
    });
    build_from_bunches(g, params, bunches, &mut phase)
}

/// Builds a `(β, ε, t)`-hopset with the deterministic hitting set of
/// Lemma 9 (Thm 12.2): `O(log²t/ε + (log log n)³)` rounds. Steps 1–2 come
/// from `basis`.
pub fn build_deterministic(
    g: &Graph,
    params: HopsetParams,
    basis: &mut BasisCache,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let mut phase = ledger.enter("hopset");
    let bunches = basis.bunches(g, &params, &mut phase, true, |k, sets, ledger| {
        hitting::deterministic_hitting_set(g.n(), k, sets, ledger)
    });
    build_from_bunches(g, params, bunches, &mut phase)
}

fn full_min_size(full: &[Vec<usize>], k: usize) -> usize {
    full.iter().map(Vec::len).min().unwrap_or(k).max(1)
}

/// Step 3 over the bunches of `A₁`.
fn build_from_bunches(
    g: &Graph,
    params: HopsetParams,
    (a1, h, mut routes): Bunches,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let base_degree: Vec<u32> = (0..g.n()).map(|u| g.degree(u) as u32).collect();
    let union = if a1.is_empty() {
        WeightedGraph::union_of(g, &h)
    } else {
        interconnect(g, &base_degree, &params, &a1, h, routes.as_mut(), ledger)
    };
    BoundedHopset {
        union,
        beta: params.beta(),
        params,
        a1,
        routes,
        base_degree,
    }
}

/// `H⁰`: the bounded bunches of the non-pivot vertices, with their
/// provenance when recording (`kn` then carries parents).
fn bunches(
    g: &Graph,
    params: &HopsetParams,
    a1: &[usize],
    kn: &KNearest,
) -> (WeightedGraph, Option<Unroller>) {
    let n = g.n();
    let mut routes = params.record_paths.then(Unroller::new);
    let mut in_a1 = vec![false; n];
    for &a in a1 {
        in_a1[a] = true;
    }

    // H⁰: bounded bunches of non-pivot vertices (exact distances — they come
    // from the (k,t)-nearest computation). When recording, each bunch edge
    // registers its (k,t)-nearest parent chain as provenance.
    let mut h = WeightedGraph::new(n);
    for v in 0..n {
        if in_a1[v] {
            continue;
        }
        let list = kn.list(v);
        let recs = routes
            .as_mut()
            .map(|r| kn.route_recs(v, r.arena_mut()))
            .unwrap_or_default();
        let mut add_bunch_edge = |routes: &mut Option<Unroller>, idx: usize, u: usize, du: Dist| {
            h.add_edge(v, u, du);
            if let Some(r) = routes.as_mut() {
                r.register(v, u, recs[idx].expect("non-root bunch entry has a record"));
            }
        };
        match kn.nearest_in(v, &in_a1) {
            Some((pivot, pd)) => {
                let mut pivot_idx = usize::MAX;
                for (idx, &(u, du)) in list.iter().enumerate() {
                    if u as usize == v {
                        continue;
                    }
                    if u == pivot && du == pd {
                        pivot_idx = pivot_idx.min(idx);
                    }
                    if du < pd {
                        add_bunch_edge(&mut routes, idx, u as usize, du);
                    }
                }
                add_bunch_edge(&mut routes, pivot_idx, pivot as usize, pd);
            }
            None => {
                // No pivot within the (k,t)-list: the list covers the whole
                // t-ball (or the hitting set missed — randomized tail case);
                // connect the full known bunch.
                for (idx, &(u, du)) in list.iter().enumerate() {
                    if u as usize != v {
                        add_bunch_edge(&mut routes, idx, u as usize, du);
                    }
                }
            }
        }
    }
    (h, routes)
}

/// Iterated pivot interconnection `ℓ = 1..⌈log₂ t⌉` over the bunches `h`,
/// returning `G ∪ H`. Iteration `ℓ` detects the `≤ 4β`-hop distances
/// between pivots in `G ∪ H^{(ℓ-1)}` and appends one edge per reached pair;
/// its walks' shortcut hops resolve against records registered in earlier
/// iterations (or the bunches), so unrolling strictly descends through the
/// layering.
///
/// Detection stops at the first iteration that changes nothing: no pair
/// distance drops and no registration is replaced. Its edges only add
/// parallel copies, each behind an equal copy in both endpoints' lists, so
/// no relaxation through them ever succeeds and every later iteration
/// would detect, append and register exactly the same. Those iterations
/// are replayed without detection: charged as before, the same copies
/// appended in place (`DESIGN.md` §7.4).
fn interconnect(
    g: &Graph,
    base_degree: &[u32],
    params: &HopsetParams,
    a1: &[usize],
    mut h: WeightedGraph,
    mut routes: Option<&mut Unroller>,
    ledger: &mut RoundLedger,
) -> WeightedGraph {
    let n = g.n();
    let hops = 4 * params.beta();
    let iterations = params.iterations();
    let charge = |ledger: &mut RoundLedger, ell: usize, union: &WeightedGraph| {
        ledger.charge_source_detection(
            format!("pivot interconnection #{ell}"),
            union.m() as u64,
            a1.len() as u64,
            hops as u64,
        );
    };
    // Every pair's distance, reached or not, in pair order.
    let mut prev: Option<Vec<Dist>> = None;
    for ell in 1..=iterations {
        let mut union = WeightedGraph::union_of(g, &h);
        charge(ledger, ell, &union);
        let dist = dijkstra::hop_limited_over_union(&union, base_degree, a1, hops, params.threads);
        // Recording walks every reached pair, so every pivot needs its
        // parent row.
        let parents = routes.is_some().then(|| {
            let mut rows = vec![u32::MAX; a1.len() * n];
            let all = vec![true; a1.len()];
            dijkstra::fill_hop_parents(&union, a1, hops, params.threads, &all, &mut rows);
            rows
        });
        let mut dists = Vec::new();
        let mut reached: Vec<(usize, usize, Dist)> = Vec::new();
        let mut replaced = false;
        let mut single_hops = true;
        for (i, &a) in a1.iter().enumerate() {
            for &b in a1.iter().filter(|&&b| b > a) {
                let d = dist[i * n + b];
                dists.push(d);
                if d >= INF {
                    continue;
                }
                reached.push((a, b, d));
                if let (Some(r), Some(parents)) = (routes.as_deref_mut(), parents.as_ref()) {
                    let row = &parents[i * n..(i + 1) * n];
                    let chain: Vec<u32> = dijkstra::chain_from_hop_parents(row, a, b)
                        .expect("detected pivot has a parent chain")
                        .into_iter()
                        .map(|x| x as u32)
                        .collect();
                    single_hops &= chain.len() == 2;
                    let before = r.rec_between(a, b);
                    let rec = r
                        .intern_walk(g, &chain)
                        .expect("interconnection hops are G or earlier-H edges");
                    r.register(a, b, rec);
                    replaced |= r.rec_between(a, b) != before;
                }
            }
        }
        let unchanged = match &prev {
            Some(p) => *p == dists,
            None => reached.is_empty(),
        };
        if unchanged && !replaced {
            // Each distance is already a pair edge's weight, which the
            // search reaches in its first hop: every walk is `a → b`.
            debug_assert!(single_hops, "a settled iteration walks single hops");
            let copies = iterations - ell + 1;
            let mut extra = vec![0usize; n];
            for &(a, b, _) in &reached {
                extra[a] += copies;
                extra[b] += copies;
            }
            for (v, &x) in extra.iter().enumerate().filter(|&(_, &x)| x > 0) {
                union.reserve_exact(v, x);
            }
            for replay in ell..=iterations {
                if replay > ell {
                    charge(ledger, replay, &union);
                    // The settled walks again: a single `G` edge interns one
                    // fresh edge record, a registered pair nothing.
                    if let Some(r) = routes.as_deref_mut() {
                        for &(a, b, _) in &reached {
                            let rec = r
                                .intern_walk(g, &[a as u32, b as u32])
                                .expect("settled pairs are G or registered edges");
                            r.register(a, b, rec);
                        }
                    }
                }
                for &(a, b, d) in &reached {
                    union.add_edge(a, b, d);
                }
            }
            return union;
        }
        for &(a, b, d) in &reached {
            h.add_edge(a, b, d);
        }
        prev = Some(dists);
    }
    WeightedGraph::union_of(g, &h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_params(n: usize, t: Dist, eps: f64) -> HopsetParams {
        HopsetParams::paper(n, t, eps)
    }

    /// The interconnection loop that detects in every iteration, rebuilding
    /// `G ∪ H^{(ℓ-1)}` each time: the reference `interconnect` must
    /// reproduce. Returns `H`, the routes and, per iteration, the number of
    /// pivot pairs whose distance dropped.
    fn reference_build(
        g: &Graph,
        params: HopsetParams,
        rng: Option<&mut ChaCha8Rng>,
        ledger: &mut RoundLedger,
    ) -> (WeightedGraph, Vec<usize>, Option<Unroller>, Vec<usize>) {
        let mut phase = ledger.enter("hopset");
        let n = g.n();
        let kn = KNearest::compute_with(
            g,
            params.k,
            params.t,
            Strategy::TruncatedBfs,
            params.threads,
            &mut phase,
        );
        let full_sets = kn.full_sets();
        let k = params.k.min(full_min_size(&full_sets, params.k));
        let a1 = match rng {
            Some(rng) => {
                hitting::random_hitting_set(n, k, &full_sets, params.hitting_c, rng, &mut phase)
            }
            None => hitting::deterministic_hitting_set(n, k, &full_sets, &mut phase),
        }
        .unwrap();
        let beta = params.beta();
        let kn = if params.record_paths {
            kn.with_parents(g)
        } else {
            kn
        };
        let (mut h, mut routes) = bunches(g, &params, &a1, &kn);
        let mut best = std::collections::BTreeMap::new();
        let mut improved = Vec::new();
        if !a1.is_empty() {
            for ell in 1..=params.iterations() {
                let union = {
                    let mut u = WeightedGraph::from_unweighted(g);
                    for (a, b, w) in h.edges() {
                        u.add_edge(a, b, w);
                    }
                    u
                };
                phase.charge_source_detection(
                    format!("pivot interconnection #{ell}"),
                    union.m() as u64,
                    a1.len() as u64,
                    4 * beta as u64,
                );
                let (dist, parents) = dijkstra::hop_limited_from_sources(
                    &union,
                    &a1,
                    4 * beta,
                    params.threads,
                    routes.is_some(),
                );
                let mut dropped = 0;
                for (i, &a) in a1.iter().enumerate() {
                    for &b in &a1 {
                        if b <= a {
                            continue;
                        }
                        let d = dist[i * n + b];
                        if d < INF {
                            if d < *best.get(&(a, b)).unwrap_or(&INF) {
                                best.insert((a, b), d);
                                dropped += 1;
                            }
                            h.add_edge(a, b, d);
                            if let (Some(r), Some(parents)) = (routes.as_mut(), parents.as_ref()) {
                                let row = &parents[i * n..(i + 1) * n];
                                let chain: Vec<u32> = dijkstra::chain_from_hop_parents(row, a, b)
                                    .unwrap()
                                    .into_iter()
                                    .map(|x| x as u32)
                                    .collect();
                                let rec = r.intern_walk(g, &chain).unwrap();
                                r.register(a, b, rec);
                            }
                        }
                    }
                }
                improved.push(dropped);
            }
        }
        (h, a1, routes, improved)
    }

    /// Stopping detection at the fixpoint changes nothing: `H` edge for
    /// edge, `A₁`, `β`, every ledger entry, the arena and the registry match
    /// the every-iteration loop, deterministic and randomized, recording on
    /// and off, at 1–3 threads. The inputs cover an iteration ≥ 2 that
    /// still improves a pair (a long cycle with a hop bound under its pivot
    /// spacing), a loop that settles at iteration 2 with iterations left to
    /// replay, and pivots adjacent in `G`, whose replayed walks intern fresh
    /// edge records.
    #[test]
    fn fixpoint_matches_the_every_iteration_loop() {
        let mut gen = ChaCha8Rng::seed_from_u64(5);
        let mut short_hops = check_params(240, 96, 0.5);
        short_hops.beta_factor = 0.1;
        let mut dense_pivots = HopsetParams::scaled(48, 16, 0.5);
        dense_pivots.k = 6;
        dense_pivots.hitting_c = 6.0;
        let cases = [
            ("cycle", generators::cycle(240), short_hops),
            (
                "grid",
                generators::grid(9, 9),
                HopsetParams::scaled(81, 16, 0.5),
            ),
            (
                "gnp",
                generators::connected_gnp(90, 0.05, &mut gen),
                HopsetParams::scaled(90, 32, 0.5),
            ),
            ("caveman", generators::caveman(6, 8), dense_pivots),
        ];
        let (mut late_drop, mut settled_early, mut adjacent) = (false, false, false);
        for (name, g, params) in &cases {
            for randomized in [false, true] {
                for record in [false, true] {
                    for threads in 1..=3 {
                        let params = params.with_threads(threads).with_paths(record);
                        let mut rng_ref = ChaCha8Rng::seed_from_u64(11);
                        let mut rng_new = ChaCha8Rng::seed_from_u64(11);
                        let mut l_ref = RoundLedger::new(g.n());
                        let mut l_new = RoundLedger::new(g.n());
                        let (h, a1, routes, improved) = reference_build(
                            g,
                            params,
                            randomized.then_some(&mut rng_ref),
                            &mut l_ref,
                        );
                        let fresh = &mut BasisCache::default();
                        let hs = if randomized {
                            build_randomized(g, params, &mut rng_new, fresh, &mut l_new)
                        } else {
                            build_deterministic(g, params, fresh, &mut l_new)
                        };
                        let tag = format!("{name} rng={randomized} rec={record} t={threads}");
                        assert_eq!(
                            hs.edges().collect::<Vec<_>>(),
                            h.edges().collect::<Vec<_>>(),
                            "{tag}: H"
                        );
                        assert_eq!(hs.union.m(), g.m() + h.m(), "{tag}: edge count");
                        assert_eq!(hs.a1, a1, "{tag}: A1");
                        assert_eq!(hs.beta, params.beta(), "{tag}: beta");
                        assert_eq!(l_new.entries(), l_ref.entries(), "{tag}: ledger");
                        assert_eq!(hs.routes, routes, "{tag}: arena and registry");
                        late_drop |= improved.iter().skip(1).any(|&x| x > 0);
                        settled_early |= improved.len() > 2
                            && improved[0] > 0
                            && improved[1..].iter().all(|&x| x == 0);
                        adjacent |= record
                            && improved.len() > 2
                            && a1.iter().any(|&a| a1.iter().any(|&b| g.has_edge(a, b)));
                    }
                }
            }
        }
        assert!(late_drop, "no input improves a pair after iteration 1");
        assert!(settled_early, "no input settles at iteration 2");
        assert!(adjacent, "no recorded input has adjacent pivots");
    }

    /// Builds through one shared [`BasisCache`] equal fresh builds in `H`,
    /// the union, `A₁`, `β`, the routes and every ledger entry: request
    /// pairs `(t, 2t)` in both orders on one graph, with a request on a
    /// subgraph in between (the session's `G'`), deterministic and
    /// randomized, recording on and off, at 1–3 threads. The long cycle's
    /// lists are not full, so `(2t, t)` cuts entries off; the gnp graph's
    /// lists are all full at `t`, so `(t, 2t)` reuses them; and randomized
    /// requests draw a different `A₁` on reused lists, so the bunches are
    /// rebuilt.
    #[test]
    fn shared_basis_matches_fresh_builds() {
        let mut gen = ChaCha8Rng::seed_from_u64(8);
        let cases = [
            ("cycle", generators::cycle(240), 8),
            ("gnp", generators::connected_gnp(90, 0.05, &mut gen), 8),
        ];
        let (mut cut_drops, mut all_full, mut a1_differs) = (false, false, false);
        for (name, g, t) in &cases {
            let edges: Vec<(usize, usize)> = g.edges().skip(1).collect();
            let sub = Graph::from_edges(g.n(), &edges);
            let k = HopsetParams::scaled(g.n(), *t, 0.5).k;
            let mut ledger = RoundLedger::new(g.n());
            let narrow = KNearest::compute(g, k, *t, Strategy::TruncatedBfs, &mut ledger);
            let wide = KNearest::compute(g, k, 2 * t, Strategy::TruncatedBfs, &mut ledger);
            cut_drops |= wide.cut(*t).is_some();
            all_full |= narrow.all_full();
            for (first, second) in [(*t, 2 * t), (2 * t, *t)] {
                // Bases the shared cache must compute: `g`, `sub`, and `g`
                // again only when the first lists can serve neither bound.
                let bases = if first < second && !narrow.all_full() {
                    3
                } else {
                    2
                };
                let requests = [(g, first), (&sub, first), (g, second)];
                for randomized in [false, true] {
                    for record in [false, true] {
                        for threads in 1..=3 {
                            let mut shared = BasisCache::default();
                            shared.set_timed(true);
                            let build = |shared: Option<&mut BasisCache>| {
                                let mut rng = ChaCha8Rng::seed_from_u64(3);
                                let mut ledger = RoundLedger::new(g.n());
                                let mut shared = shared;
                                let built: Vec<BoundedHopset> = requests
                                    .iter()
                                    .map(|&(g, t)| {
                                        let params = HopsetParams::scaled(g.n(), t, 0.5)
                                            .with_threads(threads)
                                            .with_paths(record);
                                        let mut fresh = BasisCache::default();
                                        let basis = shared.as_deref_mut().unwrap_or(&mut fresh);
                                        if randomized {
                                            build_randomized(
                                                g,
                                                params,
                                                &mut rng,
                                                basis,
                                                &mut ledger,
                                            )
                                        } else {
                                            build_deterministic(g, params, basis, &mut ledger)
                                        }
                                    })
                                    .collect();
                                (built, ledger)
                            };
                            let (want, l_fresh) = build(None);
                            let (got, l_shared) = build(Some(&mut shared));
                            let tag = format!(
                                "{name} ({first},{second}) rng={randomized} rec={record} t={threads}"
                            );
                            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                                let tag = format!("{tag} request {i}");
                                assert_eq!(
                                    a.edges().collect::<Vec<_>>(),
                                    b.edges().collect::<Vec<_>>(),
                                    "{tag}: H"
                                );
                                assert_eq!(a.union, b.union, "{tag}: union");
                                assert_eq!(a.a1, b.a1, "{tag}: A1");
                                assert_eq!(a.beta, b.beta, "{tag}: beta");
                                assert_eq!(a.routes, b.routes, "{tag}: routes");
                            }
                            assert_eq!(l_shared.entries(), l_fresh.entries(), "{tag}: ledger");
                            let calls = shared.take_timings().len();
                            assert_eq!(calls, bases, "{tag}: bases computed");
                            a1_differs |= randomized && got[0].a1 != got[2].a1;
                        }
                    }
                }
            }
        }
        assert!(cut_drops, "no input cuts list entries");
        assert!(all_full, "no input has all lists full");
        assert!(a1_differs, "no randomized input redraws A1");
    }

    /// A deterministic request over a basis's uncut lists replays the
    /// hitting set's charges and never runs it, at the bound the basis was
    /// computed for and, the lists being all full, at twice it. A
    /// randomized request on the same lists runs its hitting set.
    #[test]
    fn deterministic_reuse_replays_the_hitting_set() {
        let mut gen = ChaCha8Rng::seed_from_u64(8);
        let g = generators::connected_gnp(90, 0.05, &mut gen);
        let n = g.n();
        let request = |t: Dist| HopsetParams::scaled(n, t, 0.5);
        let mut cache = BasisCache::default();
        let mut first = RoundLedger::new(n);
        let fresh = cache.bunches(&g, &request(8), &mut first, true, |k, sets, ledger| {
            hitting::deterministic_hitting_set(n, k, sets, ledger)
        });
        assert!(cache.bases[0].kn.all_full(), "lists are all full");
        for t in [8, 16] {
            let mut again = RoundLedger::new(n);
            let reused = cache.bunches(&g, &request(t), &mut again, true, |_, _, _| {
                panic!("the deterministic hitting set ran again at t = {t}")
            });
            assert_eq!(reused, fresh, "t = {t}: A1 and bunches");
            let mut want = RoundLedger::new(n);
            let rebuilt = BasisCache::default().bunches(
                &g,
                &request(t),
                &mut want,
                true,
                |k, sets, ledger| hitting::deterministic_hitting_set(n, k, sets, ledger),
            );
            assert_eq!(reused, rebuilt, "t = {t}: a fresh basis");
            assert_eq!(again.entries(), want.entries(), "t = {t}: ledger");
        }
        let mut ran = false;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        cache.bunches(&g, &request(8), &mut first, false, |k, sets, ledger| {
            ran = true;
            hitting::random_hitting_set(n, k, sets, 2.5, &mut rng, ledger)
        });
        assert!(ran, "a randomized request runs its hitting set");
    }

    #[test]
    fn params_shapes() {
        let p = check_params(1024, 64, 0.5);
        assert_eq!(p.iterations(), 6);
        assert!(p.eps_iter() < 1.0 / 6.0 + 1e-9);
        assert_eq!(p.beta(), (12.0 * 6.0 / 0.5) as usize);
        assert!(p.k <= 1024);
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn bad_eps_rejected() {
        let _ = check_params(64, 8, 1.5);
    }

    #[test]
    fn randomized_hopset_guarantee_holds() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for (name, g) in [
            ("cycle", generators::cycle(48)),
            ("grid", generators::grid(7, 7)),
            ("caveman", generators::caveman(6, 6)),
        ] {
            let params = check_params(g.n(), 8, 0.5);
            let mut ledger = RoundLedger::new(g.n());
            let hs = build_randomized(
                &g,
                params,
                &mut rng,
                &mut BasisCache::default(),
                &mut ledger,
            );
            let samples: Vec<usize> = (0..g.n()).step_by(5).collect();
            let worst = hs.verify_from(&g, &samples);
            assert!(worst <= 1.5 + 1e-9, "{name}: worst ratio {worst}");
        }
    }

    #[test]
    fn deterministic_hopset_guarantee_holds() {
        let g = generators::caveman(5, 6);
        let params = check_params(g.n(), 6, 0.4);
        let mut ledger = RoundLedger::new(g.n());
        let hs = build_deterministic(&g, params, &mut BasisCache::default(), &mut ledger);
        let samples: Vec<usize> = (0..g.n()).collect();
        let worst = hs.verify_from(&g, &samples);
        assert!(worst <= 1.4 + 1e-9, "worst ratio {worst}");
    }

    #[test]
    fn hopset_size_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::connected_gnp(120, 0.05, &mut rng);
        let params = check_params(g.n(), 8, 0.5);
        let mut ledger = RoundLedger::new(g.n());
        let hs = build_randomized(
            &g,
            params,
            &mut rng,
            &mut BasisCache::default(),
            &mut ledger,
        );
        let n = g.n() as f64;
        let bound = 4.0 * n.powf(1.5) * n.ln();
        let size = hs.union.m() - g.m();
        assert!(
            (size as f64) < bound,
            "hopset has {size} edges, bound {bound}"
        );
    }

    #[test]
    fn pivots_interconnected_within_t() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::cycle(32);
        let params = check_params(32, 8, 0.5);
        let mut ledger = RoundLedger::new(32);
        let hs = build_randomized(
            &g,
            params,
            &mut rng,
            &mut BasisCache::default(),
            &mut ledger,
        );
        // Every pair of pivots within distance t must be ≤ 2 hops apart in H
        // (they share a direct edge after the final interconnection).
        let exact = cc_graphs::bfs::apsp_exact(&g);
        for &a in &hs.a1 {
            for &b in &hs.a1 {
                if a < b && exact[a][b] <= params.t {
                    let w = hs
                        .edges()
                        .filter(|&(x, y, _)| (x, y) == (a.min(b), a.max(b)))
                        .map(|(_, _, w)| w)
                        .min();
                    assert!(w.is_some(), "pivots {a},{b} not interconnected");
                    assert!(w.unwrap() >= exact[a][b]);
                }
            }
        }
    }

    #[test]
    fn recorded_routes_unroll_every_hopset_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for (name, g) in [
            ("cycle", generators::cycle(40)),
            ("caveman", generators::caveman(5, 6)),
            ("gnp", generators::connected_gnp(50, 0.08, &mut rng)),
        ] {
            let params = check_params(g.n(), 8, 0.5);
            let mut rng_a = ChaCha8Rng::seed_from_u64(77);
            let mut rng_b = ChaCha8Rng::seed_from_u64(77);
            let mut l_plain = RoundLedger::new(g.n());
            let mut l_rec = RoundLedger::new(g.n());
            let plain = build_randomized(
                &g,
                params,
                &mut rng_a,
                &mut BasisCache::default(),
                &mut l_plain,
            );
            let hs = build_randomized(
                &g,
                params.with_paths(true),
                &mut rng_b,
                &mut BasisCache::default(),
                &mut l_rec,
            );
            // Recording is wall-clock only: same edges, same rounds.
            assert_eq!(hs.union, plain.union, "{name}: recording changed edges");
            assert_eq!(
                l_plain.total_rounds(),
                l_rec.total_rounds(),
                "{name}: recording changed rounds"
            );
            assert!(plain.routes.is_none());
            let routes = hs.routes.as_ref().expect("routes recorded");
            for (u, v, w) in hs.edges() {
                let walk = routes
                    .unroll(u, v)
                    .unwrap_or_else(|| panic!("{name}: edge ({u},{v}) has no route"));
                assert_eq!(walk[0].0 as usize, u, "{name}");
                assert_eq!(walk[walk.len() - 1].1 as usize, v, "{name}");
                for win in walk.windows(2) {
                    assert_eq!(win[0].1, win[1].0, "{name}: edges must chain");
                }
                for &(x, y) in &walk {
                    assert!(g.has_edge(x as usize, y as usize), "{name}: real G edge");
                }
                // Unweighted G: walk weight = edge count ≤ the edge weight.
                assert!(
                    walk.len() as Dist <= w,
                    "{name}: route of ({u},{v}) weighs {} > {w}",
                    walk.len()
                );
            }
        }
    }

    #[test]
    fn deterministic_build_also_records_routes() {
        let g = generators::caveman(5, 5);
        let params = check_params(g.n(), 6, 0.4).with_paths(true);
        let mut ledger = RoundLedger::new(g.n());
        let hs = build_deterministic(&g, params, &mut BasisCache::default(), &mut ledger);
        let routes = hs.routes.as_ref().expect("routes recorded");
        let exact = cc_graphs::bfs::apsp_exact(&g);
        for (u, v, w) in hs.edges() {
            let walk = routes.unroll(u, v).expect("every edge unrolls");
            assert!(walk.len() as Dist >= exact[u][v], "walks cannot undercut");
            assert!(walk.len() as Dist <= w);
        }
    }

    #[test]
    fn rounds_scale_with_log_t_squared() {
        let g = generators::cycle(200);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut l_small = RoundLedger::new(200);
        let _ = build_randomized(
            &g,
            check_params(200, 4, 0.5),
            &mut rng,
            &mut BasisCache::default(),
            &mut l_small,
        );
        let mut l_big = RoundLedger::new(200);
        let _ = build_randomized(
            &g,
            check_params(200, 64, 0.5),
            &mut rng,
            &mut BasisCache::default(),
            &mut l_big,
        );
        assert!(l_big.total_rounds() > l_small.total_rounds());
    }

    #[test]
    fn weights_never_undercut_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::connected_gnp(60, 0.06, &mut rng);
        let params = check_params(60, 8, 0.5);
        let mut ledger = RoundLedger::new(60);
        let hs = build_randomized(
            &g,
            params,
            &mut rng,
            &mut BasisCache::default(),
            &mut ledger,
        );
        let exact = cc_graphs::bfs::apsp_exact(&g);
        for (u, v, w) in hs.edges() {
            assert!(
                w >= exact[u][v],
                "edge ({u},{v}) weight {w} < {}",
                exact[u][v]
            );
        }
    }
}
