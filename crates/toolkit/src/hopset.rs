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
//! Rounds: `O(log²t / ε)` (+`O((log log n)³)` for the deterministic hitting
//! set). Size: `O(n^{3/2} log n)` edges. `β = O(log t / ε)`.

use cc_clique::RoundLedger;
use cc_derand::hitting;
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

/// Builds a `(β, ε, t)`-hopset with a randomized hitting set (Thm 12.1):
/// `O(log²t/ε)` rounds w.h.p.
pub fn build_randomized(
    g: &Graph,
    params: HopsetParams,
    rng: &mut impl Rng,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let mut phase = ledger.enter("hopset");
    let kn = KNearest::compute_with(
        g,
        params.k,
        params.t,
        Strategy::TruncatedBfs,
        params.threads,
        &mut phase,
    );
    let full_sets = full_knearest_sets(&kn, g.n(), params.k);
    let a1 = hitting::random_hitting_set(
        g.n(),
        params.k.min(full_min_size(&full_sets, params.k)),
        &full_sets,
        params.hitting_c,
        rng,
        &mut phase,
    )
    .expect("(k,t)-nearest sets are valid hitting-set input");
    build_from_pivots(g, params, a1, kn, &mut phase)
}

/// Builds a `(β, ε, t)`-hopset with the deterministic hitting set of
/// Lemma 9 (Thm 12.2): `O(log²t/ε + (log log n)³)` rounds.
pub fn build_deterministic(
    g: &Graph,
    params: HopsetParams,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let mut phase = ledger.enter("hopset");
    let kn = KNearest::compute_with(
        g,
        params.k,
        params.t,
        Strategy::TruncatedBfs,
        params.threads,
        &mut phase,
    );
    let full_sets = full_knearest_sets(&kn, g.n(), params.k);
    let a1 = hitting::deterministic_hitting_set(
        g.n(),
        params.k.min(full_min_size(&full_sets, params.k)),
        &full_sets,
        &mut phase,
    )
    .expect("(k,t)-nearest sets are valid hitting-set input");
    build_from_pivots(g, params, a1, kn, &mut phase)
}

/// The `(k,t)`-nearest sets of vertices whose list is full (size `k`) —
/// exactly the sets `A₁` must hit.
fn full_knearest_sets(kn: &KNearest, n: usize, k: usize) -> Vec<Vec<usize>> {
    (0..n)
        .filter(|&v| kn.list(v).len() >= k)
        .map(|v| kn.list(v).iter().map(|&(c, _)| c as usize).collect())
        .collect()
}

fn full_min_size(full: &[Vec<usize>], k: usize) -> usize {
    full.iter().map(Vec::len).min().unwrap_or(k).max(1)
}

/// Shared construction once the pivot set `A₁` is fixed.
fn build_from_pivots(
    g: &Graph,
    params: HopsetParams,
    a1: Vec<usize>,
    kn: KNearest,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let (h, mut routes) = bunches(g, &params, &a1, kn);
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
/// provenance when recording.
fn bunches(
    g: &Graph,
    params: &HopsetParams,
    a1: &[usize],
    kn: KNearest,
) -> (WeightedGraph, Option<Unroller>) {
    let n = g.n();
    // Witness bookkeeping is local-only: it must not change the edges built
    // or the rounds charged below.
    let kn = if params.record_paths && !kn.has_parents() {
        kn.with_parents(g)
    } else {
        kn
    };
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
        let full_sets = full_knearest_sets(&kn, n, params.k);
        let k = params.k.min(full_min_size(&full_sets, params.k));
        let a1 = match rng {
            Some(rng) => {
                hitting::random_hitting_set(n, k, &full_sets, params.hitting_c, rng, &mut phase)
            }
            None => hitting::deterministic_hitting_set(n, k, &full_sets, &mut phase),
        }
        .unwrap();
        let beta = params.beta();
        let (mut h, mut routes) = bunches(g, &params, &a1, kn);
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
                        let hs = if randomized {
                            build_randomized(g, params, &mut rng_new, &mut l_new)
                        } else {
                            build_deterministic(g, params, &mut l_new)
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
            let hs = build_randomized(&g, params, &mut rng, &mut ledger);
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
        let hs = build_deterministic(&g, params, &mut ledger);
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
        let hs = build_randomized(&g, params, &mut rng, &mut ledger);
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
        let hs = build_randomized(&g, params, &mut rng, &mut ledger);
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
            let plain = build_randomized(&g, params, &mut rng_a, &mut l_plain);
            let hs = build_randomized(&g, params.with_paths(true), &mut rng_b, &mut l_rec);
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
        let hs = build_deterministic(&g, params, &mut ledger);
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
        let _ = build_randomized(&g, check_params(200, 4, 0.5), &mut rng, &mut l_small);
        let mut l_big = RoundLedger::new(200);
        let _ = build_randomized(&g, check_params(200, 64, 0.5), &mut rng, &mut l_big);
        assert!(l_big.total_rounds() > l_small.total_rounds());
    }

    #[test]
    fn weights_never_undercut_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::connected_gnp(60, 0.06, &mut rng);
        let params = check_params(60, 8, 0.5);
        let mut ledger = RoundLedger::new(60);
        let hs = build_randomized(&g, params, &mut rng, &mut ledger);
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
