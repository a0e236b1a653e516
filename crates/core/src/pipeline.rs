//! Crate-private plumbing shared by the application algorithms: one switch
//! between the randomized and deterministic tool variants, the session-level
//! substrate cache, emulator collection, and the short/long distance
//! threshold.

use std::cell::RefCell;
use std::collections::BTreeMap;

use cc_clique::RoundLedger;
use cc_derand::hitting;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::{deterministic, whp, Emulator};
use cc_graphs::{dadd, dijkstra, Dist, Graph, INF};
use cc_obs::StageTimes;
use cc_routes::{PathStore, RecId, RowStore};
use cc_toolkit::hopset::{self, BoundedHopset, HopsetParams};
use cc_toolkit::source_detection::SourceDetection;
use rand::RngCore;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;

/// Randomized-or-deterministic mode threaded through the pipelines.
pub(crate) enum Mode<'a> {
    /// Randomized variants (Lemma 8 hitting sets, Thm 12.1 hopsets, Thm 31
    /// emulator).
    Rng(&'a mut dyn RngCore),
    /// Deterministic variants (Lemma 9, Thm 12.2, Thm 50).
    Det,
}

impl Mode<'_> {
    fn tag(&self) -> &'static str {
        match self {
            Mode::Rng(_) => "rng",
            Mode::Det => "det",
        }
    }
}

/// `f64` parameters as cache-key bits (exact — the configs store the same
/// float the caller passed).
fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Cache key identifying one emulator construction. `record_paths` is part
/// of the key: a path-carrying query must not be served a witness-less
/// cached emulator (the estimates are identical either way, but the routes
/// would be missing).
type EmulatorKey = (&'static str, usize, u64, usize, u64, usize, bool, bool);

fn emulator_key(cfg: &CliqueEmulatorConfig, mode: &Mode<'_>) -> EmulatorKey {
    (
        mode.tag(),
        cfg.params.n(),
        bits(cfg.params.eps()),
        cfg.params.r(),
        bits(cfg.eps_prime),
        cfg.k,
        cfg.scaled_hopset,
        cfg.record_paths,
    )
}

/// Cache key identifying one bounded-hopset construction: graph tag and
/// shape, threshold, accuracy, profile, mode, path recording.
type HopsetKey = (
    &'static str,
    &'static str,
    usize,
    usize,
    Dist,
    u64,
    bool,
    bool,
);

/// Cache key identifying one hitting-set selection: mode, call-site label,
/// universe, clamped `k`, and a fingerprint of the set contents (so a label
/// reused with different sets cannot serve a stale, non-hitting selection).
type HittingKey = (&'static str, &'static str, usize, usize, u64);

/// FNV-1a fingerprint of a set collection, order-sensitive.
fn sets_fingerprint(sets: &[Vec<usize>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(sets.len() as u64);
    for s in sets {
        mix(s.len() as u64);
        for &e in s {
            mix(e as u64);
        }
    }
    h
}

/// Session-scoped cache of the expensive substrates every pipeline stands
/// on: the near-additive emulator, bounded hopsets (keyed by graph, mode and
/// threshold) and hitting sets.
///
/// The one-shot entry points run with a fresh cache, so each free-function
/// call charges exactly what it always did. A [`crate::Solver`] keeps one
/// `Substrates` for its lifetime, which is what amortizes construction
/// across queries: a cache hit returns the stored object and charges **zero**
/// rounds, modelling that every node of the clique already holds the
/// substrate locally from the earlier query.
/// Keys are fully ordered and the maps are `BTreeMap`s, not `HashMap`s:
/// nothing here may iterate in an address-dependent order (the
/// `unordered-iter` rule in `cc-analyze` bans unordered containers in
/// result-affecting crates wholesale — see `DESIGN.md` §11.1).
#[derive(Debug, Default)]
pub(crate) struct Substrates {
    emulator: Option<(EmulatorKey, Emulator)>,
    hopsets: BTreeMap<HopsetKey, BoundedHopset>,
    hitting_sets: BTreeMap<HittingKey, Vec<usize>>,
    /// Gated wall-clock stage profiling. `RefCell` because the freeze path
    /// records through `&Solver`; the solver session is single-threaded, so
    /// the borrows are trivially disjoint. Disabled (the default), `start`
    /// never reads the clock — the pipelines cost nothing and timing can
    /// never feed back into results or charged rounds.
    pub(crate) stages: RefCell<StageTimes>,
}

impl Substrates {
    pub(crate) fn new() -> Self {
        Substrates::default()
    }

    /// Runs `f`, crediting its wall time to `stage` when profiling is on.
    pub(crate) fn timed<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let started = self.stages.borrow().start();
        let out = f();
        self.stages.borrow_mut().stop(stage, started);
        out
    }

    /// The emulator for `cfg`, built (w.h.p. variant when randomized, Thm 50
    /// when deterministic) and distributed to every vertex on first use,
    /// reused afterwards.
    pub(crate) fn emulator_for(
        &mut self,
        g: &Graph,
        cfg: &CliqueEmulatorConfig,
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
    ) -> &Emulator {
        let key = emulator_key(cfg, mode);
        let stale = match &self.emulator {
            Some((k, _)) => *k != key,
            None => true,
        };
        if stale {
            let started = self.stages.borrow().start();
            let emu = match mode {
                Mode::Rng(rng) => whp::build(g, cfg, rng, ledger).0,
                Mode::Det => deterministic::build(g, cfg, ledger),
            };
            ledger.charge_learn_all("collect emulator at all vertices", emu.m() as u64);
            self.stages.borrow_mut().stop("emulator_build", started);
            self.emulator = Some((key, emu));
        }
        &self.emulator.as_ref().expect("just inserted").1
    }

    /// A `(β, ε, t)`-bounded hopset of `g`, built on first use per
    /// `(graph, threshold, accuracy, profile, mode)` key and reused
    /// afterwards. `graph_tag` distinguishes derived graphs (e.g. the
    /// low-degree subgraph) that share `n` with the input.
    ///
    /// Returns an owned clone so pipelines can interleave further cache
    /// lookups while holding the hopset.
    /// `threads` is purely wall-clock (the construction is bit-identical at
    /// any thread count), so it is deliberately **not** part of the cache
    /// key.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hopset_for(
        &mut self,
        graph_tag: &'static str,
        g: &Graph,
        t: Dist,
        eps: f64,
        scaled: bool,
        threads: usize,
        record_paths: bool,
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
    ) -> BoundedHopset {
        let key = (
            mode.tag(),
            graph_tag,
            g.n(),
            g.m(),
            t,
            bits(eps),
            scaled,
            record_paths,
        );
        if !self.hopsets.contains_key(&key) {
            let started = self.stages.borrow().start();
            let params = if scaled {
                HopsetParams::scaled(g.n(), t, eps)
            } else {
                HopsetParams::paper(g.n(), t, eps)
            }
            .with_threads(threads)
            .with_paths(record_paths);
            let built = match mode {
                Mode::Rng(rng) => hopset::build_randomized(g, params, rng, ledger),
                Mode::Det => hopset::build_deterministic(g, params, ledger),
            };
            self.stages.borrow_mut().stop("hopset_build", started);
            self.hopsets.insert(key, built);
        }
        self.hopsets.get(&key).expect("just inserted").clone()
    }

    /// A hitting set over `sets`, computed on first use per
    /// `(label, universe, k, mode)` key and reused afterwards.
    ///
    /// The promised minimum size `k` is clamped to the smallest set so the
    /// paper-level parameter choice cannot over-promise; genuine instance
    /// violations (out-of-range elements) surface as [`CcError::Hitting`]
    /// instead of panicking.
    pub(crate) fn hitting_set_for(
        &mut self,
        label: &'static str,
        universe: usize,
        k: usize,
        sets: &[Vec<usize>],
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
    ) -> Result<Vec<usize>, CcError> {
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        let k = k.min(sets.iter().map(Vec::len).min().unwrap_or(k)).max(1);
        let key = (mode.tag(), label, universe, k, sets_fingerprint(sets));
        if let Some(cached) = self.hitting_sets.get(&key) {
            return Ok(cached.clone());
        }
        let started = self.stages.borrow().start();
        let selected = match mode {
            Mode::Rng(rng) => hitting::random_hitting_set(universe, k, sets, 2.5, rng, ledger),
            Mode::Det => hitting::deterministic_hitting_set(universe, k, sets, ledger),
        }?;
        self.stages.borrow_mut().stop("hitting_sets", started);
        self.hitting_sets.insert(key, selected.clone());
        Ok(selected)
    }
}

/// Obtains the emulator (cached or freshly built), lets every vertex learn
/// it, and lowers every row `u` of `delta` to `min(row, sssp(emu, u))` with
/// the input adjacency entries lowered to 1. The per-source Dijkstras are
/// sharded by rows over `cfg.threads` workers, each writing its own rows in
/// place. When `paths` is given, every improvement is shadowed by a witness
/// offer (the values written to `delta` are untouched either way).
pub(crate) fn collect_emulator<'s>(
    g: &Graph,
    cfg: &CliqueEmulatorConfig,
    mode: &mut Mode<'_>,
    delta: &mut DistanceMatrix,
    substrates: &'s mut Substrates,
    paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) -> &'s Emulator {
    substrates.emulator_for(g, cfg, mode, ledger);
    let substrates: &'s Substrates = substrates;
    let emu = &substrates.emulator.as_ref().expect("built above").1;
    substrates.timed("emulator_sweep", || match paths {
        None => {
            let mut rows: Vec<&mut [Dist]> = delta.rows_mut().collect();
            sweep(&mut rows, 0, cfg.threads, |u, row| {
                lower_row(row, &emu.sssp(u), g.neighbors(u));
            });
        }
        Some(store) => {
            for (u, v) in g.edges() {
                store.offer_edge(u, v);
            }
            record_emulator_pairs(g, emu, cfg.threads, delta, store);
        }
    });
    delta.debug_assert_symmetric();
    emu
}

/// Sources per batch of the recording sweep: the trees of one batch are
/// computed in parallel and held until they are interned.
const TREE_BATCH: usize = 64;

/// Calls `fill(first + i, &mut items[i])` for every item, sharding `items`
/// into contiguous chunks over `threads` scoped workers. Each call writes
/// only its own item and reads shared inputs, so the items come out
/// bit-identical at any thread count (DESIGN.md §7.4).
fn sweep<T: Send>(
    items: &mut [T],
    first: usize,
    threads: usize,
    fill: impl Fn(usize, &mut T) + Sync,
) {
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            fill(first + i, item);
        }
        return;
    }
    let shard = items.len().div_ceil(threads);
    let fill = &fill;
    std::thread::scope(|scope| {
        for (t, chunk) in items.chunks_mut(shard).enumerate() {
            scope.spawn(move || {
                for (i, item) in chunk.iter_mut().enumerate() {
                    fill(first + t * shard + i, item);
                }
            });
        }
    });
}

/// Lowers one estimate row to the emulator distances `dists` and the input
/// adjacency `neighbors` (weight 1).
fn lower_row(row: &mut [Dist], dists: &[Dist], neighbors: &[u32]) {
    for (d, &e) in row.iter_mut().zip(dists) {
        *d = (*d).min(e);
    }
    for &v in neighbors {
        let d = &mut row[v as usize];
        *d = (*d).min(1);
    }
}

/// The recording sweep: per batch of [`TREE_BATCH`] sources, the emulator
/// Dijkstra trees are computed in parallel, then interned serially in
/// source order — so every record id matches a serial run. Each tree's
/// parent chains become records whose emulator-edge hops resolve against
/// the emulator's own routes (absorbed here), offered per pair, and its
/// distances lower the source's `delta` row.
fn record_emulator_pairs(
    g: &Graph,
    emu: &Emulator,
    threads: usize,
    delta: &mut DistanceMatrix,
    store: &mut PathStore,
) {
    let routes = emu
        .routes
        .as_ref()
        .expect("path-recording pipelines build path-recording emulators");
    store.absorb_routes(routes);
    let n = g.n();
    let mut trees: Vec<Option<(dijkstra::ShortestPathTree, Vec<u32>)>> = Vec::new();
    for first in (0..n).step_by(TREE_BATCH) {
        trees.clear();
        trees.resize(TREE_BATCH.min(n - first), None);
        sweep(&mut trees, first, threads, |src, slot| {
            let tree = dijkstra::sssp_tree(&emu.graph, src);
            let order = settle_order(&tree);
            *slot = Some((tree, order));
        });
        for (src, slot) in (first..).zip(trees.drain(..)) {
            let (tree, order) = slot.expect("filled by the sweep");
            let recs = emulator_tree_recs(g, store.routes_mut(), &tree, &order);
            for (v, rec) in recs.into_iter().enumerate() {
                if let Some(rec) = rec {
                    store.offer_rec(src, v, tree.dist(v), rec);
                }
            }
            let row = delta.rows_mut().nth(src).expect("src < n");
            lower_row(row, tree.dists(), g.neighbors(src));
        }
    }
}

/// The MSSP counterpart of `record_emulator_pairs`: shadows the per-source
/// emulator Dijkstras into a [`RowStore`] and returns the distance rows the
/// estimates start from (same values as `emu.sssp` per source).
pub(crate) fn record_emulator_rows(
    g: &Graph,
    emu: &Emulator,
    sources: &[usize],
    rows: &mut RowStore,
) -> Vec<Vec<Dist>> {
    let routes = emu
        .routes
        .as_ref()
        .expect("path-recording pipelines build path-recording emulators");
    rows.absorb_routes(routes);
    let mut out = Vec::with_capacity(sources.len());
    for (i, &src) in sources.iter().enumerate() {
        let tree = dijkstra::sssp_tree(&emu.graph, src);
        let recs = emulator_tree_recs(g, rows.routes_mut(), &tree, &settle_order(&tree));
        for (v, rec) in recs.into_iter().enumerate() {
            if let Some(rec) = rec {
                rows.offer_rec(i, v, tree.dist(v), rec);
            }
        }
        out.push(tree.dists().to_vec());
    }
    out
}

/// The tree's vertices in `(distance, id)` order, root and unreachable
/// vertices left out — the order [`emulator_tree_recs`] interns in. A pure
/// function of the tree, so the recording sweep computes it in parallel.
fn settle_order(tree: &dijkstra::ShortestPathTree) -> Vec<u32> {
    let n = tree.dists().len();
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&v| v as usize != tree.src() && tree.dist(v as usize) < INF)
        .collect();
    order.sort_unstable_by_key(|&v| (tree.dist(v as usize), v));
    order
}

/// Interns, for every vertex of `order` (the tree's [`settle_order`]), the
/// `G`-walk realizing its tree path (emulator-edge hops resolved through the
/// unroller's absorbed routes; direct `G` edges preferred). Parents come
/// before their children in that order, so every parent's record exists
/// before its children extend it. Shared by the all-pairs and MSSP
/// recorders.
fn emulator_tree_recs(
    g: &Graph,
    routes: &mut cc_routes::Unroller,
    tree: &dijkstra::ShortestPathTree,
    order: &[u32],
) -> Vec<Option<RecId>> {
    let src = tree.src();
    let mut recs: Vec<Option<RecId>> = vec![None; tree.dists().len()];
    for &v32 in order {
        let v = v32 as usize;
        let p = tree.parent(v).expect("finite non-root has a parent") as usize;
        let hop = if g.has_edge(p, v) {
            routes.arena_mut().edge(p as u32, v32)
        } else {
            routes
                .oriented(p, v)
                .expect("emulator edge has provenance")
                .1
        };
        let rec = match recs[p] {
            Some(prefix) => routes.arena_mut().cat(prefix, hop),
            None => {
                debug_assert_eq!(p, src, "parents settle before children");
                hop
            }
        };
        recs[v] = Some(rec);
    }
    recs
}

/// `(S,d)`-source detection from `pivots` over `base ∪ H` (the hopset `hs`
/// of `base`, `hs.beta` hops): lowers `δ(v, s)` for every detected pair and,
/// when recording, offers the detection chain as a walk over `g` (the
/// caller has absorbed the hopset's routes, so its shortcut hops resolve).
pub(crate) fn detect_pivots(
    g: &Graph,
    base: &Graph,
    hs: &BoundedHopset,
    pivots: &[usize],
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    let union = hs.union_with(base);
    let sd = match paths {
        Some(_) => SourceDetection::run_with_parents(&union, pivots, hs.beta, ledger),
        None => SourceDetection::run(&union, pivots, hs.beta, ledger),
    };
    for v in 0..g.n() {
        for (i, &s) in pivots.iter().enumerate() {
            let d = sd.dist_to_source_index(v, i);
            if d < INF {
                delta.improve(v, s, d);
                if let (Some(p), Some(chain)) = (paths.as_deref_mut(), sd.chain(i, v)) {
                    let chain: Vec<u32> = chain.into_iter().map(|x| x as u32).collect();
                    p.offer_walk(g, d, &chain);
                }
            }
        }
    }
}

/// Routes row `u` through each midpoint `w` in turn: `δ(u,v) ≤ δ(u,w) +
/// δ(w,v)` for every `v`, with `δ(u,w)` read afresh per midpoint (infinite
/// ones skipped), then one mirror of row `u`. When recording, each
/// relaxation is shadowed per element by `Via(w)` offers in ascending `v`;
/// the legs come from row `w`, which relaxing row `u` never writes.
pub(crate) fn route_through(
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    u: usize,
    midpoints: impl IntoIterator<Item = usize>,
) {
    let mut before: Vec<Dist> = Vec::new();
    for w in midpoints {
        let via = delta.get(u, w);
        if via >= INF {
            continue;
        }
        if before.is_empty() {
            before.extend_from_slice(delta.row(u));
        }
        delta.relax_row_via(u, w, via);
        if let Some(p) = paths.as_deref_mut() {
            for (v, &leg) in delta.row(w).iter().enumerate() {
                if v != u && leg < INF {
                    p.offer_via(u, v, dadd(via, leg), w);
                }
            }
        }
    }
    if !before.is_empty() {
        delta.mirror_row(u, &before);
    }
}

/// The short/long threshold `t = ⌈2β̂/ε⌉` of §4 (β̂ = the emulator's
/// effective additive bound), clamped to at least 4.
pub(crate) fn default_threshold(cfg: &CliqueEmulatorConfig, eps: f64) -> Dist {
    let beta_hat = cfg.params.clique_additive_bound(cfg.eps_prime);
    ((2.0 * beta_hat / eps).ceil() as Dist).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_emulator::EmulatorParams;
    use cc_graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn count_label(ledger: &RoundLedger, needle: &str) -> usize {
        ledger
            .entries()
            .iter()
            .filter(|e| e.label.contains(needle))
            .count()
    }

    #[test]
    fn sweep_covers_empty_single_and_oversubscribed_inputs() {
        // Item i must hold f(first + i) whatever the split: no rows, one
        // row, more threads than rows, and shards of unequal length.
        let f = |i: usize| i * i + 7;
        for len in [0usize, 1, 2, 3, 5, 97] {
            for threads in [1usize, 2, 3, 4, 8, 200] {
                let mut items = vec![0usize; len];
                sweep(&mut items, 11, threads, |i, item| *item = f(i));
                let want: Vec<usize> = (11..11 + len).map(f).collect();
                assert_eq!(items, want, "len = {len}, threads = {threads}");
            }
        }
        // The in-place row split of a 0- and a 1-vertex matrix.
        for n in [0usize, 1] {
            let mut m = DistanceMatrix::new(n);
            let mut rows: Vec<&mut [Dist]> = m.rows_mut().collect();
            sweep(&mut rows, 0, 4, |u, row| row[u] = 0);
            assert_eq!(m, DistanceMatrix::new(n));
        }
    }

    #[test]
    fn emulator_is_built_once_per_key() {
        let g = generators::caveman(6, 6);
        let cfg = CliqueEmulatorConfig::scaled(EmulatorParams::loglog(g.n(), 0.5).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut mode = Mode::Rng(&mut rng);
        let mut subs = Substrates::new();
        let mut ledger = RoundLedger::new(g.n());
        let m1 = subs.emulator_for(&g, &cfg, &mut mode, &mut ledger).m();
        let after_first = ledger.total_rounds();
        let m2 = subs.emulator_for(&g, &cfg, &mut mode, &mut ledger).m();
        assert_eq!(m1, m2, "cache must return the same emulator");
        assert_eq!(
            ledger.total_rounds(),
            after_first,
            "second lookup must charge zero rounds"
        );
        assert_eq!(count_label(&ledger, "collect emulator"), 1);
    }

    #[test]
    fn mode_change_invalidates_the_emulator_cache() {
        let g = generators::grid(5, 5);
        let cfg = CliqueEmulatorConfig::scaled(EmulatorParams::loglog(g.n(), 0.5).unwrap());
        let mut subs = Substrates::new();
        let mut ledger = RoundLedger::new(g.n());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mode = Mode::Rng(&mut rng);
        subs.emulator_for(&g, &cfg, &mut mode, &mut ledger);
        let mut det = Mode::Det;
        subs.emulator_for(&g, &cfg, &mut det, &mut ledger);
        assert_eq!(
            count_label(&ledger, "collect emulator"),
            2,
            "deterministic rebuild must not reuse the randomized emulator"
        );
    }

    #[test]
    fn hopsets_cache_per_threshold() {
        let g = generators::cycle(40);
        let mut subs = Substrates::new();
        let mut ledger = RoundLedger::new(g.n());
        let mut det = Mode::Det;
        subs.hopset_for("g", &g, 8, 0.5, true, 1, false, &mut det, &mut ledger);
        let after_first = ledger.total_rounds();
        subs.hopset_for("g", &g, 8, 0.5, true, 1, false, &mut det, &mut ledger);
        assert_eq!(ledger.total_rounds(), after_first, "hit charges nothing");
        subs.hopset_for("g", &g, 16, 0.5, true, 1, false, &mut det, &mut ledger);
        assert!(
            ledger.total_rounds() > after_first,
            "different threshold is a different substrate"
        );
    }

    /// Two independent sessions over the same inputs must produce
    /// bit-identical substrates — the cache's key/value plumbing may not
    /// introduce any iteration-order dependence (this pinned BTreeMap
    /// conversion is what the `unordered-iter` rule enforces statically).
    #[test]
    fn substrate_results_are_stable_across_runs() {
        let g = generators::cycle(40);
        let sets: Vec<Vec<usize>> = (0..6).map(|i| vec![i, i + 7, i + 19]).collect();
        let run = || {
            let mut subs = Substrates::new();
            let mut ledger = RoundLedger::new(g.n());
            let mut det = Mode::Det;
            let hopset = subs.hopset_for("g", &g, 8, 0.5, true, 1, false, &mut det, &mut ledger);
            // A second, different-threshold entry so the map holds several
            // keys before the first one is re-read.
            subs.hopset_for("g", &g, 16, 0.5, true, 1, false, &mut det, &mut ledger);
            let again = subs.hopset_for("g", &g, 8, 0.5, true, 1, false, &mut det, &mut ledger);
            let hit = subs
                .hitting_set_for("t", g.n(), 2, &sets, &mut det, &mut ledger)
                .unwrap();
            (hopset.edges, again.edges, hit)
        };
        let (a1, a2, ah) = run();
        let (b1, b2, bh) = run();
        assert_eq!(a1, a2, "cache hit must return the identical hopset");
        assert_eq!(a1, b1, "hopsets must be bit-identical across runs");
        assert_eq!(a2, b2);
        assert_eq!(ah, bh, "hitting sets must be bit-identical across runs");
    }

    #[test]
    fn hitting_sets_cache_and_validate() {
        let mut subs = Substrates::new();
        let mut ledger = RoundLedger::new(16);
        let mut det = Mode::Det;
        let sets: Vec<Vec<usize>> = (0..4).map(|i| vec![i, i + 1, i + 2]).collect();
        let a = subs
            .hitting_set_for("t", 16, 2, &sets, &mut det, &mut ledger)
            .unwrap();
        let after_first = ledger.total_rounds();
        let b = subs
            .hitting_set_for("t", 16, 2, &sets, &mut det, &mut ledger)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(ledger.total_rounds(), after_first);

        // Same label but different set contents must not serve the stale
        // selection: the fingerprint forces a rebuild that hits the new sets.
        let other_sets: Vec<Vec<usize>> = (8..12).map(|i| vec![i, i + 1, i + 2]).collect();
        let c = subs
            .hitting_set_for("t", 16, 2, &other_sets, &mut det, &mut ledger)
            .unwrap();
        assert!(cc_derand::hitting::hits_all(&c, &other_sets));

        let bad = vec![vec![99usize]];
        let err = subs
            .hitting_set_for("bad", 16, 1, &bad, &mut det, &mut ledger)
            .unwrap_err();
        assert!(matches!(err, CcError::Hitting(_)));
    }
}
