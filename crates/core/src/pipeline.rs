//! Crate-private plumbing shared by the application algorithms: one switch
//! between the randomized and deterministic tool variants, the session-level
//! substrate cache, emulator collection, and the short/long distance
//! threshold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use cc_clique::RoundLedger;
use cc_derand::hitting;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::params::ParamError;
use cc_emulator::{deterministic, whp, Emulator, EmulatorParams};
use cc_graphs::dijkstra::{self, DialWorkspace};
use cc_graphs::{Dist, Graph, WeightedGraph, INF};
use cc_obs::StageTimes;
use cc_routes::{
    BatchRef, HopTable, PathStore, RecId, RecordBatch, RouteArena, RowStore, TreeRows, Unroller,
};
use cc_toolkit::hopset::{self, BasisCache, BoundedHopset, HopsetParams};
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use rand::RngCore;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::solver::ParamProfile;

/// Randomized-or-deterministic mode threaded through the pipelines.
pub(crate) enum Mode<'a> {
    /// Randomized variants (Lemma 8 hitting sets, Thm 12.1 hopsets, Thm 31
    /// emulator).
    Rng(&'a mut dyn RngCore),
    /// Deterministic variants (Lemma 9, Thm 12.2, Thm 50).
    Det,
}

/// The graph a cached hopset is built on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum HopsetGraph {
    /// The input graph `G`.
    Input,
    /// apsp2's low-degree subgraph `G'`.
    LowDegree,
}

/// Cache key of one bounded hopset: its graph and the requested threshold
/// and accuracy (the accuracy as exact bits — callers pass the same float
/// every time).
type HopsetKey = (HopsetGraph, Dist, u64);

/// The long-range table of Claim 37 that apsp2, apsp3 and the additive
/// query all start from: the estimates lowered to the emulator distances
/// and the adjacency, plus their witnesses when recording.
pub(crate) type LongRange = (Arc<DistanceMatrix>, Option<Arc<PathStore>>);

/// Session-scoped cache of the expensive substrates every pipeline stands
/// on: the near-additive emulator and its long-range table, the bounded
/// hopsets and the hopset bases they share.
///
/// A [`crate::Solver`] keeps one `Substrates` for its lifetime, which is
/// what amortizes construction across queries: a cache hit returns the
/// stored object and charges **zero** rounds, modelling that every node of
/// the clique already holds the substrate locally from the earlier query.
/// Only [`crate::SolverBuilder::build`] creates a `Substrates`, and a
/// session never changes its execution mode or its emulator
/// configuration, so the emulator and the long-range table each have one
/// unkeyed slot. Hopsets are keyed only by what varies inside a session:
/// their graph and the requested `(t, ε)`; every hopset build on a miss —
/// the emulator's top level included — takes steps 1–2 from the one
/// [`BasisCache`], which holds one basis per distinct graph (apsp2's `G'`
/// shares `G`'s when no edge was removed). The map is a `BTreeMap`, not a
/// `HashMap`: nothing here may iterate in an address-dependent order (the
/// `unordered-iter` rule in `cc-analyze` bans unordered containers in
/// result-affecting crates wholesale — see `DESIGN.md` §11.1).
#[derive(Debug, Default)]
pub(crate) struct Substrates {
    emulator: Option<Arc<Emulator>>,
    hopsets: BTreeMap<HopsetKey, Arc<BoundedHopset>>,
    /// Steps 1–2 of every hopset the session builds: lists, `A₁`, bunches.
    basis: BasisCache,
    /// The long-range table, swept on first use and shared afterwards;
    /// `freeze` releases it (DESIGN.md §7.4). `RefCell` for the same
    /// reason as `stages`.
    long_range: RefCell<Option<LongRange>>,
    /// Gated wall-clock stage profiling. `RefCell` because the freeze path
    /// records through `&Solver`; the solver session is single-threaded, so
    /// the borrows are trivially disjoint. Disabled (the default), `start`
    /// never reads the clock — the pipelines cost nothing and timing can
    /// never feed back into results or charged rounds.
    pub(crate) stages: RefCell<StageTimes>,
}

impl Substrates {
    /// Switches stage profiling on or off, the hopset basis timer with it.
    pub(crate) fn profile_stages(&mut self, enabled: bool) {
        self.stages.get_mut().set_enabled(enabled);
        self.basis.set_timed(enabled);
    }

    /// Releases the session's long-range table (called by the freeze
    /// merge). A result that holds the table keeps it alive; a later query
    /// sweeps again.
    pub(crate) fn drop_long_range(&self) {
        self.long_range.borrow_mut().take();
    }

    /// Runs `f`, crediting its wall time to `stage` when profiling is on.
    pub(crate) fn timed<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let started = self.stages.borrow().start();
        let out = f();
        self.stages.borrow_mut().stop(stage, started);
        out
    }

    /// The session's emulator, built from `cfg` (w.h.p. variant when
    /// randomized, Thm 50 when deterministic) and distributed to every
    /// vertex on first use, shared afterwards.
    pub(crate) fn emulator_for(
        &mut self,
        g: &Graph,
        cfg: &CliqueEmulatorConfig,
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
    ) -> Arc<Emulator> {
        let (stages, basis) = (&self.stages, &mut self.basis);
        let emu = self.emulator.get_or_insert_with(|| {
            let started = stages.borrow().start();
            let emu = match mode {
                Mode::Rng(rng) => whp::build(g, cfg, rng, basis, ledger).0,
                Mode::Det => deterministic::build(g, cfg, basis, ledger),
            };
            ledger.charge_learn_all("collect emulator at all vertices", emu.m() as u64);
            let mut stages = stages.borrow_mut();
            stages.stop("emulator_build", started);
            for elapsed in basis.take_timings() {
                stages.record("hopset_basis", elapsed);
            }
            Arc::new(emu)
        });
        Arc::clone(emu)
    }

    /// A `(β, ε, t)`-bounded hopset of `g` for the requested `(t, ε)`,
    /// built on first use per `(graph, t, ε)` over the session's hopset
    /// basis of `g` and shared afterwards, so
    /// pipelines can interleave further cache lookups while holding it
    /// without copying its union or routes. The profile, `threads` and
    /// path recording come from the session's emulator configuration
    /// `cfg`; `threads` is purely wall-clock (the construction is
    /// bit-identical at any thread count). When the caller records, the
    /// hopset's routes are absorbed into its witness store's provenance
    /// `absorb_into`, so walks over the hopset's union resolve there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hopset_for(
        &mut self,
        on: HopsetGraph,
        g: &Graph,
        (t, eps): (Dist, f64),
        cfg: &CliqueEmulatorConfig,
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
        absorb_into: Option<&mut Unroller>,
    ) -> Arc<BoundedHopset> {
        let (stages, basis) = (&self.stages, &mut self.basis);
        let hopset = self
            .hopsets
            .entry((on, t, eps.to_bits()))
            .or_insert_with(|| {
                let started = stages.borrow().start();
                let params = if cfg.scaled_hopset {
                    HopsetParams::scaled(g.n(), t, eps)
                } else {
                    HopsetParams::paper(g.n(), t, eps)
                }
                .with_threads(cfg.threads)
                .with_paths(cfg.record_paths);
                let built = match mode {
                    Mode::Rng(rng) => hopset::build_randomized(g, params, rng, basis, ledger),
                    Mode::Det => hopset::build_deterministic(g, params, basis, ledger),
                };
                let mut stages = stages.borrow_mut();
                stages.stop("hopset_build", started);
                for elapsed in basis.take_timings() {
                    stages.record("hopset_basis", elapsed);
                }
                Arc::new(built)
            });
        if let Some(routes) = absorb_into {
            routes.absorb(hopset.routes.as_ref().expect("hopset built with paths"));
        }
        Arc::clone(hopset)
    }

    /// A hitting set over `sets`. Never cached: each query is memoized and
    /// draws its own sets, so no selection is asked for twice in a session.
    ///
    /// The promised minimum size `k` is clamped to the smallest set so the
    /// paper-level parameter choice cannot over-promise; genuine instance
    /// violations (out-of-range elements) surface as [`CcError::Hitting`]
    /// instead of panicking.
    pub(crate) fn hitting_set(
        &self,
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
        Ok(self.timed("hitting_sets", || match mode {
            Mode::Rng(rng) => hitting::random_hitting_set(universe, k, sets, 2.5, rng, ledger),
            Mode::Det => hitting::deterministic_hitting_set(universe, k, sets, ledger),
        })?)
    }

    /// The session's long-range table: obtains the emulator (cached or
    /// freshly built, so every vertex has learned it) and sweeps it
    /// ([`sweep_emulator`]) only when the session holds no table yet.
    /// Every caller shares the one table; apsp2 and apsp3 lower their own
    /// copy of it.
    pub(crate) fn long_range(
        &mut self,
        g: &Graph,
        cfg: &CliqueEmulatorConfig,
        mode: &mut Mode<'_>,
        ledger: &mut RoundLedger,
    ) -> LongRange {
        let emu = self.emulator_for(g, cfg, mode, ledger);
        if self.long_range.get_mut().is_none() {
            *self.long_range.get_mut() = Some(sweep_emulator(g, &emu, cfg, self));
        }
        self.long_range.get_mut().clone().expect("swept above")
    }
}

/// Lowers every row `u` of a fresh estimate matrix to `sssp(emu, u)` with
/// the input adjacency entries lowered to 1. The per-source Dijkstras are
/// sharded by rows over `cfg.threads` workers ([`dijkstra::sweep`]), each
/// writing its own rows in place. When recording, the witnesses are set
/// by [`record_emulator_pairs`] (the estimates are the same either way).
fn sweep_emulator(
    g: &Graph,
    emu: &Emulator,
    cfg: &CliqueEmulatorConfig,
    substrates: &Substrates,
) -> LongRange {
    let n = g.n();
    let mut delta = DistanceMatrix::new(n);
    let mut paths = cfg.record_paths.then(|| PathStore::new(n));
    substrates.timed("emulator_sweep", || match paths.as_mut() {
        None => {
            let mut rows: Vec<&mut [Dist]> = delta.rows_mut().collect();
            let max_weight = emu.graph.max_weight();
            dijkstra::sweep(&mut rows, max_weight, cfg.threads, |ws, u, row| {
                lower_row(row, ws.sssp(&emu.graph, u), g.neighbors(u));
            });
        }
        Some(store) => record_emulator_pairs(g, emu, cfg.threads, &mut delta, store),
    });
    delta.debug_assert_symmetric();
    (Arc::new(delta), paths.map(Arc::new))
}

/// Sources per chunk of MSSP's recording sweep: the interned trees of one
/// chunk are held until they are appended to the arena.
const TREE_CHUNK: usize = 64;

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

/// The recording sweep. Every `G` edge is set first: adjacency lowers its
/// pair to 1, and no emulator distance is smaller. Then one sharded sweep
/// runs the emulator Dijkstra from every source, lowering the source's
/// `delta` row and writing its parent row in place ([`HopTable::write_row`]),
/// and every other pair `(u, v)`, `u < v`, that the tree of `u` reaches is
/// set to that tree's path. Emulator distances are symmetric, so for the
/// pair's other endpoint the tree of `v` would lower it to the same value:
/// the tree of the lower endpoint is the first to reach a pair, and it is
/// the one that lowers it (DESIGN.md §7.4). A hop that is not a `G` edge
/// is an emulator edge, and emits the emulator route absorbed for it; the
/// hop table of those edges is built before the sweep, which flags a hop
/// by looking it up.
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
    for (u, v) in g.edges() {
        store.set_edge(u, v);
    }
    store.absorb_routes(routes);
    let n = g.n();
    let hops = emu
        .graph
        .edges()
        .filter(|&(a, b, _)| !g.has_edge(a, b))
        .map(|(a, b, _)| {
            let (lo, hi) = (a.min(b), a.max(b));
            let (_, rec, _) = store
                .routes()
                .rec_between(lo, hi)
                .expect("emulator edge has provenance");
            (lo as u32, hi as u32, rec)
        })
        .collect();
    let hops = HopTable::new(n, hops);
    let mut parents = vec![0u32; n * n];
    let mut rows: Vec<(&mut [Dist], &mut [u32])> =
        delta.rows_mut().zip(parents.chunks_mut(n.max(1))).collect();
    dijkstra::sweep(
        &mut rows,
        emu.graph.max_weight(),
        threads,
        |ws, u, (row, tree)| {
            let (dists, parents) = ws.sssp_with_parents(&emu.graph, u);
            lower_row(row, dists, g.neighbors(u));
            hops.write_row(tree, parents);
        },
    );
    store.set_trees(Arc::new(TreeRows::new(parents, hops)));
}

/// MSSP's emulator rows: `sssp(emu, s)` per source, swept over `threads`
/// workers like the estimate rows.
pub(crate) fn emulator_rows(emu: &Emulator, sources: &[usize], threads: usize) -> Vec<Vec<Dist>> {
    let mut rows = vec![Vec::new(); sources.len()];
    let max_weight = emu.graph.max_weight();
    dijkstra::sweep(&mut rows, max_weight, threads, |ws, i, row| {
        *row = ws.sssp(&emu.graph, sources[i]).to_vec();
    });
    rows
}

/// The MSSP counterpart of `record_emulator_pairs`: sets every finite cell
/// of a fresh [`RowStore`] to its emulator tree path, interned as arena
/// records ([`intern_tree`]), and returns the distance rows the estimates
/// start from (the same values as [`emulator_rows`]). The row store keeps
/// records, not parent rows: it has `O(√n)` sources, and its shortest-walk
/// rule reads record lengths.
pub(crate) fn record_emulator_rows(
    g: &Graph,
    emu: &Emulator,
    sources: &[usize],
    threads: usize,
    rows: &mut RowStore,
) -> Vec<Vec<Dist>> {
    let routes = emu
        .routes
        .as_ref()
        .expect("path-recording pipelines build path-recording emulators");
    rows.absorb_routes(routes);
    let max_weight = emu.graph.max_weight();
    let mut out = Vec::with_capacity(sources.len());
    for (c, chunk) in sources.chunks(TREE_CHUNK).enumerate() {
        let trees = intern_trees(g, emu, rows.routes(), chunk, max_weight, threads);
        for (i, tree) in (c * TREE_CHUNK..).zip(trees) {
            for (v, rec) in tree.append_to(rows.routes_mut().arena_mut()) {
                rows.set_rec(i, v, rec);
            }
            out.push(tree.dists);
        }
    }
    out
}

/// One source's emulator Dijkstra tree, interned away from the arena: its
/// distances and, per vertex, the record of its tree path as a handle into
/// `batch` (`None` for the root and unreachable vertices).
#[derive(Default)]
struct InternedTree {
    dists: Vec<Dist>,
    recs: Vec<Option<BatchRef>>,
    batch: RecordBatch,
}

impl InternedTree {
    /// Appends the tree's records to `arena` and yields `(v, record)` for
    /// every vertex with a record, in ascending `v`.
    fn append_to<'t>(
        &'t self,
        arena: &mut RouteArena,
    ) -> impl Iterator<Item = (usize, RecId)> + 't {
        let offset = arena.append_batch(&self.batch);
        self.recs
            .iter()
            .enumerate()
            .filter_map(move |(v, rec)| rec.map(|r| (v, r.resolve(offset))))
    }
}

/// The emulator trees from `sources`, computed and interned by `threads`
/// workers against the read-only `routes`, in source order. `max_weight`
/// is the emulator's, computed once per sweep.
fn intern_trees(
    g: &Graph,
    emu: &Emulator,
    routes: &Unroller,
    sources: &[usize],
    max_weight: Dist,
    threads: usize,
) -> Vec<InternedTree> {
    let mut trees: Vec<InternedTree> = std::iter::repeat_with(InternedTree::default)
        .take(sources.len())
        .collect();
    dijkstra::sweep(&mut trees, max_weight, threads, |ws, i, tree| {
        *tree = intern_tree(g, emu, routes, ws, sources[i]);
    });
    trees
}

/// Interns, for every vertex the emulator Dijkstra tree from `src`
/// reaches, the `G`-walk realizing its tree path: emulator-edge hops
/// resolve through the absorbed routes, and direct `G` edges are
/// preferred. Vertices go in `(distance, id)` order, so every parent's
/// record exists before its children extend it (DESIGN.md §7.4).
fn intern_tree(
    g: &Graph,
    emu: &Emulator,
    routes: &Unroller,
    ws: &mut DialWorkspace,
    src: usize,
) -> InternedTree {
    let (dists, parents) = ws.sssp_with_parents(&emu.graph, src);
    let dists = dists.to_vec();
    let n = dists.len();
    // `(distance, id)` packed into one sort key.
    let mut order: Vec<u64> = (0..n)
        .filter(|&v| v != src && dists[v] < INF)
        .map(|v| u64::from(dists[v]) << 32 | v as u64)
        .collect();
    order.sort_unstable();
    // At most an edge or a reversal plus a concatenation per vertex.
    let mut batch = RecordBatch::with_capacity(2 * order.len());
    let mut recs: Vec<Option<BatchRef>> = vec![None; n];
    for key in order {
        let v32 = key as u32;
        let v = v32 as usize;
        let p = parents[v].expect("finite non-root has a parent") as usize;
        let hop = if g.has_edge(p, v) {
            batch.edge(p as u32, v32)
        } else {
            let (_, rec, reversed) = routes
                .rec_between(p, v)
                .expect("emulator edge has provenance");
            if reversed {
                batch.rev(routes.arena(), BatchRef::Arena(rec))
            } else {
                BatchRef::Arena(rec)
            }
        };
        recs[v] = Some(match recs[p] {
            Some(prefix) => batch.cat(routes.arena(), prefix, hop),
            None => {
                debug_assert_eq!(p, src, "parents settle before children");
                hop
            }
        });
    }
    InternedTree { dists, recs, batch }
}

/// `(S,d)`-source detection from `pivots` over the union `G' ∪ H` the
/// hopset `hs` keeps (`G'` = the graph it was built on, `hs.beta` hops,
/// sharded over `threads`): lowers `δ(v, s)` for every detected pair
/// and, when recording, sets the detection chain of each pair it lowered
/// as a walk over `g` (the caller has absorbed the hopset's routes, so its
/// shortcut hops resolve). Only those chains are walked and interned, and
/// only the sources that own one get a Bellman–Ford parent row: `δ` is
/// lowered first, then the chains are set in the same `(v, s)` order, so
/// the witnesses and the arena are those of setting each as it is lowered
/// (DESIGN.md §7.4).
#[allow(clippy::too_many_arguments)]
pub(crate) fn detect_pivots(
    g: &Graph,
    hs: &BoundedHopset,
    pivots: &[usize],
    threads: usize,
    delta: &mut DistanceMatrix,
    paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    let mut sd = SourceDetection::over_hopset(hs, pivots, threads, ledger);
    // Recording only: the lowered pairs `(source index, v)`, in order.
    let mut lowered: Vec<(u32, u32)> = Vec::new();
    for v in 0..g.n() {
        for (i, &s) in pivots.iter().enumerate() {
            if delta.improve(v, s, sd.dist_to_source_index(v, i)) && paths.is_some() {
                lowered.push((i as u32, v as u32));
            }
        }
    }
    if let Some(p) = paths {
        set_detected_walks(&hs.union, &mut sd, &lowered, threads, |_, chain| {
            p.set_walk(g, chain);
        });
    }
}

/// Computes the parent rows of the sources in `lowered` (pairs
/// `(source index, v)`) and hands each pair's source index and detection
/// chain to `set`, in `lowered` order.
pub(crate) fn set_detected_walks(
    union: &WeightedGraph,
    sd: &mut SourceDetection,
    lowered: &[(u32, u32)],
    threads: usize,
    mut set: impl FnMut(usize, &[u32]),
) {
    sd.record_parents(union, lowered.iter().map(|&(i, _)| i as usize), threads);
    let mut chain: Vec<u32> = Vec::new();
    for &(i, v) in lowered {
        chain.clear();
        chain.extend(
            sd.chain(i as usize, v as usize)
                .expect("detected pair has a chain")
                .into_iter()
                .map(|x| x as u32),
        );
        set(i as usize, &chain);
    }
}

/// Pivot routing, the row kernel of the nearest-pivot step and of apsp2's
/// Case 3a: every row `u` is routed through its midpoints, `δ(u,v) ≤
/// δ(u,w) + δ(w,v)` for every `v` and every `w` that `midpoints(u, ..)`
/// lists, in that order. Each row reads the estimates as they stand when
/// the step begins: the legs `δ(w,v)` come from a copy of the midpoint
/// rows taken first, and each `δ(u,w)` from row `u` as lowered by its
/// earlier midpoints (infinite ones skipped). Rows are lowered in place,
/// sharded over `threads` workers ([`dijkstra::sharded`]), each marking
/// the entries it lowered; one serial write-back then gives each marked
/// pair the lower of its two rows' values. When recording, the write-back
/// sets the pair's `Via` witness from the strictly lower row, or on a tie
/// from the lower row index if that row lowered the pair; a row's witness
/// for an entry is the midpoint of its last strict lowering (DESIGN.md
/// §7.4). Nothing depends on the sharding, so the result is bit-identical
/// at any thread count. Every buffer that outlives a row is allocated
/// here, before the workers start.
pub(crate) fn route_rows(
    delta: &mut DistanceMatrix,
    paths: Option<&mut PathStore>,
    threads: usize,
    midpoints: impl Fn(usize, &mut Vec<usize>),
) {
    let n = delta.n();
    let mut plan = RoutePlan::new(n, midpoints);
    let legs = Legs::copy(delta, &plan.mids);
    let words = n.div_ceil(64).max(1);
    let mut marks = vec![0u64; n * words];
    let mut rows: Vec<RouteRow<'_>> = delta
        .rows_mut()
        .zip(marks.chunks_mut(words))
        .zip(plan.via_rows())
        .map(|((row, marks), (mids, vias))| RouteRow {
            row,
            marks,
            mids,
            vias,
        })
        .collect();
    dijkstra::sharded(
        &mut rows,
        threads,
        || vec![INF; n],
        |before, u, row| row.route(u, &legs, before),
    );
    drop(rows);
    let witness = |u: usize, v: usize, d: Dist| plan.witness(u, v, d, &legs);
    write_back(delta, paths, &marks, words, witness);
}

/// Every row's midpoints, in order, and the `δ(u,w)` each was routed with
/// (`INF` where it was skipped), as one table indexed by `start`.
struct RoutePlan {
    start: Vec<usize>,
    mids: Vec<usize>,
    vias: Vec<Dist>,
}

impl RoutePlan {
    fn new(n: usize, midpoints: impl Fn(usize, &mut Vec<usize>)) -> Self {
        let mut start = Vec::with_capacity(n + 1);
        let (mut mids, mut row) = (Vec::new(), Vec::new());
        start.push(0);
        for u in 0..n {
            row.clear();
            midpoints(u, &mut row);
            mids.extend_from_slice(&row);
            start.push(mids.len());
        }
        let vias = vec![INF; mids.len()];
        RoutePlan { start, mids, vias }
    }

    /// Per row, its midpoints and its disjoint slice of `vias`.
    fn via_rows(&mut self) -> Vec<(&[usize], &mut [Dist])> {
        let mut rest = self.vias.as_mut_slice();
        self.start
            .windows(2)
            .map(|w| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                (&self.mids[w[0]..w[1]], head)
            })
            .collect()
    }

    /// Row `u`'s witness for its entry `v` of value `d`: the first midpoint
    /// whose candidate is `d`, which is the one that last strictly lowered
    /// the entry.
    fn witness(&self, u: usize, v: usize, d: Dist, legs: &Legs) -> usize {
        let range = self.start[u]..self.start[u + 1];
        self.mids[range.clone()]
            .iter()
            .zip(&self.vias[range])
            .find(|&(&w, &via)| via < INF && via + legs.row(w)[v] == d)
            .map(|(&w, _)| w)
            .expect("a lowered entry has a realizing midpoint")
    }
}

/// The rows every routed row reads its legs from, copied before any row is
/// lowered.
struct Legs {
    n: usize,
    slot: Vec<u32>,
    rows: Vec<Dist>,
}

impl Legs {
    fn copy(delta: &DistanceMatrix, mids: &[usize]) -> Self {
        let n = delta.n();
        let mut slot = vec![u32::MAX; n];
        let mut rows = Vec::new();
        for &w in mids {
            if slot[w] == u32::MAX {
                slot[w] = (rows.len() / n.max(1)) as u32;
                rows.extend_from_slice(delta.row(w));
            }
        }
        Legs { n, slot, rows }
    }

    fn row(&self, w: usize) -> &[Dist] {
        let s = self.slot[w] as usize * self.n;
        &self.rows[s..s + self.n]
    }
}

/// One routed row: its estimates, lowered in place, a bit per entry it
/// lowered, its midpoints, and the `δ(u,w)` it routed each with.
struct RouteRow<'a> {
    row: &'a mut [Dist],
    marks: &'a mut [u64],
    mids: &'a [usize],
    vias: &'a mut [Dist],
}

impl RouteRow<'_> {
    /// Routes row `u` through its midpoints and marks the entries that
    /// dropped below `before`, the row as it was. A midpoint `w = u`
    /// restates the row and is skipped; `w = v` restates `δ(u,v)` and
    /// never lowers it. Midpoints are relaxed two at a time, in one pass
    /// over the row: the second one's `δ(u,w)` is the row's value lowered
    /// through the first, `min(δ(u,w), via₁ + δ(w₁,w))`, which is what
    /// relaxing them one after the other reads.
    fn route(&mut self, u: usize, legs: &Legs, before: &mut [Dist]) {
        let mut copied = false;
        let mut pending: Option<(usize, Dist)> = None;
        for (j, &w) in self.mids.iter().enumerate() {
            if w == u {
                continue;
            }
            let via = match pending {
                Some((p, pv)) => self.row[w].min(pv + legs.row(p)[w]),
                None => self.row[w],
            };
            if via >= INF {
                continue;
            }
            if !copied {
                before.copy_from_slice(self.row);
                copied = true;
            }
            self.vias[j] = via;
            match pending.take() {
                None => pending = Some((w, via)),
                Some((p, pv)) => relax_pair(self.row, (legs.row(p), pv), (legs.row(w), via)),
            }
        }
        if let Some((p, pv)) = pending {
            relax_pair(self.row, (legs.row(p), pv), (legs.row(p), pv));
        }
        if copied {
            for (v, (&d, &old)) in self.row.iter().zip(before.iter()).enumerate() {
                if d != old {
                    self.marks[v / 64] |= 1 << (v % 64);
                }
            }
        }
    }
}

/// Lowers `row` to `min(row, via₁ + leg₁, via₂ + leg₂)` elementwise. Entries
/// never exceed [`INF`] `= u32::MAX / 4` and each `via < INF`, so the plain
/// sums cannot overflow, and their `min` with the row equals the saturating
/// [`dadd`](cc_graphs::dadd) candidates. Every value is below `2³¹`, so the
/// `min`s are taken as `i32`, which baseline x86-64 compares in one vector
/// instruction (it has no unsigned 32-bit `min`).
fn relax_pair(row: &mut [Dist], (leg1, via1): (&[Dist], Dist), (leg2, via2): (&[Dist], Dist)) {
    let n = row.len();
    let (leg1, leg2) = (&leg1[..n], &leg2[..n]);
    for v in 0..n {
        let candidate = ((via1 + leg1[v]) as i32).min((via2 + leg2[v]) as i32);
        row[v] = (row[v] as i32).min(candidate) as Dist;
    }
}

/// The serial write-back of [`route_rows`]: every row holds its own
/// values, and `marks` (`words` per row) the entries each row lowered.
/// Pairs are settled from the lower row index: a pair both rows lowered is
/// settled once, there; a pair only the higher row lowered is settled when
/// that row is reached, where the lower row's cell still holds the pair's
/// value from before the step. Each marked pair ends at the lower of its
/// rows' values, with the witness `witness(row, column, value)` of the
/// strictly lower row, or of the lower row index on a tie.
fn write_back(
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    marks: &[u64],
    words: usize,
    witness: impl Fn(usize, usize, Dist) -> usize,
) {
    let marked = |u: usize, v: usize| marks[u * words + v / 64] >> (v % 64) & 1 == 1;
    for (u, row) in marks.chunks(words).enumerate() {
        for (i, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if v < u && marked(v, u) {
                    continue; // settled from row `v`
                }
                // Row `u`'s own value, and row `v`'s own value where row
                // `v` lowered the pair (then `v > u`), else the old value.
                let (mine, theirs) = (delta.get(u, v), delta.get(v, u));
                let (from, to, d) = if theirs < mine {
                    (v, u, theirs)
                } else {
                    (u, v, mine)
                };
                delta.improve(to, from, d);
                if let Some(p) = paths.as_deref_mut() {
                    p.set_via(u, v, witness(from, to, d));
                }
            }
        }
    }
}

/// The `(k, t)`-nearest lists of one graph and, when recording, the record
/// of every list entry: `recs[u][i]` is the path of `kn.list(u)[i]`
/// (`None` at the root). `recs` is empty when not recording.
pub(crate) struct NearestLists {
    pub(crate) kn: KNearest,
    pub(crate) recs: Vec<Vec<Option<RecId>>>,
}

/// The nearest-list step of the short-range recipe (apsp3 on `G`, apsp2's
/// Case 2 on `G'`): computes the `(k, t)`-nearest lists of `g` over
/// `threads` workers, with parents when recording, interns every list's
/// records in vertex order, and lowers `δ` to every list entry, setting the
/// entry's record at each pair it lowered. `g`'s edges are input edges, so
/// the records are walks of the input graph.
pub(crate) fn nearest_lists(
    g: &Graph,
    (k, t): (usize, Dist),
    threads: usize,
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) -> NearestLists {
    let n = g.n();
    let mut kn = KNearest::compute_with(g, k, t, Strategy::TruncatedBfs, threads, ledger);
    if paths.is_some() {
        kn = kn.with_parents(g);
    }
    let recs: Vec<Vec<Option<RecId>>> = match paths.as_deref_mut() {
        Some(p) => (0..n)
            .map(|u| kn.route_recs(u, p.routes_mut().arena_mut()))
            .collect(),
        None => Vec::new(),
    };
    for u in 0..n {
        for (idx, &(v, d)) in kn.list(u).iter().enumerate() {
            if v as usize == u || !delta.improve(u, v as usize, d) {
                continue;
            }
            if let Some(p) = paths.as_deref_mut() {
                p.set_rec(u, v as usize, recs[u][idx].expect("non-root entry"));
            }
        }
    }
    NearestLists { kn, recs }
}

/// The nearest-pivot step: distances to `pivots` by source detection over
/// the hopset `hs` ([`detect_pivots`]); every vertex broadcasts the
/// nearest pivot in its list `lists` and the distance to it (the ledger
/// entry `announce`, 1 round); then row `u` is routed through `u`'s
/// nearest pivot ([`route_rows`]), so every pair goes through the
/// nearer endpoint's pivot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_through_nearest_pivots(
    substrates: &Substrates,
    announce: &str,
    g: &Graph,
    hs: &BoundedHopset,
    pivots: &[usize],
    lists: &KNearest,
    threads: usize,
    delta: &mut DistanceMatrix,
    mut paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    substrates.timed("source_detection", || {
        detect_pivots(g, hs, pivots, threads, delta, paths.as_deref_mut(), ledger)
    });
    ledger.charge_broadcast(announce);
    let mut mask = vec![false; g.n()];
    for &a in pivots {
        mask[a] = true;
    }
    substrates.timed("pivot_routing", || {
        route_rows(delta, paths, threads, |u, mids| {
            mids.extend(lists.nearest_in(u, &mask).map(|(a, _)| a as usize));
        });
    });
}

/// The emulator configuration of the `(n, ε)` parameter set under
/// `profile`, serial and without path recording.
pub(crate) fn emulator_config(
    n: usize,
    eps: f64,
    profile: ParamProfile,
) -> Result<CliqueEmulatorConfig, ParamError> {
    Ok(match profile {
        ParamProfile::Paper { levels } => {
            CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, levels)?)
        }
        ParamProfile::Scaled => CliqueEmulatorConfig::scaled(EmulatorParams::loglog(n, eps)?),
    })
}

/// The short/long threshold `t = ⌈2β̂/ε⌉` of §4 for the same parameter
/// set (β̂ = the emulator's effective additive bound), clamped to at
/// least 4.
pub(crate) fn threshold(n: usize, eps: f64, profile: ParamProfile) -> Result<Dist, ParamError> {
    let cfg = emulator_config(n, eps, profile)?;
    let beta_hat = cfg.params.clique_additive_bound(cfg.eps_prime);
    Ok(((2.0 * beta_hat / eps).ceil() as Dist).max(4))
}

/// The paper profile the pipelines' unit tests run with (`r = 2`).
#[cfg(test)]
pub(crate) const PAPER: ParamProfile = ParamProfile::Paper { levels: 2 };

/// The paper-profile emulator configuration the pipelines' unit tests run
/// with.
#[cfg(test)]
pub(crate) fn paper_emulator(n: usize, eps: f64) -> CliqueEmulatorConfig {
    emulator_config(n, eps, PAPER).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn row_sweep_splits_empty_and_single_vertex_matrices() {
        // The in-place row split of a 0- and a 1-vertex matrix, with more
        // workers than rows.
        for n in [0usize, 1] {
            let mut m = DistanceMatrix::new(n);
            let mut rows: Vec<&mut [Dist]> = m.rows_mut().collect();
            dijkstra::sweep(&mut rows, 0, 4, |_, u, row| row[u] = 0);
            assert_eq!(m, DistanceMatrix::new(n));
        }
    }

    /// The offer-everything reference for the recording filters: a store
    /// with its own value table, which takes an offered witness exactly when
    /// the offer strictly improves on that table.
    struct OfferAll {
        best: DistanceMatrix,
        store: PathStore,
    }

    impl OfferAll {
        fn offer_walk(&mut self, g: &Graph, d: Dist, verts: &[u32]) {
            let (u, v) = (verts[0] as usize, verts[verts.len() - 1] as usize);
            if self.best.improve(u, v, d) {
                self.store.set_walk(g, verts);
            }
        }

        fn offer_via(&mut self, u: usize, v: usize, d: Dist, w: usize) {
            if self.best.improve(u, v, d) {
                self.store.set_via(u, v, w);
            }
        }
    }

    /// The detection before the chain filter: every detected pair's chain
    /// is walked and offered.
    fn detect_pivots_offering_all(
        g: &Graph,
        hs: &BoundedHopset,
        pivots: &[usize],
        delta: &mut DistanceMatrix,
        reference: &mut OfferAll,
        ledger: &mut RoundLedger,
    ) {
        let mut sd = SourceDetection::over_hopset(hs, pivots, 1, ledger);
        sd.record_parents(&hs.union, 0..pivots.len(), 1);
        for v in 0..g.n() {
            for (i, &s) in pivots.iter().enumerate() {
                let d = sd.dist_to_source_index(v, i);
                if d < INF {
                    delta.improve(v, s, d);
                    if let Some(chain) = sd.chain(i, v) {
                        let chain: Vec<u32> = chain.into_iter().map(|x| x as u32).collect();
                        reference.offer_walk(g, d, &chain);
                    }
                }
            }
        }
    }

    /// The routing step before the lowered-entry filter: per row `u`,
    /// ascending, a `Via(w)` offer at every entry of the row, per midpoint,
    /// in ascending `v`. Each offer is `δ(u,w) + δ(w,v)` with the leg read
    /// from the estimates as the step began and `δ(u,w)` from row `u` as
    /// lowered by its earlier midpoints; `delta` takes every row's values
    /// at the end.
    fn route_offering_all(
        delta: &mut DistanceMatrix,
        reference: &mut OfferAll,
        midpoints: impl Fn(usize) -> Vec<usize>,
    ) {
        let start = delta.clone();
        for u in 0..start.n() {
            let mut row = start.row(u).to_vec();
            for w in midpoints(u) {
                let via = row[w];
                if via >= INF {
                    continue;
                }
                for (v, &leg) in start.row(w).iter().enumerate() {
                    if v != u && leg < INF {
                        let d = cc_graphs::dadd(via, leg);
                        row[v] = row[v].min(d);
                        reference.offer_via(u, v, d, w);
                    }
                }
            }
            for (v, &d) in row.iter().enumerate() {
                delta.improve(u, v, d);
            }
        }
    }

    fn via_count(store: &PathStore) -> usize {
        store
            .witnesses()
            .iter()
            .filter(|w| matches!(w, cc_routes::PairWitness::Via(_)))
            .count()
    }

    /// A store seeded with the adjacency plus, for every third vertex, its
    /// shortest path to each pivot at one more than the exact distance, so
    /// detection chains at that distance tie, shorter ones win, and most
    /// `Via` offers improve a pair; and the recording hopset of `g`.
    fn seeded_store(
        g: &Graph,
        pivots: &[usize],
    ) -> (Arc<BoundedHopset>, DistanceMatrix, PathStore) {
        let n = g.n();
        let mut ledger = RoundLedger::new(n);
        let params = HopsetParams::scaled(n, 8, 0.5).with_paths(true);
        let hs = hopset::build_deterministic(g, params, &mut BasisCache::default(), &mut ledger);
        let mut delta = DistanceMatrix::new(n);
        let mut store = PathStore::new(n);
        for (u, v) in g.edges() {
            delta.improve(u, v, 1);
            store.set_edge(u, v);
        }
        let unit = WeightedGraph::from_unweighted(g);
        for &s in pivots {
            let tree = dijkstra::sssp_tree(&unit, s);
            for v in (0..n).step_by(3).filter(|&v| v != s) {
                let Some(path) = tree.path_to(v) else {
                    continue;
                };
                let path: Vec<u32> = path.iter().map(|&x| x as u32).collect();
                if delta.improve(s, v, tree.dist(v) + 1) {
                    store.set_walk(g, &path);
                }
            }
        }
        (Arc::new(hs), delta, store)
    }

    /// A recording session's long-range table (the emulator distances and
    /// the adjacency, with their witnesses) and the session's apsp2-size
    /// hopset of `g`.
    fn session_store(g: &Graph) -> (Arc<BoundedHopset>, DistanceMatrix, PathStore) {
        let n = g.n();
        let cfg = emulator_config(n, 0.5, ParamProfile::Scaled)
            .unwrap()
            .with_paths(true);
        let mut subs = Substrates::default();
        let mut mode = Mode::Det;
        let mut ledger = RoundLedger::new(n);
        let (delta, store) = subs.long_range(g, &cfg, &mut mode, &mut ledger);
        let t = threshold(n, 0.5, ParamProfile::Scaled).unwrap();
        let on = HopsetGraph::Input;
        let hs = subs.hopset_for(on, g, (2 * t, 0.25), &cfg, &mut mode, &mut ledger, None);
        let store = store.expect("recording session");
        (hs, Arc::unwrap_or_clone(delta), Arc::unwrap_or_clone(store))
    }

    /// The filtered detection and routing sets leave the same witnesses
    /// and the same arena as offering everything against a separate value
    /// table, on inputs where those offers do win: seeded stores
    /// ([`seeded_store`]), among them a two-component graph with pivots
    /// on both sides of the BFS depth check (a long path, a clique ring),
    /// and a recording session's long-range table, which detection lowers.
    #[test]
    fn filtered_offers_match_offering_everything() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let mut two_parts: Vec<(usize, usize)> = (0..39).map(|v| (v, v + 1)).collect();
        two_parts.extend(
            generators::caveman(5, 5)
                .edges()
                .map(|(u, v)| (u + 40, v + 40)),
        );
        let session_graph = generators::connected_gnp(150, 0.03, &mut rng);
        for (name, g, session) in [
            ("grid", generators::grid(7, 9), false),
            ("caveman", generators::caveman(6, 6), false),
            ("gnp", generators::connected_gnp(80, 0.06, &mut rng), false),
            ("two parts", Graph::from_edges(65, &two_parts), false),
            ("session", session_graph, true),
        ] {
            let n = g.n();
            let mut ledger = RoundLedger::new(n);
            let pivots: Vec<usize> = (0..n).step_by(5).collect();
            let (hs, mut delta, mut store) = if session {
                session_store(&g)
            } else {
                seeded_store(&g, &pivots)
            };
            store.absorb_routes(hs.routes.as_ref().expect("hopset built with paths"));
            let arena_before = store.arena().len();

            let mut old_delta = delta.clone();
            let mut reference = OfferAll {
                best: delta.clone(),
                store: store.clone(),
            };
            detect_pivots_offering_all(
                &g,
                &hs,
                &pivots,
                &mut old_delta,
                &mut reference,
                &mut ledger,
            );
            detect_pivots(
                &g,
                &hs,
                &pivots,
                2,
                &mut delta,
                Some(&mut store),
                &mut ledger,
            );
            assert!(store.arena().len() > arena_before, "{name}: no chain won");
            assert_eq!(delta, old_delta, "{name}: detection estimates");
            assert_eq!(delta, reference.best, "{name}: detection values");
            assert_eq!(
                store.witnesses(),
                reference.store.witnesses(),
                "{name}: detection"
            );
            assert_eq!(
                store.arena(),
                reference.store.arena(),
                "{name}: detection arena"
            );

            // Two midpoints per row, the second one often redundant.
            let mids = |u: usize| {
                let p = pivots.len();
                vec![pivots[u % p], pivots[(u * 7 + 3) % p]]
            };
            route_offering_all(&mut old_delta, &mut reference, mids);
            route_rows(&mut delta, Some(&mut store), 2, |u, m| m.extend(mids(u)));
            assert!(via_count(&store) > 0, "{name}: no Via offer won");
            assert_eq!(delta, old_delta, "{name}: routed estimates");
            assert_eq!(delta, reference.best, "{name}: routed values");
            assert_eq!(
                store.witnesses(),
                reference.store.witnesses(),
                "{name}: routing"
            );
            assert_eq!(
                store.arena(),
                reference.store.arena(),
                "{name}: routing arena"
            );
        }
    }

    /// A random symmetric estimate matrix with infinite and near-infinite
    /// entries.
    fn random_symmetric(n: usize, rng: &mut impl rand::Rng) -> DistanceMatrix {
        let mut m = DistanceMatrix::new(n);
        for u in 0..n {
            for v in u + 1..n {
                match rng.gen_range(0..8) {
                    0 | 1 => {} // INF leg
                    2 => _ = m.improve(u, v, INF - 1 - rng.gen_range(0..4u32)),
                    _ => _ = m.improve(u, v, rng.gen_range(1..40)),
                }
            }
        }
        m
    }

    /// `route_rows` against a brute force of its rule on random symmetric
    /// matrices, at 1–3 workers: each row relaxed on its own through its
    /// midpoints in order (the legs as the step began, `δ(u,w)` from the
    /// row so far, saturating), then per pair the lower of its two rows'
    /// values, with the `Via` witness of the strictly lower row, or on a
    /// tie of the lower row index if that row lowered the pair. Midpoints
    /// include `u` itself, the far endpoints `v`, repeats, and
    /// near-infinite `δ(u,w)`.
    #[test]
    fn route_rows_match_the_snapshot_rule() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for n in [1usize, 2, 5, 17, 32] {
            for _ in 0..12 {
                let start = random_symmetric(n, &mut rng);
                let mids: Vec<Vec<usize>> = (0..n)
                    .map(|u| {
                        (0..rng.gen_range(0..5))
                            .map(|_| {
                                if rng.gen_bool(0.2) {
                                    u
                                } else {
                                    rng.gen_range(0..n)
                                }
                            })
                            .collect()
                    })
                    .collect();
                // Per row: its own relaxation and the midpoint of each
                // entry's last strict lowering.
                let rows: Vec<(Vec<Dist>, Vec<Option<usize>>)> = (0..n)
                    .map(|u| {
                        let mut row = start.row(u).to_vec();
                        let mut via_of = vec![None; n];
                        for &w in &mids[u] {
                            let via = row[w];
                            if via >= INF {
                                continue;
                            }
                            for v in 0..n {
                                let d = cc_graphs::dadd(via, start.get(w, v));
                                if d < row[v] {
                                    row[v] = d;
                                    via_of[v] = Some(w);
                                }
                            }
                        }
                        (row, via_of)
                    })
                    .collect();
                let mut want = start.clone();
                let mut want_store = PathStore::new(n);
                for a in 0..n {
                    for b in a + 1..n {
                        let (ra, rb) = (rows[a].0[b], rows[b].0[a]);
                        want.improve(a, b, ra.min(rb));
                        let w = if rb < ra { rows[b].1[a] } else { rows[a].1[b] };
                        if let Some(w) = w {
                            want_store.set_via(a, b, w);
                        }
                    }
                }
                for threads in 1..=3 {
                    let mut delta = start.clone();
                    let mut store = PathStore::new(n);
                    route_rows(&mut delta, Some(&mut store), threads, |u, m| {
                        m.extend_from_slice(&mids[u]);
                    });
                    assert_eq!(delta, want, "n={n} threads={threads}");
                    assert_eq!(store.witnesses(), want_store.witnesses(), "n={n}");
                    let mut unrecorded = start.clone();
                    route_rows(&mut unrecorded, None, threads, |u, m| {
                        m.extend_from_slice(&mids[u]);
                    });
                    assert_eq!(unrecorded, want, "n={n} threads={threads}: unrecorded");
                }
            }
        }
    }

    /// Marks every record reachable from `roots` in one reverse pass:
    /// children precede parents, so a record's mark is final when the pass
    /// reaches it.
    fn reachable(arena: &RouteArena, roots: impl IntoIterator<Item = RecId>) -> Vec<bool> {
        let (tags, ops_a, ops_b, _) = arena.sections();
        let mut marked = vec![false; tags.len()];
        for rec in roots {
            marked[rec.index() as usize] = true;
        }
        for i in (0..tags.len()).rev() {
            if marked[i] && tags[i] != cc_routes::TAG_EDGE {
                marked[ops_a[i] as usize] = true;
                if tags[i] == cc_routes::TAG_CAT {
                    marked[ops_b[i] as usize] = true;
                }
            }
        }
        marked
    }

    /// The records of `arena` that no root reaches, outside the `absorbed`
    /// records from `at` on: their count and the first one.
    fn unreached(
        arena: &RouteArena,
        roots: impl IntoIterator<Item = RecId>,
        (at, absorbed): (usize, usize),
    ) -> (usize, Option<usize>) {
        let marked = reachable(arena, roots);
        let mut lost =
            (0..marked.len()).filter(|&i| !marked[i] && !(at..at + absorbed).contains(&i));
        let first = lost.next();
        (first.map_or(0, |_| 1 + lost.count()), first)
    }

    /// The recording sweeps' witnesses are served by what they name. Every
    /// tree witness of the pair sweep names the row of its lower endpoint,
    /// and that row's parent chain reaches the other endpoint: the pair's
    /// route is a `G`-walk between them, no heavier than its estimate, and
    /// the reverse route is the same walk backwards. Every record the MSSP
    /// row sweep appends is reachable from a cell (the absorbed emulator
    /// routes are the one exception). The hub + gnp(97) emulator has edges
    /// outside `G`, so its trees cross hops that expand through absorbed,
    /// sometimes reversed, routes.
    #[test]
    fn sweep_witnesses_are_served_by_their_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut hub: Vec<(usize, usize)> = generators::connected_gnp(97, 0.06, &mut rng)
            .edges()
            .collect();
        hub.extend((2..97).step_by(2).map(|v| (0, v)));
        for (name, g, emulator_hops) in [
            ("grid 9x11", generators::grid(9, 11), false),
            ("caveman", generators::caveman(6, 6), false),
            ("hub + gnp(97)", Graph::from_edges(97, &hub), true),
        ] {
            let n = g.n();
            for threads in 1..=3 {
                let at = format!("{name}, {threads} threads");
                let cfg = emulator_config(n, 0.5, ParamProfile::Scaled)
                    .unwrap()
                    .with_paths(true)
                    .with_threads(threads);
                let mut ledger = RoundLedger::new(n);
                let subs = &mut Substrates::default();
                let emu = subs.emulator_for(&g, &cfg, &mut Mode::Det, &mut ledger);
                let absorbed = emu.routes.as_ref().expect("recording").arena().len();

                let (delta, store) = sweep_emulator(&g, &emu, &cfg, subs);
                let store = store.expect("recording sweep");
                let trees = store.trees().expect("the pair sweep keeps its trees");
                let (_, _, hops, _) = trees.sections();
                assert_eq!(!hops.is_empty(), emulator_hops, "{at}: emulator hops");
                let (mut idx, mut tree_pairs) = (0, 0);
                for u in 0..n {
                    for v in u..n {
                        let witness = store.witnesses()[idx];
                        idx += 1;
                        if witness != cc_routes::PairWitness::Tree {
                            continue;
                        }
                        tree_pairs += 1;
                        let walk = store.emit(u, v).expect("the row of u reaches v");
                        assert!(v > u && !g.has_edge(u, v), "{at}: ({u},{v})");
                        assert!(walk.len() as Dist <= delta.get(u, v), "{at}: ({u},{v})");
                        assert_eq!(walk[0].0 as usize, u, "{at}: ({u},{v}) start");
                        assert_eq!(walk[walk.len() - 1].1 as usize, v, "{at}: ({u},{v}) end");
                        for (i, &(x, y)) in walk.iter().enumerate() {
                            assert!(g.has_edge(x as usize, y as usize), "{at}: ({x},{y})");
                            assert!(i == 0 || walk[i - 1].1 == x, "{at}: ({u},{v}) chain");
                        }
                        let back: Vec<(u32, u32)> =
                            walk.iter().rev().map(|&(x, y)| (y, x)).collect();
                        assert_eq!(store.emit(v, u), Some(back), "{at}: ({v},{u})");
                    }
                }
                assert!(tree_pairs > n, "{at}: {tree_pairs} tree witnesses");

                let sources: Vec<usize> = (0..n).step_by(5).collect();
                let mut rows = RowStore::new(n, &sources);
                record_emulator_rows(&g, &emu, &sources, threads, &mut rows);
                let lost = unreached(
                    rows.arena(),
                    rows.recs().iter().flatten().copied(),
                    (0, absorbed),
                );
                assert_eq!(lost, (0, None), "{at}: MSSP rows (unreached, first)");
            }
        }
    }

    #[test]
    fn emulator_is_built_once() {
        let g = generators::caveman(6, 6);
        let cfg = emulator_config(g.n(), 0.5, ParamProfile::Scaled).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut mode = Mode::Rng(&mut rng);
        let mut subs = Substrates::default();
        let mut ledger = RoundLedger::new(g.n());
        let first = subs.emulator_for(&g, &cfg, &mut mode, &mut ledger);
        let after_first = ledger.total_rounds();
        let again = subs.emulator_for(&g, &cfg, &mut mode, &mut ledger);
        assert!(
            Arc::ptr_eq(&first, &again),
            "a hit shares the stored emulator"
        );
        assert_eq!(
            ledger.total_rounds(),
            after_first,
            "second lookup must charge zero rounds"
        );
        assert_eq!(count_label(&ledger, "collect emulator"), 1);
    }

    #[test]
    fn hopsets_cache_per_request() {
        let g = generators::cycle(40);
        let cfg = paper_emulator(g.n(), 0.5);
        let mut subs = Substrates::default();
        let mut ledger = RoundLedger::new(g.n());
        let mut det = Mode::Det;
        let mut hopset = |on, request, ledger: &mut RoundLedger| {
            subs.hopset_for(on, &g, request, &cfg, &mut det, ledger, None);
            ledger.total_rounds()
        };
        let first = hopset(HopsetGraph::Input, (8, 0.5), &mut ledger);
        let hit = hopset(HopsetGraph::Input, (8, 0.5), &mut ledger);
        assert_eq!(hit, first, "hit charges nothing");
        let mut charged = first;
        for (on, request) in [
            (HopsetGraph::Input, (16, 0.25)),
            (HopsetGraph::Input, (8, 0.25)),
            (HopsetGraph::LowDegree, (8, 0.5)),
        ] {
            let after = hopset(on, request, &mut ledger);
            assert!(
                after > charged,
                "{on:?} {request:?} is a different substrate"
            );
            charged = after;
        }
    }

    /// Two independent sessions over the same inputs must produce
    /// bit-identical substrates — the cache's key/value plumbing may not
    /// introduce any iteration-order dependence (this pinned BTreeMap
    /// conversion is what the `unordered-iter` rule enforces statically).
    #[test]
    fn substrate_results_are_stable_across_runs() {
        let g = generators::cycle(40);
        let cfg = paper_emulator(g.n(), 0.5);
        let sets: Vec<Vec<usize>> = (0..6).map(|i| vec![i, i + 7, i + 19]).collect();
        let run = || {
            let mut subs = Substrates::default();
            let mut ledger = RoundLedger::new(g.n());
            let mut det = Mode::Det;
            let mut hopset = |request| {
                let on = HopsetGraph::Input;
                subs.hopset_for(on, &g, request, &cfg, &mut det, &mut ledger, None)
            };
            let first = hopset((8, 0.5));
            // A second, different-threshold entry so the map holds several
            // keys before the first one is re-read.
            hopset((16, 0.25));
            let again = hopset((8, 0.5));
            assert!(
                Arc::ptr_eq(&first, &again),
                "a cache hit shares the stored hopset"
            );
            let hit = subs
                .hitting_set(g.n(), 2, &sets, &mut Mode::Det, &mut ledger)
                .unwrap();
            (first.union.clone(), again.union.clone(), hit)
        };
        let (a1, a2, ah) = run();
        let (b1, b2, bh) = run();
        assert_eq!(a1, a2, "cache hit must return the identical hopset");
        assert_eq!(a1, b1, "hopsets must be bit-identical across runs");
        assert_eq!(a2, b2);
        assert_eq!(ah, bh, "hitting sets must be bit-identical across runs");
    }

    #[test]
    fn hitting_sets_clamp_and_validate() {
        let subs = Substrates::default();
        let mut ledger = RoundLedger::new(16);
        let mut det = Mode::Det;
        // `k` above the smallest set is clamped, so the selection still
        // hits every set.
        let sets: Vec<Vec<usize>> = (0..4).map(|i| vec![i, i + 1, i + 2]).collect();
        let hit = subs
            .hitting_set(16, 9, &sets, &mut det, &mut ledger)
            .unwrap();
        assert!(cc_derand::hitting::hits_all(&hit, &sets));
        assert!(subs
            .hitting_set(16, 2, &[], &mut det, &mut ledger)
            .unwrap()
            .is_empty());

        let bad = vec![vec![99usize]];
        let err = subs
            .hitting_set(16, 1, &bad, &mut det, &mut ledger)
            .unwrap_err();
        assert!(matches!(err, CcError::Hitting(_)));
    }
}
