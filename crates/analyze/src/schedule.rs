//! The dynamic half of the determinism audit: a schedule-perturbation
//! harness (`cc-analyze schedule`).
//!
//! The static rules ([`crate::rules`], [`crate::concurrency`]) ban the
//! *patterns* that produce nondeterminism; this module attacks the running
//! code. Every iteration re-runs the workspace's parallel surfaces — the
//! row-sharded sparse min-plus kernel (values and witnesses), the
//! source-sharded hop-limited kernel of `(S,d)`-source detection (plain
//! and with parents), its certified variant over a hopset-shaped union
//! (with parents filled on demand), the workspace sweep of bucket-queue
//! Dijkstras behind the emulator sweep, a recording session's emulator
//! sweep (parent rows and pair witnesses) followed by apsp2 and apsp3
//! (estimates, witnesses and arenas of their row-sharded
//! distance-through-sets and pivot-routing kernels), two recorded hopsets
//! built through one shared basis cache, the sharded congested-clique
//! engine, and
//! periodically a loopback `ccd` burst — under a perturbed
//! schedule: randomized thread counts, worker and batch-size choices
//! (which move the queue-pop coalescing points), client-side send jitter,
//! and background yield-spinner threads that shuffle OS scheduling. Outputs must be **bit-identical** to a serial
//! baseline computed once up front; any divergence is reported with the
//! xorshift seed and iteration so the exact schedule roll can be replayed
//! with `cc-analyze schedule --seed <s> --iters <i>`.
//!
//! This is a determinism fuzzer, not a stress test: inputs are fixed by
//! the seed, only the *schedule* varies. TSan and Miri catch racy access;
//! this catches racy *results* — the thing the paper reproduction actually
//! promises (`DESIGN.md` §11.4).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cc_clique::cost::CostEntry;
use cc_clique::engine::{Engine, EngineConfig};
use cc_clique::programs::AllGather;
use cc_clique::{NodeId, RoundLedger};
use cc_core::{DistOracle, DistanceMatrix, Execution, Guarantee, PointEstimate, SolverBuilder};
use cc_graphs::dijkstra;
use cc_graphs::{bfs, Dist, Graph, StorageKind, WeightedGraph, INF};
use cc_matrix::{MinplusWorkspace, RowBuilder, SparseMatrix};
use cc_routes::{PairWitness, PathStore, Unroller};
use cc_serve::{serve, Client, ServerConfig};
use cc_toolkit::hopset::{self, BasisCache, HopsetParams};
use cc_toolkit::{KNearest, Strategy};

use crate::fuzz::Xorshift;

/// Harness parameters (all deterministic given `seed`).
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Perturbed iterations to run.
    pub iters: u64,
    /// Root seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Maximum worker threads rolled per component (min 1).
    pub max_threads: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            iters: 50,
            seed: 0x5eed_dec0de,
            max_threads: 4,
        }
    }
}

/// Outcome of a harness run.
#[derive(Debug, Default)]
pub struct ScheduleSummary {
    /// Iterations completed.
    pub iterations: u64,
    /// Kernel comparisons performed (sparse min-plus, hop-limited
    /// plain/parents, certified hop-limited, Dijkstra sweep, recording
    /// session, shared-basis hopsets, engine).
    pub comparisons: u64,
    /// Loopback `ccd` bursts performed.
    pub serve_bursts: u64,
    /// Divergences from the serial baseline, with replay coordinates.
    pub failures: Vec<String>,
}

/// Matrix dimension for the kernel inputs.
const KERNEL_N: usize = 48;
/// Sources of the hop-limited kernel (divisible by no rolled thread count
/// above 1, so shards come out uneven).
const HOP_SOURCES: usize = 7;
/// Hop bound of the hop-limited kernel.
const HOP_LIMIT: usize = 5;
/// The smaller threshold of the shared-basis hopset requests (`2t`, then
/// `t`, which cuts the first request's lists on the input's path half).
const BASIS_T: Dist = 4;
/// Vertex count of the recording session's graph.
const SESSION_N: usize = 90;
/// The stream the recording session's graph is drawn from.
const SESSION_SEED: u64 = 1;
/// Node count for the engine program.
const ENGINE_N: usize = 24;
/// Vertex count for the served oracle.
const SERVE_N: usize = 40;
/// A `ccd` burst runs every this-many iterations (spawning a TCP server
/// per iteration would dominate the schedule search).
const SERVE_EVERY: u64 = 8;

/// Serial ground truth, computed once at `threads = 1`.
struct Baseline {
    sparse_a: SparseMatrix,
    sparse_b: SparseMatrix,
    sparse_product: (SparseMatrix, Vec<u32>),
    hop_graph: WeightedGraph,
    hop_sources: Vec<usize>,
    hop_plain: Vec<Dist>,
    hop_parents: (Vec<Dist>, Option<Vec<u32>>),
    union_degree: Vec<u32>,
    union_graph: WeightedGraph,
    union_sources: Vec<usize>,
    union_rows: CertifiedRows,
    union_base: Graph,
    session_graph: Graph,
    basis_hopsets: SharedHopsets,
    sweep_trees: Vec<SweptTree>,
    recorded_session: RecordedSession,
    engine_words: Vec<Vec<u64>>,
    engine_collected: Vec<Vec<u64>>,
    oracle: Arc<DistOracle>,
    query_pairs: Vec<(u32, u32)>,
    query_answers: Vec<Option<PointEstimate>>,
}

/// Distances of the certified hop-limited kernel and every source's
/// parent row.
type CertifiedRows = (Vec<Dist>, Vec<u32>);

/// Per request of [`shared_hopsets`], the union `G ∪ H`, `A₁` and the
/// routes, plus every ledger entry the requests charged.
type SharedHopsets = (
    Vec<(WeightedGraph, Vec<usize>, Option<Unroller>)>,
    Vec<CostEntry>,
);

/// Two recorded deterministic hopsets of `g`, at `2t` then `t`, on
/// `threads` workers: through one shared [`BasisCache`] when `shared`,
/// else each through a fresh one.
fn shared_hopsets(g: &Graph, threads: usize, shared: bool) -> SharedHopsets {
    let mut ledger = RoundLedger::new(g.n());
    let mut cache = BasisCache::default();
    let built = [2 * BASIS_T, BASIS_T]
        .into_iter()
        .map(|t| {
            let params = HopsetParams::scaled(g.n(), t, 0.5)
                .with_threads(threads)
                .with_paths(true);
            let mut fresh = BasisCache::default();
            let basis = if shared { &mut cache } else { &mut fresh };
            let hs = hopset::build_deterministic(g, params, basis, &mut ledger);
            (hs.union, hs.a1, hs.routes)
        })
        .collect();
    (built, ledger.entries().to_vec())
}

/// One source's distances and parents from the Dijkstra sweep.
type SweptTree = (Vec<Dist>, Vec<Option<u32>>);

/// The Dijkstra tree from every vertex of `g`, by `dijkstra::sweep` over
/// `threads` workers — the emulator sweep's kernel and sharding.
fn sweep_trees(g: &WeightedGraph, threads: usize) -> Vec<SweptTree> {
    let mut trees: Vec<SweptTree> = vec![(Vec::new(), Vec::new()); g.n()];
    dijkstra::sweep(&mut trees, g.max_weight(), threads, |ws, src, tree| {
        let (dist, parent) = ws.sssp_with_parents(g, src);
        *tree = (dist.to_vec(), parent.to_vec());
    });
    trees
}

/// One recorded APSP answer: its estimates, pair witnesses and arena
/// sections (tags, both operand columns, lengths).
type RecordedQuery = (
    DistanceMatrix,
    Vec<PairWitness>,
    (Vec<u8>, Vec<u32>, Vec<u32>, Vec<u32>),
);

/// What a recording session leaves: the recorded emulator sweep's parent
/// rows and pair witnesses, then apsp2's and apsp3's answers.
type RecordedSession = (Vec<u32>, Vec<PairWitness>, Vec<RecordedQuery>);

/// A deterministic recording session on `g` over `threads` workers: the
/// additive query returns the long-range table (the sweep's parent rows
/// and pair witnesses), then apsp2 and apsp3 run their row-sharded
/// short-range kernels (distance-through-sets, pivot routing) on it.
fn recorded_session(g: &Graph, threads: usize) -> Result<RecordedSession, String> {
    let mut solver = SolverBuilder::new(g.clone())
        .eps(0.5)
        .execution(Execution::Deterministic)
        .threads(threads)
        .record_paths(true)
        .build()
        .map_err(|e| e.to_string())?;
    let table = solver.apsp_near_additive().map_err(|e| e.to_string())?;
    let store = table.paths.ok_or("a recording session returns witnesses")?;
    let trees = store.trees().ok_or("the recorded sweep keeps its trees")?;
    let recorded = |estimates: &DistanceMatrix, paths: Option<&PathStore>| {
        let paths = paths.ok_or("a recording query returns witnesses")?;
        let (tags, a, b, lens) = paths.arena().sections();
        let arena = (tags.to_vec(), a.to_vec(), b.to_vec(), lens.to_vec());
        Ok::<_, String>((estimates.clone(), paths.witnesses().to_vec(), arena))
    };
    let two = solver.apsp_2eps().map_err(|e| e.to_string())?;
    let three = solver.apsp_3eps().map_err(|e| e.to_string())?;
    let queries = vec![
        recorded(&two.estimates, two.paths.as_deref())?,
        recorded(&three.estimates, three.paths.as_deref())?,
    ];
    Ok((
        trees.sections().0.to_vec(),
        store.witnesses().to_vec(),
        queries,
    ))
}

/// The recording session's graph: a sparse graph on a spanning path,
/// plus a hub joined to every even vertex. The hub lies above apsp2's
/// high-degree threshold, so every short-range step runs. The graph is
/// drawn from the fixed stream `SESSION_SEED`, not from the harness seed:
/// most draws leave the emulator without edges outside the graph or leave
/// apsp3 no pair to route, and [`check_session_input`] refuses those.
fn session_input() -> Graph {
    let mut rng = Xorshift::new(SESSION_SEED);
    let mut edges: Vec<(usize, usize)> = (1..SESSION_N).map(|v| (v - 1, v)).collect();
    for _ in 0..2 * SESSION_N {
        edges.push((rng.below(SESSION_N), rng.below(SESSION_N)));
    }
    edges.extend((2..SESSION_N).step_by(2).map(|v| (0, v)));
    edges.retain(|&(u, v)| u != v);
    Graph::from_edges(SESSION_N, &edges)
}

/// The session must exercise what it is compared on: a sweep hop that is
/// not a graph edge (a flagged parent word), and pairs that apsp2's and
/// apsp3's kernels route through a midpoint.
fn check_session_input(session: &RecordedSession) -> Result<(), String> {
    if !session
        .0
        .iter()
        .any(|&word| word != u32::MAX && word >> 31 == 1)
    {
        return Err("recording session's sweep crosses no emulator hop".into());
    }
    for (name, query) in ["apsp2", "apsp3"].iter().zip(&session.2) {
        if !query.1.iter().any(|w| matches!(w, PairWitness::Via(_))) {
            return Err(format!(
                "recording session's {name} routes no pair through a midpoint"
            ));
        }
    }
    Ok(())
}

/// Deterministic sparse kernel input: ~6 entries per row, weights below
/// 1000.
fn seeded_input(seed: u64) -> SparseMatrix {
    let mut rng = Xorshift::new(seed);
    let mut rb = RowBuilder::new(KERNEL_N);
    for i in 0..KERNEL_N {
        for _ in 0..6 {
            let j = rng.below(KERNEL_N);
            let w = rng.below(1000) as Dist;
            rb.push(i, j, w);
        }
    }
    rb.build()
}

/// Deterministic weighted graph for the hop-limited kernel: ~3 random
/// edges per vertex with weights 1–9 (several relaxations per hop), and
/// seeded sources.
fn hop_inputs(seed: u64) -> (WeightedGraph, Vec<usize>) {
    let mut rng = Xorshift::new(seed ^ 0x40b5);
    let mut g = WeightedGraph::new(KERNEL_N);
    for u in 0..KERNEL_N {
        for _ in 0..3 {
            let v = rng.below(KERNEL_N);
            if v != u {
                g.add_edge(u, v, 1 + rng.below(9) as Dist);
            }
        }
    }
    let sources = (0..HOP_SOURCES).map(|_| rng.below(KERNEL_N)).collect();
    (g, sources)
}

/// Hopset-shaped input of the certified kernel: a base graph whose first
/// half is a path (every vertex deeper than `HOP_LIMIT` from some other)
/// and whose second half is a hub with seeded chords (depth ≤ 2), the
/// union of that graph with seeded shortcuts weighing their endpoints'
/// base distance plus 0–2, and sources on both halves, so both sides of
/// the BFS depth check run.
fn union_inputs(seed: u64) -> (Graph, WeightedGraph, Vec<usize>) {
    let mut rng = Xorshift::new(seed ^ 0xce27);
    let half = KERNEL_N / 2;
    let mut edges: Vec<(usize, usize)> = (1..half).map(|v| (v - 1, v)).collect();
    edges.extend((half + 1..KERNEL_N).map(|v| (half, v)));
    for _ in 0..KERNEL_N {
        edges.push((half + rng.below(half), half + rng.below(half)));
    }
    let base = Graph::from_edges(KERNEL_N, &edges);
    let mut shortcuts = WeightedGraph::new(KERNEL_N);
    for _ in 0..2 * KERNEL_N {
        let u = rng.below(KERNEL_N);
        let d = bfs::sssp(&base, u);
        let v = rng.below(KERNEL_N);
        if v != u && d[v] < INF {
            shortcuts.add_edge(u, v, d[v] + rng.below(3) as Dist);
        }
    }
    let union = WeightedGraph::union_of(&base, &shortcuts);
    let sources = (0..HOP_SOURCES)
        .map(|i| (i % 2) * half + rng.below(half))
        .collect();
    (base, union, sources)
}

/// The certified kernel's distances and every source's parent row filled
/// on demand: the rows a caller recording every pair would read.
fn certified_rows(
    base_degree: &[u32],
    union: &WeightedGraph,
    sources: &[usize],
    threads: usize,
) -> CertifiedRows {
    let dist = dijkstra::hop_limited_over_union(union, base_degree, sources, HOP_LIMIT, threads);
    let mut parents = vec![u32::MAX; sources.len() * union.n()];
    let all = vec![true; sources.len()];
    dijkstra::fill_hop_parents(union, sources, HOP_LIMIT, threads, &all, &mut parents);
    (dist, parents)
}

fn engine_words(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Xorshift::new(seed ^ 0xe9_61);
    (0..ENGINE_N)
        .map(|i| {
            (0..1 + rng.below(3))
                .map(|k| ((i as u64) << 32) | ((k as u64) ^ (rng.next_u64() >> 48)))
                .collect()
        })
        .collect()
}

fn run_engine(words: &[Vec<u64>], threads: usize) -> Result<Vec<Vec<u64>>, String> {
    let nodes: Vec<AllGather> = words
        .iter()
        .enumerate()
        .map(|(i, w)| AllGather::new(NodeId::new(i), w.clone()))
        .collect();
    let mut engine = Engine::with_config(nodes, EngineConfig::threaded(threads));
    engine.run().map_err(|e| format!("engine error: {e:?}"))?;
    Ok(engine
        .nodes()
        .iter()
        .map(|n| n.collected().to_vec())
        .collect())
}

/// A frozen oracle plus the seeded query pairs and their serial answers.
type OracleBaseline = (Arc<DistOracle>, Vec<(u32, u32)>, Vec<Option<PointEstimate>>);

fn build_oracle(seed: u64) -> OracleBaseline {
    let mut rng = Xorshift::new(seed ^ 0x07ac1e);
    let mut m = DistanceMatrix::new(SERVE_N);
    for u in 0..SERVE_N {
        for v in (u + 1)..SERVE_N {
            let d = 1 + rng.below(500) as Dist;
            m.improve(u, v, d);
            m.improve(v, u, d);
        }
    }
    let oracle = Arc::new(DistOracle::from_matrix(
        &m,
        Guarantee::mult2(0.25),
        StorageKind::SymmetricPacked,
    ));
    let pairs: Vec<(u32, u32)> = (0..200)
        .map(|_| (rng.below(SERVE_N) as u32, rng.below(SERVE_N) as u32))
        .collect();
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let answers = oracle.dist_batch(&upairs);
    (oracle, pairs, answers)
}

fn baseline(seed: u64) -> Result<Baseline, String> {
    let sparse_a = seeded_input(seed ^ 0xa);
    let sparse_b = seeded_input(seed ^ 0xb);
    let sparse_product = sparse_a.minplus(&sparse_b, &mut MinplusWorkspace::new());
    let (hop_graph, hop_sources) = hop_inputs(seed);
    let (hop_plain, _) =
        dijkstra::hop_limited_from_sources(&hop_graph, &hop_sources, HOP_LIMIT, 1, false);
    let hop_parents =
        dijkstra::hop_limited_from_sources(&hop_graph, &hop_sources, HOP_LIMIT, 1, true);
    let (union_base, union_graph, union_sources) = union_inputs(seed);
    let union_degree: Vec<u32> = (0..KERNEL_N).map(|u| union_base.degree(u) as u32).collect();
    let union_rows = certified_rows(&union_degree, &union_graph, &union_sources, 1);
    let deep: Vec<bool> = union_sources
        .iter()
        .map(|&s| {
            bfs::sssp(&union_base, s)
                .iter()
                .any(|&d| d < INF && d as usize > HOP_LIMIT)
        })
        .collect();
    if !(deep.contains(&true) && deep.contains(&false)) {
        return Err("certified kernel input misses a side of the depth check".into());
    }
    let (bf_dist, bf_parents) =
        dijkstra::hop_limited_from_sources(&union_graph, &union_sources, HOP_LIMIT, 1, true);
    if union_rows.0 != bf_dist || bf_parents.as_ref() != Some(&union_rows.1) {
        return Err("certified kernel differs from the Bellman–Ford kernel".into());
    }
    let k = HopsetParams::scaled(KERNEL_N, BASIS_T, 0.5).k;
    let wide = KNearest::compute(
        &union_base,
        k,
        2 * BASIS_T,
        Strategy::TruncatedBfs,
        &mut RoundLedger::new(KERNEL_N),
    );
    if (0..KERNEL_N).all(|v| wide.radius(v) <= BASIS_T) {
        return Err("shared-basis input has no list for the second request to cut".into());
    }
    let basis_hopsets = shared_hopsets(&union_base, 1, false);
    let sweep_trees = sweep_trees(&hop_graph, 1);
    let session_graph = session_input();
    let recorded_session = recorded_session(&session_graph, 1)?;
    check_session_input(&recorded_session)?;

    let engine_words = engine_words(seed);
    let engine_collected = run_engine(&engine_words, 1)?;
    let (oracle, query_pairs, query_answers) = build_oracle(seed);
    Ok(Baseline {
        sparse_a,
        sparse_b,
        sparse_product,
        hop_graph,
        hop_sources,
        hop_plain,
        hop_parents,
        union_degree,
        union_graph,
        union_sources,
        union_rows,
        union_base,
        session_graph,
        basis_hopsets,
        sweep_trees,
        recorded_session,
        engine_words,
        engine_collected,
        oracle,
        query_pairs,
        query_answers,
    })
}

/// Background yield-spinners: pure scheduling noise, no shared state.
struct Spinners {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    fn start(count: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..count)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Spinners { stop, handles }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One loopback `ccd` burst under a rolled server schedule: random worker
/// count and `batch_max` (both move the queue-pop coalescing points), two
/// concurrent clients with jittered send pacing, answers compared
/// entry-for-entry against the in-process oracle baseline.
fn serve_burst(base: &Baseline, rng: &mut Xorshift) -> Result<(), String> {
    let config = ServerConfig {
        threads: 1 + rng.below(4),
        queue_capacity: 4096, // never shed: shedding is *load* behavior, not schedule
        batch_max: 1 + rng.below(64),
        default_deadline_ms: 0,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&base.oracle), "127.0.0.1:0", config)
        .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    let requests = 6 + rng.below(6);
    let client_seeds = [rng.next_u64(), rng.next_u64()];
    let outcome = std::thread::scope(|scope| {
        let workers: Vec<_> = client_seeds
            .iter()
            .map(|&cs| {
                let pairs = &base.query_pairs;
                let want = &base.query_answers;
                scope.spawn(move || -> Result<(), String> {
                    let mut jrng = Xorshift::new(cs);
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for r in 0..requests {
                        // Jitter the send points so requests interleave
                        // differently with queue pops on every roll.
                        std::thread::sleep(Duration::from_micros(jrng.below(200) as u64));
                        let lo = jrng.below(pairs.len());
                        let hi = (lo + 1 + jrng.below(pairs.len() - lo)).min(pairs.len());
                        let got = client
                            .dist_batch(&pairs[lo..hi], 0)
                            .map_err(|e| format!("dist_batch: {e}"))?
                            .map_err(|s| format!("unexpected status {s:?}"))?;
                        if got[..] != want[lo..hi] {
                            return Err(format!(
                                "request {r}: served answers for pairs[{lo}..{hi}] \
                                 diverge from the in-process oracle"
                            ));
                        }
                    }
                    // The trace ring is bounded and contention-dropping,
                    // yet a synchronous client (one outstanding request)
                    // must see a deterministic drain: exactly one span per
                    // request, in issue order, every one Ok — under every
                    // perturbed schedule.
                    let trace = client.trace().map_err(|e| format!("trace: {e}"))?;
                    let spans: Vec<&str> = trace.lines().collect();
                    if spans.len() != requests {
                        return Err(format!(
                            "trace ring drained {} spans for {requests} requests",
                            spans.len()
                        ));
                    }
                    for (i, span) in spans.iter().enumerate() {
                        let prefix = format!("span req_id={} op=1 status=0 batch=", i + 1);
                        if !span.starts_with(&prefix) {
                            return Err(format!(
                                "span {i} diverges under this schedule: {span:?} \
                                 (want prefix {prefix:?})"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect::<Result<Vec<()>, String>>()
    });
    handle.shutdown();
    outcome.map(|_| ())
}

/// Runs the harness. Every failure string carries the root seed, the
/// iteration, and the component, so `--seed`/`--iters` replay it exactly.
pub fn run(cfg: &ScheduleConfig) -> ScheduleSummary {
    let mut summary = ScheduleSummary::default();
    let base = match baseline(cfg.seed) {
        Ok(b) => b,
        Err(e) => {
            summary.failures.push(format!("baseline: {e}"));
            return summary;
        }
    };
    let max_threads = cfg.max_threads.max(1);

    for iter in 0..cfg.iters {
        let mut rng = Xorshift::new(cfg.seed ^ iter.wrapping_mul(0x9e37_79b9));
        let fail = |summary: &mut ScheduleSummary, component: &str, detail: String| {
            summary.failures.push(format!(
                "component={component} iter={iter} seed={:#x}: {detail} \
                 (replay: cc-analyze schedule --seed {} --iters {})",
                cfg.seed,
                cfg.seed,
                iter + 1,
            ));
        };

        // Scheduling noise for this iteration's kernels.
        let _spin = Spinners::start(rng.below(3));

        let threads = 1 + rng.below(max_threads);
        let mut ws = MinplusWorkspace::with_threads(threads);
        let got = base.sparse_a.minplus(&base.sparse_b, &mut ws);
        if got != base.sparse_product {
            fail(
                &mut summary,
                "sparse-minplus",
                format!("threads={threads}: matrix or witnesses differ from serial"),
            );
        }

        let hop_threads = 1 + rng.below(max_threads);
        let (got, _) = dijkstra::hop_limited_from_sources(
            &base.hop_graph,
            &base.hop_sources,
            HOP_LIMIT,
            hop_threads,
            false,
        );
        if got != base.hop_plain {
            fail(
                &mut summary,
                "hop-limited",
                format!("threads={hop_threads}: distances differ from serial"),
            );
        }
        let got = dijkstra::hop_limited_from_sources(
            &base.hop_graph,
            &base.hop_sources,
            HOP_LIMIT,
            hop_threads,
            true,
        );
        if got != base.hop_parents {
            fail(
                &mut summary,
                "hop-limited-parents",
                format!("threads={hop_threads}: distances or parents differ from serial"),
            );
        }

        let got = certified_rows(
            &base.union_degree,
            &base.union_graph,
            &base.union_sources,
            hop_threads,
        );
        if got != base.union_rows {
            fail(
                &mut summary,
                "hop-certified",
                format!("threads={hop_threads}: distances or parents differ from serial"),
            );
        }

        let engine_threads = 1 + rng.below(max_threads);
        match run_engine(&base.engine_words, engine_threads) {
            Ok(collected) if collected == base.engine_collected => {}
            Ok(_) => fail(
                &mut summary,
                "engine",
                format!("threads={engine_threads}: per-node collected words differ from serial"),
            ),
            Err(e) => fail(
                &mut summary,
                "engine",
                format!("threads={engine_threads}: {e}"),
            ),
        }
        let sweep_threads = 1 + rng.below(max_threads);
        if sweep_trees(&base.hop_graph, sweep_threads) != base.sweep_trees {
            fail(
                &mut summary,
                "dijkstra-sweep",
                format!("threads={sweep_threads}: distances or parents differ from serial"),
            );
        }
        match recorded_session(&base.session_graph, sweep_threads) {
            Ok(got) if got == base.recorded_session => {}
            Ok(_) => fail(
                &mut summary,
                "recorded-session",
                format!(
                    "threads={sweep_threads}: sweep parent rows or witnesses, or apsp2/apsp3 \
                     estimates, witnesses or arenas differ from serial"
                ),
            ),
            Err(e) => fail(
                &mut summary,
                "recorded-session",
                format!("threads={sweep_threads}: {e}"),
            ),
        }
        let basis_threads = 1 + rng.below(max_threads);
        if shared_hopsets(&base.union_base, basis_threads, true) != base.basis_hopsets {
            fail(
                &mut summary,
                "hopset-shared-basis",
                format!(
                    "threads={basis_threads}: a hopset or a ledger entry differs from \
                     fresh serial builds"
                ),
            );
        }
        summary.comparisons += 8;

        if iter % SERVE_EVERY == 0 {
            summary.serve_bursts += 1;
            if let Err(e) = serve_burst(&base, &mut rng) {
                fail(&mut summary, "ccd-loopback", e);
            }
        }

        summary.iterations += 1;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_is_bit_identical() {
        let summary = run(&ScheduleConfig {
            iters: 9, // crosses one serve burst
            seed: 0x7e57,
            max_threads: 3,
        });
        assert_eq!(summary.iterations, 9);
        assert_eq!(summary.serve_bursts, 2);
        assert!(
            summary.failures.is_empty(),
            "determinism violations: {:#?}",
            summary.failures
        );
    }

    #[test]
    fn baselines_are_reproducible() {
        let a = baseline(42).expect("baseline");
        let b = baseline(42).expect("baseline");
        assert_eq!(a.sparse_product, b.sparse_product);
        assert_eq!(a.hop_parents, b.hop_parents);
        assert_eq!(a.union_rows, b.union_rows);
        assert_eq!(a.basis_hopsets, b.basis_hopsets);
        assert_eq!(a.sweep_trees, b.sweep_trees);
        assert_eq!(a.recorded_session, b.recorded_session);
        assert_eq!(a.engine_collected, b.engine_collected);
        assert_eq!(a.query_answers, b.query_answers);
    }
}
