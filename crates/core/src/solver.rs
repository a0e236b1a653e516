//! The session-style entry point over the paper's algorithm portfolio.
//!
//! The paper's three applications (Thms 3–5) all stand on the same expensive
//! substrates — the near-additive emulator and bounded hopsets. A
//! [`Solver`], configured once through [`SolverBuilder`], owns the graph,
//! the round ledger and a substrate cache, so a multi-query workload
//! (`apsp_2eps()` then `mssp(..)`, repeated point queries, mixed accuracy
//! profiles) pays for each substrate **once**:
//!
//! ```
//! use cc_core::{Execution, SolverBuilder};
//! use cc_graphs::generators;
//!
//! let g = generators::caveman(6, 6);
//! let mut solver = SolverBuilder::new(g)
//!     .eps(0.5)
//!     .execution(Execution::Seeded(7))
//!     .build()?;
//! let apsp = solver.apsp_2eps()?;
//! assert!(apsp.estimates.get(0, 20) >= 1);
//! // The MSSP query reuses the emulator the APSP query built.
//! let landmarks = solver.mssp(&[0, 9, 18])?;
//! assert_eq!(landmarks.dist(0, 0), 0);
//! // Cheap tagged point lookups over everything computed so far.
//! let answer = solver.estimate(0, 20).expect("estimate cached");
//! println!("d(0,20) ≤ {} under {}", answer.dist, answer.guarantee);
//! // Freeze the read side for lock-free concurrent serving.
//! let oracle = std::sync::Arc::new(solver.freeze()?);
//! assert_eq!(oracle.dist(0, 20).map(|e| e.dist), Some(answer.dist));
//! println!("{}", solver.ledger().report());
//! # Ok::<(), cc_core::CcError>(())
//! ```

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_graphs::{Dist, DistStorage, Graph, INF};
use cc_routes::PathStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::apsp2::{self, Apsp2, Apsp2Config};
use crate::apsp3::{self, Apsp3, Apsp3Config};
use crate::apsp_additive::{self, AdditiveApsp};
use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::mssp::{self, Mssp, MsspConfig};
use crate::oracle::{DistOracle, Guarantee, PointEstimate};
use crate::path_oracle::PathProvider;
use crate::pipeline::{self, Mode, Substrates};

/// Randomized (seeded) or deterministic execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Execution {
    /// Randomized with the given seed (Thms 3–5). Every query draws a fresh
    /// generator from the seed, so the **first** query of a session is
    /// bit-for-bit the same in every session with that seed. Later queries
    /// reuse cached substrates and therefore consume the random stream from
    /// a different position than a fresh session's first query would —
    /// still deterministic per (seed, query history), and every
    /// approximation guarantee holds, but not stream-identical.
    Seeded(u64),
    /// Deterministic (Thms 51–53): bit-for-bit reproducible.
    Deterministic,
}

/// Which parameter schedule the solver instantiates its pipelines with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamProfile {
    /// The paper's constants with an explicit emulator level count `r`.
    Paper {
        /// Number of emulator levels.
        levels: usize,
    },
    /// Benchmark-scale profile: `r = max(2, ⌊log₂log₂ n⌋)` and tempered
    /// hopset constants (same exponents as the paper).
    Scaled,
}

/// Builder for a [`Solver`]: graph in, validated session out.
///
/// Validation (accuracy range, graph order, level schedule) happens in
/// [`SolverBuilder::build`], which returns [`CcError`] — queries on a built
/// solver can then only fail for query-specific reasons (e.g. an invalid
/// MSSP source set).
#[derive(Clone, Debug)]
pub struct SolverBuilder {
    graph: Graph,
    eps: f64,
    execution: Execution,
    profile: ParamProfile,
    threads: usize,
    record_paths: bool,
    profile_stages: bool,
}

impl SolverBuilder {
    /// Starts a builder over `graph` with the defaults `eps = 0.5`,
    /// [`Execution::Seeded(0)`](Execution::Seeded), [`ParamProfile::Scaled`],
    /// serial execution (`threads = 1`), no path recording and no stage
    /// profiling.
    pub fn new(graph: Graph) -> Self {
        SolverBuilder {
            graph,
            eps: 0.5,
            execution: Execution::Seeded(0),
            profile: ParamProfile::Scaled,
            threads: 1,
            record_paths: false,
            profile_stages: false,
        }
    }

    /// Makes every query record path witnesses alongside its estimates, so
    /// the oracle [`Solver::freeze`] returns serves routes, not just
    /// distances.
    ///
    /// Purely local bookkeeping: estimates and charged rounds are
    /// **bit-identical** with recording on or off (in the model, witnesses
    /// ride the same messages as the distances they annotate — pinned by
    /// tests against `cost::model`). The cost is wall-clock and memory for
    /// the witness arenas.
    #[must_use]
    pub fn record_paths(mut self, record_paths: bool) -> Self {
        self.record_paths = record_paths;
        self
    }

    /// Sets the worker-thread count the pipelines' local computation runs
    /// with (`0` and `1` both mean serial): the min-plus kernels, `(k,d)`-
    /// nearest lists and hopset construction shard across scoped threads.
    ///
    /// Purely wall-clock — results and charged rounds are **bit-identical**
    /// at any thread count (every sharded unit depends only on the inputs;
    /// same argument as the engine's sharded node execution, DESIGN.md §1.2).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Turns on wall-clock profiling of the pipeline stages (emulator and
    /// hopset construction, hitting sets, the `E''` min-plus products, the
    /// freeze merge), readable afterwards via [`Solver::stage_times`] /
    /// [`Solver::profile_exposition`].
    ///
    /// Purely observational: timing is recorded after each stage completes
    /// and never feeds back, so estimates **and** charged rounds are
    /// bit-identical with profiling on or off (pinned by tests, same
    /// contract as [`SolverBuilder::record_paths`]). When off (the
    /// default), the timers never read the clock.
    #[must_use]
    pub fn profile_stages(mut self, profile_stages: bool) -> Self {
        self.profile_stages = profile_stages;
        self
    }

    /// Sets the accuracy `ε ∈ (0, 1)` shared by all queries.
    #[must_use]
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets seeded-randomized or deterministic execution.
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the parameter schedule (paper constants or benchmark scale).
    #[must_use]
    pub fn profile(mut self, profile: ParamProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::Params`] for `ε ∉ (0,1)`, graphs with fewer than
    /// two vertices, a zero level count, or a radius schedule that overflows
    /// the distance type.
    pub fn build(self) -> Result<Solver, CcError> {
        let (n, eps, profile) = (self.graph.n(), self.eps, self.profile);
        let mut emulator = pipeline::emulator_config(n, eps, profile)?;
        emulator.threads = self.threads;
        emulator.record_paths = self.record_paths;
        let ledger = RoundLedger::new(n);
        let mut substrates = Substrates::default();
        substrates.profile_stages(self.profile_stages);
        Ok(Solver {
            graph: self.graph,
            execution: self.execution,
            profile,
            emulator,
            apsp2_cfg: Apsp2Config::for_profile(n, eps, profile)?,
            apsp3_cfg: Apsp3Config::for_profile(n, eps, profile)?,
            mssp_cfg: MsspConfig::for_profile(n, eps, profile)?,
            ledger,
            substrates,
            apsp2_result: None,
            apsp3_result: None,
            additive_result: None,
            mssp_results: Vec::new(),
        })
    }
}

/// A prepared shortest-path session over one graph.
///
/// Created by [`SolverBuilder`], which fixes the session's one parameter
/// set: a single [`CliqueEmulatorConfig`] (with the thread count and path
/// recording) that every query runs over, and the per-query configurations
/// derived from the same `(n, ε)` and profile. All queries charge simulated
/// rounds to the solver-owned [`RoundLedger`] (accessible via
/// [`Solver::ledger`]). The expensive substrates are built once and shared
/// across queries: the emulator (one per session) and the bounded hopsets
/// (keyed by their graph and requested `(t, ε)`). Query results are
/// memoized too, so repeating a query is free, and [`Solver::estimate`]
/// answers point lookups from everything computed so far without charging
/// any rounds.
#[derive(Debug)]
pub struct Solver {
    graph: Graph,
    execution: Execution,
    profile: ParamProfile,
    /// The one emulator configuration every query runs over.
    emulator: CliqueEmulatorConfig,
    apsp2_cfg: Apsp2Config,
    apsp3_cfg: Apsp3Config,
    mssp_cfg: MsspConfig,
    ledger: RoundLedger,
    substrates: Substrates,
    apsp2_result: Option<Apsp2>,
    apsp3_result: Option<Apsp3>,
    additive_result: Option<AdditiveApsp>,
    mssp_results: Vec<(Vec<usize>, Mssp)>,
}

/// One stored query result, as [`Solver::results`] visits it.
enum Stored<'a> {
    /// An all-pairs result: its estimates, guarantee and pair witnesses.
    Pairs(&'a DistanceMatrix, Guarantee, &'a Option<Arc<PathStore>>),
    /// One MSSP batch.
    Rows(&'a Mssp),
}

impl Stored<'_> {
    fn guarantee(&self) -> Guarantee {
        match self {
            Stored::Pairs(_, g, _) => *g,
            Stored::Rows(m) => m.guarantee_tag(),
        }
    }

    /// The result's witnesses as a route provider (recording sessions).
    fn provider(&self) -> PathProvider {
        let recorded = "recorded session result";
        match self {
            Stored::Pairs(_, _, paths) => {
                PathProvider::Pairs(Arc::clone(paths.as_ref().expect(recorded)))
            }
            Stored::Rows(m) => PathProvider::Rows(Arc::clone(m.paths.as_ref().expect(recorded))),
        }
    }
}

/// Output of the shared freeze merge (packed upper-triangle indexing).
struct MergedTables {
    data: Vec<Dist>,
    tags: Vec<u8>,
    guarantees: Vec<Guarantee>,
    /// Index of the winning result per pair (the numbering of
    /// [`Solver::results`]); empty unless the session records paths.
    origins: Vec<u8>,
}

/// The per-pair winner rule of [`Solver::estimate`] and the freeze merge:
/// does `(dist, guarantee)` beat the current `best`? A finite estimate
/// beats none, a smaller estimate beats a larger one whatever the
/// guarantees, and on equal estimates the strictly stronger guarantee wins,
/// so a weak pipeline can lower a value but never upgrade its bound.
fn wins(dist: Dist, guarantee: Guarantee, best: Option<(Dist, Guarantee)>) -> bool {
    match best {
        Some((d, g)) => dist < d || (dist == d && guarantee.stronger_than(&g)),
        None => dist < INF,
    }
}

/// Runs `body` with a fresh per-query mode derived from `execution`.
macro_rules! with_mode {
    ($execution:expr, |$mode:ident| $body:expr) => {{
        match $execution {
            Execution::Seeded(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let $mode = Mode::Rng(&mut rng);
                $body
            }
            Execution::Deterministic => {
                let $mode = Mode::Det;
                $body
            }
        }
    }};
}

impl Solver {
    /// Shorthand for [`SolverBuilder::new`].
    pub fn builder(graph: Graph) -> SolverBuilder {
        SolverBuilder::new(graph)
    }

    /// The graph this session answers queries about.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Graph order `n`.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The accuracy `ε` shared by all queries.
    pub fn eps(&self) -> f64 {
        self.emulator.params.eps()
    }

    /// The execution mode.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// The parameter profile.
    pub fn profile(&self) -> ParamProfile {
        self.profile
    }

    /// The worker-thread count of the pipelines' local computation.
    pub fn threads(&self) -> usize {
        self.emulator.threads
    }

    /// `true` when queries record path witnesses
    /// ([`SolverBuilder::record_paths`]).
    pub fn records_paths(&self) -> bool {
        self.emulator.record_paths
    }

    /// `true` when the session records wall-clock stage timings
    /// ([`SolverBuilder::profile_stages`]).
    pub fn profiles_stages(&self) -> bool {
        self.substrates.stages.borrow().enabled()
    }

    /// Snapshot of the accumulated per-stage wall-clock, name-sorted.
    /// Empty unless the session was built with
    /// [`SolverBuilder::profile_stages`]`(true)`.
    pub fn stage_times(&self) -> Vec<(&'static str, cc_obs::StageStat)> {
        self.substrates.stages.borrow().entries().collect()
    }

    /// Renders the stage timers plus the round ledger in the workspace's
    /// integer metrics-text style (`cc_solver_stage_ns{stage="…"}`,
    /// `cc_solver_rounds_total`, `cc_solver_phase_rounds{phase="…"}`, …).
    /// The ledger lines are present whether or not profiling is on; the
    /// stage lines require it.
    pub fn profile_exposition(&self) -> String {
        let mut out = self.substrates.stages.borrow().exposition("cc_solver");
        out.push_str(&self.ledger.exposition("cc_solver"));
        out
    }

    /// The session's round ledger: every query's simulated communication,
    /// attributed by phase. Substrate reuse shows up here as construction
    /// entries appearing once rather than once per query.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Total simulated rounds charged so far.
    pub fn total_rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }

    /// `(2+ε)`-approximate APSP (Thm 4/34). Memoized: the first call runs
    /// the pipeline, later calls return the cached result without charging
    /// rounds.
    ///
    /// # Errors
    ///
    /// Returns [`CcError`] if a pipeline-internal hitting-set instance
    /// fails validation.
    pub fn apsp_2eps(&mut self) -> Result<Apsp2, CcError> {
        if self.apsp2_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp2::run(
                &self.graph,
                &self.apsp2_cfg,
                &self.emulator,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ))?;
            self.substrates.stages.borrow_mut().stop("apsp2", started);
            self.apsp2_result = Some(out);
        }
        Ok(self.apsp2_result.clone().expect("memoized above"))
    }

    /// `(3+ε)`-approximate APSP (the §4.3 warm-up pipeline). Memoized.
    ///
    /// # Errors
    ///
    /// Returns [`CcError`] if a pipeline-internal hitting-set instance
    /// fails validation.
    pub fn apsp_3eps(&mut self) -> Result<Apsp3, CcError> {
        if self.apsp3_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp3::run(
                &self.graph,
                &self.apsp3_cfg,
                &self.emulator,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ))?;
            self.substrates.stages.borrow_mut().stop("apsp3", started);
            self.apsp3_result = Some(out);
        }
        Ok(self.apsp3_result.clone().expect("memoized above"))
    }

    /// `(1+ε, β)`-approximate APSP (Thm 5/32). Memoized.
    ///
    /// # Errors
    ///
    /// Currently infallible after [`SolverBuilder::build`]; returns
    /// `Result` for uniformity with the other queries.
    pub fn apsp_near_additive(&mut self) -> Result<AdditiveApsp, CcError> {
        if self.additive_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp_additive::run(
                &self.graph,
                &self.emulator,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ));
            self.substrates
                .stages
                .borrow_mut()
                .stop("additive", started);
            self.additive_result = Some(out);
        }
        Ok(self.additive_result.clone().expect("memoized above"))
    }

    /// `(1+ε)`-approximate multi-source shortest paths from `O(√n)` sources
    /// (Thm 3/33). Memoized per source set (order-sensitive, matching the
    /// row order of the result).
    ///
    /// # Errors
    ///
    /// Returns [`CcError::Mssp`] for an empty, out-of-range, or
    /// over-the-`O(√n)`-limit source set.
    pub fn mssp(&mut self, sources: &[usize]) -> Result<Mssp, CcError> {
        if let Some((_, out)) = self.mssp_results.iter().find(|(s, _)| s == sources) {
            return Ok(out.clone());
        }
        let started = self.substrates.stages.borrow().start();
        let out = with_mode!(self.execution, |mode| mssp::run(
            &self.graph,
            sources,
            &self.mssp_cfg,
            &self.emulator,
            mode,
            &mut self.ledger,
            &mut self.substrates,
        ))?;
        self.substrates.stages.borrow_mut().stop("mssp", started);
        self.mssp_results.push((sources.to_vec(), out.clone()));
        Ok(out)
    }

    /// Every stored result, in the one order the session merges them:
    /// apsp3, apsp2, additive, then each MSSP batch in query order.
    fn results(&self) -> impl Iterator<Item = Stored<'_>> {
        let a3 = self.apsp3_result.iter();
        let a2 = self.apsp2_result.iter();
        let add = self.additive_result.iter();
        a3.map(|r| Stored::Pairs(&r.estimates, r.guarantee(), &r.paths))
            .chain(a2.map(|r| Stored::Pairs(&r.estimates, r.guarantee(), &r.paths)))
            .chain(add.map(|r| Stored::Pairs(&r.estimates, r.guarantee(), &r.paths)))
            .chain(self.mssp_results.iter().map(|(_, m)| Stored::Rows(m)))
    }

    /// Cheap tagged point lookup over everything computed so far: the best
    /// estimate for `d(u, v)` together with the [`Guarantee`] of the
    /// pipeline that actually produced it, or `None` if no query has
    /// produced one yet. Charges no rounds — in the model, estimates are
    /// already local to their vertices.
    ///
    /// When several pipelines (possibly run with different `ε`) hold equal
    /// best estimates, the answer is tagged with the strongest of their
    /// guarantees; a strictly better estimate always wins regardless of its
    /// guarantee, so a weak-`ε` pipeline can improve the *value* but never
    /// silently upgrade the *bound* of an answer.
    pub fn estimate(&self, u: usize, v: usize) -> Option<PointEstimate> {
        let n = self.graph.n();
        if u >= n || v >= n {
            return None;
        }
        let mut best: Option<PointEstimate> = None;
        let mut consider = |dist: Dist, guarantee: Guarantee| {
            if wins(dist, guarantee, best.map(|b| (b.dist, b.guarantee))) {
                best = Some(PointEstimate { dist, guarantee });
            }
        };
        for result in self.results() {
            let guarantee = result.guarantee();
            match result {
                // Every result answers `d(v, v) = 0` under its guarantee.
                _ if u == v => consider(0, guarantee),
                Stored::Pairs(estimates, ..) => consider(estimates.get(u, v), guarantee),
                Stored::Rows(m) => {
                    for (i, &s) in m.sources.iter().enumerate() {
                        if s == u {
                            consider(m.estimates[i][v], guarantee);
                        }
                        if s == v {
                            consider(m.estimates[i][u], guarantee);
                        }
                    }
                }
            }
        }
        best
    }

    /// Freezes everything computed so far into an immutable,
    /// `Arc`-shareable [`DistOracle`] for lock-free concurrent serving.
    ///
    /// The oracle stores the pointwise-best estimate per pair in the
    /// symmetric-packed layout (all session pipelines produce symmetric
    /// estimates) with a per-entry provenance tag, so
    /// [`DistOracle::dist`] answers exactly like [`Solver::estimate`] —
    /// same values, same guarantees. The solver remains usable afterwards;
    /// re-freezing after further queries produces a new oracle.
    ///
    /// A session built with [`SolverBuilder::record_paths`]`(true)` freezes
    /// its **routes** too: per pair, the witness of the pipeline whose
    /// estimate won serves [`DistOracle::path`] — a real walk in `G` whose
    /// weight is bounded by the answered estimate. A pipeline whose
    /// estimate wins no pair off the diagonal serves no route, and the
    /// oracle does not keep its witnesses.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::UnsupportedQuery`] when no pipeline query has run
    /// yet (there is nothing to freeze), or when a recording session holds
    /// more than 253 MSSP batches (routes address at most 256 results).
    pub fn freeze(&self) -> Result<DistOracle, CcError> {
        let record = self.emulator.record_paths;
        // Origins are one byte per pair: more than 256 results cannot be
        // addressed. (Without routes there is no such limit.)
        if record && 3 + self.mssp_results.len() > 256 {
            return Err(CcError::UnsupportedQuery {
                reason: "freezing routes supports at most 253 MSSP batches per session".into(),
            });
        }
        let n = self.graph.n();
        let started = self.substrates.stages.borrow().start();
        let mut merged = self.merged_tables()?;
        let providers = record.then(|| self.route_providers(&mut merged));
        let oracle = DistOracle::from_tagged_packed(n, merged.data, merged.tags, merged.guarantees);
        let frozen = match providers {
            Some(providers) => oracle.with_routes(merged.origins, providers),
            None => oracle,
        };
        self.substrates.stages.borrow_mut().stop("freeze", started);
        Ok(frozen)
    }

    /// [`Solver::freeze`] for callers that need routes: the same oracle,
    /// and an error when the session does not record paths.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::UnsupportedQuery`] when path recording is off, or
    /// as [`Solver::freeze`] does.
    pub fn freeze_with_paths(&self) -> Result<DistOracle, CcError> {
        if !self.emulator.record_paths {
            return Err(CcError::UnsupportedQuery {
                reason: "path freezing requires SolverBuilder::record_paths(true)".into(),
            });
        }
        self.freeze()
    }

    /// The witness providers of the results that serve a route, in the
    /// order [`Solver::results`] visits them, with `merged.origins`
    /// renumbered to index them. A result serves the finite off-diagonal
    /// pairs it is the origin of (a diagonal route is empty); the first
    /// result is kept when none serves a pair, since an oracle with routes
    /// has at least one provider.
    fn route_providers(&self, merged: &mut MergedTables) -> Vec<PathProvider> {
        let n = self.graph.n();
        let mut serves = vec![false; self.results().count()];
        let mut idx = 0;
        for u in 0..n {
            for v in u..n {
                if v != u && merged.data[idx] < INF {
                    serves[usize::from(merged.origins[idx])] = true;
                }
                idx += 1;
            }
        }
        serves[0] |= !serves.contains(&true);
        // Each result's number among the kept providers (that of a dropped
        // result is never read: it is the origin only of unserved pairs).
        let mut renumber = vec![0u8; serves.len()];
        let mut providers: Vec<PathProvider> = Vec::new();
        for (origin, result) in self.results().enumerate() {
            if serves[origin] {
                renumber[origin] = providers.len() as u8;
                providers.push(result.provider());
            }
        }
        for origin in &mut merged.origins {
            *origin = renumber[usize::from(*origin)];
        }
        providers
    }

    /// The shared freeze merge: pointwise-best packed values, provenance
    /// tags, and — for the routes — the index of the result whose
    /// estimate (and therefore witness) won each pair. Results are numbered
    /// in the order [`Solver::results`] visits them. The session's
    /// long-range table is released before the tables are allocated.
    fn merged_tables(&self) -> Result<MergedTables, CcError> {
        self.substrates.drop_long_range();
        let n = self.graph.n();
        // Dedup guarantees into a small table (repeat MSSP batches share
        // one entry); the per-entry tag bytes index into it.
        let mut guarantees: Vec<Guarantee> = Vec::new();
        let tag_for = |g: Guarantee, table: &mut Vec<Guarantee>| -> u8 {
            if let Some(i) = table.iter().position(|&h| h == g) {
                return i as u8;
            }
            assert!(table.len() < 256, "provenance table overflow");
            table.push(g);
            (table.len() - 1) as u8
        };
        let entries = n * (n + 1) / 2;
        let mut data = vec![INF; entries];
        let mut tags = vec![0u8; entries];
        // Only a recording session reads the origins.
        let record = self.emulator.record_paths;
        let mut origins = vec![0u8; if record { entries } else { 0 }];
        let mut frozen_any = false;
        for (origin, result) in self.results().enumerate() {
            frozen_any = true;
            let tag = tag_for(result.guarantee(), &mut guarantees);
            // One origin byte per winning result. The byte can only wrap
            // past 256 results, and `freeze()` rejects a recording session
            // with that many.
            let origin = origin as u8;
            let mut merge = |idx: usize, d: Dist| {
                let best = (data[idx] < INF).then(|| (data[idx], guarantees[tags[idx] as usize]));
                if wins(d, guarantees[tag as usize], best) {
                    data[idx] = d;
                    tags[idx] = tag;
                    if record {
                        origins[idx] = origin;
                    }
                }
            };
            match result {
                Stored::Pairs(m, ..) => {
                    let mut idx = 0;
                    for u in 0..n {
                        for &d in &m.row(u)[u..] {
                            merge(idx, d);
                            idx += 1;
                        }
                    }
                }
                Stored::Rows(m) => {
                    for (i, &s) in m.sources.iter().enumerate() {
                        for (v, &d) in m.estimates[i].iter().enumerate() {
                            merge(DistStorage::packed_index(n, s, v), d);
                        }
                    }
                }
            }
        }
        if !frozen_any {
            return Err(CcError::UnsupportedQuery {
                reason: "nothing to freeze: run a pipeline query (apsp_2eps, mssp, …) first".into(),
            });
        }
        Ok(MergedTables {
            data,
            tags,
            guarantees,
            origins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mssp::MsspError;
    use cc_emulator::params::ParamError;
    use cc_graphs::{bfs, generators, Graph};

    #[test]
    fn builder_defaults_and_accessors() {
        let g = generators::cycle(24);
        let solver = SolverBuilder::new(g).build().unwrap();
        assert_eq!(solver.n(), 24);
        assert_eq!(solver.eps(), 0.5);
        assert_eq!(solver.execution(), Execution::Seeded(0));
        assert_eq!(solver.profile(), ParamProfile::Scaled);
        assert_eq!(solver.total_rounds(), 0);
    }

    #[test]
    fn builder_rejects_bad_eps_and_tiny_graphs() {
        let g = generators::cycle(16);
        let err = SolverBuilder::new(g.clone()).eps(2.0).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadEps(_))));
        let err = SolverBuilder::new(g.clone()).eps(0.0).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadEps(_))));
        let tiny = Graph::from_edges(1, &[]);
        let err = SolverBuilder::new(tiny).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadN(1))));
        for profile in [ParamProfile::Paper { levels: 2 }, ParamProfile::Scaled] {
            assert!(Apsp2Config::for_profile(1, 0.5, profile).is_err());
            assert!(Apsp3Config::for_profile(1, 0.5, profile).is_err());
        }
        let err = SolverBuilder::new(g)
            .profile(ParamProfile::Paper { levels: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadLevels(0))));
    }

    /// perfbench recomputes `G'`'s `(k,t)`-nearest lists from
    /// `Apsp2Config::scaled(n, ε)`, reading its `k`, `high_degree_threshold`
    /// and `threshold()`: a session's apsp2 must run with exactly those
    /// values. Scaled at n = 128 and 256 sits on both sides of the step in
    /// `t`.
    #[test]
    fn apsp2_runs_with_its_public_config() {
        let cases = [
            (ParamProfile::Scaled, 128, 213),
            (ParamProfile::Scaled, 256, 1004),
            (ParamProfile::Paper { levels: 2 }, 128, 213),
        ];
        for (profile, n, t) in cases {
            let want = match profile {
                ParamProfile::Scaled => Apsp2Config::scaled(n, 0.5),
                _ => Apsp2Config::for_profile(n, 0.5, profile),
            }
            .unwrap();
            let mut solver = SolverBuilder::new(generators::cycle(n))
                .execution(Execution::Deterministic)
                .profile(profile)
                .build()
                .unwrap();
            assert_eq!(want.threshold(), t, "{profile:?} n = {n}");
            assert_eq!(solver.apsp_2eps().unwrap().t, want.threshold());
            assert_eq!(solver.apsp2_cfg.k, want.k, "{profile:?} n = {n}");
            assert_eq!(
                solver.apsp2_cfg.high_degree_threshold,
                want.high_degree_threshold
            );
        }
    }

    #[test]
    fn repeated_apsp_queries_are_free() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(3))
            .build()
            .unwrap();
        let first = solver.apsp_2eps().unwrap();
        let rounds_after_first = solver.total_rounds();
        assert!(rounds_after_first > 0);
        let second = solver.apsp_2eps().unwrap();
        assert_eq!(first.estimates, second.estimates);
        assert_eq!(solver.total_rounds(), rounds_after_first);
    }

    #[test]
    fn estimate_reflects_computed_estimates() {
        let g = generators::grid(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.25)
            .execution(Execution::Deterministic)
            .build()
            .unwrap();
        assert_eq!(solver.estimate(0, 5), None, "nothing computed yet");
        solver.apsp_near_additive().unwrap();
        let exact = bfs::apsp_exact(&g);
        for v in 1..g.n() {
            let est = solver.estimate(0, v).expect("estimate cached");
            assert!(est.dist >= exact[0][v]);
            assert_eq!(
                est.guarantee.kind,
                crate::oracle::GuaranteeKind::NearAdditive
            );
        }
        assert_eq!(solver.estimate(99, 0), None, "out of range is None");
    }

    #[test]
    fn estimates_keep_the_provenance_of_the_winning_pipeline() {
        // An untagged pointwise min across pipelines would let a (3+ε)
        // estimate masquerade under a caller-assumed stronger bound. Run the
        // weak pipeline plus an MSSP batch: answers improved by MSSP must be
        // tagged Mssp, the rest Mult3Eps.
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(11))
            .build()
            .unwrap();
        let weak = solver.apsp_3eps().unwrap();
        let sources = [0usize, 14, 28];
        let strong = solver.mssp(&sources).unwrap();
        let mut mssp_tagged = 0;
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                if v == s {
                    continue;
                }
                let est = solver.estimate(s, v).expect("covered by both");
                let weak_d = weak.estimates.get(s, v);
                let strong_d = strong.estimates[i][v];
                assert_eq!(est.dist, weak_d.min(strong_d), "min wins at ({s},{v})");
                let expected_kind = if strong_d <= weak_d {
                    crate::oracle::GuaranteeKind::Mssp
                } else {
                    crate::oracle::GuaranteeKind::Mult3Eps
                };
                assert_eq!(est.guarantee.kind, expected_kind, "tag at ({s},{v})");
                if expected_kind == crate::oracle::GuaranteeKind::Mssp {
                    mssp_tagged += 1;
                }
            }
        }
        assert!(mssp_tagged > 0, "MSSP should win somewhere");
        // A pair not covered by any source keeps the weak pipeline's tag.
        let est = solver.estimate(1, 2).unwrap();
        assert_eq!(est.guarantee.kind, crate::oracle::GuaranteeKind::Mult3Eps);
    }

    #[test]
    fn freeze_matches_estimate_everywhere() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(4))
            .build()
            .unwrap();
        assert!(matches!(
            solver.freeze(),
            Err(CcError::UnsupportedQuery { .. })
        ));
        solver.apsp_3eps().unwrap();
        solver.mssp(&[0, 9, 18]).unwrap();
        let oracle = solver.freeze().unwrap();
        assert_eq!(oracle.n(), g.n());
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(oracle.dist(u, v), solver.estimate(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn mssp_is_memoized_per_source_set() {
        let g = generators::cycle(36);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(2))
            .build()
            .unwrap();
        let a = solver.mssp(&[0, 9, 18]).unwrap();
        let rounds = solver.total_rounds();
        let b = solver.mssp(&[0, 9, 18]).unwrap();
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(solver.total_rounds(), rounds, "repeat is free");
        let _ = solver.mssp(&[1, 2]).unwrap();
        assert!(solver.total_rounds() > rounds, "new source set runs");
        let err = solver.mssp(&[]).unwrap_err();
        assert!(matches!(err, CcError::Mssp(MsspError::NoSources)));
    }

    #[test]
    fn threaded_sessions_are_bit_identical() {
        // The threads knob is wall-clock only: estimates, witnesses, frozen
        // routes AND charged rounds must match the serial session exactly.
        // n = 97 divides by none of the thread counts, and the G(n, p) draw
        // has non-empty A and A', so Case 2 and Case 3a both route.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let g = generators::connected_gnp(97, 0.06, &mut rng);
        let witnesses = |p: &Option<std::sync::Arc<cc_routes::PathStore>>| {
            p.as_ref()
                .map(|p| (p.witnesses().collect::<Vec<_>>(), p.arena().clone()))
        };
        let run = |threads: usize, record: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(9))
                .threads(threads)
                .record_paths(record)
                .build()
                .unwrap();
            let a2 = solver.apsp_2eps().unwrap();
            let a3 = solver.apsp_3eps().unwrap();
            let add = solver.apsp_near_additive().unwrap();
            let mssp = solver.mssp(&[0, 14, 28]).unwrap();
            let labels: Vec<String> = solver
                .ledger()
                .entries()
                .iter()
                .map(|e| e.label.clone())
                .collect();
            for case in ["announce nearest A-pivots", "announce A'-attachments"] {
                assert!(labels.iter().any(|l| l.contains(case)), "{case} never ran");
            }
            let frozen = solver.freeze().unwrap();
            (
                (a2.estimates, a3.estimates, add.estimates, mssp.estimates),
                (
                    witnesses(&a2.paths),
                    witnesses(&a3.paths),
                    witnesses(&add.paths),
                ),
                frozen,
                solver.total_rounds(),
            )
        };
        for record in [false, true] {
            let serial = run(1, record);
            for threads in [2, 3, 4] {
                assert_eq!(run(threads, record), serial, "threads = {threads}");
            }
        }
        let solver = SolverBuilder::new(g).threads(3).build().unwrap();
        assert_eq!(solver.threads(), 3);
    }

    /// Asserts `route` is a real walk `u → v` in `g` whose weight equals
    /// `Route::weight` and stays within the estimate and guarantee.
    fn assert_route_valid(
        g: &Graph,
        exact: &[Vec<cc_graphs::Dist>],
        route: &crate::Route,
        est: crate::PointEstimate,
    ) {
        let (u, v) = (route.src as usize, route.dst as usize);
        if u == v {
            assert_eq!(route.weight, 0);
            assert!(route.edges.is_empty());
            return;
        }
        assert_eq!(route.edges[0].0 as usize, u);
        assert_eq!(route.edges[route.edges.len() - 1].1 as usize, v);
        for w in route.edges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "consecutive edges must chain");
        }
        for &(x, y) in &route.edges {
            assert!(g.has_edge(x as usize, y as usize), "({x},{y}) not in G");
        }
        assert_eq!(route.weight, route.edges.len() as cc_graphs::Dist);
        assert!(route.weight >= exact[u][v], "walk cannot undercut d_G");
        assert!(route.weight <= est.dist, "walk heavier than the estimate");
        assert!(
            (route.weight as f64) <= est.guarantee.bound(exact[u][v]) + 1e-9,
            "walk outside the tagged guarantee at ({u},{v})"
        );
        assert_eq!(route.guarantee, est.guarantee);
    }

    #[test]
    fn recording_paths_changes_neither_estimates_nor_rounds() {
        // The tentpole invariant: witnesses ride the same messages — per
        // pipeline, estimates AND charged rounds are bit-identical with
        // recording on or off.
        let g = generators::caveman(6, 6);
        let run = |record: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(5))
                .record_paths(record)
                .build()
                .unwrap();
            let a2 = solver.apsp_2eps().unwrap();
            let a3 = solver.apsp_3eps().unwrap();
            let add = solver.apsp_near_additive().unwrap();
            let ms = solver.mssp(&[0, 14, 28]).unwrap();
            (
                a2.estimates,
                a3.estimates,
                add.estimates,
                ms.estimates,
                solver.total_rounds(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stage_profiling_changes_neither_estimates_nor_rounds() {
        // Same contract as path recording: timing is observed, never fed
        // back — per pipeline, estimates AND charged rounds are
        // bit-identical with profiling on or off, including the stages
        // timed inside the pipelines' own loops.
        let g = generators::caveman(6, 6);
        let run = |profile: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(5))
                .profile_stages(profile)
                .build()
                .unwrap();
            let a2 = solver.apsp_2eps().unwrap();
            let a3 = solver.apsp_3eps().unwrap();
            let add = solver.apsp_near_additive().unwrap();
            let ms = solver.mssp(&[0, 14, 28]).unwrap();
            let oracle = solver.freeze().unwrap();
            let stages: Vec<&str> = solver.stage_times().iter().map(|(n, _)| *n).collect();
            let inner = [
                "emulator_sweep",
                "through_sets",
                "source_detection",
                "pivot_routing",
            ];
            assert!(
                inner.iter().all(|s| stages.contains(s) == profile),
                "{stages:?}"
            );
            (
                a2.estimates,
                a3.estimates,
                add.estimates,
                ms.estimates,
                oracle,
                solver.total_rounds(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stage_profiling_records_only_when_enabled() {
        let g = generators::caveman(6, 6);
        let mut off = SolverBuilder::new(g.clone())
            .execution(Execution::Seeded(5))
            .build()
            .unwrap();
        assert!(!off.profiles_stages());
        off.apsp_2eps().unwrap();
        off.freeze().unwrap();
        assert!(
            off.stage_times().is_empty(),
            "disabled recorder stays empty"
        );
        // The ledger lines render regardless; no stage lines when off.
        let text = off.profile_exposition();
        assert!(text.contains("cc_solver_rounds_total "));
        assert!(!text.contains("cc_solver_stage_ns"));

        let mut on = SolverBuilder::new(g)
            .execution(Execution::Seeded(5))
            .profile_stages(true)
            .build()
            .unwrap();
        assert!(on.profiles_stages());
        on.apsp_2eps().unwrap();
        on.mssp(&[0, 14]).unwrap();
        on.freeze().unwrap();
        let names: Vec<&str> = on.stage_times().iter().map(|(n, _)| *n).collect();
        for expected in [
            "apsp2",
            "emulator_build",
            "emulator_sweep",
            "freeze",
            "hitting_sets",
            "hopset_build",
            "minplus_products",
            "mssp",
            "pivot_routing",
            "source_detection",
            "through_sets",
        ] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
        for (name, stat) in on.stage_times() {
            assert!(stat.calls > 0, "stage {name} recorded no calls");
        }
        let text = on.profile_exposition();
        assert!(text.contains("cc_solver_stage_ns{stage=\"hopset_build\"}"));
        assert!(text.contains("cc_solver_stage_calls{stage=\"freeze\"} 1"));
        assert!(text.contains("cc_solver_phase_rounds{phase="));
    }

    #[test]
    fn freeze_with_paths_serves_verified_routes() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(8))
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_2eps().unwrap();
        solver.mssp(&[0, 9, 18]).unwrap();
        let oracle = solver.freeze_with_paths().unwrap();
        let frozen = solver.freeze().unwrap();
        assert!(
            frozen.paths().is_some(),
            "a recording session freezes routes"
        );
        assert_eq!(frozen, oracle, "freeze and freeze_with_paths agree");
        let bytes = |o: &DistOracle| {
            let mut buf = Vec::new();
            o.save_v2(&mut buf).unwrap();
            buf
        };
        assert_eq!(bytes(&frozen), bytes(&oracle), "same snapshot bytes");
        let exact = bfs::apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                match (oracle.path(u, v), oracle.dist(u, v)) {
                    (Some(route), Some(est)) => assert_route_valid(&g, &exact, &route, est),
                    (None, None) => {}
                    (p, d) => panic!("route/dist coverage mismatch at ({u},{v}): {p:?} {d:?}"),
                }
            }
        }
    }

    /// On a grid the additive query is exact, and on equal estimates its
    /// guarantee beats apsp2's, so apsp2 wins no pair. `freeze` drops its
    /// witnesses, and every route is the one the oracle with every result
    /// kept serves.
    #[test]
    fn freeze_drops_idle_route_providers() {
        let g = generators::grid(9, 11);
        let n = g.n();
        let mut solver = SolverBuilder::new(g)
            .eps(0.5)
            .execution(Execution::Deterministic)
            .threads(2)
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_2eps().unwrap();
        solver.apsp_near_additive().unwrap();
        let frozen = solver.freeze().unwrap();
        let merged = solver.merged_tables().unwrap();
        let every = DistOracle::from_tagged_packed(n, merged.data, merged.tags, merged.guarantees)
            .with_routes(
                merged.origins,
                solver.results().map(|r| r.provider()).collect(),
            );
        assert_eq!((every.provider_count(), frozen.provider_count()), (2, 1));
        assert!(frozen.witness_bytes() < every.witness_bytes());
        for u in 0..n {
            for v in 0..n {
                assert_eq!(frozen.path(u, v), every.path(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn freeze_with_paths_requires_recording() {
        let g = generators::cycle(24);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(1))
            .build()
            .unwrap();
        solver.apsp_near_additive().unwrap();
        let err = solver.freeze_with_paths().unwrap_err();
        assert!(matches!(err, CcError::UnsupportedQuery { .. }));
        assert!(err.to_string().contains("record_paths"));
        assert!(!solver.records_paths());
        assert!(solver.freeze().unwrap().paths().is_none(), "no routes");
    }

    #[test]
    fn path_oracle_round_trips_through_ccro_snapshot() {
        let g = generators::caveman(5, 5);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Deterministic)
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_3eps().unwrap();
        solver.mssp(&[0, 12]).unwrap();
        let oracle = solver.freeze().unwrap();
        let mut buf = Vec::new();
        oracle.save_v2(&mut buf).unwrap();
        let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
        assert_eq!(back, oracle);
        for u in (0..g.n()).step_by(3) {
            for v in (0..g.n()).step_by(4) {
                assert_eq!(back.path(u, v), oracle.path(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn deterministic_sessions_reproduce() {
        let g = generators::caveman(6, 6);
        let run = || {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.25)
                .execution(Execution::Deterministic)
                .build()
                .unwrap();
            solver.apsp_near_additive().unwrap().estimates
        };
        assert_eq!(run(), run());
    }

    /// A profiled session for the long-range table tests.
    fn profiled_session(g: &Graph, execution: Execution, threads: usize, record: bool) -> Solver {
        SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(execution)
            .threads(threads)
            .record_paths(record)
            .profile_stages(true)
            .build()
            .unwrap()
    }

    fn sweep_calls(solver: &Solver) -> u64 {
        solver
            .stage_times()
            .iter()
            .find(|(stage, _)| *stage == "emulator_sweep")
            .map_or(0, |(_, stat)| stat.calls)
    }

    fn assert_same_additive(got: &AdditiveApsp, want: &AdditiveApsp, at: &str) {
        assert_eq!(got.estimates, want.estimates, "{at}: estimates");
        let parts = |p: &PathStore| {
            let trees = p.trees().cloned();
            (p.witnesses().collect::<Vec<_>>(), p.arena().clone(), trees)
        };
        let (got, want) = (
            got.paths.as_deref().map(parts),
            want.paths.as_deref().map(parts),
        );
        assert!(got == want, "{at}: witnesses, arena or tree rows");
    }

    /// Every query starts from the session's one long-range table, swept
    /// once whatever the order: the additive answer equals a fresh
    /// session's, and every session's ledger entries fold to the pinned
    /// FNV-1a (sharing the table moves no round).
    #[test]
    fn long_range_table_is_shared_with_the_additive_query() {
        let mut rng = StdRng::seed_from_u64(41);
        let graphs = [
            ("gnp", generators::connected_gnp(60, 0.08, &mut rng)),
            ("grid", generators::grid(6, 9)),
        ];
        let orders: [&[&str]; 5] = [
            &["apsp2", "additive"],
            &["apsp3", "additive"],
            &["apsp2", "apsp3", "additive"],
            &["additive"],
            &["additive", "apsp2"],
        ];
        let mut ledgers = String::new();
        for (name, g) in &graphs {
            for execution in [Execution::Seeded(9), Execution::Deterministic] {
                for record in [false, true] {
                    for threads in 1..=3 {
                        let want = profiled_session(g, execution, threads, record)
                            .apsp_near_additive()
                            .unwrap();
                        for order in orders {
                            let at = format!(
                                "{name} {execution:?} record={record} threads={threads} {order:?}"
                            );
                            let mut solver = profiled_session(g, execution, threads, record);
                            for &query in order {
                                match query {
                                    "apsp2" => drop(solver.apsp_2eps().unwrap()),
                                    "apsp3" => drop(solver.apsp_3eps().unwrap()),
                                    _ => drop(solver.apsp_near_additive().unwrap()),
                                }
                            }
                            let got = solver.apsp_near_additive().unwrap();
                            assert_same_additive(&got, &want, &at);
                            assert_eq!(sweep_calls(&solver), 1, "{at}: emulator sweeps");
                            for e in solver.ledger().entries() {
                                ledgers
                                    .push_str(&format!("{}\0{}\0{}\0", e.phase, e.label, e.rounds));
                            }
                        }
                    }
                }
            }
        }
        let got = crate::snapshot::header::fnv1a(ledgers.as_bytes());
        assert_eq!(got, LEDGERS_FNV1A, "ledger FNV-1a is {got:#018x}");
    }

    /// FNV-1a of every session's ledger entries in
    /// `long_range_table_is_shared_with_the_additive_query`: sharing the
    /// table charges exactly what sweeping it per query charged.
    const LEDGERS_FNV1A: u64 = 0xc7b9_ddf0_1729_c2e9;

    /// `freeze` releases the session's table: a later additive query
    /// sweeps again, with a fresh session's answer.
    #[test]
    fn freeze_releases_the_long_range_table() {
        let g = generators::caveman(6, 7);
        for record in [false, true] {
            let at = format!("record={record}");
            let mut solver = profiled_session(&g, Execution::Deterministic, 2, record);
            solver.apsp_2eps().unwrap();
            solver.freeze().unwrap();
            let got = solver.apsp_near_additive().unwrap();
            let want = profiled_session(&g, Execution::Deterministic, 2, record)
                .apsp_near_additive()
                .unwrap();
            assert_same_additive(&got, &want, &at);
            assert_eq!(sweep_calls(&solver), 2, "{at}");
        }
    }
}
