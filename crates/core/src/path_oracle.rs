//! The route part of a frozen [`DistOracle`]: [`Route`], [`PathProvider`]
//! and the `CCRO` snapshot sections.
//!
//! A [`DistOracle`] answers *how far*; one frozen with routes also answers
//! *which way*. [`crate::Solver::freeze`] includes routes exactly when the
//! session records paths (`SolverBuilder::record_paths(true)`), built from
//! the witness stores the pipelines filled while solving, and the oracle
//! then serves
//!
//! * [`path`](DistOracle::path)`(u, v) → Option<Route>` — a real walk in the
//!   input graph whose exact weight is at most the frozen estimate and
//!   therefore satisfies the same tagged [`Guarantee`];
//! * [`path_batch`](DistOracle::path_batch) — the batched form,
//!
//! all lock-free from `&self`. An oracle without routes answers `None` for
//! every route.
//!
//! An oracle with routes snapshots as `CCRO`: the file embeds the distance
//! part's `CCDO` snapshot as a section beside the witness arenas, the
//! per-pair witness tables and the parent rows of the recorded emulator
//! trees (layout in `DESIGN.md` §9.2).
//!
//! ```
//! use cc_core::{Execution, SolverBuilder};
//! use cc_graphs::generators;
//!
//! let g = generators::caveman(5, 5);
//! let mut solver = SolverBuilder::new(g.clone())
//!     .eps(0.5)
//!     .execution(Execution::Seeded(3))
//!     .record_paths(true)
//!     .build()?;
//! solver.apsp_3eps()?;
//! let oracle = std::sync::Arc::new(solver.freeze()?);
//! let route = oracle.path(0, 20).expect("connected");
//! assert_eq!(route.edges[0].0, 0);
//! for (x, y) in &route.edges {
//!     assert!(g.has_edge(*x as usize, *y as usize));
//! }
//! # Ok::<(), cc_core::CcError>(())
//! ```

use std::sync::Arc;

use cc_graphs::{Dist, DistStorage, PodData};
use cc_routes::{EmitStack, PairWitness, PathStore, RecId, RouteArena, RowStore, TreeRows};

use crate::oracle::{DistOracle, Guarantee, SnapshotError};
use crate::snapshot::header::Cursor;
use crate::snapshot::v2::{SectionWriter, SnapshotView};

/// The frozen oracle under the name route-serving callers use: one type
/// serves distances and, when frozen with routes, paths.
pub type PathOracle = DistOracle;

/// One reconstructed route: a real walk in the input graph `G`.
#[derive(Clone, PartialEq, Debug)]
pub struct Route {
    /// The query endpoints.
    pub src: u32,
    /// See [`Route::src`].
    pub dst: u32,
    /// The walk as directed `G` edges, consecutive edges sharing their
    /// middle vertex (empty for `src == dst`).
    pub edges: Vec<(u32, u32)>,
    /// The exact weight of the walk in `G` (the edge count — inputs are
    /// unweighted). Always `d_G(src,dst) ≤ weight ≤` the frozen estimate,
    /// so the tagged guarantee bounds it too.
    pub weight: Dist,
    /// The [`Guarantee`] of the pipeline whose estimate (and witness) won
    /// this pair — the same tag [`DistOracle::dist`] reports.
    pub guarantee: Guarantee,
}

impl Route {
    /// The walk as a vertex sequence `src, …, dst`.
    pub fn vertices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.edges.len() + 1);
        out.push(self.src);
        out.extend(self.edges.iter().map(|&(_, y)| y));
        out
    }
}

/// One pipeline's frozen witnesses.
#[derive(Clone, Debug)]
pub enum PathProvider {
    /// Symmetric per-pair store (APSP pipelines).
    Pairs(Arc<PathStore>),
    /// Row store (MSSP results).
    Rows(Arc<RowStore>),
}

impl PartialEq for PathProvider {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PathProvider::Pairs(x), PathProvider::Pairs(y)) => {
                x.arena() == y.arena() && x.witnesses() == y.witnesses() && x.trees() == y.trees()
            }
            (PathProvider::Rows(x), PathProvider::Rows(y)) => {
                x.arena() == y.arena() && x.sources() == y.sources() && x.recs() == y.recs()
            }
            _ => false,
        }
    }
}

/// The routes of a frozen oracle: per packed pair, which pipeline's
/// witness store serves its route.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Routes {
    /// Per packed pair: index into `providers` of the winning pipeline
    /// (meaningless where no estimate is frozen). [`PodData`] so the
    /// snapshots serve it in place.
    origins: PodData<u8>,
    providers: Vec<PathProvider>,
}

// CCRO section ids. Providers get a block of ids each:
// `RSEC_PROVIDER_BASE + RSEC_PROVIDER_STRIDE * p + k`.
const RSEC_META: u16 = 1;
const RSEC_DIST: u16 = 2;
const RSEC_ORIGINS: u16 = 3;
const RSEC_PROVIDER_BASE: u16 = 16;
const RSEC_PROVIDER_STRIDE: u16 = 8;
// Tree tables get a block each, above every provider block:
// `RSEC_TREE_BASE + RSEC_TREE_STRIDE * t + k`.
const RSEC_TREE_BASE: u16 = 4096;
const RSEC_TREE_STRIDE: u16 = 8;

/// Provider-meta tree index of a provider without tree rows.
const NO_TREE: u32 = u32::MAX;

// Format maximum for the provider table, enforced symmetrically by the
// writer (as `SnapshotError::TooLarge`) and the loader (as `Corrupt`):
// origins index providers through a u8, so 256 rows is all it can address.
const MAX_PROVIDERS: usize = 256;

/// First section id of group `i` of `stride` ids from `base`, checked
/// instead of narrowing `i` with `as` (any in-range `i < MAX_PROVIDERS`
/// fits comfortably).
fn section_base(base: u16, stride: u16, i: usize) -> Result<u16, SnapshotError> {
    u16::try_from(i)
        .ok()
        .and_then(|i| stride.checked_mul(i))
        .and_then(|off| base.checked_add(off))
        .ok_or_else(|| SnapshotError::corrupt("section id overflow"))
}

/// Writes one tree table as the group of sections from `base`: `TMETA`
/// (row count u64, hop count u64), then its four columns.
fn save_trees(w: &mut SectionWriter, base: u16, trees: &TreeRows) {
    let (parents, hop_start, hop_hi, hop_rec) = trees.sections();
    let mut meta = Vec::with_capacity(16);
    meta.extend_from_slice(&(trees.n() as u64).to_le_bytes());
    meta.extend_from_slice(&(hop_hi.len() as u64).to_le_bytes());
    w.section(base, &meta);
    w.section_u32(base + 1, parents);
    w.section_u32(base + 2, hop_start);
    w.section_u32(base + 3, hop_hi);
    w.section_u32(base + 4, hop_rec);
}

/// Reads the tree table [`save_trees`] wrote from `base`, validated for
/// `n` vertices ([`TreeRows::from_sections`]).
fn load_trees(view: &SnapshotView, base: u16, n: usize) -> Result<TreeRows, SnapshotError> {
    let mut c = Cursor::new(view.bytes_of(base, "tree meta")?);
    let rows = u64::from_le_bytes(c.take_n::<8>()?);
    let hops = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
        .map_err(|_| SnapshotError::corrupt("tree hop count exceeds the address space"))?;
    if !c.at_end() {
        return Err(SnapshotError::corrupt("tree meta length mismatch"));
    }
    if rows != n as u64 {
        return Err(SnapshotError::corrupt("tree row count does not match n"));
    }
    let cells = n
        .checked_mul(n)
        .ok_or_else(|| SnapshotError::corrupt("tree rows too large"))?;
    // Section length checks bound every count by the bytes present.
    let parents = view.u32_data(base + 1, cells, "tree parent")?;
    let hop_start = view.u32_data(base + 2, n + 1, "tree hop start")?;
    let hop_hi = view.u32_data(base + 3, hops, "tree hop")?;
    let hop_rec = view.u32_data(base + 4, hops, "tree hop record")?;
    TreeRows::from_sections(n, parents, hop_start, hop_hi, hop_rec).map_err(SnapshotError::corrupt)
}

impl Routes {
    /// Routes over `n` vertices; see [`DistOracle::with_routes`].
    pub(crate) fn new(n: usize, origins: PodData<u8>, providers: Vec<PathProvider>) -> Self {
        assert_eq!(origins.len(), n * (n + 1) / 2, "one origin per packed pair");
        assert!(!providers.is_empty(), "at least one witness provider");
        Routes { origins, providers }
    }

    /// Number of witness providers.
    #[cfg(test)]
    pub(crate) fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// The distinct tree tables of the pair providers, in first-use order,
    /// and each provider's index into them.
    /// Copies of one long-range table share its rows, so they count and
    /// save once.
    fn tree_tables(&self) -> (Vec<&Arc<TreeRows>>, Vec<Option<usize>>) {
        let mut tables: Vec<&Arc<TreeRows>> = Vec::new();
        let index = self
            .providers
            .iter()
            .map(|p| {
                let PathProvider::Pairs(store) = p else {
                    return None;
                };
                let trees = store.trees()?;
                Some(match tables.iter().position(|&t| Arc::ptr_eq(t, trees)) {
                    Some(t) => t,
                    None => {
                        tables.push(trees);
                        tables.len() - 1
                    }
                })
            })
            .collect();
        (tables, index)
    }

    /// Bytes held by the arenas, witness tables and tree rows; see
    /// [`DistOracle::witness_bytes`].
    pub(crate) fn witness_bytes(&self) -> usize {
        // An arena record is a `u8` tag and three `u32` columns.
        const RECORD: usize = 13;
        let trees: usize = self
            .tree_tables()
            .0
            .iter()
            .map(|t| {
                let (parents, hop_start, hop_hi, hop_rec) = t.sections();
                4 * (parents.len() + hop_start.len() + hop_hi.len() + hop_rec.len())
            })
            .sum();
        self.providers
            .iter()
            .map(|p| match p {
                PathProvider::Pairs(s) => s.arena().len() * RECORD + s.witnesses().len() * 5,
                PathProvider::Rows(r) => r.arena().len() * RECORD + r.recs().len() * 5,
            })
            .sum::<usize>()
            + self.origins.len()
            + trees
    }

    /// Appends the route of the off-diagonal pair `(u, v)` of an `n`-vertex
    /// oracle to `out` over the reusable `stack` and returns its edge count,
    /// or `None` when no witness serves the pair.
    pub(crate) fn emit_into(
        &self,
        n: usize,
        u: usize,
        v: usize,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) -> Option<usize> {
        let origin = self.origins[DistStorage::packed_index(n, u, v)];
        match self.providers.get(origin as usize)? {
            PathProvider::Pairs(s) => s.emit_into(u, v, out, stack),
            PathProvider::Rows(r) => emit_row_pair_into(r, u, v, out, stack),
        }
    }

    // ── Snapshot format ──────────────────────────────────────────────────
    //
    // The frame and directory are documented in `crate::snapshot::v2`
    // (and DESIGN.md §9). CCRO sections:
    //
    //   1 META       n u64, origin_count u64, provider_count u64,
    //                tree_count u64                               (32 bytes)
    //   2 DIST       a complete embedded CCDO snapshot (64-aligned, so
    //                its inner section offsets stay aligned absolutely)
    //   3 ORIGINS    origin_count × u8                           (hot)
    //
    // then, for provider `p` (0-based), ids `16 + 8p + k`:
    //
    //   +0 PMETA     kind u8, pad[3], tree u32 (index of the provider's
    //                tree table, u32::MAX for none), node_count u64, aux u64
    //                (aux = witness count for pairs, source count for rows)
    //   +1 A_TAGS    node_count × u8   arena node tags           (hot)
    //   +2 A_OPA     node_count × u32  arena first operands      (hot)
    //   +3 A_OPB     node_count × u32  arena second operands     (hot)
    //   +4 A_LENS    node_count × u32  arena cached lengths      (hot)
    //   +5 W_TAGS    W × u8   witness tags  (pairs: W = origin_count;
    //                rows: W = source_count·n)
    //   +6 W_PAYLOAD W × u32  witness payloads
    //   +7 SOURCES   [rows only] source_count × u32
    //
    // and, for tree table `t` (0-based), ids `4096 + 8t + k`:
    //
    //   +0 TMETA     row_count u64 (= n), hop_count u64
    //   +1 PARENTS   n·n × u32  parent words, row-major          (hot)
    //   +2 HOP_START (n + 1) × u32  hop-table row offsets        (hot)
    //   +3 HOP_HI    hop_count × u32  hop higher endpoints       (hot)
    //   +4 HOP_REC   hop_count × u32  hop records                (hot)

    /// The `CCRO` snapshot of an `n`-vertex oracle whose distance part
    /// serializes to the `CCDO` bytes `dist`.
    pub(crate) fn to_v2_bytes(&self, n: usize, dist: &[u8]) -> Result<Vec<u8>, SnapshotError> {
        SnapshotError::check_count("provider count", self.providers.len(), MAX_PROVIDERS)?;
        let (tables, tree_index) = self.tree_tables();
        let mut w = SectionWriter::new(b"CCRO");
        let mut meta = Vec::with_capacity(32);
        meta.extend_from_slice(&(n as u64).to_le_bytes());
        meta.extend_from_slice(&(self.origins.len() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.providers.len() as u64).to_le_bytes());
        meta.extend_from_slice(&(tables.len() as u64).to_le_bytes());
        w.section(RSEC_META, &meta);
        w.section(RSEC_DIST, dist);
        w.section(RSEC_ORIGINS, &self.origins);
        for (p, provider) in self.providers.iter().enumerate() {
            let base = section_base(RSEC_PROVIDER_BASE, RSEC_PROVIDER_STRIDE, p)?;
            let arena = match provider {
                PathProvider::Pairs(s) => s.arena(),
                PathProvider::Rows(r) => r.arena(),
            };
            let (a_tags, a_opa, a_opb, a_lens) = arena.sections();
            let mut pmeta = Vec::with_capacity(24);
            let aux = match provider {
                PathProvider::Pairs(s) => {
                    pmeta.push(0);
                    s.witnesses().len() as u64
                }
                PathProvider::Rows(r) => {
                    pmeta.push(1);
                    r.sources().len() as u64
                }
            };
            pmeta.extend_from_slice(&[0u8; 3]);
            let tree = match tree_index[p] {
                None => NO_TREE,
                Some(t) => u32::try_from(t)
                    .map_err(|_| SnapshotError::corrupt("tree table index overflow"))?,
            };
            pmeta.extend_from_slice(&tree.to_le_bytes());
            pmeta.extend_from_slice(&(arena.len() as u64).to_le_bytes());
            pmeta.extend_from_slice(&aux.to_le_bytes());
            w.section(base, &pmeta);
            w.section(base + 1, a_tags);
            w.section_u32(base + 2, a_opa);
            w.section_u32(base + 3, a_opb);
            w.section_u32(base + 4, a_lens);
            let (w_tags, w_payloads): (Vec<u8>, Vec<u32>) = match provider {
                PathProvider::Pairs(s) => s
                    .witnesses()
                    .iter()
                    .map(|&wit| match wit {
                        PairWitness::None => (0u8, 0u32),
                        PairWitness::Rec { rec, rev: false } => (1, rec.index()),
                        PairWitness::Rec { rec, rev: true } => (2, rec.index()),
                        PairWitness::Via(via) => (3, via),
                        PairWitness::Tree => (4, 0),
                    })
                    .unzip(),
                PathProvider::Rows(r) => r
                    .recs()
                    .iter()
                    .map(|rec| match rec {
                        None => (0u8, 0u32),
                        Some(rec) => (1, rec.index()),
                    })
                    .unzip(),
            };
            w.section(base + 5, &w_tags);
            w.section_u32(base + 6, &w_payloads);
            if let PathProvider::Rows(r) = provider {
                w.section_u32(base + 7, r.sources());
            }
        }
        for (t, trees) in tables.iter().enumerate() {
            save_trees(
                &mut w,
                section_base(RSEC_TREE_BASE, RSEC_TREE_STRIDE, t)?,
                trees,
            );
        }
        w.finish()
    }

    /// Loads a `CCRO` snapshot from a validated [`SnapshotView`]: the
    /// embedded distance part with the routes it serves.
    pub(crate) fn load_v2(view: &SnapshotView) -> Result<DistOracle, SnapshotError> {
        let meta = view.bytes_of(RSEC_META, "CCRO meta")?;
        let mut c = Cursor::new(meta);
        let n = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("n exceeds the address space"))?;
        let origin_count = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("origin count exceeds the address space"))?;
        let provider_count = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("provider count exceeds the address space"))?;
        let tree_count = u64::from_le_bytes(c.take_n::<8>()?);
        if !c.at_end() {
            return Err(SnapshotError::corrupt("CCRO meta section length mismatch"));
        }
        let expected_origins = n
            .checked_add(1)
            .and_then(|m| n.checked_mul(m))
            .map(|x| x / 2);
        if expected_origins != Some(origin_count) {
            return Err(SnapshotError::corrupt("origin count does not match n"));
        }
        if provider_count == 0 || provider_count > MAX_PROVIDERS {
            return Err(SnapshotError::corrupt("provider count out of range"));
        }
        if tree_count > provider_count as u64 {
            return Err(SnapshotError::corrupt("tree table count out of range"));
        }
        let mut oracle =
            DistOracle::load_ccdo(&view.sub_view(RSEC_DIST, b"CCDO", "embedded CCDO")?)?;
        if oracle.n() != n {
            return Err(SnapshotError::corrupt("embedded oracle dimension mismatch"));
        }
        let origins = view.u8_data(RSEC_ORIGINS, origin_count, "origin")?;
        if origins.iter().any(|&o| o as usize >= provider_count) {
            return Err(SnapshotError::corrupt("origin beyond provider table"));
        }
        let tables = (0..tree_count as usize)
            .map(|t| {
                let base = section_base(RSEC_TREE_BASE, RSEC_TREE_STRIDE, t)?;
                load_trees(view, base, n).map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut providers = Vec::with_capacity(provider_count);
        for p in 0..provider_count {
            let base = section_base(RSEC_PROVIDER_BASE, RSEC_PROVIDER_STRIDE, p)?;
            let pmeta = view.bytes_of(base, "provider meta")?;
            let mut pc = Cursor::new(pmeta);
            let kind = pc.take_n::<1>()?[0];
            let _ = pc.take(3)?; // padding
            let tree = u32::from_le_bytes(pc.take_n::<4>()?);
            let node_count = usize::try_from(u64::from_le_bytes(pc.take_n::<8>()?))
                .map_err(|_| SnapshotError::corrupt("node count exceeds the address space"))?;
            let aux = usize::try_from(u64::from_le_bytes(pc.take_n::<8>()?))
                .map_err(|_| SnapshotError::corrupt("provider aux exceeds the address space"))?;
            if !pc.at_end() {
                return Err(SnapshotError::corrupt("provider meta length mismatch"));
            }
            // Section length checks inside u8_data/u32_data bound every
            // count by bytes actually present before anything is decoded.
            let a_tags = view.u8_data(base + 1, node_count, "arena tag")?;
            let a_opa = view.u32_data(base + 2, node_count, "arena operand")?;
            let a_opb = view.u32_data(base + 3, node_count, "arena operand")?;
            let a_lens = view.u32_data(base + 4, node_count, "arena length")?;
            let arena = RouteArena::from_sections(a_tags, a_opa, a_opb, a_lens, n)
                .ok_or_else(|| SnapshotError::corrupt("invalid witness arena node"))?;
            let records = arena.len();
            let trees = if tree == NO_TREE {
                None
            } else if kind != 0 {
                return Err(SnapshotError::corrupt("row provider with tree rows"));
            } else {
                let trees = tables
                    .get(tree as usize)
                    .ok_or_else(|| SnapshotError::corrupt("tree table index out of range"))?;
                if !trees.hop_records_below(records) {
                    return Err(SnapshotError::corrupt("tree hop record out of range"));
                }
                Some(Arc::clone(trees))
            };
            match kind {
                0 => {
                    if aux != origin_count {
                        return Err(SnapshotError::corrupt("pair witness count mismatch"));
                    }
                    let w_tags = view.u8_data(base + 5, aux, "pair witness tag")?;
                    let w_payloads = view.u32_data(base + 6, aux, "pair witness payload")?;
                    let mut entries = Vec::with_capacity(aux);
                    for (&tag, &payload) in w_tags.iter().zip(w_payloads.iter()) {
                        let entry = match tag {
                            0 => PairWitness::None,
                            1 | 2 => {
                                if payload as usize >= records {
                                    return Err(SnapshotError::corrupt(
                                        "witness record out of range",
                                    ));
                                }
                                PairWitness::Rec {
                                    rec: RecId::from_index(payload),
                                    rev: tag == 2,
                                }
                            }
                            3 => {
                                if payload as usize >= n {
                                    return Err(SnapshotError::corrupt("via witness out of range"));
                                }
                                PairWitness::Via(payload)
                            }
                            4 => {
                                // A tree witness names no record: the
                                // provider's tree rows serve it.
                                if trees.is_none() || payload != 0 {
                                    return Err(SnapshotError::corrupt("invalid tree witness"));
                                }
                                PairWitness::Tree
                            }
                            _ => return Err(SnapshotError::corrupt("unknown witness tag")),
                        };
                        entries.push(entry);
                    }
                    providers.push(PathProvider::Pairs(Arc::new(PathStore::from_parts(
                        n, arena, entries, trees,
                    ))));
                }
                1 => {
                    let sources = view.u32_data(base + 7, aux, "source")?;
                    if sources.iter().any(|&s| s as usize >= n) {
                        return Err(SnapshotError::corrupt("source out of range"));
                    }
                    let cell_count = aux
                        .checked_mul(n)
                        .ok_or_else(|| SnapshotError::corrupt("row store too large"))?;
                    let w_tags = view.u8_data(base + 5, cell_count, "row witness tag")?;
                    let w_payloads = view.u32_data(base + 6, cell_count, "row witness payload")?;
                    let mut recs = Vec::with_capacity(cell_count);
                    for (&tag, &payload) in w_tags.iter().zip(w_payloads.iter()) {
                        let rec = match tag {
                            0 => None,
                            1 => {
                                if payload as usize >= records {
                                    return Err(SnapshotError::corrupt("row record out of range"));
                                }
                                Some(RecId::from_index(payload))
                            }
                            _ => return Err(SnapshotError::corrupt("unknown row witness tag")),
                        };
                        recs.push(rec);
                    }
                    providers.push(PathProvider::Rows(Arc::new(RowStore::from_parts(
                        n,
                        sources.to_vec(),
                        arena,
                        recs,
                    ))));
                }
                _ => return Err(SnapshotError::corrupt("unknown provider kind")),
            }
        }
        oracle.routes = Some(Routes { origins, providers });
        Ok(oracle)
    }
}

/// Emits a row-store walk for the ordered pair `(u, v)` where one endpoint
/// is a source: the **shortest recorded walk** over every row covering the
/// pair (first row on ties). Walk length is a function of the arena alone,
/// which snapshots persist, so loaded oracles stay byte-for-byte equivalent
/// to the ones that were saved, and the winner is never heavier than the
/// frozen estimate (some covering row realized it, and that row's walk is
/// at most its estimate).
fn emit_row_pair_into(
    r: &RowStore,
    u: usize,
    v: usize,
    out: &mut Vec<(u32, u32)>,
    stack: &mut EmitStack,
) -> Option<usize> {
    let n = r.n();
    let mut best: Option<(u32, usize, bool)> = None; // (walk len, row, reversed)
    for (i, &s) in r.sources().iter().enumerate() {
        for (from, to, reversed) in [(u, v, false), (v, u, true)] {
            if s as usize != from {
                continue;
            }
            if let Some(rec) = r.recs()[i * n + to] {
                let len = r.arena().len_of(rec);
                if best.is_none_or(|b| len < b.0) {
                    best = Some((len, i, reversed));
                }
            }
        }
    }
    let (_, i, reversed) = best?;
    let start = out.len();
    let count = r.emit_into(i, if reversed { u } else { v }, out, stack)?;
    if reversed {
        out[start..].reverse();
        for e in &mut out[start..] {
            *e = (e.1, e.0);
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::Graph;
    use cc_routes::HopTable;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    /// The distance part of the hand-built oracles: `|u - v|` on 4 vertices.
    fn line_distances() -> DistOracle {
        let mut m = crate::estimates::DistanceMatrix::new(4);
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    m.improve(u, v, u.abs_diff(v) as Dist);
                }
            }
        }
        DistOracle::from_matrix(
            &m,
            Guarantee::mult2(0.5),
            cc_graphs::StorageKind::SymmetricPacked,
        )
    }

    fn tiny_oracle() -> DistOracle {
        // Hand-built: a 4-path with a pair store for all pairs.
        let g = path_graph(4);
        let mut store = PathStore::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                let verts: Vec<u32> = (u as u32..=v as u32).collect();
                store.set_walk(&g, &verts);
            }
        }
        line_distances().with_routes(vec![0; 10], vec![PathProvider::Pairs(Arc::new(store))])
    }

    fn routes_of(o: &DistOracle) -> &Routes {
        o.routes.as_ref().expect("frozen with routes")
    }

    #[test]
    fn paths_are_served_with_guarantees() {
        let o = tiny_oracle();
        let route = o.path(0, 3).expect("connected");
        assert_eq!(route.edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(route.weight, 3);
        assert_eq!(route.vertices(), vec![0, 1, 2, 3]);
        assert_eq!(route.guarantee, o.dist(0, 3).unwrap().guarantee);
        let back = o.path(3, 0).unwrap();
        assert_eq!(back.edges, vec![(3, 2), (2, 1), (1, 0)]);
        let diag = o.path(2, 2).unwrap();
        assert_eq!((diag.weight, diag.edges.len()), (0, 0));
        assert_eq!(o.path(0, 9), None, "out of range");
        let batch = o.path_batch(&[(0, 3), (2, 2)]);
        assert_eq!(batch[0].as_ref().unwrap().weight, 3);
        assert!(o.witness_bytes() > 0);
        assert!(o.paths().is_some());
    }

    /// Without routes the same distances serve no route, not even the
    /// diagonal's empty one, and hold no witness bytes.
    #[test]
    fn an_oracle_without_routes_serves_none() {
        let o = line_distances();
        assert!(o.paths().is_none());
        assert_eq!(o.witness_bytes(), 0);
        let mut edges = vec![(7, 7)];
        for (u, v) in [(0, 3), (2, 2), (0, 9)] {
            assert_eq!(o.path(u, v), None, "({u},{v})");
            let stack = &mut EmitStack::default();
            assert_eq!(o.path_into(u, v, &mut edges, stack), None, "({u},{v})");
        }
        assert_eq!(edges, vec![(7, 7)], "buffer untouched");
        assert_eq!(o.dist(0, 3), tiny_oracle().dist(0, 3));
    }

    /// Each arena record counts at the byte length of its four SoA
    /// sections.
    #[test]
    fn witness_bytes_count_the_arena_sections() {
        let o = tiny_oracle();
        let routes = routes_of(&o);
        let PathProvider::Pairs(store) = &routes.providers[0] else {
            panic!("tiny_oracle has one pair store");
        };
        let (tags, a, b, lens) = store.arena().sections();
        let arena = [
            size_of_val(tags),
            size_of_val(a),
            size_of_val(b),
            size_of_val(lens),
        ];
        assert!(!store.arena().is_empty());
        assert_eq!(
            o.witness_bytes(),
            arena.iter().sum::<usize>() + store.witnesses().len() * 5 + routes.origins.len()
        );
    }

    /// Two copies of one tree-witnessed store, as apsp2 and the additive
    /// query hold the long-range store: the tree rows count and save once,
    /// and the loaded providers share one table again.
    #[test]
    fn shared_tree_rows_count_and_save_once() {
        let g = path_graph(4);
        let mut store = PathStore::new(4);
        store.set_edge(0, 1);
        let unit = cc_graphs::WeightedGraph::from_unweighted(&g);
        let hops = HopTable::new(4, Vec::new());
        let mut parents = vec![0u32; 16];
        for (s, row) in parents.chunks_mut(4).enumerate() {
            hops.write_row(row, &cc_graphs::dijkstra::sssp_with_parents(&unit, s).1);
        }
        store.set_trees(Arc::new(TreeRows::new(parents, hops)));
        let mut origins = vec![0u8; 10];
        origins[DistStorage::packed_index(4, 1, 3)] = 1;
        let o = line_distances().with_routes(
            origins,
            vec![
                PathProvider::Pairs(Arc::new(store.clone())),
                PathProvider::Pairs(Arc::new(store.clone())),
            ],
        );
        let rows = 4 * (16 + 5);
        let one = store.arena().len() * 13 + store.witnesses().len() * 5;
        assert_eq!(o.witness_bytes(), 2 * one + 10 + rows);
        assert_eq!(o.path(3, 0).unwrap().edges, vec![(3, 2), (2, 1), (1, 0)]);

        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();
        let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.witness_bytes(), o.witness_bytes(), "one table loaded");
        for (u, v) in [(0, 3), (3, 1), (2, 0)] {
            assert_eq!(back.path(u, v), o.path(u, v), "({u},{v})");
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_bad_frames() {
        let o = tiny_oracle();
        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();
        assert_eq!(&buf[..4], b"CCRO", "routes present: CCRO");
        let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.path(1, 3), o.path(1, 3));
        let mut again = Vec::new();
        back.save_v2(&mut again).unwrap();
        assert_eq!(buf, again, "re-save must be byte-identical");

        // Any other version — the retired v1 or a future one — wins over
        // the (now unverifiable) checksum.
        for version in [1u16, 9] {
            let mut other = buf.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            let err = DistOracle::from_snapshot_bytes(&other).unwrap_err();
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
                "version {version}: {err}"
            );
        }
        // Bad magic, flipped byte, truncation.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            DistOracle::from_snapshot_bytes(&bad),
            Err(SnapshotError::BadMagic(_))
        ));
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(DistOracle::from_snapshot_bytes(&flipped).is_err());
        assert!(DistOracle::from_snapshot_bytes(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn oversized_provider_table_fails_to_save_cleanly() {
        // 300 providers exceed the u8-indexed origin table; the writer must
        // surface TooLarge instead of writing a table no origin can address.
        let tiny = tiny_oracle();
        let routes = routes_of(&tiny);
        let o = line_distances().with_routes(
            routes.origins.clone(),
            vec![routes.providers[0].clone(); 300],
        );
        let err = o.save_v2(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("provider count"), "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
        let err = o.to_v2_bytes().unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::TooLarge {
                    what: "provider count",
                    count: 300,
                    max: 256
                }
            ),
            "{err:?}"
        );
    }

    /// Both provider kinds: a pair store plus a row store over sources
    /// {0, 2}, with every pair touching vertex 0 routed to the rows.
    fn two_provider_oracle() -> DistOracle {
        let g = path_graph(4);
        let mut pairs = PathStore::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                let verts: Vec<u32> = (u..=v).collect();
                pairs.set_walk(&g, &verts);
            }
        }
        let mut rows = RowStore::new(4, &[0, 2]);
        for (i, s) in [0u32, 2].into_iter().enumerate() {
            for v in 0..4u32 {
                if v == s {
                    continue;
                }
                let verts: Vec<u32> = if s < v {
                    (s..=v).collect()
                } else {
                    (v..=s).rev().collect()
                };
                rows.set_walk(&g, i, &verts);
            }
        }
        let mut origins = vec![0u8; 10];
        for v in 0..4 {
            origins[DistStorage::packed_index(4, 0, v)] = 1;
        }
        origins[DistStorage::packed_index(4, 2, 3)] = 1;
        line_distances().with_routes(
            origins,
            vec![
                PathProvider::Pairs(Arc::new(pairs)),
                PathProvider::Rows(Arc::new(rows)),
            ],
        )
    }

    #[test]
    fn snapshot_v2_round_trips_both_provider_kinds() {
        let o = two_provider_oracle();
        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();
        let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
        assert_eq!(back, o);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(back.path(u, v), o.path(u, v), "route ({u},{v})");
            }
        }
        // The reloaded oracle serves its hot tables from the snapshot
        // bytes (little-endian hosts; elsewhere it degrades to a copy).
        if cfg!(target_endian = "little") {
            assert!(back.storage().is_shared());
        }
        let mut again = Vec::new();
        back.save_v2(&mut again).unwrap();
        assert_eq!(buf, again, "v2 re-save must be byte-identical");
    }

    #[test]
    fn snapshot_v2_rejects_corruption_with_typed_errors() {
        let o = two_provider_oracle();
        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();

        // Any single bit flip in the frame trips the checksum (or a
        // structural check) — never a panic, never a bogus oracle.
        for &pos in &[6, 40, buf.len() / 2, buf.len() - 9] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x01;
            assert!(
                DistOracle::from_snapshot_bytes(&bad).is_err(),
                "flip at {pos} must be rejected"
            );
        }
        // Truncations at section boundaries and mid-directory.
        for cut in [10, 64, 200, buf.len() - 1] {
            let err = DistOracle::from_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
        // A CCDO magic on CCRO bytes is a magic the loader knows, so it
        // reads the bytes as a distance snapshot, and the checksum (which
        // covers the magic) refuses them. An unknown magic is BadMagic.
        let mut wrong_magic = buf.clone();
        wrong_magic[..4].copy_from_slice(b"CCDO");
        match DistOracle::from_snapshot_bytes(&wrong_magic) {
            Err(SnapshotError::Corrupt(msg)) => assert_eq!(msg, "checksum mismatch"),
            other => panic!("CCDO magic on CCRO bytes: {other:?}"),
        }
        let mut unknown = buf.clone();
        unknown[..4].copy_from_slice(b"XXXX");
        assert!(matches!(
            DistOracle::from_snapshot_bytes(&unknown),
            Err(SnapshotError::BadMagic(m)) if &m == b"XXXX"
        ));
    }
}
