//! The frozen, `Arc`-shareable read side of a solved session: [`DistOracle`].
//!
//! The paper's pipelines do all their expensive work up front — hopsets,
//! hitting sets, `O(log²n/ε)` rounds of emulation — and their output is a
//! *static* table of distance estimates. This module freezes that output
//! into an immutable oracle that
//!
//! * answers [`dist`](DistOracle::dist), [`dist_batch`](DistOracle::dist_batch),
//!   [`dists_from`](DistOracle::dists_from) and
//!   [`k_nearest`](DistOracle::k_nearest) lock-free from any number of
//!   threads (`&self` everywhere, `DistOracle: Send + Sync`);
//! * tags **every answer with its provenance** — a [`Guarantee`] naming the
//!   pipeline that produced the winning estimate and the `ε` it ran with,
//!   instead of a bare `Option<Dist>`;
//! * stores the table in the most compact [`DistStorage`] layout for its
//!   shape (symmetric-packed triangle, or source rows only), chosen
//!   automatically at freeze time;
//! * optionally carries the session's **routes** (`crate::path_oracle`):
//!   [`path`](DistOracle::path) answers a real walk in the input graph for
//!   every pair whose estimate it serves;
//! * persists to a versioned binary snapshot ([`DistOracle::save_v2`],
//!   [`DistOracle::from_snapshot_bytes`], no external dependencies) so a
//!   solved substrate can be served by a fresh process: `CCDO` without
//!   routes, `CCRO` with them.
//!
//! ```
//! use std::sync::Arc;
//! use cc_core::{Execution, SolverBuilder};
//! use cc_graphs::generators;
//!
//! let g = generators::caveman(6, 6);
//! let mut solver = SolverBuilder::new(g)
//!     .eps(0.5)
//!     .execution(Execution::Seeded(7))
//!     .build()?;
//! solver.apsp_2eps()?;
//! let oracle = Arc::new(solver.freeze()?);
//! let answer = oracle.dist(0, 20).expect("estimate frozen");
//! assert!(answer.dist >= 1);
//! println!("d(0,20) ≤ {} under {}", answer.dist, answer.guarantee);
//! # Ok::<(), cc_core::CcError>(())
//! ```

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use cc_graphs::{ByteOwner, Dist, DistStorage, PodData, StorageKind, INF};
use cc_routes::EmitStack;

use crate::estimates::DistanceMatrix;
use crate::path_oracle::{PathProvider, Route, Routes};
use crate::snapshot::header::Cursor;
use crate::snapshot::v2::{owner_from_bytes, SectionWriter, SnapshotView};

pub use crate::snapshot::header::SnapshotError;

/// Which pipeline an estimate came from — the shape of its proven bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuaranteeKind {
    /// `(2+ε)`-approximate APSP (Thm 4/34).
    Mult2Eps,
    /// `(3+ε)`-approximate APSP (the §4.3 warm-up).
    Mult3Eps,
    /// `(1+ε, β)`-approximate APSP (Thm 5/32).
    NearAdditive,
    /// `(1+ε)`-approximate MSSP from `O(√n)` sources (Thm 3/33).
    Mssp,
}

impl GuaranteeKind {
    /// Stable wire tag (the snapshot's guarantee table).
    fn wire(self) -> u8 {
        match self {
            GuaranteeKind::Mult2Eps => 0,
            GuaranteeKind::Mult3Eps => 1,
            GuaranteeKind::NearAdditive => 2,
            GuaranteeKind::Mssp => 3,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0 => GuaranteeKind::Mult2Eps,
            1 => GuaranteeKind::Mult3Eps,
            2 => GuaranteeKind::NearAdditive,
            3 => GuaranteeKind::Mssp,
            _ => return None,
        })
    }

    /// Strength rank used for tie-breaking: lower is stronger. Orders by
    /// multiplicative quality at the short range the guarantees are proven
    /// for: `1+ε` (MSSP) < `(1+ε)d + β` < `2+ε` < `3+ε`.
    fn rank(self) -> u8 {
        match self {
            GuaranteeKind::Mssp => 0,
            GuaranteeKind::NearAdditive => 1,
            GuaranteeKind::Mult2Eps => 2,
            GuaranteeKind::Mult3Eps => 3,
        }
    }
}

/// The provenance of a frozen estimate: which pipeline proved it, with which
/// accuracy parameters. Every oracle answer carries one.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Guarantee {
    /// The pipeline / bound shape.
    pub kind: GuaranteeKind,
    /// The multiplicative slack `ε` of the bound (`2+ε`, `3+ε`, `1+ε`).
    pub eps: f64,
    /// The additive part `β` ([`GuaranteeKind::NearAdditive`] only; `0`
    /// otherwise).
    pub additive: f64,
}

impl Guarantee {
    /// `(2+ε)`-APSP provenance.
    pub fn mult2(eps: f64) -> Self {
        Guarantee {
            kind: GuaranteeKind::Mult2Eps,
            eps,
            additive: 0.0,
        }
    }

    /// `(3+ε)`-APSP provenance.
    pub fn mult3(eps: f64) -> Self {
        Guarantee {
            kind: GuaranteeKind::Mult3Eps,
            eps,
            additive: 0.0,
        }
    }

    /// `(1+ε, β)`-APSP provenance.
    pub fn near_additive(eps: f64, beta: f64) -> Self {
        Guarantee {
            kind: GuaranteeKind::NearAdditive,
            eps,
            additive: beta,
        }
    }

    /// `(1+ε)`-MSSP provenance.
    pub fn mssp(eps: f64) -> Self {
        Guarantee {
            kind: GuaranteeKind::Mssp,
            eps,
            additive: 0.0,
        }
    }

    /// The proven upper bound on an estimate for a pair at true distance
    /// `d` (the short-range bound; long-range pairs are only ever better).
    pub fn bound(&self, d: Dist) -> f64 {
        let d = d as f64;
        match self.kind {
            GuaranteeKind::Mult2Eps => (2.0 + self.eps) * d,
            GuaranteeKind::Mult3Eps => (3.0 + self.eps) * d,
            GuaranteeKind::NearAdditive => (1.0 + self.eps) * d + self.additive,
            GuaranteeKind::Mssp => (1.0 + self.eps) * d,
        }
    }

    /// Total-order key: lower sorts stronger. Ranks by bound shape first,
    /// then smaller `ε`, then smaller `β` (all are non-negative, so the IEEE
    /// bit patterns order correctly).
    fn strength(&self) -> (u8, u64, u64) {
        (
            self.kind.rank(),
            self.eps.to_bits(),
            self.additive.to_bits(),
        )
    }

    /// `true` when `self` is strictly stronger provenance than `other`
    /// (used to break equal-distance ties deterministically).
    pub fn stronger_than(&self, other: &Guarantee) -> bool {
        self.strength() < other.strength()
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            GuaranteeKind::Mult2Eps => write!(f, "(2+{:.3})·d [apsp2]", self.eps),
            GuaranteeKind::Mult3Eps => write!(f, "(3+{:.3})·d [apsp3]", self.eps),
            GuaranteeKind::NearAdditive => {
                write!(
                    f,
                    "(1+{:.3})·d+{:.0} [near-additive]",
                    self.eps, self.additive
                )
            }
            GuaranteeKind::Mssp => write!(f, "(1+{:.3})·d [mssp]", self.eps),
        }
    }
}

/// One oracle answer: the estimate and the provenance it is proven under.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PointEstimate {
    /// The frozen estimate `δ(u, v)` (`d_G(u,v) ≤ δ`).
    pub dist: Dist,
    /// The bound `δ` satisfies.
    pub guarantee: Guarantee,
}

/// An immutable, `Arc`-shareable oracle over solved estimates, and
/// optionally the routes that realize them.
///
/// Built by [`crate::Solver::freeze`] (with routes exactly when the session
/// records paths), by [`crate::mssp::Mssp::into_oracle`] for a source-row
/// layout, or from parts ([`DistOracle::from_matrix`],
/// [`DistOracle::with_routes`]). All query methods take `&self` and touch
/// only frozen data, so one oracle behind an [`std::sync::Arc`] serves any
/// number of threads without locks; answers are bit-identical to a serial
/// replay.
///
/// Provenance is tracked per entry: a small [`Guarantee`] table plus an
/// optional byte tag per stored entry (elided when the whole table shares
/// one guarantee, which keeps single-pipeline oracles at 4 bytes/entry).
#[derive(Clone, PartialEq, Debug)]
pub struct DistOracle {
    storage: DistStorage,
    /// Provenance table; `tags` index into it. Never empty.
    guarantees: Vec<Guarantee>,
    /// Per-entry provenance (same indexing as `storage` entries), or `None`
    /// when every entry is covered by `guarantees[0]`. [`PodData`] so the
    /// snapshots serve it in place.
    tags: Option<PodData<u8>>,
    /// The witnesses that serve [`DistOracle::path`], when frozen with
    /// routes.
    pub(crate) routes: Option<Routes>,
}

/// Vertex ids are `u32` on the wire and in row-sparse source tables. The
/// oracles these conversions serve are built from n-by-n tables that exist
/// in memory, so `n` is far below `u32::MAX`; debug builds assert it.
fn vertex_id(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "vertex id exceeds u32");
    // cc-analyze: allow(narrowing-cast) — bounded by the table fitting in memory.
    i as u32
}

impl DistOracle {
    /// Freezes a storage under a single uniform guarantee.
    pub fn from_storage(storage: DistStorage, guarantee: Guarantee) -> Self {
        DistOracle {
            storage,
            guarantees: vec![guarantee],
            tags: None,
            routes: None,
        }
    }

    /// Freezes an estimate matrix under a single guarantee, into the given
    /// layout. [`StorageKind::RowSparse`] keeps every row (useful as a
    /// layout-sweep vehicle for benches and tests; real row-sparse oracles
    /// come from [`crate::mssp::Mssp::into_oracle`]).
    pub fn from_matrix(m: &DistanceMatrix, guarantee: Guarantee, kind: StorageKind) -> Self {
        let n = m.n();
        let storage = match kind {
            StorageKind::SymmetricPacked => DistStorage::symmetric_packed(n, m.to_packed()),
            StorageKind::RowSparse => {
                DistStorage::row_sparse(n, (0..vertex_id(n)).collect::<Vec<_>>(), m.to_flat())
            }
        };
        DistOracle::from_storage(storage, guarantee)
    }

    /// Assembles an oracle from pre-merged packed data with per-entry tags
    /// (the [`crate::Solver::freeze`] path). Collapses the tag array when
    /// only one guarantee is referenced.
    pub(crate) fn from_tagged_packed(
        n: usize,
        data: Vec<Dist>,
        tags: Vec<u8>,
        guarantees: Vec<Guarantee>,
    ) -> Self {
        assert!(!guarantees.is_empty(), "at least one guarantee required");
        assert_eq!(data.len(), tags.len(), "one tag per entry");
        let tags = if guarantees.len() > 1 {
            Some(tags.into())
        } else {
            None
        };
        DistOracle {
            storage: DistStorage::symmetric_packed(n, data),
            guarantees,
            tags,
            routes: None,
        }
    }

    /// The same distances with routes: per packed pair, the index into
    /// `providers` of the witness store that serves its route.
    /// [`crate::Solver::freeze`] is the usual entry point; this constructor
    /// exists for custom serving layers and golden-file references.
    ///
    /// # Panics
    ///
    /// Panics if `origins` is not one byte per packed pair or `providers`
    /// is empty.
    pub fn with_routes(
        self,
        origins: impl Into<PodData<u8>>,
        providers: Vec<PathProvider>,
    ) -> Self {
        let routes = Routes::new(self.n(), origins.into(), providers);
        DistOracle {
            routes: Some(routes),
            ..self
        }
    }

    /// Dimension `n` (vertices are `0..n`).
    pub fn n(&self) -> usize {
        self.storage.n()
    }

    /// The frozen storage.
    pub fn storage(&self) -> &DistStorage {
        &self.storage
    }

    /// The storage layout.
    pub fn storage_kind(&self) -> StorageKind {
        self.storage.kind()
    }

    /// Payload bytes held by the oracle: distance entries (plus the source
    /// list for row-sparse layouts) plus per-entry provenance tags, if any.
    pub fn storage_bytes(&self) -> usize {
        self.storage.bytes() + self.tags.as_ref().map_or(0, |t| t.len())
    }

    /// The provenance table answers are tagged from.
    pub fn guarantees(&self) -> &[Guarantee] {
        &self.guarantees
    }

    /// The oracle itself: its distance answers are the ones its routes are
    /// served under.
    pub fn dist_oracle(&self) -> &Self {
        self
    }

    /// The oracle itself when it was frozen with routes, `None` otherwise —
    /// the one check for whether [`DistOracle::path`] can answer.
    pub fn paths(&self) -> Option<&Self> {
        self.routes.as_ref().map(|_| self)
    }

    /// Number of witness providers (0 without routes).
    #[cfg(test)]
    pub(crate) fn provider_count(&self) -> usize {
        self.routes.as_ref().map_or(0, Routes::provider_count)
    }

    /// Approximate bytes held by the routes (arena records, per-pair
    /// witness tables and tree rows, each shared tree table once), 0
    /// without routes; the distance side is [`DistOracle::storage_bytes`].
    pub fn witness_bytes(&self) -> usize {
        self.routes.as_ref().map_or(0, Routes::witness_bytes)
    }

    /// The route for `(u, v)`: a real walk in `G` running `u → v`, its exact
    /// weight, and the guarantee of the pipeline that produced it. `None`
    /// when the oracle has no routes, when out of range, or when no
    /// estimate was frozen for the pair; `Some(empty)` on the diagonal.
    pub fn path(&self, u: usize, v: usize) -> Option<Route> {
        self.path_with(u, v, &mut EmitStack::default())
    }

    /// [`DistOracle::path`] over the caller's reusable work `stack`.
    fn path_with(&self, u: usize, v: usize, stack: &mut EmitStack) -> Option<Route> {
        let mut edges = Vec::new();
        let (weight, guarantee) = self.path_into(u, v, &mut edges, stack)?;
        // In range after path_into (u, v < n ≤ the u32-indexed table size).
        let (src, dst) = (u32::try_from(u).ok()?, u32::try_from(v).ok()?);
        Some(Route {
            src,
            dst,
            edges,
            weight,
            guarantee,
        })
    }

    /// The allocation-free form of [`DistOracle::path`]: appends the
    /// route's edges to `out` (per-worker scratch on serving paths), using
    /// the reusable work `stack`, and returns its weight and guarantee. On
    /// `None` the buffer keeps its original contents.
    pub fn path_into(
        &self,
        u: usize,
        v: usize,
        out: &mut Vec<(u32, u32)>,
        stack: &mut EmitStack,
    ) -> Option<(Dist, Guarantee)> {
        let routes = self.routes.as_ref()?;
        let est = self.dist(u, v)?;
        if u == v {
            return Some((0, est.guarantee));
        }
        let count = routes.emit_into(self.n(), u, v, out, stack)?;
        Some((count as Dist, est.guarantee))
    }

    /// Answers a batch of route queries in order — exactly equivalent to
    /// mapping [`DistOracle::path`] over `pairs`, with one work stack for
    /// the whole batch.
    pub fn path_batch(&self, pairs: &[(usize, usize)]) -> Vec<Option<Route>> {
        let mut stack = EmitStack::default();
        pairs
            .iter()
            .map(|&(u, v)| self.path_with(u, v, &mut stack))
            .collect()
    }

    /// The strongest guarantee in the table (diagonal answers use it).
    fn strongest(&self) -> Guarantee {
        // Constructors and loaders both reject empty tables; the fallback
        // (the weakest representable provenance) only keeps this total.
        self.guarantees
            .iter()
            .copied()
            .reduce(|a, b| if b.stronger_than(&a) { b } else { a })
            .unwrap_or(Guarantee::mult3(f64::INFINITY))
    }

    #[inline]
    fn tag_of(&self, entry: usize) -> Guarantee {
        match &self.tags {
            Some(tags) => self.guarantees[tags[entry] as usize],
            None => self.guarantees[0],
        }
    }

    /// The frozen estimate for `(u, v)` with its provenance, or `None` when
    /// out of range or no estimate was frozen for the pair. `dist(u, u)` is
    /// always `0` (exact under any guarantee; tagged with the strongest in
    /// the table).
    #[inline]
    pub fn dist(&self, u: usize, v: usize) -> Option<PointEstimate> {
        let n = self.n();
        if u >= n || v >= n {
            return None;
        }
        if u == v {
            return Some(PointEstimate {
                dist: 0,
                guarantee: self.strongest(),
            });
        }
        match self.storage.lookup(u, v) {
            Some((d, entry)) if d < INF => Some(PointEstimate {
                dist: d,
                guarantee: self.tag_of(entry),
            }),
            _ => None,
        }
    }

    /// Answers a batch of point queries in order. Exactly equivalent to
    /// mapping [`DistOracle::dist`] over `pairs`; the batch form amortizes
    /// call overhead in high-throughput serving loops.
    pub fn dist_batch(&self, pairs: &[(usize, usize)]) -> Vec<Option<PointEstimate>> {
        let mut out = Vec::new();
        self.dist_batch_into(pairs, &mut out);
        out
    }

    /// [`DistOracle::dist_batch`] into a caller-provided buffer (cleared
    /// first) — the allocation-free form serving workers reuse per batch.
    pub fn dist_batch_into(&self, pairs: &[(usize, usize)], out: &mut Vec<Option<PointEstimate>>) {
        out.clear();
        out.reserve(pairs.len());
        out.extend(pairs.iter().map(|&(u, v)| self.dist(u, v)));
    }

    /// The full estimate row of `u` (`row[v] = δ(u, v)`, [`INF`] where no
    /// estimate is frozen). Borrows storage directly where the layout holds
    /// a contiguous row (`RowSparse` when `u` is a source) and
    /// materializes otherwise, so hot serving paths on row-addressable
    /// layouts are copy-free.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    pub fn dists_from(&self, u: usize) -> Cow<'_, [Dist]> {
        assert!(u < self.n(), "vertex {u} out of range for n = {}", self.n());
        match self.storage.row(u) {
            Some(row) => Cow::Borrowed(row),
            None => {
                let mut out = vec![INF; self.n()];
                self.storage.copy_row(u, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// The `k` nearest vertices to `u` among the frozen finite estimates,
    /// sorted by `(distance, vertex id)` — deterministic across layouts and
    /// threads. `u` itself is excluded; fewer than `k` entries are returned
    /// when fewer estimates exist.
    ///
    /// Selection runs in `O(n + k log k)`: a `select_nth_unstable` partition
    /// on the full `(distance, id)` key isolates the `k` smallest entries,
    /// and only that prefix is sorted — the previous full `O(n log n)` sort
    /// of every finite entry is gone. The full key makes the partition cut
    /// deterministic even through runs of equal distances.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    pub fn k_nearest(&self, u: usize, k: usize) -> Vec<(u32, Dist)> {
        let row = self.dists_from(u);
        let mut near: Vec<(u32, Dist)> = row
            .iter()
            .enumerate()
            .filter(|&(v, &d)| v != u && d < INF)
            .map(|(v, &d)| (vertex_id(v), d))
            .collect();
        if k < near.len() {
            near.select_nth_unstable_by_key(k, |&(v, d)| (d, v));
            near.truncate(k);
        }
        near.sort_unstable_by_key(|&(v, d)| (d, v));
        near
    }

    /// Number of ordered off-diagonal pairs with a frozen finite estimate.
    pub fn finite_pairs(&self) -> usize {
        let n = self.n();
        let mut count = 0;
        for u in 0..n {
            let row = self.dists_from(u);
            count += row
                .iter()
                .enumerate()
                .filter(|&(v, &d)| v != u && d < INF)
                .count();
        }
        count
    }

    /// Re-freezes the same answers into another layout, preserving
    /// per-entry provenance and the routes. Converting to
    /// [`StorageKind::SymmetricPacked`] keeps the min over both orientations
    /// (all oracles in this crate are symmetric already); converting to
    /// [`StorageKind::RowSparse`] keeps the existing source set, or every
    /// row when coming from the packed layout.
    pub fn with_layout(&self, kind: StorageKind) -> DistOracle {
        let n = self.n();
        // (value, tag) for one ordered pair, INF/0 when absent.
        let cell = |u: usize, v: usize| -> (Dist, u8) {
            match self.storage.lookup(u, v) {
                Some((d, entry)) => (d, self.tags.as_ref().map_or(0, |t| t[entry])),
                None => (INF, 0),
            }
        };
        let (storage, tags) = match kind {
            StorageKind::SymmetricPacked => {
                let mut data = Vec::with_capacity(n * (n + 1) / 2);
                let mut tags = Vec::with_capacity(n * (n + 1) / 2);
                for u in 0..n {
                    for v in u..n {
                        // One cell per pair is enough: `lookup` already
                        // keeps the min of both orientations when two
                        // row-sparse sources disagree on their mutual pair
                        // (MSSP rows can).
                        let (d, t) = cell(u, v);
                        data.push(d);
                        tags.push(t);
                    }
                }
                (DistStorage::symmetric_packed(n, data), tags)
            }
            StorageKind::RowSparse => {
                let sources: Vec<u32> = match self.storage.sources() {
                    Some(s) => s.to_vec(),
                    None => (0..vertex_id(n)).collect(),
                };
                let mut data = Vec::with_capacity(sources.len() * n);
                let mut tags = Vec::with_capacity(sources.len() * n);
                for &s in &sources {
                    for v in 0..n {
                        let (d, t) = cell(s as usize, v);
                        data.push(d);
                        tags.push(t);
                    }
                }
                (DistStorage::row_sparse(n, sources, data), tags)
            }
        };
        DistOracle {
            storage,
            guarantees: self.guarantees.clone(),
            tags: if self.guarantees.len() > 1 {
                Some(tags.into())
            } else {
                None
            },
            routes: self.routes.clone(),
        }
    }

    /// Reads a snapshot produced by [`DistOracle::save_v2`]: a `CCDO` file
    /// loads without routes, a `CCRO` file with them. The result is
    /// bit-identical to the oracle that was saved (validated by the
    /// checksum, structural length checks and index-range checks). The
    /// bytes are copied once into an aligned owner so the hot tables can be
    /// viewed in place; use [`DistOracle::load_v2_shared`] to serve an
    /// existing owner (a mapped file) with no copy at all.
    ///
    /// Magic and version are inspected **before** the checksum: a snapshot
    /// written by a future format version (whose trailing bytes this build
    /// cannot even locate) reports [`SnapshotError::UnsupportedVersion`],
    /// not a misleading checksum mismatch. Every count is bounded by the
    /// bytes actually present before anything is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for an unknown magic, an unsupported
    /// version, or a corrupt/truncated payload.
    pub fn from_snapshot_bytes(buf: &[u8]) -> Result<Self, SnapshotError> {
        Self::load_v2_shared(owner_from_bytes(buf))
    }

    /// Loads a snapshot directly from a stable byte owner (an `mmap`'d
    /// file, an [`cc_graphs::AlignedBytes`] buffer): the distance entries,
    /// tags, sources, origins and route-arena columns become zero-copy
    /// views into the owner on little-endian targets.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] as [`DistOracle::from_snapshot_bytes`]
    /// does.
    pub fn load_v2_shared(owner: Arc<dyn ByteOwner>) -> Result<Self, SnapshotError> {
        let (magic, _) = crate::snapshot::sniff(owner.bytes())?;
        match &magic {
            b"CCDO" | b"CCRO" => Self::from_view(&SnapshotView::parse(owner, &magic)?),
            _ => Err(SnapshotError::BadMagic(magic)),
        }
    }

    /// Loads the oracle from an already parsed snapshot, by the view's
    /// magic: `CCDO` without routes, `CCRO` with them. The frame and its
    /// checksum were checked when the view was parsed, so a caller that
    /// also lists the view's sections hashes the file once.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for a magic other than `CCDO` or `CCRO`,
    /// or a corrupt payload.
    pub fn from_view(view: &SnapshotView) -> Result<Self, SnapshotError> {
        let (magic, _) = crate::snapshot::sniff(view.raw())?;
        match &magic {
            b"CCDO" => Self::load_ccdo(view),
            b"CCRO" => Routes::load_v2(view),
            _ => Err(SnapshotError::BadMagic(magic)),
        }
    }

    // ── Snapshot format ──────────────────────────────────────────────────
    //
    // The v2 frame and directory are documented in `crate::snapshot::v2`
    // (and DESIGN.md §9). An oracle with routes is a CCRO frame (layout in
    // `crate::path_oracle`) that embeds its distance part as CCDO. CCDO
    // sections:
    //
    //   1 META        kind u8, flags u8, pad[6], n u64, entries u64,
    //                 source_count u64, guarantee_count u64      (40 bytes)
    //   2 GUARANTEES  count × { kind u8, eps f64 bits, additive f64 bits }
    //   3 SOURCES     [row-sparse only] source_count × u32
    //   4 ENTRIES     entries × u32                              (hot)
    //   5 TAGS        [flags bit0] entries × u8                  (hot)

    /// Serializes the oracle into the snapshot format — the aligned-section
    /// layout [`DistOracle::load_v2_shared`] serves zero-copy: `CCDO` when
    /// the oracle has no routes, `CCRO` when it has them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`; a guarantee table or provider table
    /// larger than the format's 256-row maximum surfaces as
    /// [`SnapshotError::TooLarge`] (wrapped in `InvalidData`) instead of
    /// being silently truncated.
    pub fn save_v2<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let bytes = self.to_v2_bytes()?;
        w.write_all(&bytes)
    }

    /// [`DistOracle::save_v2`] to a filesystem path, crash-safely
    /// ([`crate::snapshot::write_atomic`]): a crash mid-save leaves the
    /// previous snapshot untouched, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_v2_to_path<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        self.save_v2(&mut bytes)?;
        crate::snapshot::write_atomic(path.as_ref(), &bytes)
    }

    pub(crate) fn to_v2_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        match &self.routes {
            None => self.ccdo_bytes(),
            Some(routes) => routes.to_v2_bytes(self.n(), &self.ccdo_bytes()?),
        }
    }

    /// The `CCDO` snapshot of the distance part alone.
    fn ccdo_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        SnapshotError::check_count("guarantee count", self.guarantees.len(), MAX_GUARANTEES)?;
        let mut w = SectionWriter::new(b"CCDO");
        let sources = self.storage.sources();
        let mut meta = Vec::with_capacity(40);
        meta.push(match self.storage.kind() {
            StorageKind::SymmetricPacked => 1,
            StorageKind::RowSparse => 2,
        });
        meta.push(u8::from(self.tags.is_some()));
        meta.extend_from_slice(&[0u8; 6]);
        meta.extend_from_slice(&(self.n() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.storage.entries() as u64).to_le_bytes());
        meta.extend_from_slice(&(sources.map_or(0, <[u32]>::len) as u64).to_le_bytes());
        meta.extend_from_slice(&(self.guarantees.len() as u64).to_le_bytes());
        w.section(SEC_META, &meta);
        let mut gbytes = Vec::with_capacity(self.guarantees.len() * 17);
        for g in &self.guarantees {
            gbytes.push(g.kind.wire());
            gbytes.extend_from_slice(&g.eps.to_bits().to_le_bytes());
            gbytes.extend_from_slice(&g.additive.to_bits().to_le_bytes());
        }
        w.section(SEC_GUARANTEES, &gbytes);
        if let Some(sources) = sources {
            w.section_u32(SEC_SOURCES, sources);
        }
        w.section_u32(SEC_ENTRIES, self.storage.data());
        if let Some(tags) = &self.tags {
            w.section(SEC_TAGS, tags);
        }
        w.finish()
    }

    /// Loads a `CCDO` snapshot (no routes) from a validated
    /// [`SnapshotView`].
    pub(crate) fn load_ccdo(view: &SnapshotView) -> Result<Self, SnapshotError> {
        let meta = view.bytes_of(SEC_META, "CCDO meta")?;
        let mut c = Cursor::new(meta);
        let kind = c.take_n::<1>()?[0];
        let flags = c.take_n::<1>()?[0];
        if flags > 1 {
            return Err(SnapshotError::corrupt("unknown flag bits"));
        }
        let _ = c.take(6)?; // padding
        let n = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("n exceeds the address space"))?;
        let entries = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("entry count exceeds the address space"))?;
        let source_count = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("source count exceeds the address space"))?;
        let g_count = usize::try_from(u64::from_le_bytes(c.take_n::<8>()?))
            .map_err(|_| SnapshotError::corrupt("guarantee count exceeds the address space"))?;
        if !c.at_end() {
            return Err(SnapshotError::corrupt("CCDO meta section length mismatch"));
        }
        if g_count == 0 || g_count > 256 {
            return Err(SnapshotError::corrupt("guarantee count out of range"));
        }
        let gbytes = view.bytes_of(SEC_GUARANTEES, "guarantee")?;
        if gbytes.len() != g_count * 17 {
            return Err(SnapshotError::corrupt("guarantee section length mismatch"));
        }
        let mut guarantees = Vec::with_capacity(g_count);
        let mut gc = Cursor::new(gbytes);
        for _ in 0..g_count {
            let kind = GuaranteeKind::from_wire(gc.take_n::<1>()?[0])
                .ok_or_else(|| SnapshotError::corrupt("unknown guarantee kind"))?;
            let eps = f64::from_bits(u64::from_le_bytes(gc.take_n::<8>()?));
            let additive = f64::from_bits(u64::from_le_bytes(gc.take_n::<8>()?));
            guarantees.push(Guarantee {
                kind,
                eps,
                additive,
            });
        }
        // Entry count vs. declared layout, before touching the (large)
        // sections: the section length checks inside u8_data/u32_data then
        // bound every decode-copy by bytes actually present, and the shared
        // path allocates nothing.
        let expected = match kind {
            1 => n
                .checked_add(1)
                .and_then(|m| n.checked_mul(m))
                .map(|x| x / 2),
            2 => {
                // ≥ 1 source keeps `n ≤ entries`, bounding the O(n) source
                // index built below by the entry section's byte length.
                if source_count == 0 {
                    return Err(SnapshotError::corrupt(
                        "row-sparse snapshot with no sources",
                    ));
                }
                source_count.checked_mul(n)
            }
            _ => return Err(SnapshotError::corrupt("unknown storage kind")),
        };
        if expected != Some(entries) {
            return Err(SnapshotError::corrupt("entry count does not match layout"));
        }
        let sources = if kind == 2 {
            let sources = view.u32_data(SEC_SOURCES, source_count, "source")?;
            if sources.iter().any(|&s| s as usize >= n) {
                return Err(SnapshotError::corrupt("source out of range"));
            }
            Some(sources)
        } else {
            if source_count != 0 {
                return Err(SnapshotError::corrupt("sources on a non-row-sparse layout"));
            }
            None
        };
        let data = view.u32_data(SEC_ENTRIES, entries, "entry")?;
        let tags = if flags & 1 == 1 {
            let tags = view.u8_data(SEC_TAGS, entries, "tag")?;
            if tags.iter().any(|&t| t as usize >= g_count) {
                return Err(SnapshotError::corrupt("tag beyond guarantee table"));
            }
            Some(tags)
        } else {
            None
        };
        let storage = match (kind, sources) {
            (1, _) => DistStorage::symmetric_packed(n, data),
            (_, Some(sources)) => DistStorage::row_sparse(n, sources, data),
            (_, None) => {
                return Err(SnapshotError::corrupt(
                    "row-sparse snapshot with no sources",
                ))
            }
        };
        Ok(DistOracle {
            storage,
            guarantees,
            tags,
            routes: None,
        })
    }

    /// [`DistOracle::from_snapshot_bytes`] over a file's contents.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for an I/O failure, or as
    /// [`DistOracle::from_snapshot_bytes`] does.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

// Format maximum for the guarantee table, enforced symmetrically by the
// writer (as `SnapshotError::TooLarge`) and the loader (as `Corrupt`): tags
// index the table through a u8, so 256 rows is all the format can address.
const MAX_GUARANTEES: usize = 256;

// CCDO section ids (see the layout comment on `ccdo_bytes`).
const SEC_META: u16 = 1;
const SEC_GUARANTEES: u16 = 2;
const SEC_SOURCES: u16 = 3;
const SEC_ENTRIES: u16 = 4;
const SEC_TAGS: u16 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::header::checksum;

    fn sample_matrix(n: usize) -> DistanceMatrix {
        let mut m = DistanceMatrix::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + v) % 3 != 0 {
                    m.improve(u, v, (v - u) as Dist);
                }
            }
        }
        m
    }

    #[test]
    fn layouts_answer_identically() {
        let m = sample_matrix(7);
        let g = Guarantee::mult2(0.5);
        let sym = DistOracle::from_matrix(&m, g, StorageKind::SymmetricPacked);
        let sparse = DistOracle::from_matrix(&m, g, StorageKind::RowSparse);
        for u in 0..7 {
            for v in 0..7 {
                let a = sym.dist(u, v);
                assert_eq!(a, sparse.dist(u, v), "({u},{v})");
                if u == v {
                    assert_eq!(a.unwrap().dist, 0);
                } else if let Some(est) = a {
                    assert_eq!(est.dist, m.get(u, v));
                    assert_eq!(est.guarantee, g);
                }
            }
        }
        assert!(sym.storage_bytes() < sparse.storage_bytes());
    }

    #[test]
    fn batch_matches_point_queries() {
        let m = sample_matrix(6);
        let o = DistOracle::from_matrix(&m, Guarantee::mult3(0.25), StorageKind::SymmetricPacked);
        let pairs: Vec<(usize, usize)> = (0..6).flat_map(|u| (0..6).map(move |v| (u, v))).collect();
        let batch = o.dist_batch(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], o.dist(u, v));
        }
        assert_eq!(o.dist(9, 0), None, "out of range");
    }

    #[test]
    fn oversized_guarantee_table_fails_to_save_cleanly() {
        // 300 guarantees exceed the u8-indexed tag table; the writer must
        // surface TooLarge instead of writing a table no tag can address
        // (it would round-trip as the wrong provenance for every tagged
        // answer).
        let n = 3;
        let entries = n * (n + 1) / 2;
        let guarantees: Vec<Guarantee> = (0..300).map(|i| Guarantee::mult2(i as f64)).collect();
        let o = DistOracle::from_tagged_packed(n, vec![1; entries], vec![0; entries], guarantees);
        let err = o.save_v2(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("guarantee count"), "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
        let err = o.to_v2_bytes().unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::TooLarge {
                    what: "guarantee count",
                    count: 300,
                    max: 256
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dists_from_borrows_where_possible() {
        let m = sample_matrix(5);
        let g = Guarantee::near_additive(0.25, 4.0);
        let rows = DistOracle::from_matrix(&m, g, StorageKind::RowSparse);
        assert!(matches!(rows.dists_from(2), Cow::Borrowed(_)));
        let sym = DistOracle::from_matrix(&m, g, StorageKind::SymmetricPacked);
        assert!(matches!(sym.dists_from(2), Cow::Owned(_)));
        assert_eq!(&rows.dists_from(2)[..], &sym.dists_from(2)[..]);
    }

    #[test]
    fn k_nearest_is_sorted_and_tie_broken_by_id() {
        let mut m = DistanceMatrix::new(5);
        m.improve(0, 1, 2);
        m.improve(0, 2, 2);
        m.improve(0, 3, 1);
        let o = DistOracle::from_matrix(&m, Guarantee::mssp(0.5), StorageKind::RowSparse);
        assert_eq!(o.k_nearest(0, 2), vec![(3, 1), (1, 2)]);
        assert_eq!(o.k_nearest(0, 10), vec![(3, 1), (1, 2), (2, 2)]);
        assert_eq!(o.k_nearest(4, 3), vec![], "no frozen estimates");
    }

    #[test]
    fn strength_ordering_prefers_tighter_bounds() {
        let mssp = Guarantee::mssp(0.5);
        let add = Guarantee::near_additive(0.5, 8.0);
        let two = Guarantee::mult2(0.5);
        let three = Guarantee::mult3(0.5);
        assert!(mssp.stronger_than(&add));
        assert!(add.stronger_than(&two));
        assert!(two.stronger_than(&three));
        assert!(Guarantee::mult2(0.25).stronger_than(&two));
        assert!(!two.stronger_than(&two));
    }

    #[test]
    fn unknown_version_reports_unsupported_not_checksum() {
        // A future-format snapshot: valid magic, version 255, arbitrary body
        // whose checksum this build cannot even locate. The old loader
        // verified the checksum first and reported a misleading corruption;
        // version must win.
        let mut future = Vec::new();
        future.extend_from_slice(b"CCDO");
        future.extend_from_slice(&255u16.to_le_bytes());
        future.extend_from_slice(&[0xAB; 32]);
        let err = DistOracle::from_snapshot_bytes(&future).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(255)));
        assert_eq!(err.to_string(), "unsupported snapshot version 255");
        // Every other version over an otherwise valid body (checksum
        // recomputed, so only the version differs): same answer. Versions
        // 1 to 3 are retired formats, 5 the lowest future one.
        let m = sample_matrix(4);
        let o = DistOracle::from_matrix(&m, Guarantee::mult2(0.5), StorageKind::SymmetricPacked);
        let mut body = Vec::new();
        o.save_v2(&mut body).unwrap();
        body.truncate(body.len() - 8);
        for version in [1u16, 2, 3, 5, 255] {
            let mut buf = body.clone();
            buf[4..6].copy_from_slice(&version.to_le_bytes());
            let sum = checksum(&buf);
            buf.extend_from_slice(&sum.to_le_bytes());
            let err = DistOracle::from_snapshot_bytes(&buf).unwrap_err();
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
                "version {version}: {err}"
            );
        }
    }

    #[test]
    fn k_nearest_selection_matches_full_sort_with_ties() {
        // Regression for the select_nth fast path: a row full of equal
        // distances must cut the prefix by (distance, id) — the same answer
        // the old full sort produced — for every k including the tie run.
        let n = 40;
        let mut data = vec![INF; n * n];
        for v in 1..n {
            // Distances 5,5,5,...,5,3,3,2 in scrambled id order.
            let d = match v % 4 {
                0 => 2,
                1 => 3,
                _ => 5,
            };
            data[v] = d;
            data[v * n] = d;
        }
        for i in 0..n {
            data[i * n + i] = 0;
        }
        let o = DistOracle::from_storage(
            DistStorage::row_sparse(n, (0..n as u32).collect::<Vec<_>>(), data),
            Guarantee::mult2(0.5),
        );
        let full: Vec<(u32, Dist)> = {
            let row = o.dists_from(0);
            let mut all: Vec<(u32, Dist)> = row
                .iter()
                .enumerate()
                .filter(|&(v, &d)| v != 0 && d < INF)
                .map(|(v, &d)| (v as u32, d))
                .collect();
            all.sort_unstable_by_key(|&(v, d)| (d, v));
            all
        };
        for k in [0usize, 1, 9, 10, 11, 20, n - 1, n, 2 * n] {
            let got = o.k_nearest(0, k);
            assert_eq!(got, full[..k.min(full.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn with_layout_preserves_answers() {
        let m = sample_matrix(8);
        let o = DistOracle::from_matrix(&m, Guarantee::mult2(0.5), StorageKind::SymmetricPacked);
        for kind in [StorageKind::SymmetricPacked, StorageKind::RowSparse] {
            let converted = o.with_layout(kind);
            assert_eq!(converted.storage_kind(), kind);
            for u in 0..8 {
                for v in 0..8 {
                    assert_eq!(o.dist(u, v), converted.dist(u, v), "{kind:?} ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn with_layout_symmetrizes_disagreeing_source_rows() {
        // Sources 0 and 1 disagree on their mutual pair, as MSSP rows can:
        // row 0 says 9 (tagged mssp), row 1 says 3 (tagged mult2). Packing
        // must keep the minimum of both orientations and that entry's tag,
        // not silently drop one row's view.
        let (mssp, mult2) = (Guarantee::mssp(0.5), Guarantee::mult2(0.5));
        let o = DistOracle {
            storage: DistStorage::row_sparse(3, vec![0, 1], vec![0, 9, 4, 3, 0, 5]),
            guarantees: vec![mssp, mult2],
            tags: Some(vec![0, 0, 0, 1, 1, 1].into()),
            routes: None,
        };
        let sym = o.with_layout(StorageKind::SymmetricPacked);
        let best = PointEstimate {
            dist: 3,
            guarantee: mult2,
        };
        assert_eq!(sym.dist(0, 1), Some(best));
        assert_eq!(sym.dist(1, 0), Some(best));
        assert_eq!(sym.dist(0, 2).unwrap().guarantee, mssp);
        assert_eq!(sym.dist(2, 1).unwrap().guarantee, mult2);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(sym.dist(u, v), o.dist(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn duplicate_source_oracle_round_trips() {
        let g = Guarantee::mssp(0.25);
        let o = DistOracle::from_storage(
            DistStorage::row_sparse(2, vec![0, 0, 1], vec![0, 7, 0, 9, 5, 0]),
            g,
        );
        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();
        let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
        assert_eq!(back, o);
        assert_eq!(back.dist(0, 1).unwrap().dist, 5, "first row wins, then min");
    }

    #[test]
    fn snapshot_v2_round_trips_all_layouts() {
        let m = sample_matrix(9);
        for kind in [StorageKind::SymmetricPacked, StorageKind::RowSparse] {
            let o = DistOracle::from_matrix(&m, Guarantee::mult2(0.5), kind);
            let mut buf = Vec::new();
            o.save_v2(&mut buf).unwrap();
            let back = DistOracle::from_snapshot_bytes(&buf).unwrap();
            assert_eq!(o, back, "{kind:?}");
            if cfg!(target_endian = "little") {
                assert!(back.storage().is_shared(), "{kind:?}: entries are views");
            }
            let mut again = Vec::new();
            back.save_v2(&mut again).unwrap();
            assert_eq!(buf, again, "{kind:?}: v2 re-save must be byte-identical");
        }
    }

    #[test]
    fn snapshot_v2_rejects_corruption_with_typed_errors() {
        let m = sample_matrix(5);
        let o = DistOracle::from_matrix(&m, Guarantee::mssp(0.1), StorageKind::SymmetricPacked);
        let mut buf = Vec::new();
        o.save_v2(&mut buf).unwrap();

        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            DistOracle::from_snapshot_bytes(&flipped),
            Err(SnapshotError::Corrupt(_))
        ));
        for cut in [3, 9, buf.len() / 2, buf.len() - 1] {
            assert!(
                DistOracle::from_snapshot_bytes(&buf[..buf.len() - cut]).is_err(),
                "truncated by {cut}"
            );
        }
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        // Magic is validated before the checksum: the error names the cause.
        assert!(matches!(
            DistOracle::from_snapshot_bytes(&wrong_magic),
            Err(SnapshotError::BadMagic(_))
        ));
        // Garbage that is long enough to carry a magic reports BadMagic;
        // anything shorter is Corrupt.
        assert!(matches!(
            DistOracle::from_snapshot_bytes(b"1234567"),
            Err(SnapshotError::BadMagic(_))
        ));
        assert!(matches!(
            DistOracle::from_snapshot_bytes(b"1234"),
            Err(SnapshotError::Corrupt(_))
        ));
        // Layout byte 0 (no layout since the square table was retired) over
        // an otherwise valid symmetric body, checksum resealed.
        let meta = SnapshotView::parse(owner_from_bytes(&buf), b"CCDO")
            .unwrap()
            .directory()
            .find(|&(id, _, _)| id == SEC_META)
            .map(|(_, off, _)| off)
            .unwrap();
        let mut layout0 = buf[..buf.len() - 8].to_vec();
        layout0[meta] = 0;
        let sum = checksum(&layout0);
        layout0.extend_from_slice(&sum.to_le_bytes());
        match DistOracle::from_snapshot_bytes(&layout0) {
            Err(SnapshotError::Corrupt(msg)) => assert_eq!(msg, "unknown storage kind"),
            other => panic!("layout byte 0: {other:?}"),
        }
    }

    #[test]
    fn bound_formulas() {
        assert_eq!(Guarantee::mult2(0.5).bound(10), 25.0);
        assert_eq!(Guarantee::mult3(0.5).bound(10), 35.0);
        assert_eq!(Guarantee::near_additive(0.25, 4.0).bound(8), 14.0);
        assert_eq!(Guarantee::mssp(0.5).bound(10), 15.0);
    }
}
