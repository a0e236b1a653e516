//! Row-sparse min-plus matrices (Thm 36 of the paper, from \[3, 5\]) in
//! compressed sparse row (CSR) form.

use std::ops::Range;

use cc_graphs::{Dist, Graph, INF};

use crate::workspace::{MinplusWorkspace, Scratch, PACKED_EMPTY};

/// Extracts the witness id from a packed `(dist << 32) | witness`
/// accumulator word — a deliberate low-32-bit extraction, not an index
/// narrowing.
#[inline]
fn packed_witness(packed: u64) -> u32 {
    // cc-analyze: allow(narrowing-cast) — low-32 field extraction by construction.
    packed as u32
}

/// Kernel entries store column/witness ids as `u32`. Every index this
/// narrows is bounded by a matrix dimension whose dense backing already
/// fits in memory, so the conversion is total in practice; debug builds
/// assert it instead of paying a branch on the hot path.
#[inline]
fn small_u32(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "index exceeds u32 wire width");
    // cc-analyze: allow(narrowing-cast) — debug-asserted, bounded by the matrix dimension.
    x as u32
}

/// A row-sparse `n × n` min-plus matrix in CSR form: one contiguous
/// `(column, value)` arena plus row offsets. Each row stores its finite
/// entries sorted by column; missing entries are ∞.
///
/// Matrices are built batched through a [`RowBuilder`]
/// (push-then-sort-dedup-min) or produced by the kernels — there is no
/// per-entry insert path, so construction costs `O(nnz log nnz)` total
/// instead of the `O(nnz · row)` an insert-sorted layout pays.
///
/// The *density* `ρ` of the matrix — the average number of finite entries
/// per row, rounded **up** — drives the round cost of products (Thm 36).
///
/// # Example
///
/// ```
/// use cc_matrix::RowBuilder;
///
/// let mut b = RowBuilder::new(3);
/// b.push(0, 1, 4);
/// b.push(0, 1, 2); // duplicate column: the minimum survives
/// let m = b.build();
/// assert_eq!(m.get(0, 1), 2);
/// assert_eq!(m.get(1, 0), cc_graphs::INF);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SparseMatrix {
    n: usize,
    /// `entries[offsets[i]..offsets[i + 1]]` is row `i`, column-sorted.
    offsets: Vec<usize>,
    /// The contiguous `(column, value)` arena.
    entries: Vec<(u32, Dist)>,
}

/// Batched builder for a [`SparseMatrix`]: entries are pushed in any order
/// and materialized by [`RowBuilder::build`] with one counting sort by row
/// followed by a per-row sort-dedup-min. Pushing is `O(1)`; the build is
/// `O(nnz log ρ + n)`.
///
/// Setting a value of ∞ is a no-op, and duplicate `(row, column)` pushes
/// keep the minimum — the same semantics the old per-entry `set_min` had,
/// without its `O(row)` insertion.
#[derive(Clone, Debug)]
pub struct RowBuilder {
    n: usize,
    triples: Vec<(u32, u32, Dist)>,
}

impl RowBuilder {
    /// An empty builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        RowBuilder {
            n,
            triples: Vec::new(),
        }
    }

    /// An empty builder with arena capacity for `cap` entries.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        RowBuilder {
            n,
            triples: Vec::with_capacity(cap),
        }
    }

    /// Records `entry (i, j) = min(current, v)`; pushing ∞ is a no-op.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: Dist) {
        debug_assert!(i < self.n && j < self.n, "entry ({i},{j}) out of range");
        if v >= INF {
            return;
        }
        self.triples.push((small_u32(i), small_u32(j), v));
    }

    /// Materializes the matrix: counting-sort by row, per-row column sort,
    /// duplicate columns collapsed to their minimum value.
    pub fn build(self) -> SparseMatrix {
        let n = self.n;
        // Pass 1: row counts → start offsets.
        let mut starts = vec![0usize; n + 1];
        for &(i, _, _) in &self.triples {
            starts[i as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        // Pass 2: scatter into row-grouped slots.
        let mut cursor = starts.clone();
        let mut slots: Vec<(u32, Dist)> = vec![(0, 0); self.triples.len()];
        for &(i, j, v) in &self.triples {
            let c = &mut cursor[i as usize];
            slots[*c] = (j, v);
            *c += 1;
        }
        // Per-row sort by (column, value), keep the first (minimal) value
        // per column, compact into the final arena.
        let mut entries = Vec::with_capacity(slots.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for i in 0..n {
            let row = &mut slots[starts[i]..starts[i + 1]];
            row.sort_unstable();
            let mut last = u32::MAX;
            for &(c, v) in row.iter() {
                if c != last {
                    entries.push((c, v));
                    last = c;
                }
            }
            offsets.push(entries.len());
        }
        SparseMatrix {
            n,
            offsets,
            entries,
        }
    }
}

impl SparseMatrix {
    /// Adjacency matrix of an unweighted graph with 0 diagonal: the starting
    /// point of distance-product iterations.
    pub fn adjacency(g: &Graph) -> Self {
        let mut b = RowBuilder::with_capacity(g.n(), g.n() + 2 * g.m());
        for i in 0..g.n() {
            b.push(i, i, 0);
        }
        for (u, v) in g.edges() {
            b.push(u, v, 1);
            b.push(v, u, 1);
        }
        b.build()
    }

    /// Empty matrix whose arena has room for `cap` entries; rows are
    /// appended in order via [`SparseMatrix::push_sorted_row`].
    pub(crate) fn with_row_capacity(n: usize, cap: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        SparseMatrix {
            n,
            offsets,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Appends the next row (must be column-sorted with finite values;
    /// callers append exactly `n` rows total, in row order).
    pub(crate) fn push_sorted_row(&mut self, row: &[(u32, Dist)]) {
        debug_assert!(self.offsets.len() <= self.n, "more than n rows appended");
        debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row not sorted");
        debug_assert!(
            row.iter().all(|&(c, v)| v < INF && (c as usize) < self.n),
            "row entry infinite or out of range"
        );
        self.entries.extend_from_slice(row);
        self.offsets.push(self.entries.len());
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)` (∞ if absent).
    pub fn get(&self, i: usize, j: usize) -> Dist {
        let row = self.row(i);
        match row.binary_search_by_key(&small_u32(j), |&(c, _)| c) {
            Ok(pos) => row[pos].1,
            Err(_) => INF,
        }
    }

    /// The finite entries of row `i`, sorted by column.
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, Dist)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The arena index range of row `i` — parallel arrays (e.g. the witness
    /// arena of [`SparseMatrix::minplus`]) are sliced with it.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Number of finite entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Total finite entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Average finite entries per row (`ρ` of Thm 36), rounded **up** and at
    /// least 1. Ceiling (not floor) division: a matrix with `nnz = 3n − 1`
    /// has ρ = 3 — flooring would under-charge the Thm 36 product cost.
    pub fn density(&self) -> u64 {
        (self.entries.len() as u64)
            .div_ceil(self.n.max(1) as u64)
            .max(1)
    }

    /// Largest finite value in the matrix (0 if empty).
    pub fn max_value(&self) -> Dist {
        self.entries.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Min-plus product `self · other` plus, for every finite output entry,
    /// the **smallest** intermediate index `k` with
    /// `out(i,j) = self(i,k) + other(k,j)` — the classic witness matrix that
    /// turns a distance product into a path product (Censor-Hillel & Paz).
    /// Callers that need only distances drop the witnesses.
    ///
    /// The witnesses come back as a parallel `u32` arena: `witness[e]`
    /// belongs to the output entry at arena index `e`, so the witnesses of
    /// output row `i` are `witness[out.row_range(i)]`.
    ///
    /// `ws` supplies reusable scratch and the thread count: with
    /// `ws.threads() > 1`, output rows are sharded contiguously across
    /// scoped worker threads. Every output row (values *and* witnesses)
    /// depends only on the inputs, so the result is **bit-identical** to
    /// serial execution at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus(
        &self,
        other: &SparseMatrix,
        ws: &mut MinplusWorkspace,
    ) -> (SparseMatrix, Vec<u32>) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        let threads = ws.threads().clamp(1, n.max(1));
        let lanes = ws.lanes(threads, n);
        if threads == 1 {
            return assemble(n, vec![product_rows(self, other, 0..n, &mut lanes[0])]);
        }
        let shard = n.div_ceil(threads);
        let parts: Vec<RowsPart> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(t, lane)| {
                    let rows = (t * shard).min(n)..((t + 1) * shard).min(n);
                    scope.spawn(move || product_rows(self, other, rows, lane))
                })
                .collect();
            handles
                .into_iter()
                // cc-analyze: allow(unwrap-expect) — a panicked worker must propagate, not vanish.
                .map(|h| h.join().expect("min-plus worker panicked"))
                .collect()
        });
        assemble(n, parts)
    }

    /// Transpose, by a two-pass counting sort over columns: `O(nnz + n)`,
    /// no per-row sorting (scattering rows in ascending order leaves each
    /// output row column-sorted).
    pub fn transpose(&self) -> SparseMatrix {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(j, _) in &self.entries {
            offsets[j as usize + 1] += 1;
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let mut cursor = offsets.clone();
        let mut entries: Vec<(u32, Dist)> = vec![(0, 0); self.entries.len()];
        for i in 0..n {
            for &(j, v) in self.row(i) {
                let c = &mut cursor[j as usize];
                entries[*c] = (small_u32(i), v);
                *c += 1;
            }
        }
        SparseMatrix {
            n,
            offsets,
            entries,
        }
    }
}

/// One shard's product output: per-row entry counts, its slice of the
/// entry arena and the parallel witness arena, stitched into a full CSR
/// matrix by [`assemble`].
type RowsPart = (Vec<usize>, Vec<(u32, Dist)>, Vec<u32>);

/// Output rows denser than `n / SCAN_DIVISOR` are emitted by scanning the
/// accumulator (sorted for free, no touched tracking in the inner loop);
/// sparser rows sort their touched-column list instead.
const SCAN_DIVISOR: usize = 8;

/// Computes output rows `rows` of `a · b` with their witnesses. Each row is
/// independent, so any partition of the row space yields bit-identical
/// results.
///
/// The accumulator packs `(value << 32) | k` per cell, so the inner loop
/// stays a single branch-free `min`: smaller values win, and among equal
/// values the smaller `k` wins automatically (the witness specification).
/// Finite entries are `< INF < 2³⁰`, so the raw sum `av + bv` cannot wrap
/// `u32`; candidates whose value reaches ∞ never beat
/// [`PACKED_EMPTY`] and vanish.
fn product_rows(
    a: &SparseMatrix,
    b: &SparseMatrix,
    rows: Range<usize>,
    lane: &mut Scratch,
) -> RowsPart {
    let n = a.n;
    let mut lens = Vec::with_capacity(rows.len());
    // Per-row upper bound on the touched columns — computed once, used both
    // to size the arena and to pick each row's emit path (one predicate, so
    // the sizing and the emit mode cannot drift apart). Scan-mode rows may
    // slide their write cursor across up to n slots; sparse-mode rows emit
    // at most `bound` entries — with the arena sized accordingly, the emit
    // loops below are pure indexed writes: no reallocation, no per-entry
    // capacity branch.
    let bounds: Vec<usize> = rows
        .clone()
        .map(|i| a.row(i).iter().map(|&(k, _)| b.row_nnz(k as usize)).sum())
        .collect();
    let cap: usize = bounds
        .iter()
        .map(|&bound| if bound * SCAN_DIVISOR >= n { n } else { bound })
        .sum();
    let mut out: Vec<(u32, Dist)> = vec![(0, 0); cap];
    let mut wit: Vec<u32> = vec![0; cap];
    let mut w = 0usize; // write cursor into `out` and `wit`
    let pacc = &mut lane.pacc[..n];
    let touched = &mut lane.touched;
    for (i, &bound) in rows.zip(bounds.iter()) {
        let arow = a.row(i);
        let before = w;
        if bound * SCAN_DIVISOR >= n {
            // Dense-ish row: branch-free accumulate, then one ordered scan
            // that emits, resets and advances without a mispredictable
            // branch (finite cells bump the cursor; ∞ slots are overwritten
            // by the next write or truncated at the end).
            for &(k, av) in arow {
                let kbits = k as u64;
                for &(j, bv) in b.row(k as usize) {
                    let cell = &mut pacc[j as usize];
                    *cell = (*cell).min((((av + bv) as u64) << 32) | kbits);
                }
            }
            for j in 0..n {
                let packed = pacc[j];
                pacc[j] = PACKED_EMPTY;
                let v = (packed >> 32) as Dist;
                out[w] = (small_u32(j), v);
                wit[w] = packed_witness(packed);
                w += usize::from(v < INF);
            }
        } else {
            // Sparse row: track first-touched columns, sort once at emit.
            for &(k, av) in arow {
                let kbits = k as u64;
                for &(j, bv) in b.row(k as usize) {
                    let cand = (((av + bv) as u64) << 32) | kbits;
                    let cell = &mut pacc[j as usize];
                    if cand < *cell {
                        if *cell == PACKED_EMPTY {
                            touched.push(j);
                        }
                        *cell = cand;
                    }
                }
            }
            touched.sort_unstable();
            for &j in touched.iter() {
                let packed = pacc[j as usize];
                pacc[j as usize] = PACKED_EMPTY;
                out[w] = (j, (packed >> 32) as Dist);
                wit[w] = packed_witness(packed);
                w += 1;
            }
            touched.clear();
        }
        lens.push(w - before);
    }
    out.truncate(w);
    wit.truncate(w);
    (lens, out, wit)
}

/// Stitches per-shard products (in row order) into one CSR matrix and its
/// witness arena. The serial (single-shard) case moves the arenas instead
/// of copying them.
fn assemble(n: usize, parts: Vec<RowsPart>) -> (SparseMatrix, Vec<u32>) {
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut cum = 0usize;
    let mut entries: Vec<(u32, Dist)> = Vec::new();
    let mut witnesses: Vec<u32> = Vec::new();
    let single = parts.len() == 1;
    if !single {
        let total = parts.iter().map(|(_, e, _)| e.len()).sum();
        entries.reserve_exact(total);
        witnesses.reserve_exact(total);
    }
    for (lens, mut part, mut wit) in parts {
        for len in lens {
            cum += len;
            offsets.push(cum);
        }
        if single {
            entries = part;
            witnesses = wit;
        } else {
            entries.append(&mut part);
            witnesses.append(&mut wit);
        }
    }
    debug_assert_eq!(offsets.len(), n + 1);
    (
        SparseMatrix {
            n,
            offsets,
            entries,
        },
        witnesses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_clique::cost::model;
    use cc_clique::RoundLedger;
    use cc_graphs::{bfs, generators};

    /// `a · b` on a serial one-shot workspace, witnesses dropped.
    fn product(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
        a.minplus(b, &mut MinplusWorkspace::new()).0
    }

    #[test]
    fn builder_roundtrip_with_dedup_min() {
        let mut b = RowBuilder::new(4);
        b.push(1, 2, 7);
        b.push(1, 0, 3);
        b.push(1, 2, 9); // larger duplicate: the minimum survives
        b.push(1, 2, INF); // infinite: no-op
        let m = b.build();
        assert_eq!(m.get(1, 2), 7);
        assert_eq!(m.get(1, 0), 3);
        assert_eq!(m.get(1, 3), INF);
        assert_eq!(m.row(1), &[(0, 3), (2, 7)]);
        assert_eq!(m.row(0), &[]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn sparse_product_matches_dense() {
        let g = generators::gnp(20, 0.2, &mut seeded(8));
        let s = SparseMatrix::adjacency(&g);
        let d = crate::dense::DenseMatrix::adjacency(&g);
        let sp = product(&s, &s);
        let dp = d.minplus(&d);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(sp.get(u, v), dp.get(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn repeated_squaring_reaches_apsp() {
        let g = generators::caveman(3, 4);
        let exact = bfs::apsp_exact(&g);
        let mut a = SparseMatrix::adjacency(&g);
        let mut ws = MinplusWorkspace::new();
        let mut hops = 1;
        while hops < g.n() {
            a = a.minplus(&a, &mut ws).0;
            hops *= 2;
        }
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(a.get(u, v), exact[u][v]);
            }
        }
    }

    #[test]
    fn threaded_product_is_bit_identical() {
        let g = generators::connected_gnp(48, 0.1, &mut seeded(4));
        let a = SparseMatrix::adjacency(&g);
        let serial = a.minplus(&a, &mut MinplusWorkspace::new());
        for threads in [2, 3, 8, 64] {
            let mut ws = MinplusWorkspace::with_threads(threads);
            let par = a.minplus(&a, &mut ws);
            assert_eq!(par, serial, "threads = {threads}");
            // The workspace is reusable: a second product from warm scratch
            // must also agree, values and witnesses.
            assert_eq!(a.minplus(&a, &mut ws), serial);
        }
    }

    /// The witness specification: smallest k with out = a(i,k) + b(k,j).
    fn reference_witness(a: &SparseMatrix, b: &SparseMatrix, i: usize, j: usize, out: Dist) -> u32 {
        for &(k, av) in a.row(i) {
            if let Ok(pos) = b
                .row(k as usize)
                .binary_search_by_key(&small_u32(j), |&(c, _)| c)
            {
                if av + b.row(k as usize)[pos].1 == out {
                    return k;
                }
            }
        }
        panic!("no witness for finite entry ({i},{j})");
    }

    #[test]
    fn witnesses_are_the_smallest_realizing_k() {
        let g = generators::connected_gnp(40, 0.12, &mut seeded(19));
        let a = SparseMatrix::adjacency(&g);
        // Second power too, so both the scan and the sparse emit paths run.
        let mut ws = MinplusWorkspace::new();
        let (p, wp) = a.minplus(&a, &mut ws);
        let (q, wq) = p.minplus(&p, &mut ws);
        for (m, wit, left) in [(&p, &wp, &a), (&q, &wq, &p)] {
            assert_eq!(wit.len(), m.nnz(), "one witness per finite entry");
            for i in 0..m.n() {
                let wrow = &wit[m.row_range(i)];
                for (&(j, v), &k) in m.row(i).iter().zip(wrow) {
                    assert_eq!(
                        k,
                        reference_witness(left, left, i, j as usize, v),
                        "({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn density_tracks_nnz() {
        let g = generators::cycle(10);
        let a = SparseMatrix::adjacency(&g);
        assert_eq!(a.nnz(), 10 * 3); // self + two neighbors
        assert_eq!(a.density(), 3);
    }

    #[test]
    fn density_rounds_up() {
        // nnz = 3n − 1 is ρ = 3 under Thm 36 (ceiling); the old floor
        // division reported 2 and under-charged sparse products.
        let n = 10;
        let mut b = RowBuilder::new(n);
        for i in 0..n {
            for j in 0..3 {
                if !(i == n - 1 && j == 2) {
                    b.push(i, (i + j + 1) % n, 1);
                }
            }
        }
        let m = b.build();
        assert_eq!(m.nnz(), 3 * n - 1);
        assert_eq!(m.density(), 3);
    }

    #[test]
    fn charged_rounds_use_ceiled_density() {
        // Regression pin for the Thm 36 charge at a scale where flooring
        // genuinely under-counts. Left factor: circulant band with offsets
        // 0..10, one entry removed (nnz = 10n − 1, so ρ = 10 ceiled but 9
        // floored). Right factor: stride-10 circulant (ρ = 10). Offset sums
        // o₁ + 10·o₂ cover every residue mod 100, so the product is
        // (almost) full and ρ_out = 100. Charged as the pipelines charge a
        // product: from the factors' and the output's densities.
        let n = 100;
        let mut ab = RowBuilder::new(n);
        for i in 0..n {
            for o in 0..10 {
                if !(i == n - 1 && o == 9) {
                    ab.push(i, (i + o) % n, 1);
                }
            }
        }
        let a = ab.build();
        let mut bb = RowBuilder::new(n);
        for i in 0..n {
            for o in 0..10 {
                bb.push(i, (i + 10 * o) % n, 1);
            }
        }
        let b = bb.build();
        assert_eq!(a.nnz(), 10 * n - 1);
        assert_eq!((a.density(), b.density()), (10, 10));
        let out = product(&a, &b);
        assert_eq!(out.density(), 100);
        let mut ledger = RoundLedger::new(n);
        ledger.charge_sparse_minplus("band × stride", a.density(), b.density(), out.density());
        let charged = ledger.total_rounds();
        assert_eq!(charged, model::sparse_minplus(10, 10, 100, n as u64));
        // The old floored left density (ρ = 9) charged strictly fewer
        // rounds — exactly the under-count this pins against.
        assert!(model::sparse_minplus(9, 10, 100, n as u64) < charged);

        // A sparse constant-degree product is O(1) rounds.
        let c = SparseMatrix::adjacency(&generators::cycle(64));
        let sq = product(&c, &c);
        let mut ledger = RoundLedger::new(64);
        ledger.charge_sparse_minplus("sq", c.density(), c.density(), sq.density());
        assert!(ledger.total_rounds() <= 3);
    }

    #[test]
    fn transpose_involutive_and_symmetric_fixed() {
        let g = generators::grid(3, 3);
        let a = SparseMatrix::adjacency(&g);
        // Adjacency of an undirected graph is symmetric.
        assert_eq!(a.transpose(), a);
        let mut b = RowBuilder::new(3);
        b.push(0, 2, 5);
        let m = b.build();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 5);
        assert_eq!(t.get(0, 2), INF);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn max_value_reflects_entries() {
        let g = generators::path(5);
        let a = SparseMatrix::adjacency(&g);
        assert_eq!(a.max_value(), 1);
        let mut b = RowBuilder::new(5);
        b.push(0, 1, 1);
        b.push(0, 4, 9);
        assert_eq!(b.build().max_value(), 9);
    }

    #[test]
    fn identity_is_neutral_for_products() {
        let g = generators::grid(4, 3);
        let a = SparseMatrix::adjacency(&g);
        let mut b = RowBuilder::new(g.n());
        for i in 0..g.n() {
            b.push(i, i, 0);
        }
        let id = b.build();
        assert_eq!(product(&a, &id), a);
        assert_eq!(product(&id, &a), a);
    }

    fn seeded(s: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
