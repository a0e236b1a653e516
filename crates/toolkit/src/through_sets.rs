//! The distance-through-sets problem (Thm 35 of the paper, from \[3\]).
//!
//! Every vertex `v` holds a set `W_v` and distance estimates `δ(v, w)` for
//! `w ∈ W_v`. The task: for every ordered pair `(u, v)`, compute
//! `min_{w ∈ W_u ∩ W_v} (δ(u,w) + δ(w,v))`.
//!
//! Round cost: `O(ρ^{2/3}/n^{1/3} + 1)` where `ρ` is the average set size —
//! constant for `ρ = O(√n)`, which is how the APSP algorithms use it
//! (`W_v = S` for a hitting set `S` of size `O(√n)`, or `W_v = N_{k,t}(v)`).

use cc_clique::RoundLedger;
use cc_graphs::dijkstra::sharded;
use cc_graphs::{Dist, INF};

/// The strict lowerings one row of [`lower_rows`] made: `(v, w)` with the
/// smallest realizing `w`, in ascending `v`.
pub type RowWitnesses = Vec<(u32, u32)>;

/// Solves distance-through-sets over the estimate table `rows` (`rows[u][v]
/// = δ(u,v)`) in place: every row `u` is lowered to `min_{w ∈ W_u ∩ W_v}
/// (δ(u,w) + δ(w,v))` per column `v ≠ u`, with the estimates as they stand
/// when the call begins. Charges the Thm 35 round cost to `ledger`.
/// Vertices may share one set: `sets` holds anything that views as a
/// slice, so `n` references to one slice stand for `W_v = S`.
///
/// The gather reads `δ(v,w)` for every `w ∈ W_v` (infinite estimates are
/// dropped) into one table of every midpoint's members, in ascending `v`.
/// The row kernel then shards the rows over `threads` workers (contiguous
/// runs, [`sharded`]). Each row first reads its own `δ(u,w)`, `w ∈ W_u`,
/// which no other row writes, then takes for every such `w` and every
/// member `(v, δ(w,v))` the `min` of its entry and the sum. Estimates are
/// below [`INF`] `= u32::MAX / 4`, so a plain sum cannot overflow, and its
/// `min` with the row equals the saturating [`dadd`](cc_graphs::dadd)
/// candidate; the loop is branch-free. A row reads only the gathered table
/// and writes only itself, so the rows are bit-identical at any thread
/// count, and row `u` and row `v` see the same candidates for their pair,
/// so a symmetric table stays symmetric.
///
/// With `record`, returns per row `u` the pairs `(v, w)`, `v > u`, that it
/// strictly lowered, with the smallest `w` realizing the new value: the
/// witness lane callers recording routes read. In the model the witness
/// ids ride the same messages as the sums, so the one charge covers both.
/// Without `record` every list is empty.
///
/// # Panics
///
/// Panics if `sets` or `rows` does not hold one entry per vertex, or a set
/// contains an element `≥ n`.
pub fn lower_rows<S: AsRef<[usize]> + Sync>(
    sets: &[S],
    rows: &mut [&mut [Dist]],
    threads: usize,
    record: bool,
    ledger: &mut RoundLedger,
) -> Vec<RowWitnesses> {
    let n = rows.len();
    assert_eq!(sets.len(), n, "one set per vertex required");
    charge(sets, ledger);
    let members = Members::gather(sets, rows);
    let mut items: Vec<(&mut [Dist], RowWitnesses)> = rows
        .iter_mut()
        .map(|row| (&mut **row, Vec::new()))
        .collect();
    let new_scratch = || RowScratch::new(if record { n } else { 0 });
    sharded(
        &mut items,
        threads,
        new_scratch,
        |scratch, u, (row, out)| {
            scratch.own.clear();
            scratch.own.extend(
                sets[u]
                    .as_ref()
                    .iter()
                    .map(|&w| (w as u32, row[w]))
                    .filter(|&(_, d)| d < INF),
            );
            let diagonal = row[u];
            if record {
                scratch.before.copy_from_slice(row);
            }
            for &(w, du) in &scratch.own {
                for &(v, dv) in members.of(w as usize) {
                    let entry = &mut row[v as usize];
                    *entry = (*entry).min(du + dv);
                }
            }
            row[u] = diagonal;
            if record {
                scratch.witnesses(&members, u, row, out);
            }
        },
    );
    items.into_iter().map(|(_, out)| out).collect()
}

/// Charges the Thm 35 round cost of `sets` (one per vertex) to `ledger`.
fn charge<S: AsRef<[usize]>>(sets: &[S], ledger: &mut RoundLedger) {
    let total: usize = sets.iter().map(|s| s.as_ref().len()).sum();
    let rho = (total as u64 / sets.len().max(1) as u64).max(1);
    ledger.charge_through_sets("distance through sets", rho);
}

/// Per midpoint `w`, `(v, δ(v, w))` for every `v` whose set holds `w` with a
/// finite estimate, in ascending `v`, in one allocation.
struct Members {
    start: Vec<usize>,
    items: Vec<(u32, Dist)>,
}

impl Members {
    fn gather<S: AsRef<[usize]>>(sets: &[S], rows: &[&mut [Dist]]) -> Self {
        let n = rows.len();
        let finite = || {
            sets.iter().enumerate().flat_map(|(v, set)| {
                set.as_ref().iter().filter_map(move |&w| {
                    assert!(w < n, "set element {w} out of range");
                    let d = rows[v][w];
                    (d < INF).then_some((v as u32, w, d))
                })
            })
        };
        let mut start = vec![0usize; n + 1];
        for (_, w, _) in finite() {
            start[w + 1] += 1;
        }
        for w in 0..n {
            start[w + 1] += start[w];
        }
        let mut next = start.clone();
        let mut items = vec![(0, 0); start[n]];
        for (v, w, d) in finite() {
            items[next[w]] = (v, d);
            next[w] += 1;
        }
        Members { start, items }
    }

    fn of(&self, w: usize) -> &[(u32, Dist)] {
        &self.items[self.start[w]..self.start[w + 1]]
    }
}

/// One worker's scratch for [`lower_rows`]: the row's own `(w, δ(u,w))`,
/// and, when recording, the row as it was before the kernel lowered it and
/// per column the smallest midpoint whose candidate equals the lowered
/// value.
struct RowScratch {
    own: Vec<(u32, Dist)>,
    before: Vec<Dist>,
    witness: Vec<u32>,
}

impl RowScratch {
    fn new(record_n: usize) -> Self {
        RowScratch {
            own: Vec::new(),
            before: vec![INF; record_n],
            witness: vec![u32::MAX; record_n],
        }
    }

    /// Lists `(v, w)` for every column `v > u` that row `u` strictly
    /// lowered, with the smallest `w` realizing its final value, by a
    /// second pass over the row's candidates, which a row that lowered no
    /// such column skips. Both passes are branch-free, as the kernel's
    /// `min`s are.
    fn witnesses(&mut self, members: &Members, u: usize, row: &[Dist], out: &mut RowWitnesses) {
        let lowered = |v: &usize| row[*v] < self.before[*v];
        if !(u + 1..row.len()).any(|v| lowered(&v)) {
            return;
        }
        self.witness.fill(u32::MAX);
        for &(w, du) in &self.own {
            for &(v, dv) in members.of(w as usize) {
                let slot = &mut self.witness[v as usize];
                let hit = if du + dv == row[v as usize] {
                    w
                } else {
                    u32::MAX
                };
                *slot = (*slot).min(hit);
            }
        }
        out.extend(
            (u + 1..row.len())
                .filter(lowered)
                .map(|v| (v as u32, self.witness[v])),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, dadd, generators};
    use rand::{Rng, SeedableRng};

    /// Lowers the estimate table `est` through the row kernel on `threads`
    /// workers, and returns it with the witness lane (`u32::MAX` where no
    /// candidate lowered the pair, on the diagonal and below it).
    fn solve(
        est: &[Vec<Dist>],
        sets: &[Vec<usize>],
        threads: usize,
        ledger: &mut RoundLedger,
    ) -> (Vec<Vec<Dist>>, Vec<Vec<u32>>) {
        let n = est.len();
        let mut out = est.to_vec();
        let mut rows: Vec<&mut [Dist]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        let lowered = lower_rows(sets, &mut rows, threads, true, ledger);
        let mut wit = vec![vec![u32::MAX; n]; n];
        for (u, list) in lowered.iter().enumerate() {
            for &(v, w) in list {
                wit[u][v as usize] = w;
            }
        }
        (out, wit)
    }

    fn random_sets(n: usize, max: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        (0..n)
            .map(|_| {
                let mut s: Vec<usize> = (0..rng.gen_range(1..max))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    }

    /// A random symmetric estimate table with a zero diagonal, infinite
    /// and near-infinite entries.
    fn random_symmetric(n: usize, rng: &mut impl Rng) -> Vec<Vec<Dist>> {
        let mut m = vec![vec![INF; n]; n];
        for u in 0..n {
            m[u][u] = 0;
            for v in u + 1..n {
                let d = match rng.gen_range(0..8) {
                    0 | 1 => INF,
                    2 => INF - 1 - rng.gen_range(0..4u32),
                    _ => rng.gen_range(1..40),
                };
                m[u][v] = d;
                m[v][u] = d;
            }
        }
        m
    }

    #[test]
    fn through_single_shared_vertex() {
        // W_0 = W_2 = {1}; δ taken from the path 0-1-2, with δ(0,2) unknown.
        let g = generators::path(3);
        let mut est = bfs::apsp_exact(&g);
        (est[0][2], est[2][0]) = (INF, INF);
        let sets = vec![vec![1], vec![1], vec![1]];
        let mut ledger = RoundLedger::new(3);
        let (out, wit) = solve(&est, &sets, 1, &mut ledger);
        assert_eq!((out[0][2], out[2][0], wit[0][2]), (2, 2, 1));
        assert_eq!(out[0][0], 0);
    }

    #[test]
    fn empty_intersection_gives_inf() {
        let sets = vec![vec![0], vec![1], vec![]];
        let est = vec![vec![0, INF, INF], vec![INF, 0, INF], vec![INF, INF, 0]];
        let mut ledger = RoundLedger::new(3);
        let (out, _) = solve(&est, &sets, 1, &mut ledger);
        assert_eq!(out, est);
    }

    /// The row kernel lowering an estimate table in place, against a brute
    /// force per pair: the minimum of the pair's estimate and the
    /// candidates over `W_u ∩ W_v`, the smallest realizing `w` as the
    /// witness of a lowered pair, and the same table and witnesses at 1–3
    /// workers. The estimates are random and symmetric, with infinite and
    /// near-infinite legs (whose sums saturate), and sets that often hold
    /// `u` or `v` themselves.
    #[test]
    fn row_kernel_matches_the_pairwise_minimum() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for n in [1usize, 2, 7, 24, 33] {
            for _ in 0..6 {
                let est = random_symmetric(n, &mut rng);
                let mut sets = random_sets(n, 6, &mut rng);
                for (u, set) in sets.iter_mut().enumerate() {
                    if rng.gen_bool(0.3) {
                        set.push(u);
                    }
                }
                let via = |u: usize, v: usize, w: usize| {
                    if sets[u].contains(&w) && sets[v].contains(&w) {
                        dadd(est[u][w], est[w][v])
                    } else {
                        INF
                    }
                };
                let mut serial = None;
                for threads in 1..=3 {
                    let mut table = est.clone();
                    let mut rows: Vec<&mut [Dist]> =
                        table.iter_mut().map(Vec::as_mut_slice).collect();
                    let lowered =
                        lower_rows(&sets, &mut rows, threads, true, &mut RoundLedger::new(n));
                    for u in 0..n {
                        let mut listed = lowered[u].iter().peekable();
                        for v in 0..n {
                            let best = (0..n).map(|w| via(u, v, w)).min().unwrap_or(INF);
                            let want = if u == v { 0 } else { est[u][v].min(best) };
                            assert_eq!(table[u][v], want, "n={n} ({u},{v})");
                            if u >= v {
                                continue;
                            }
                            let first = (0..n).find(|&w| best < est[u][v] && via(u, v, w) == best);
                            let got = listed.next_if(|&&(x, _)| x as usize == v).map(|&(_, w)| w);
                            assert_eq!(got, first.map(|w| w as u32), "n={n} ({u},{v})");
                        }
                        assert!(listed.next().is_none(), "n={n}: row {u} lists only v > u");
                    }
                    let run = (table, lowered);
                    match &serial {
                        None => serial = Some(run),
                        Some(s) => assert_eq!(&run, s, "n={n} threads={threads}"),
                    }
                }
            }
        }
    }

    /// Without `record` the rows are the same and no witness is listed.
    #[test]
    fn unrecorded_rows_match_recorded_ones() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 20;
        let est = random_symmetric(n, &mut rng);
        let sets = random_sets(n, 5, &mut rng);
        let mut tables = [est.clone(), est.clone()];
        let mut lists = Vec::new();
        for (table, record) in tables.iter_mut().zip([true, false]) {
            let mut rows: Vec<&mut [Dist]> = table.iter_mut().map(Vec::as_mut_slice).collect();
            lists.push(lower_rows(
                &sets,
                &mut rows,
                2,
                record,
                &mut RoundLedger::new(n),
            ));
        }
        assert_eq!(tables[0], tables[1]);
        assert!(
            lists[0].iter().any(|l| !l.is_empty()),
            "some pair is lowered"
        );
        assert!(lists[1].iter().all(Vec::is_empty));
    }

    #[test]
    fn infinite_estimates_are_skipped() {
        let sets = vec![vec![1], vec![1]];
        let est = vec![vec![0, INF], vec![INF, 0]];
        let mut ledger = RoundLedger::new(2);
        let (out, _) = solve(&est, &sets, 1, &mut ledger);
        assert_eq!(out[0][1], INF);
    }

    /// Every vertex sharing one set, passed as `n` references to one slice.
    #[test]
    fn shared_set_is_passed_by_reference() {
        let g = generators::cycle(12);
        let exact = bfs::apsp_exact(&g);
        // Only the distances to the set are known.
        let shared = [0usize, 4, 8];
        let mut table = vec![vec![INF; 12]; 12];
        for u in 0..12 {
            table[u][u] = 0;
            for &w in &shared {
                (table[u][w], table[w][u]) = (exact[u][w], exact[w][u]);
            }
        }
        let sets = vec![&shared[..]; 12];
        let mut rows: Vec<&mut [Dist]> = table.iter_mut().map(Vec::as_mut_slice).collect();
        lower_rows(&sets, &mut rows, 2, false, &mut RoundLedger::new(12));
        // 1 and 3 meet at 0 or 4 (distance 1 + 3 or 3 + 1).
        assert_eq!(table[1][3], 4);
        assert_eq!(table[2][6], 4, "through 4 exactly");
    }

    #[test]
    fn constant_rounds_for_sqrt_sets() {
        let n = 4096;
        let sets: Vec<Vec<usize>> = (0..n).map(|v| vec![v % 64]).collect();
        let mut ledger = RoundLedger::new(n);
        charge(&sets, &mut ledger);
        assert!(ledger.total_rounds() <= 2);
    }

    #[test]
    #[should_panic(expected = "one set per vertex")]
    fn wrong_set_count_panics() {
        let mut table = vec![vec![0; 3]; 3];
        let mut rows: Vec<&mut [Dist]> = table.iter_mut().map(Vec::as_mut_slice).collect();
        let _ = lower_rows(&[vec![]], &mut rows, 1, false, &mut RoundLedger::new(3));
    }
}
