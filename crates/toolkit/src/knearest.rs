//! The `(k,d)`-nearest problem (Thm 10 of the paper).
//!
//! Every vertex learns the distances to its `k` closest vertices among those
//! within distance `d` (all of them if fewer than `k`). The distributed
//! implementation iterates filtered min-plus squaring (Appendix B.2,
//! Claim 59) for `⌈log₂ d⌉` iterations, giving
//! `O((k/n^{2/3} + log d)·log d)` rounds.

use cc_clique::{cost::model, RoundLedger};
use cc_graphs::{bfs, Dist, Graph, INF};
use cc_matrix::filtered::knearest_matrix;
use cc_matrix::MinplusWorkspace;
use cc_routes::{RecId, RouteArena};

/// How to compute the `(k,d)`-nearest sets.
///
/// Both strategies compute *exactly the same object* (verified by tests) and
/// charge the same Thm 10 round cost; they differ only in centralized
/// compute time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Iterated filtered min-plus squaring — the literal distributed
    /// algorithm of Appendix B.2.
    Filtered,
    /// Per-vertex truncated BFS — the fast centralized equivalent
    /// (Claim 59 proves the filtered iteration computes the truncated-BFS
    /// object).
    #[default]
    TruncatedBfs,
}

/// The `(k,d)`-nearest sets of every vertex.
///
/// Lists are sorted by `(distance, vertex id)` and include the vertex itself
/// at distance 0.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KNearest {
    k: usize,
    d: Dist,
    lists: Vec<Vec<(u32, Dist)>>,
    /// Per-entry predecessors (see [`KNearest::with_parents`]), aligned
    /// with `lists`: the position of the entry's predecessor in the same
    /// list (the root entry holds its own position).
    parents: Option<Vec<Vec<u32>>>,
}

impl KNearest {
    /// Solves the `(k,d)`-nearest problem on `g`, charging the Thm 10 cost
    /// `O((k/n^{2/3} + log d)·log d)` to `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn compute(
        g: &Graph,
        k: usize,
        d: Dist,
        strategy: Strategy,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::compute_with(g, k, d, strategy, 1, ledger)
    }

    /// [`KNearest::compute`] on `threads` worker threads (`0` and `1` both
    /// mean serial). Per-vertex truncated BFS runs are independent and the
    /// filtered squaring shards output rows, so the computed object — and
    /// the rounds charged — are **identical** at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn compute_with(
        g: &Graph,
        k: usize,
        d: Dist,
        strategy: Strategy,
        threads: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        let n = g.n();
        Self::charge(n, k, d, ledger);
        let threads = threads.clamp(1, n.max(1));
        let lists: Vec<Vec<(u32, Dist)>> = match strategy {
            Strategy::TruncatedBfs if threads <= 1 => {
                let mut scratch = bfs::KNearestBfs::new(n);
                (0..n).map(|v| scratch.run(g, v, k, d)).collect()
            }
            Strategy::TruncatedBfs => {
                let shard = n.div_ceil(threads);
                let chunks: Vec<Vec<Vec<(u32, Dist)>>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let lo = (t * shard).min(n);
                            let hi = ((t + 1) * shard).min(n);
                            scope.spawn(move || {
                                let mut scratch = bfs::KNearestBfs::new(n);
                                (lo..hi).map(|v| scratch.run(g, v, k, d)).collect()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("knearest worker panicked"))
                        .collect()
                });
                chunks.into_iter().flatten().collect()
            }
            Strategy::Filtered => {
                // The per-product charges of the matrix path are replaced by
                // the single Thm 10 aggregate above, so use a scratch ledger.
                let mut scratch = RoundLedger::new(n);
                let mut ws = MinplusWorkspace::with_threads(threads);
                let m = knearest_matrix(g, k, d, &mut ws, &mut scratch);
                (0..n)
                    .map(|v| {
                        let mut row: Vec<(u32, Dist)> = m.row(v).to_vec();
                        row.sort_unstable_by_key(|&(c, dist)| (dist, c));
                        row
                    })
                    .collect()
            }
        };
        KNearest {
            k,
            d,
            lists,
            parents: None,
        }
    }

    /// Derives, for every list entry, the **predecessor** of the entry's
    /// vertex on a shortest path from the list's root: the smallest-id
    /// neighbor at distance `d − 1`. This is the witness that turns every
    /// exact `(k,d)`-nearest distance into a reconstructible path
    /// (`DESIGN.md` §8.1): the predecessor is itself a list entry (everything
    /// strictly closer than an entry precedes it in the `(distance, id)`
    /// order), so parent chains stay inside the list until they reach the
    /// root. Each predecessor is kept as its position in the list, so
    /// [`KNearest::route_recs`] reaches it without a search.
    ///
    /// Purely local post-processing on the already-computed object — no
    /// rounds, identical lists, works for either [`Strategy`] — so recording
    /// paths never changes what was computed or charged.
    #[must_use]
    pub fn with_parents(mut self, g: &Graph) -> Self {
        let n = g.n();
        let mut dist_of: Vec<Dist> = vec![INF; n];
        // The list position of each entry, read only where `dist_of` is set.
        let mut pos_of: Vec<u32> = vec![0; n];
        let mut parents = Vec::with_capacity(self.lists.len());
        for (v, list) in self.lists.iter().enumerate() {
            for (i, &(u, du)) in list.iter().enumerate() {
                dist_of[u as usize] = du;
                pos_of[u as usize] = i as u32;
            }
            let row = list
                .iter()
                .enumerate()
                .map(|(i, &(u, du))| {
                    if u as usize == v {
                        return i as u32;
                    }
                    let p = g
                        .neighbors(u as usize)
                        .iter()
                        .copied()
                        .find(|&w| dist_of[w as usize] + 1 == du)
                        .expect("every non-root entry has an in-list predecessor");
                    pos_of[p as usize]
                })
                .collect();
            for &(u, _) in list {
                dist_of[u as usize] = INF;
            }
            parents.push(row);
        }
        self.parents = Some(parents);
        self
    }

    /// `true` once [`KNearest::with_parents`] has run.
    pub fn has_parents(&self) -> bool {
        self.parents.is_some()
    }

    /// Interns, for every entry of `v`'s list, the shortest path from `v` to
    /// the entry as a record in `arena` (`None` for the root entry itself).
    /// Parent chains share structure: each record extends the predecessor's
    /// record by one `G` edge.
    ///
    /// # Panics
    ///
    /// Panics if [`KNearest::with_parents`] has not run.
    pub fn route_recs(&self, v: usize, arena: &mut RouteArena) -> Vec<Option<RecId>> {
        let parents = self
            .parents
            .as_ref()
            .expect("route_recs requires with_parents");
        let list = &self.lists[v];
        let prow = &parents[v];
        let mut recs: Vec<Option<RecId>> = Vec::with_capacity(list.len());
        for (i, &(u, du)) in list.iter().enumerate() {
            if u as usize == v {
                recs.push(None);
                continue;
            }
            // The predecessor sits earlier in the (distance, id)-sorted list.
            let pidx = prow[i] as usize;
            let p = list[pidx].0;
            let hop = arena.edge(p, u);
            if du == 1 {
                debug_assert_eq!(p as usize, v);
                recs.push(Some(hop));
                continue;
            }
            let prefix = recs[pidx].expect("predecessor record interned earlier");
            recs.push(Some(arena.cat(prefix, hop)));
        }
        recs
    }

    /// The lists cut at distance `d ≤ self.d()`: exactly the `(k, d)`-nearest
    /// lists, parents included, because each list is the `(distance, id)`
    /// prefix of its ball and cutting keeps the prefix of the smaller ball.
    /// `None` when no entry lies beyond `d`, so the lists are already the
    /// answer.
    pub(crate) fn cut(&self, d: Dist) -> Option<KNearest> {
        debug_assert!(d <= self.d, "a cut cannot extend the lists");
        let keep = |list: &[(u32, Dist)]| list.partition_point(|&(_, x)| x <= d);
        if self.lists.iter().all(|list| keep(list) == list.len()) {
            return None;
        }
        let parents = self.parents.as_ref().map(|parents| {
            parents
                .iter()
                .zip(&self.lists)
                .map(|(row, list)| row[..keep(list)].to_vec())
                .collect()
        });
        Some(KNearest {
            k: self.k,
            d,
            lists: self
                .lists
                .iter()
                .map(|list| list[..keep(list)].to_vec())
                .collect(),
            parents,
        })
    }

    /// `true` if every list holds `k` entries: then a larger `d` finds the
    /// same lists.
    pub(crate) fn all_full(&self) -> bool {
        self.lists.iter().all(|list| list.len() >= self.k)
    }

    /// Charges the Thm 10 cost of one `(k,d)`-nearest computation on `n`
    /// vertices.
    pub(crate) fn charge(n: usize, k: usize, d: Dist, ledger: &mut RoundLedger) {
        ledger.charge("(k,d)-nearest", Self::rounds(n, k, d));
    }

    /// The Thm 10 round formula.
    pub fn rounds(n: usize, k: usize, d: Dist) -> u64 {
        let logd = model::log2_ceil(d.max(2) as u64);
        let k_term = (k as f64 / (n.max(1) as f64).powf(2.0 / 3.0)).ceil() as u64;
        (k_term + logd) * logd.max(1)
    }

    /// The `k` requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The distance bound `d`.
    pub fn d(&self) -> Dist {
        self.d
    }

    /// The `(k,d)`-nearest list of `v`, sorted by `(distance, id)`,
    /// including `v` itself at distance 0.
    pub fn list(&self, v: usize) -> &[(u32, Dist)] {
        &self.lists[v]
    }

    /// Distance from `v` to `u` if `u` is among the `(k,d)`-nearest of `v`.
    pub fn dist(&self, v: usize, u: usize) -> Option<Dist> {
        self.lists[v]
            .iter()
            .find(|&&(c, _)| c as usize == u)
            .map(|&(_, dist)| dist)
    }

    /// The farthest distance in `v`'s list (0 if the list is only `v`).
    pub fn radius(&self, v: usize) -> Dist {
        self.lists[v].last().map_or(0, |&(_, dist)| dist)
    }

    /// The full lists (`k` entries) as vertex sets, in vertex order: exactly
    /// the sets a pivot set must hit so that every vertex whose list stops
    /// short of its `d`-ball has a pivot among its nearest.
    pub fn full_sets(&self) -> Vec<Vec<usize>> {
        self.lists
            .iter()
            .filter(|list| list.len() >= self.k)
            .map(|list| list.iter().map(|&(c, _)| c as usize).collect())
            .collect()
    }

    /// The closest member of `targets` (given as a boolean mask) in `v`'s
    /// list, with its distance — ties broken by `(distance, id)` order.
    pub fn nearest_in(&self, v: usize, targets: &[bool]) -> Option<(u32, Dist)> {
        self.lists[v]
            .iter()
            .find(|&&(c, _)| targets[c as usize])
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::generators;

    #[test]
    fn strategies_agree() {
        let mut rng = seeded(31);
        for (name, g) in [
            ("grid", generators::grid(5, 5)),
            ("caveman", generators::caveman(4, 5)),
            ("gnp", generators::connected_gnp(40, 0.07, &mut rng)),
        ] {
            for (k, d) in [(4usize, 3u32), (9, 6), (60, 2)] {
                let mut l1 = RoundLedger::new(g.n());
                let mut l2 = RoundLedger::new(g.n());
                let a = KNearest::compute(&g, k, d, Strategy::TruncatedBfs, &mut l1);
                let b = KNearest::compute(&g, k, d, Strategy::Filtered, &mut l2);
                assert_eq!(a, b, "{name} k={k} d={d}");
                assert_eq!(l1.total_rounds(), l2.total_rounds());
            }
        }
    }

    #[test]
    fn lists_are_sorted_and_self_rooted() {
        let g = generators::grid(4, 4);
        let mut ledger = RoundLedger::new(g.n());
        let kn = KNearest::compute(&g, 6, 4, Strategy::TruncatedBfs, &mut ledger);
        for v in 0..g.n() {
            let list = kn.list(v);
            assert_eq!(list[0], (v as u32, 0));
            assert!(list.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
            assert!(list.len() <= 6);
        }
    }

    #[test]
    fn lists_truncate_at_k_or_cover_the_ball() {
        let g = generators::path(10);
        let mut ledger = RoundLedger::new(10);
        // d = 1: the ball of an interior vertex has 3 members < k = 5.
        let kn = KNearest::compute(&g, 5, 1, Strategy::TruncatedBfs, &mut ledger);
        assert_eq!(kn.list(5).len(), 3);
        // d = 4: the ball of an interior vertex has 9 members ≥ k = 5.
        let kn = KNearest::compute(&g, 5, 4, Strategy::TruncatedBfs, &mut ledger);
        assert_eq!(kn.list(5).len(), 5);
    }

    #[test]
    fn dist_and_radius_queries() {
        let g = generators::cycle(8);
        let mut ledger = RoundLedger::new(8);
        let kn = KNearest::compute(&g, 5, 2, Strategy::TruncatedBfs, &mut ledger);
        assert_eq!(kn.dist(0, 2), Some(2));
        assert_eq!(kn.dist(0, 4), None);
        assert_eq!(kn.radius(0), 2);
    }

    #[test]
    fn nearest_in_respects_order() {
        let g = generators::path(8);
        let mut ledger = RoundLedger::new(8);
        let kn = KNearest::compute(&g, 8, 7, Strategy::TruncatedBfs, &mut ledger);
        let mut mask = vec![false; 8];
        mask[6] = true;
        mask[2] = true;
        // From vertex 3: distance 1 to 2, distance 3 to 6.
        assert_eq!(kn.nearest_in(3, &mask), Some((2, 1)));
        let empty = vec![false; 8];
        assert_eq!(kn.nearest_in(3, &empty), None);
    }

    #[test]
    fn threaded_compute_is_identical() {
        let mut rng = seeded(47);
        let g = generators::connected_gnp(40, 0.08, &mut rng);
        for strategy in [Strategy::TruncatedBfs, Strategy::Filtered] {
            let mut l0 = RoundLedger::new(g.n());
            let serial = KNearest::compute(&g, 7, 5, strategy, &mut l0);
            for threads in [2, 3, 64] {
                let mut l1 = RoundLedger::new(g.n());
                let par = KNearest::compute_with(&g, 7, 5, strategy, threads, &mut l1);
                assert_eq!(par, serial, "{strategy:?} threads={threads}");
                assert_eq!(l0.total_rounds(), l1.total_rounds());
            }
        }
    }

    #[test]
    fn parents_are_in_list_predecessors() {
        let mut rng = seeded(9);
        let g = generators::connected_gnp(36, 0.1, &mut rng);
        let mut ledger = RoundLedger::new(g.n());
        let plain = KNearest::compute(&g, 8, 5, Strategy::TruncatedBfs, &mut ledger);
        let kn = plain.clone().with_parents(&g);
        assert!(kn.has_parents() && !plain.has_parents());
        for v in 0..g.n() {
            assert_eq!(kn.list(v), plain.list(v), "parents must not change lists");
            let list = kn.list(v);
            for (i, &(u, du)) in list.iter().enumerate() {
                let pos = kn.parents.as_ref().unwrap()[v][i] as usize;
                let p = list[pos].0;
                if u as usize == v {
                    assert_eq!(pos, i, "the root is its own predecessor");
                    continue;
                }
                assert!(pos < i, "the predecessor precedes its entry");
                assert!(g.has_edge(p as usize, u as usize), "parent is a neighbor");
                assert_eq!(kn.dist(v, p as usize), Some(du - 1), "parent is closer");
            }
        }
    }

    #[test]
    fn route_recs_expand_to_shortest_paths() {
        use cc_routes::RouteArena;
        let g = generators::caveman(4, 5);
        let mut ledger = RoundLedger::new(g.n());
        let kn = KNearest::compute(&g, 9, 6, Strategy::TruncatedBfs, &mut ledger).with_parents(&g);
        let mut arena = RouteArena::new();
        for v in 0..g.n() {
            let recs = kn.route_recs(v, &mut arena);
            for (&(u, du), rec) in kn.list(v).iter().zip(&recs) {
                if u as usize == v {
                    assert!(rec.is_none());
                    continue;
                }
                let rec = rec.expect("non-root entries carry a record");
                assert_eq!(arena.len_of(rec), du, "record length = exact distance");
                let edges = arena.emit(rec, false);
                assert_eq!(edges[0].0 as usize, v);
                assert_eq!(edges[edges.len() - 1].1, u);
                for win in edges.windows(2) {
                    assert_eq!(win[0].1, win[1].0, "consecutive edges chain");
                }
                for &(x, y) in &edges {
                    assert!(g.has_edge(x as usize, y as usize), "real G edge");
                }
            }
        }
    }

    /// Cutting `(k, d₀)` lists at `d ≤ d₀` gives the `(k, d)` lists and
    /// their parents; a cut that drops nothing returns `None`.
    #[test]
    fn cut_equals_a_fresh_computation() {
        let mut rng = seeded(12);
        for (name, g) in [
            ("cycle", generators::cycle(30)),
            ("grid", generators::grid(6, 6)),
            ("gnp", generators::connected_gnp(40, 0.08, &mut rng)),
        ] {
            let mut ledger = RoundLedger::new(g.n());
            let wide = KNearest::compute(&g, 9, 6, Strategy::TruncatedBfs, &mut ledger);
            let wide = wide.with_parents(&g);
            for d in 1..=6 {
                let fresh = KNearest::compute(&g, 9, d, Strategy::TruncatedBfs, &mut ledger);
                let fresh = fresh.with_parents(&g);
                match wide.cut(d) {
                    Some(cut) => assert_eq!(cut, fresh, "{name} d={d}"),
                    None => assert_eq!(wide.lists, fresh.lists, "{name} d={d}"),
                }
            }
            assert!(wide.cut(1).is_some(), "{name}: d = 1 drops entries");
        }
    }

    #[test]
    fn round_formula_shape() {
        // Rounds grow like log²d when k ≤ n^{2/3} …
        let r1 = KNearest::rounds(4096, 16, 4);
        let r2 = KNearest::rounds(4096, 16, 256);
        assert!(r2 > r1);
        // … and pick up a k/n^{2/3} term for large k.
        let r3 = KNearest::rounds(4096, 4096, 256);
        assert!(r3 > r2);
    }

    fn seeded(s: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
