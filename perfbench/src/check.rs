//! Answer verification. Runs outside every timed interval.
//!
//! Solver answers are checked against exact BFS distances and the
//! [`Guarantee`] each answer is tagged with; served answers are checked
//! against the in-process reference oracle through per-request digests
//! replayed after the traffic phase.

use cc_core::{
    DistOracle, DistanceMatrix, Execution, Guarantee, PathOracle, PointEstimate, SolverBuilder,
};
use cc_graphs::{generators, Dist, Graph, INF};
use cc_serve::PathItem;

/// `true` when `est` is a valid answer for a pair at exact distance
/// `exact` under `guarantee`: never below the truth, never above the bound.
pub fn estimate_ok(est: Dist, exact: Dist, guarantee: &Guarantee) -> bool {
    est >= exact && est < INF && f64::from(est) <= guarantee.bound(exact)
}

/// Counts of checked answers and of answers that broke their guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub checked: u64,
    pub violations: u64,
}

impl Tally {
    pub fn estimate(&mut self, est: Dist, exact: Dist, guarantee: &Guarantee) {
        self.checked += 1;
        if !estimate_ok(est, exact, guarantee) {
            self.violations += 1;
        }
    }

    /// Every ordered pair of an all-pairs result.
    pub fn matrix(&mut self, est: &DistanceMatrix, exact: &[Vec<Dist>], guarantee: &Guarantee) {
        for (u, truth) in exact.iter().enumerate() {
            for (&e, &x) in est.row(u).iter().zip(truth) {
                self.estimate(e, x, guarantee);
            }
        }
    }

    /// Every row of a multi-source result.
    pub fn rows(
        &mut self,
        sources: &[usize],
        rows: &[Vec<Dist>],
        exact: &[Vec<Dist>],
        guarantee: &Guarantee,
    ) {
        for (&s, row) in sources.iter().zip(rows) {
            for (&e, &x) in row.iter().zip(&exact[s]) {
                self.estimate(e, x, guarantee);
            }
        }
    }

    /// Oracle answers for `pairs`, each under its own tag. A missing answer
    /// is a violation: every input graph is connected.
    pub fn answers(
        &mut self,
        pairs: &[(usize, usize)],
        answers: &[Option<PointEstimate>],
        exact: &[Vec<Dist>],
    ) {
        for (&(u, v), answer) in pairs.iter().zip(answers) {
            match answer {
                Some(a) => self.estimate(a.dist, exact[u][v], &a.guarantee),
                None => {
                    self.checked += 1;
                    self.violations += 1;
                }
            }
        }
    }

    /// A served route: a walk in `g` from `u` to `v` whose weight is its
    /// edge count, at least the exact distance and at most the estimate the
    /// oracle answers for the pair.
    pub fn route(&mut self, g: &Graph, exact: Dist, u: usize, v: usize, oracle: &PathOracle) {
        self.checked += 1;
        let ok = match (oracle.path(u, v), oracle.dist(u, v)) {
            (Some(route), Some(est)) => {
                let mut at = u;
                let walk_ok = route.edges.iter().all(|&(x, y)| {
                    let step = x as usize == at && g.has_edge(x as usize, y as usize);
                    at = y as usize;
                    step
                });
                walk_ok
                    && at == v
                    && route.weight as usize == route.edges.len()
                    && route.weight >= exact
                    && route.weight <= est.dist
                    && route.guarantee == est.guarantee
            }
            _ => false,
        };
        if !ok {
            self.violations += 1;
        }
    }
}

/// Ratio of estimate to exact distance over ordered pairs `u ≠ v`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stretch {
    pub max: f64,
    sum: f64,
    count: u64,
}

impl Stretch {
    pub fn of_matrix(est: &DistanceMatrix, exact: &[Vec<Dist>]) -> Stretch {
        let mut s = Stretch::default();
        for (u, truth) in exact.iter().enumerate() {
            for (v, (&e, &x)) in est.row(u).iter().zip(truth).enumerate() {
                if u != v && x > 0 {
                    s.add(f64::from(e) / f64::from(x));
                }
            }
        }
        s
    }

    pub fn of_oracle(oracle: &DistOracle, exact: &[Vec<Dist>]) -> Stretch {
        let mut s = Stretch::default();
        for (u, truth) in exact.iter().enumerate() {
            for (v, &x) in truth.iter().enumerate() {
                if u != v && x > 0 {
                    let e = oracle.dist(u, v).map_or(INF, |a| a.dist);
                    s.add(f64::from(e) / f64::from(x));
                }
            }
        }
        s
    }

    fn add(&mut self, ratio: f64) {
        self.max = self.max.max(ratio);
        self.sum += ratio;
        self.count += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// FNV-1a, for per-request answer digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn guarantee(&mut self, g: &Guarantee) {
        self.u64(g.kind as u64);
        self.u64(g.eps.to_bits());
        self.u64(g.additive.to_bits());
    }

    fn answer(&mut self, a: Option<&PointEstimate>) {
        match a {
            Some(a) => {
                self.u64(u64::from(a.dist));
                self.guarantee(&a.guarantee);
            }
            None => self.missing(),
        }
    }

    fn route(&mut self, weight: Dist, guarantee: &Guarantee, edges: &[(u32, u32)]) {
        self.u64(u64::from(weight));
        self.guarantee(guarantee);
        self.u64(edges.len() as u64);
        for &(x, y) in edges {
            self.u64(u64::from(x) << 32 | u64::from(y));
        }
    }

    fn missing(&mut self) {
        self.u64(u64::MAX);
    }
}

/// Digest of a served distance batch.
pub fn digest_dists(answers: &[Option<PointEstimate>]) -> u64 {
    let mut h = Fnv::new();
    answers.iter().for_each(|a| h.answer(a.as_ref()));
    h.0
}

/// Digest of a served route batch.
pub fn digest_paths(items: &[Option<PathItem>]) -> u64 {
    let mut h = Fnv::new();
    for item in items {
        match item {
            Some((weight, guarantee, edges)) => h.route(*weight, guarantee, edges),
            None => h.missing(),
        }
    }
    h.0
}

/// Which batch operation a served request was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Dist,
    Path,
}

/// The digest the reference oracle's answers to `pairs` must have.
pub fn expected_digest(reference: &PathOracle, op: Op, pairs: &[(u32, u32)]) -> u64 {
    let upairs = crate::widen(pairs);
    match op {
        Op::Dist => digest_dists(&reference.dist_oracle().dist_batch(&upairs)),
        Op::Path => {
            let mut h = Fnv::new();
            for route in reference.path_batch(&upairs) {
                match route {
                    Some(r) => h.route(r.weight, &r.guarantee, &r.edges),
                    None => h.missing(),
                }
            }
            h.0
        }
    }
}

/// Proves the checks can fail: an estimate below the exact distance, one
/// above its guarantee's bound, a served answer that differs from the
/// reference and a route that leaves the graph must each count as a
/// failure, and correct answers must not.
pub fn self_test() -> Result<(), String> {
    let g = Guarantee::mult2(0.5);
    let mut tally = Tally::default();
    tally.estimate(4, 4, &g);
    tally.estimate(10, 4, &g);
    if tally.violations != 0 {
        return Err("a correct estimate counted as a violation".into());
    }
    tally.estimate(3, 4, &g);
    tally.estimate(11, 4, &g);
    if tally.violations != 2 {
        return Err("an estimate below the exact distance or above its bound passed".into());
    }

    let graph = generators::path(8);
    let mut solver = SolverBuilder::new(graph.clone())
        .execution(Execution::Deterministic)
        .record_paths(true)
        .build()
        .map_err(|e| e.to_string())?;
    solver.apsp_near_additive().map_err(|e| e.to_string())?;
    let reference = solver.freeze_with_paths().map_err(|e| e.to_string())?;
    let pairs = [(0u32, 7u32), (2, 5)];
    let served = reference.dist_oracle().dist_batch(&[(0, 7), (2, 5)]);
    if digest_dists(&served) != expected_digest(&reference, Op::Dist, &pairs) {
        return Err("a correct served answer failed the replay".into());
    }
    let mut wrong = served.clone();
    if let Some(Some(a)) = wrong.get_mut(1) {
        a.dist += 1;
    }
    if digest_dists(&wrong) == expected_digest(&reference, Op::Dist, &pairs) {
        return Err("a wrong served answer passed the replay".into());
    }
    let routes: Vec<Option<PathItem>> = reference
        .path_batch(&[(0, 7), (2, 5)])
        .into_iter()
        .map(|r| r.map(|r| (r.weight, r.guarantee, r.edges)))
        .collect();
    if digest_paths(&routes) != expected_digest(&reference, Op::Path, &pairs) {
        return Err("a correct served route failed the replay".into());
    }

    let exact = cc_graphs::bfs::apsp_exact(&graph);
    let mut routes = Tally::default();
    routes.route(&graph, exact[0][7], 0, 7, &reference);
    // The same path with its middle edge cut: the served walk leaves it.
    let edges: Vec<(usize, usize)> = (0..7).filter(|&i| i != 3).map(|i| (i, i + 1)).collect();
    let broken = Graph::from_edges(8, &edges);
    routes.route(&broken, exact[0][7], 0, 7, &reference);
    if routes.violations != 1 {
        return Err("a route outside the graph passed, or a valid one failed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_catches_every_seeded_fault() {
        super::self_test().expect("self-test");
    }
}
