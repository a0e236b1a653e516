//! Stretch evaluation: comparing distance estimates against ground truth.
//!
//! Every approximation algorithm in this workspace is validated through this
//! module: given exact distances and an estimate oracle, it produces a
//! [`StretchReport`] with the worst and average multiplicative stretch, the
//! worst additive residual beyond a `(1+ε)` multiplicative allowance (for
//! `(1+ε, β)` guarantees), and lower-bound violations (estimates below the
//! true distance, which correct algorithms must never produce).

use crate::dist::{Dist, INF};

/// Summary of estimate quality over a set of vertex pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StretchReport {
    /// The `ε` the additive residual was computed against (the residual is
    /// `est − (1+ε)d`, so it is only meaningful for this ε). Recorded so
    /// [`StretchReport::satisfies`] can reject validation against a
    /// different ε than [`evaluate`] used.
    pub eps: f64,
    /// Number of (ordered) pairs evaluated with finite true distance > 0.
    pub pairs: usize,
    /// Maximum `est/d` over evaluated pairs.
    pub max_multiplicative: f64,
    /// Mean `est/d` over evaluated pairs.
    pub mean_multiplicative: f64,
    /// Maximum `est − (1+ε)·d` over evaluated pairs (the additive residual
    /// for a `(1+ε, β)` guarantee); ≤ β for a correct near-additive scheme.
    pub max_additive_residual: f64,
    /// Pairs where `est < d` (must be 0 for any correct algorithm).
    pub lower_violations: usize,
    /// Pairs with finite true distance but infinite estimate.
    pub missed: usize,
}

impl StretchReport {
    /// `true` when the report witnesses a `(1+ε, β)` guarantee.
    ///
    /// The residual column was computed against the ε passed to
    /// [`evaluate`]; validating the same report against a *different* ε
    /// would silently vouch for a guarantee that was never measured, so a
    /// mismatched ε returns `false`.
    pub fn satisfies(&self, eps: f64, beta: f64) -> bool {
        (eps - self.eps).abs() <= 1e-12
            && self.lower_violations == 0
            && self.missed == 0
            && self.max_additive_residual <= beta + 1e-9
    }
}

/// Evaluates an estimate oracle against exact all-pairs distances.
///
/// `eps` parameterizes the additive residual column (`est − (1+ε)d`).
/// Pairs with `d = 0` or `d = INF` are skipped (but an infinite estimate for
/// a finite distance counts as `missed`).
pub fn evaluate<F>(exact: &[Vec<Dist>], estimate: F, eps: f64) -> StretchReport
where
    F: Fn(usize, usize) -> Dist,
{
    let n = exact.len();
    let mut pairs = 0usize;
    let mut max_mult = 0.0f64;
    let mut sum_mult = 0.0f64;
    let mut max_resid = f64::NEG_INFINITY;
    let mut lower = 0usize;
    let mut missed = 0usize;
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let d = exact[u][v];
            if d == 0 || d >= INF {
                continue;
            }
            let est = estimate(u, v);
            if est >= INF {
                missed += 1;
                continue;
            }
            pairs += 1;
            if est < d {
                lower += 1;
            }
            let ratio = est as f64 / d as f64;
            max_mult = max_mult.max(ratio);
            sum_mult += ratio;
            let resid = est as f64 - (1.0 + eps) * d as f64;
            max_resid = max_resid.max(resid);
        }
    }
    StretchReport {
        eps,
        pairs,
        max_multiplicative: max_mult,
        mean_multiplicative: if pairs > 0 {
            sum_mult / pairs as f64
        } else {
            0.0
        },
        max_additive_residual: if pairs > 0 { max_resid } else { 0.0 },
        lower_violations: lower,
        missed,
    }
}

/// Evaluates only pairs whose true distance lies in `[lo, hi]`.
pub fn evaluate_range<F>(
    exact: &[Vec<Dist>],
    estimate: F,
    eps: f64,
    lo: Dist,
    hi: Dist,
) -> StretchReport
where
    F: Fn(usize, usize) -> Dist,
{
    let filtered: Vec<Vec<Dist>> = exact
        .iter()
        .map(|row| {
            row.iter()
                .map(|&d| if d >= lo && d <= hi { d } else { INF })
                .collect()
        })
        .collect();
    evaluate(&filtered, estimate, eps)
}

/// One row of a distance-bucketed quality profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bucket {
    /// Inclusive lower distance bound of the bucket.
    pub lo: Dist,
    /// Inclusive upper distance bound of the bucket.
    pub hi: Dist,
    /// Pairs in the bucket.
    pub pairs: usize,
    /// Maximum multiplicative ratio in the bucket.
    pub max_ratio: f64,
    /// Mean multiplicative ratio in the bucket.
    pub mean_ratio: f64,
}

/// Buckets pair quality by true distance into geometric ranges
/// `[1,1], [2,3], [4,7], …` — used by experiment F2 to show that a
/// `(1+ε, β)` estimate behaves like `(1+Θ(ε))` for `d = Ω(β/ε)`.
pub fn bucketed_profile<F>(exact: &[Vec<Dist>], estimate: F) -> Vec<Bucket>
where
    F: Fn(usize, usize) -> Dist,
{
    let n = exact.len();
    let max_d = exact
        .iter()
        .flat_map(|r| r.iter().copied())
        .filter(|&d| d < INF)
        .max()
        .unwrap_or(0);
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut lo: Dist = 1;
    while lo <= max_d {
        let hi = (lo * 2 - 1).min(max_d);
        buckets.push(Bucket {
            lo,
            hi,
            pairs: 0,
            max_ratio: 0.0,
            mean_ratio: 0.0,
        });
        lo *= 2;
    }
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let d = exact[u][v];
            if d == 0 || d >= INF {
                continue;
            }
            let est = estimate(u, v);
            if est >= INF {
                continue;
            }
            let ratio = est as f64 / d as f64;
            let b = (d as f64).log2().floor() as usize;
            if let Some(bucket) = buckets.get_mut(b) {
                bucket.pairs += 1;
                bucket.max_ratio = bucket.max_ratio.max(ratio);
                bucket.mean_ratio += ratio;
            }
        }
    }
    for b in &mut buckets {
        if b.pairs > 0 {
            b.mean_ratio /= b.pairs as f64;
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::generators;

    #[test]
    fn exact_estimates_have_unit_stretch() {
        let g = generators::grid(4, 4);
        let exact = bfs::apsp_exact(&g);
        let report = evaluate(&exact, |u, v| exact[u][v], 0.0);
        assert_eq!(report.lower_violations, 0);
        assert_eq!(report.missed, 0);
        assert!((report.max_multiplicative - 1.0).abs() < 1e-12);
        assert!(report.satisfies(0.0, 0.0));
    }

    #[test]
    fn doubling_estimate_has_stretch_two() {
        let g = generators::cycle(10);
        let exact = bfs::apsp_exact(&g);
        let report = evaluate(&exact, |u, v| exact[u][v] * 2, 0.0);
        assert!((report.max_multiplicative - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lower_violation_detected() {
        let g = generators::path(5);
        let exact = bfs::apsp_exact(&g);
        let report = evaluate(&exact, |_, _| 1, 0.0);
        assert!(report.lower_violations > 0);
        assert!(!report.satisfies(0.0, 100.0));
    }

    #[test]
    fn missed_pairs_detected() {
        let g = generators::path(4);
        let exact = bfs::apsp_exact(&g);
        let report = evaluate(
            &exact,
            |u, v| if u == 0 && v == 3 { INF } else { exact[u][v] },
            0.0,
        );
        assert_eq!(report.missed, 1);
    }

    #[test]
    fn mismatched_eps_is_rejected() {
        // Regression: `satisfies` used to ignore its ε argument entirely, so
        // a report computed with one ε could "validate" any other ε ≥ 0.
        let g = generators::path(10);
        let exact = bfs::apsp_exact(&g);
        let report = evaluate(&exact, |u, v| exact[u][v], 0.1);
        assert!((report.eps - 0.1).abs() < 1e-15);
        assert!(report.satisfies(0.1, 0.0));
        // Same residuals, different claimed ε: must be rejected even with a
        // generous β.
        assert!(!report.satisfies(0.2, 100.0));
        assert!(!report.satisfies(0.0, 100.0));
    }

    #[test]
    fn additive_residual_measures_beta() {
        let g = generators::path(20);
        let exact = bfs::apsp_exact(&g);
        // Estimate d + 3: a (1+0, 3) guarantee.
        let report = evaluate(&exact, |u, v| exact[u][v] + 3, 0.0);
        assert!((report.max_additive_residual - 3.0).abs() < 1e-9);
        assert!(report.satisfies(0.0, 3.0));
        assert!(!report.satisfies(0.0, 2.9));
    }

    #[test]
    fn range_evaluation_filters() {
        let g = generators::path(20);
        let exact = bfs::apsp_exact(&g);
        // Estimate adds +5 only for short pairs; long pairs exact.
        let est = |u: usize, v: usize| {
            if exact[u][v] <= 3 {
                exact[u][v] + 5
            } else {
                exact[u][v]
            }
        };
        let long = evaluate_range(&exact, est, 0.0, 4, INF - 1);
        assert!(long.satisfies(0.0, 0.0));
        let short = evaluate_range(&exact, est, 0.0, 1, 3);
        assert!((short.max_additive_residual - 5.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_partition_pairs() {
        let g = generators::path(17);
        let exact = bfs::apsp_exact(&g);
        let buckets = bucketed_profile(&exact, |u, v| exact[u][v]);
        let total: usize = buckets.iter().map(|b| b.pairs).sum();
        // All ordered pairs u≠v have finite distance on a path.
        assert_eq!(total, 17 * 16);
        for b in &buckets {
            if b.pairs > 0 {
                assert!((b.mean_ratio - 1.0).abs() < 1e-12);
            }
        }
    }
}
