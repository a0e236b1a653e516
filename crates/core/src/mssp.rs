//! `(1+ε)`-approximate multi-source shortest paths from `O(√n)` sources
//! (Thm 33, deterministic: Thm 52).
//!
//! For far pairs the `(1+ε/2, β)`-emulator is already a
//! `(1+ε)`-approximation; for pairs within `t = 2β/ε` a bounded
//! `(h, ε, t)`-hopset plus one `(S, h)`-source detection recovers
//! `(1+ε)`-approximate distances. Taking the minimum of the two estimates
//! covers every pair. Total: `O(log²β/ε)` rounds.

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::params::ParamError;
use cc_graphs::{Dist, DistStorage, Graph};
use cc_toolkit::source_detection::SourceDetection;

use crate::error::CcError;
use crate::oracle::{DistOracle, Guarantee};
use crate::pipeline::{self, HopsetGraph, Mode, Substrates};
use crate::solver::ParamProfile;

/// Per-query parameters of the MSSP algorithm. The emulator and the
/// other session-wide parameters belong to the [`crate::Solver`].
#[derive(Clone, Debug)]
pub struct MsspConfig {
    /// Short-range accuracy `ε` (the hopset/source-detection stretch).
    pub eps: f64,
    /// The short/long threshold `t`, fixed by `(n, ε)` and the profile.
    t: Dist,
}

impl MsspConfig {
    /// The configuration of `profile`.
    pub(crate) fn for_profile(
        n: usize,
        eps: f64,
        profile: ParamProfile,
    ) -> Result<Self, ParamError> {
        Ok(MsspConfig {
            eps,
            t: pipeline::threshold(n, eps, profile)?,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t
    }
}

/// Maximum sources as a multiple of `√n` (paper: `O(√n)`).
const MAX_SOURCES_FACTOR: f64 = 4.0;

/// Maximum admissible number of sources on `n` vertices.
fn max_sources(n: usize) -> usize {
    ((MAX_SOURCES_FACTOR * (n as f64).sqrt()).ceil() as usize).max(1)
}

/// Errors of an MSSP query ([`crate::Solver::mssp`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MsspError {
    /// More sources than the `O(√n)` regime admits (the sparse matrix
    /// multiplication bottleneck — §1.1 of the paper).
    TooManySources {
        /// Sources given.
        given: usize,
        /// Maximum admissible.
        max: usize,
    },
    /// A source vertex is out of range.
    SourceOutOfRange {
        /// The offending vertex.
        source: usize,
        /// Graph order.
        n: usize,
    },
    /// No sources given.
    NoSources,
}

impl std::fmt::Display for MsspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsspError::TooManySources { given, max } => write!(
                f,
                "{given} sources exceed the O(√n) limit of {max} (sparse matrix multiplication bound)"
            ),
            MsspError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for n = {n}")
            }
            MsspError::NoSources => write!(f, "at least one source required"),
        }
    }
}

impl std::error::Error for MsspError {}

/// Result of an MSSP computation.
#[derive(Clone, Debug)]
pub struct Mssp {
    /// The sources, in input order.
    pub sources: Vec<usize>,
    /// `estimates[i][v]` = estimate of `d(sources[i], v)`.
    pub estimates: Vec<Vec<Dist>>,
    /// The threshold `t` used.
    pub t: Dist,
    /// The proven multiplicative guarantee.
    pub guarantee: f64,
    /// Per-row path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<std::sync::Arc<cc_routes::RowStore>>,
}

impl Mssp {
    /// Estimate for `(sources[i], v)`.
    pub fn dist(&self, i: usize, v: usize) -> Dist {
        self.estimates[i][v]
    }

    /// The provenance every estimate of this result is served under.
    pub fn guarantee_tag(&self) -> Guarantee {
        Guarantee::mssp(self.guarantee - 1.0)
    }

    /// Freezes the source rows into an immutable, `Arc`-shareable
    /// [`DistOracle`] in the row-sparse layout (`|S| × n` entries — the
    /// natural shape of an MSSP result). Point queries answer both
    /// orientations of a source pair; rows of non-sources are served from
    /// the source columns.
    pub fn into_oracle(self) -> DistOracle {
        let guarantee = self.guarantee_tag();
        let n = self.estimates.first().map_or(0, Vec::len);
        let sources: Vec<u32> = self.sources.iter().map(|&s| s as u32).collect();
        let mut data = Vec::with_capacity(sources.len() * n);
        for row in &self.estimates {
            data.extend_from_slice(row);
        }
        DistOracle::from_storage(DistStorage::row_sparse(n, sources, data), guarantee)
    }
}

/// `(1+ε)`-MSSP, randomized (Thm 33) or deterministic (Thm 52) by `mode`,
/// over the session's emulator configuration `emu`.
///
/// # Errors
///
/// Returns [`CcError::Mssp`] if sources are invalid or exceed the `O(√n)`
/// limit.
pub(crate) fn run(
    g: &Graph,
    sources: &[usize],
    cfg: &MsspConfig,
    emu_cfg: &CliqueEmulatorConfig,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Mssp, CcError> {
    if sources.is_empty() {
        return Err(MsspError::NoSources.into());
    }
    let max = max_sources(g.n());
    if sources.len() > max {
        return Err(MsspError::TooManySources {
            given: sources.len(),
            max,
        }
        .into());
    }
    if let Some(&s) = sources.iter().find(|&&s| s >= g.n()) {
        return Err(MsspError::SourceOutOfRange {
            source: s,
            n: g.n(),
        }
        .into());
    }
    let mut phase = ledger.enter("mssp");
    let t = cfg.threshold();
    // Witness recording: a cell's record is set exactly when its estimate
    // strictly drops, and never read back, so estimates and rounds are
    // identical with recording on or off.
    let mut paths = emu_cfg
        .record_paths
        .then(|| cc_routes::RowStore::new(g.n(), sources));

    // Long range: the emulator, learned by everyone (cached across queries
    // by the session's substrate store); each vertex runs local Dijkstra
    // from the sources.
    let threads = emu_cfg.threads;
    let emu = substrates.emulator_for(g, emu_cfg, &mut mode, &mut phase);
    let mut estimates: Vec<Vec<Dist>> = match paths.as_mut() {
        None => pipeline::emulator_rows(&emu, sources, threads),
        // The recording pass's Dijkstra trees carry the same distances —
        // start the estimates from them instead of running a second
        // per-source sweep.
        Some(store) => pipeline::record_emulator_rows(g, &emu, sources, threads, store),
    };

    // Short range: bounded hopset + source detection with h = β hops.
    let hs = substrates.hopset_for(
        HopsetGraph::Input,
        g,
        (t, cfg.eps),
        emu_cfg,
        &mut mode,
        &mut phase,
        paths.as_mut().map(cc_routes::RowStore::routes_mut),
    );
    substrates.timed("source_detection", || {
        let mut sd = SourceDetection::over_hopset(&hs, sources, threads, &mut phase);
        // Lower the estimates first, then set the lowered cells' chains in
        // the same order (`pipeline::detect_pivots`).
        let mut lowered: Vec<(u32, u32)> = Vec::new();
        for (i, row) in estimates.iter_mut().enumerate() {
            for (v, est) in row.iter_mut().enumerate() {
                let short = sd.dist_to_source_index(v, i);
                if short < *est {
                    *est = short;
                    if paths.is_some() {
                        lowered.push((i as u32, v as u32));
                    }
                }
                if v == sources[i] {
                    *est = 0;
                }
            }
        }
        if let Some(store) = paths.as_mut() {
            pipeline::set_detected_walks(&hs.union, &mut sd, &lowered, threads, |i, chain| {
                store.set_walk(g, i, chain);
            });
        }
    });
    // Adjacency is known locally.
    for (i, &s) in sources.iter().enumerate() {
        for &u in g.neighbors(s) {
            let e = &mut estimates[i][u as usize];
            if *e > 1 {
                *e = 1;
                if let Some(store) = paths.as_mut() {
                    store.set_edge(i, u as usize);
                }
            }
        }
    }
    // The proven multiplicative guarantee: `1+ε` for short pairs, and the
    // emulator's long-range stretch `M + ε/2` beyond `t`.
    let long_range = emu_cfg
        .params
        .clique_multiplicative_bound(emu_cfg.eps_prime);
    Ok(Mssp {
        sources: sources.to_vec(),
        estimates,
        t,
        guarantee: (1.0 + cfg.eps).max(long_range + cfg.eps / 2.0),
        paths: paths.map(std::sync::Arc::new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const EPS: f64 = 0.5;

    /// `run` in a fresh session of the paper profile at `ε = 0.5`.
    fn paper_run(g: &Graph, sources: &[usize], mode: Mode<'_>) -> Result<Mssp, CcError> {
        let cfg = MsspConfig::for_profile(g.n(), EPS, pipeline::PAPER).unwrap();
        let emu = pipeline::paper_emulator(g.n(), EPS);
        let mut subs = Substrates::default();
        run(
            g,
            sources,
            &cfg,
            &emu,
            mode,
            &mut RoundLedger::new(g.n()),
            &mut subs,
        )
    }

    /// Short-range pairs (d ≤ t) must get a genuine (1+ε) guarantee.
    #[test]
    fn short_range_is_one_plus_eps() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (name, g) in [
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(80, 0.05, &mut rng)),
        ] {
            let sources: Vec<usize> = (0..g.n()).step_by(9).collect();
            let out = paper_run(&g, &sources, Mode::Rng(&mut rng)).unwrap();
            for (i, &s) in sources.iter().enumerate() {
                let exact = bfs::sssp(&g, s);
                for v in 0..g.n() {
                    if exact[v] == 0 || exact[v] > out.t {
                        continue;
                    }
                    let est = out.dist(i, v);
                    assert!(est >= exact[v], "{name}: undercut at ({s},{v})");
                    assert!(
                        (est as f64) <= (1.0 + EPS) * exact[v] as f64 + 1e-9,
                        "{name}: est {est} vs d {} at ({s},{v})",
                        exact[v]
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_variant_matches_guarantee() {
        let g = generators::caveman(6, 6);
        let sources = [0usize, 10, 20, 30];
        let out = paper_run(&g, &sources, Mode::Det).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let exact = bfs::sssp(&g, s);
            for v in 0..g.n() {
                if exact[v] == 0 || exact[v] > out.t {
                    continue;
                }
                let est = out.dist(i, v);
                assert!(est >= exact[v]);
                assert!((est as f64) <= (1.0 + EPS) * exact[v] as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn source_count_validation() {
        let g = generators::cycle(16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let too_many: Vec<usize> = (0..16).fold(Vec::new(), |mut acc, v| {
            acc.push(v);
            acc.push(v);
            acc
        });
        let err = paper_run(&g, &too_many, Mode::Rng(&mut rng)).unwrap_err();
        assert!(matches!(
            err,
            CcError::Mssp(MsspError::TooManySources { .. })
        ));
        let err = paper_run(&g, &[], Mode::Rng(&mut rng)).unwrap_err();
        assert_eq!(err, CcError::Mssp(MsspError::NoSources));
        let err = paper_run(&g, &[99], Mode::Rng(&mut rng)).unwrap_err();
        assert!(matches!(
            err,
            CcError::Mssp(MsspError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn sources_have_zero_self_distance() {
        let g = generators::grid(6, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sources = [3usize, 17];
        let out = paper_run(&g, &sources, Mode::Rng(&mut rng)).unwrap();
        assert_eq!(out.dist(0, 3), 0);
        assert_eq!(out.dist(1, 17), 0);
    }

    #[test]
    fn long_range_estimates_exist_and_upper_bound() {
        // A cycle longer than 2t has pairs beyond t (t = 213 here), which
        // only the emulator path answers.
        let n = 512;
        let g = generators::cycle(n);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let out = paper_run(&g, &[0], Mode::Rng(&mut rng)).unwrap();
        let exact = bfs::sssp(&g, 0);
        assert!(
            exact.iter().any(|&d| d > out.t),
            "no pair beyond t = {}",
            out.t
        );
        for v in 0..n {
            assert!(out.dist(0, v) >= exact[v]);
            assert!(out.dist(0, v) < cc_graphs::INF, "missing estimate at {v}");
        }
    }
}
