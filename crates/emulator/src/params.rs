//! The emulator parameter schedule (§3.2 of the paper, Claims 14–22).
//!
//! For `r` levels and accuracy `ε`:
//!
//! * sampling probabilities `pᵢ = n^{-2^{i-1}/2^r}` for `1 ≤ i ≤ r−1` and
//!   `p_r = n^{-1/2^r}` — so `E[|Sᵢ|] = n^{1-(2^i-1)/2^r}` (Claim 14) and
//!   `E[|S_r|] = √n` (Claim 15);
//! * radii `δᵢ = ⌈ε^{-i}⌉ + 2Rᵢ` with `R₀ = 0`, `Rᵢ = Σ_{j<i} δⱼ`
//!   (integer radii: rounding `ε^{-i}` **up** only enlarges balls, which
//!   preserves the stretch analysis and is absorbed by the size constants);
//! * stretch accumulators `β₀ = 0`, `βᵢ = 4·Σ_{j≤i} 2^{i-j}Rⱼ`
//!   (Claim 21: `βᵢ = 4Rᵢ + 2βᵢ₋₁`), giving the Lemma 23 guarantee
//!   `d_H ≤ (1+20εr)·d_G + β_r`.

use cc_graphs::Dist;
use rand::Rng;

/// Errors raised when constructing [`EmulatorParams`].
#[derive(Clone, PartialEq, Debug)]
pub enum ParamError {
    /// `ε` must lie in `(0, 1)`.
    BadEps(f64),
    /// `r` must be at least 1.
    BadLevels(usize),
    /// `n` must be at least 2.
    BadN(usize),
    /// The radius schedule overflowed the distance type (ε too small or `r`
    /// too large for practical use).
    RadiusOverflow,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::BadEps(e) => write!(f, "epsilon {e} outside (0, 1)"),
            ParamError::BadLevels(r) => write!(f, "level count {r} must be ≥ 1"),
            ParamError::BadN(n) => write!(f, "graph order {n} must be ≥ 2"),
            ParamError::RadiusOverflow => {
                write!(f, "radius schedule overflows the distance type")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// The full parameter schedule of one emulator construction.
#[derive(Clone, Debug)]
pub struct EmulatorParams {
    n: usize,
    eps: f64,
    r: usize,
    delta: Vec<Dist>,
    big_r: Vec<Dist>,
    beta: Vec<u64>,
    p: Vec<f64>,
}

impl EmulatorParams {
    /// Builds the schedule for an `n`-vertex graph with accuracy `eps` and
    /// `r` levels.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for `eps ∉ (0,1)`, `r = 0`, `n < 2`, or a
    /// schedule that overflows the distance type.
    pub fn new(n: usize, eps: f64, r: usize) -> Result<Self, ParamError> {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(ParamError::BadEps(eps));
        }
        if r == 0 {
            return Err(ParamError::BadLevels(r));
        }
        if n < 2 {
            return Err(ParamError::BadN(n));
        }
        let mut delta: Vec<Dist> = Vec::with_capacity(r + 1);
        let mut big_r: Vec<Dist> = vec![0];
        for i in 0..=r {
            let base = (1.0 / eps.powi(i as i32)).ceil();
            if base > u32::MAX as f64 / 8.0 {
                return Err(ParamError::RadiusOverflow);
            }
            let d = (base as u64 + 2 * big_r[i] as u64).min(u32::MAX as u64 / 4) as Dist;
            if d >= cc_graphs::INF / 4 {
                return Err(ParamError::RadiusOverflow);
            }
            delta.push(d);
            big_r.push(big_r[i].saturating_add(d));
        }
        let mut beta: Vec<u64> = vec![0];
        for i in 1..=r {
            // Claim 21: βᵢ = 4Rᵢ + 2βᵢ₋₁.
            beta.push(4 * big_r[i] as u64 + 2 * beta[i - 1]);
        }
        let exp = |num: f64| (n as f64).powf(-num);
        let two_r = (1u64 << r) as f64;
        let mut p = vec![1.0]; // p₀ unused sentinel (S₀ = V)
        for i in 1..r {
            p.push(exp(((1u64 << (i - 1)) as f64) / two_r));
        }
        if r >= 1 {
            p.push(exp(1.0 / two_r)); // p_r = n^{-1/2^r}
        }
        Ok(EmulatorParams {
            n,
            eps,
            r,
            delta,
            big_r,
            beta,
            p,
        })
    }

    /// The paper's headline choice `r = max(2, ⌊log₂ log₂ n⌋)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamError`] from [`EmulatorParams::new`].
    pub fn loglog(n: usize, eps: f64) -> Result<Self, ParamError> {
        let lg = (n.max(4) as f64).log2().log2().floor() as usize;
        Self::new(n, eps, lg.max(2))
    }

    /// Graph order `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Accuracy parameter `ε`.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of levels `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Exploration radius `δᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i > r`.
    pub fn delta(&self, i: usize) -> Dist {
        self.delta[i]
    }

    /// Cluster radius bound `Rᵢ` (Claim 13: `d_H(v, cᵢ(v)) ≤ Rᵢ`).
    pub fn big_r(&self, i: usize) -> Dist {
        self.big_r[i]
    }

    /// Stretch accumulator `βᵢ` (Lemma 23).
    pub fn beta(&self, i: usize) -> u64 {
        self.beta[i]
    }

    /// Sampling probability `pᵢ` for level `i ≥ 1`.
    pub fn p(&self, i: usize) -> f64 {
        self.p[i]
    }

    /// The guaranteed multiplicative stretch `1 + 20εr` (Lemma 23 at `i=r`).
    pub fn multiplicative_bound(&self) -> f64 {
        1.0 + 20.0 * self.eps * self.r as f64
    }

    /// The guaranteed additive stretch `β_r` (Lemma 23 at `i=r`).
    pub fn additive_bound(&self) -> u64 {
        self.beta[self.r]
    }

    /// Multiplicative bound of the Congested Clique variant, whose top-level
    /// edges carry `(1+ε')`-approximate weights (Appendix C.3): every
    /// emulator path inflates by at most `(1+ε')`.
    pub fn clique_multiplicative_bound(&self, eps_prime: f64) -> f64 {
        self.multiplicative_bound() * (1.0 + eps_prime)
    }

    /// Additive bound of the Congested Clique variant (Appendix C.3).
    pub fn clique_additive_bound(&self, eps_prime: f64) -> f64 {
        (1.0 + eps_prime) * self.additive_bound() as f64
    }

    /// Expected size of `Sᵢ`: `n^{1-(2^i-1)/2^r}` (Claim 14); `√n` for
    /// `i = r` (Claim 15).
    pub fn expected_level_size(&self, i: usize) -> f64 {
        if i == 0 {
            return self.n as f64;
        }
        if i == self.r {
            return (self.n as f64).sqrt();
        }
        let two_r = (1u64 << self.r) as f64;
        (self.n as f64).powf(1.0 - (((1u64 << i) - 1) as f64) / two_r)
    }

    /// The size bound `O(r·n^{1+1/2^r})` — returned without the hidden
    /// constant (experiments report the measured ratio against it).
    pub fn size_bound(&self) -> f64 {
        let two_r = (1u64 << self.r) as f64;
        self.r as f64 * (self.n as f64).powf(1.0 + 1.0 / two_r)
    }

    /// Samples the level hierarchy: `level[v] = max{i : v ∈ Sᵢ}`.
    ///
    /// Sampling is a local computation; announcing levels costs one round
    /// (charged by callers).
    pub fn sample_levels(&self, rng: &mut impl Rng) -> Vec<u8> {
        (0..self.n)
            .map(|_| {
                let mut level = 0u8;
                for i in 1..=self.r {
                    if rng.gen_bool(self.p[i].clamp(0.0, 1.0)) {
                        level = i as u8;
                    } else {
                        break;
                    }
                }
                level
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn schedule_matches_hand_computation() {
        // ε = 0.25, r = 3: δ₀=1, R₁=1, δ₁=6, R₂=7, δ₂=30, R₃=37, δ₃=138.
        let p = EmulatorParams::new(1024, 0.25, 3).unwrap();
        assert_eq!(p.delta(0), 1);
        assert_eq!(p.big_r(1), 1);
        assert_eq!(p.delta(1), 6);
        assert_eq!(p.big_r(2), 7);
        assert_eq!(p.delta(2), 30);
        assert_eq!(p.big_r(3), 37);
        assert_eq!(p.delta(3), 138);
        // β₁ = 4R₁ = 4; β₂ = 4·7+2·4 = 36; β₃ = 4·37+2·36 = 220.
        assert_eq!(p.beta(1), 4);
        assert_eq!(p.beta(2), 36);
        assert_eq!(p.beta(3), 220);
    }

    #[test]
    fn claim_20_radius_bound() {
        // Claim 20: Rᵢ ≤ 2/ε^{i-1} for ε < 1/6 (integer rounding adds a
        // small constant slack).
        let eps = 0.1;
        let p = EmulatorParams::new(4096, eps, 4).unwrap();
        for i in 1..=4 {
            let bound = 2.0 / eps.powi(i as i32 - 1) + 3.0 * i as f64;
            assert!(
                (p.big_r(i) as f64) <= bound,
                "R_{i} = {} > {bound}",
                p.big_r(i)
            );
        }
    }

    #[test]
    fn claim_22_beta_bound() {
        // Claim 22: βᵢ ≤ 10/ε^{i-1} for ε < 1/10 (plus rounding slack).
        let eps = 0.05;
        let p = EmulatorParams::new(4096, eps, 4).unwrap();
        for i in 1..=4 {
            let bound = 10.0 / eps.powi(i as i32 - 1) + 10.0 * i as f64;
            assert!(
                (p.beta(i) as f64) <= bound,
                "β_{i} = {} > {bound}",
                p.beta(i)
            );
        }
    }

    #[test]
    fn sampling_probabilities_multiply_to_inverse_sqrt() {
        for r in 2..=4 {
            let p = EmulatorParams::new(4096, 0.25, r).unwrap();
            // Probability that a vertex reaches level r (Claim 15).
            let total: f64 = (1..=r).map(|i| p.p(i)).product();
            let want = 1.0 / (4096f64).sqrt();
            assert!(
                (total - want).abs() < 1e-9,
                "r={r}: ∏p = {total}, want {want}"
            );
        }
    }

    #[test]
    fn expected_level_sizes_decrease() {
        let p = EmulatorParams::new(4096, 0.25, 3).unwrap();
        let mut prev = p.expected_level_size(0);
        for i in 1..=3 {
            let s = p.expected_level_size(i);
            assert!(s < prev, "level {i}: {s} ≥ {prev}");
            prev = s;
        }
        assert!((p.expected_level_size(3) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_levels_concentrate() {
        let p = EmulatorParams::new(4096, 0.25, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let levels = p.sample_levels(&mut rng);
        assert_eq!(levels.len(), 4096);
        let top = levels.iter().filter(|&&l| l == 3).count() as f64;
        // E[|S_r|] = 64; allow generous concentration slack.
        assert!((20.0..160.0).contains(&top), "|S_r| = {top}");
        let s1 = levels.iter().filter(|&&l| l >= 1).count() as f64;
        let want = p.expected_level_size(1);
        assert!((s1 - want).abs() < 0.3 * want, "|S₁| = {s1}, want ≈ {want}");
    }

    #[test]
    fn loglog_choice() {
        let p = EmulatorParams::loglog(65536, 0.25).unwrap();
        assert_eq!(p.r(), 4); // log₂ log₂ 65536 = 4
        let p = EmulatorParams::loglog(64, 0.25).unwrap();
        assert_eq!(p.r(), 2); // clamped to ≥ 2
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            EmulatorParams::new(100, 0.0, 2),
            Err(ParamError::BadEps(_))
        ));
        assert!(matches!(
            EmulatorParams::new(100, 1.5, 2),
            Err(ParamError::BadEps(_))
        ));
        assert!(matches!(
            EmulatorParams::new(100, 0.5, 0),
            Err(ParamError::BadLevels(0))
        ));
        assert!(matches!(
            EmulatorParams::new(1, 0.5, 2),
            Err(ParamError::BadN(1))
        ));
        assert!(matches!(
            EmulatorParams::new(100, 1e-9, 8),
            Err(ParamError::RadiusOverflow)
        ));
    }

    #[test]
    fn bounds_are_monotone_in_eps() {
        let tight = EmulatorParams::new(1024, 0.1, 3).unwrap();
        let loose = EmulatorParams::new(1024, 0.5, 3).unwrap();
        assert!(tight.additive_bound() > loose.additive_bound());
        assert!(tight.multiplicative_bound() < loose.multiplicative_bound());
    }
}
