//! Soft hitting sets (Definition 42, Lemmas 43/56 and Theorem 57).
//!
//! **Definition 42.** Given sets `{S_u}_{u∈L}` over a universe `R` of size
//! `N`, each of size at least `Δ`, a set `Z ⊆ R` is a *soft hitting set* if
//!
//! 1. `|Z| = O(N/Δ)`, and
//! 2. `Σ_{u∈L} SH(S_u, Z) = O(Δ·|L|)`, where `SH(S, Z) = 0` if `S ∩ Z ≠ ∅`
//!    and `|S|` otherwise.
//!
//! The point of the definition (vs. a plain hitting set) is property 1: the
//! selected set carries **no `log N` factor**. The emulator's level sets
//! (§5.1) only need un-hit neighborhoods to contribute `O(Δ)` edges each *in
//! total*, so a bounded mass of misses is acceptable — and dropping the
//! `log n` is what keeps the deterministic emulator at `O(n log log n)`
//! edges.
//!
//! **Construction** (Lemma 56 + Thm 57): every element `i` is selected iff
//! all `ℓ = ⌊log₂ Δ⌋` bits of its block are 1 (`Pr ≈ 1/Δ`); the random bits
//! come from a short PRG seed, which is then fixed chunk-by-chunk by
//! distributed conditional expectations on the potential `Φ = |Z| + χ·Σ SH`
//! with `χ = N/(Δ²·|L|)`. Here the conditional expectations are computed
//! exactly under independent bits (deciding one block at a time), which makes
//! the final potential at most its initial expectation
//! `E[Φ] ≤ (2 + e^{-1})·N/Δ < 3N/Δ` — hence both properties hold with
//! constant `c = 3`. Rounds are charged per Thm 57.

use cc_clique::RoundLedger;

/// A validated soft-hitting-set instance.
#[derive(Clone, Debug)]
pub struct SoftHittingInstance {
    universe: usize,
    delta: usize,
    sets: Vec<Vec<usize>>,
}

/// Errors raised when building a [`SoftHittingInstance`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SoftHittingError {
    /// `Δ` must be at least 1.
    DeltaZero,
    /// A set was smaller than `Δ`.
    SetTooSmall {
        /// Index of the offending set.
        index: usize,
        /// Its size.
        size: usize,
        /// The promised minimum `Δ`.
        delta: usize,
    },
    /// A set contained an element outside `0..N`.
    ElementOutOfRange {
        /// Index of the offending set.
        index: usize,
        /// The offending element.
        element: usize,
        /// Universe size `N`.
        universe: usize,
    },
}

impl std::fmt::Display for SoftHittingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoftHittingError::DeltaZero => write!(f, "Δ must be at least 1"),
            SoftHittingError::SetTooSmall { index, size, delta } => {
                write!(f, "set {index} has {size} elements, below Δ = {delta}")
            }
            SoftHittingError::ElementOutOfRange {
                index,
                element,
                universe,
            } => write!(
                f,
                "set {index} contains {element}, outside the universe 0..{universe}"
            ),
        }
    }
}

impl std::error::Error for SoftHittingError {}

impl SoftHittingInstance {
    /// Validates and wraps an instance.
    ///
    /// # Errors
    ///
    /// Returns [`SoftHittingError`] when `Δ = 0`, a set is smaller than `Δ`,
    /// or an element falls outside `0..universe`.
    pub fn new(
        universe: usize,
        delta: usize,
        sets: Vec<Vec<usize>>,
    ) -> Result<Self, SoftHittingError> {
        if delta == 0 {
            return Err(SoftHittingError::DeltaZero);
        }
        for (index, s) in sets.iter().enumerate() {
            if s.len() < delta {
                return Err(SoftHittingError::SetTooSmall {
                    index,
                    size: s.len(),
                    delta,
                });
            }
            for &e in s {
                if e >= universe {
                    return Err(SoftHittingError::ElementOutOfRange {
                        index,
                        element: e,
                        universe,
                    });
                }
            }
        }
        Ok(SoftHittingInstance {
            universe,
            delta,
            sets,
        })
    }

    /// Universe size `N = |R|`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The minimum set size `Δ`.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The sets `{S_u}`.
    pub fn sets(&self) -> &[Vec<usize>] {
        &self.sets
    }

    /// The normalization `χ = N / (Δ² |L|)` of Thm 57.
    fn chi(&self) -> f64 {
        self.universe as f64
            / (self.delta as f64 * self.delta as f64 * self.sets.len().max(1) as f64)
    }

    fn ell(&self) -> u32 {
        // Pr[select] = 2^{-ℓ} ∈ (1/(2Δ), 1/Δ]: ℓ = ⌈log₂ Δ⌉ ... choosing
        // ⌊log₂ Δ⌋ gives Pr ∈ [1/Δ, 2/Δ) — the constant folds into c.
        if self.delta <= 1 {
            0
        } else {
            usize::BITS - 1 - self.delta.leading_zeros()
        }
    }
}

/// The result of a soft-hitting-set computation.
#[derive(Clone, PartialEq, Debug)]
pub struct SoftHittingSet {
    /// The selected elements `Z ⊆ R`, sorted.
    pub set: Vec<usize>,
    /// The un-hit mass `Σ_u SH(S_u, Z)`.
    pub unhit_mass: usize,
    /// Number of sets not hit by `Z`.
    pub unhit_sets: usize,
}

impl SoftHittingSet {
    /// Checks Definition 42 with constant `c`: `|Z| ≤ c·N/Δ` and
    /// `Σ SH ≤ c·Δ·|L|`.
    pub fn verify(&self, inst: &SoftHittingInstance, c: f64) -> bool {
        let n = inst.universe() as f64;
        let delta = inst.delta() as f64;
        let l = inst.sets().len() as f64;
        (self.set.len() as f64) <= c * n / delta + c
            && (self.unhit_mass as f64) <= c * delta * l + c
    }

    fn from_selection(inst: &SoftHittingInstance, selected: &[bool]) -> SoftHittingSet {
        let set: Vec<usize> = (0..inst.universe()).filter(|&i| selected[i]).collect();
        let mut unhit_mass = 0usize;
        let mut unhit_sets = 0usize;
        for s in inst.sets() {
            if !s.iter().any(|&e| selected[e]) {
                unhit_mass += s.len();
                unhit_sets += 1;
            }
        }
        SoftHittingSet {
            set,
            unhit_mass,
            unhit_sets,
        }
    }
}

/// Deterministic soft hitting set by the method of conditional expectations
/// (Lemma 43). Always satisfies Definition 42 with `c = 3`.
///
/// Rounds charged: `O((log log n)³)` per Thm 57
/// ([`cc_clique::cost::model::conditional_expectation_rounds`]).
pub fn soft_hitting_set(inst: &SoftHittingInstance, ledger: &mut RoundLedger) -> SoftHittingSet {
    ledger.charge_conditional_expectation("soft hitting set selection", inst.universe() as u64);

    let n = inst.universe();
    let ell = inst.ell();
    let p = 0.5f64.powi(ell as i32); // Pr[element selected] before conditioning
    let chi = inst.chi();

    // element -> sets containing it
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (si, s) in inst.sets().iter().enumerate() {
        for &e in s {
            containing[e].push(si as u32);
        }
    }
    // Per-set state: hit flag and number of still-undecided elements.
    let mut hit = vec![false; inst.sets().len()];
    let mut undecided: Vec<usize> = inst.sets().iter().map(Vec::len).collect();
    let mut selected = vec![false; n];

    // Decide elements one block at a time. For element i:
    //   E[Φ | select i]   − E[Φ | reject i]
    // = 1 − χ · Σ_{unhit u ∋ i} |S_u| · (1−p)^{undecided_u − 1}
    // (selecting pays +1 in |Z| but zeroes the expected miss mass of every
    // set containing i; rejecting keeps those sets' miss probability, now
    // conditioned on one fewer undecided element).
    for i in 0..n {
        let mut gain = 0.0f64;
        for &si in &containing[i] {
            let si = si as usize;
            if !hit[si] {
                let others = undecided[si].saturating_sub(1) as i32;
                gain += inst.sets()[si].len() as f64 * (1.0 - p).powi(others);
            }
        }
        let select = chi * gain >= 1.0;
        if select {
            selected[i] = true;
            for &si in &containing[i] {
                hit[si as usize] = true;
            }
        }
        for &si in &containing[i] {
            undecided[si as usize] -= 1;
        }
    }
    SoftHittingSet::from_selection(inst, &selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_instance(
        universe: usize,
        delta: usize,
        num_sets: usize,
        seed: u64,
    ) -> SoftHittingInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sets: Vec<Vec<usize>> = (0..num_sets)
            .map(|_| {
                let size = delta + rng.gen_range(0..delta);
                let mut s: Vec<usize> = Vec::new();
                while s.len() < size {
                    let e = rng.gen_range(0..universe);
                    if !s.contains(&e) {
                        s.push(e);
                    }
                }
                s
            })
            .collect();
        SoftHittingInstance::new(universe, delta, sets).unwrap()
    }

    #[test]
    fn deterministic_satisfies_definition() {
        for (universe, delta, sets, seed) in [
            (256usize, 16usize, 64usize, 1u64),
            (512, 8, 200, 2),
            (128, 32, 16, 3),
            (1024, 64, 300, 4),
        ] {
            let inst = random_instance(universe, delta, sets, seed);
            let mut ledger = RoundLedger::new(universe);
            let z = soft_hitting_set(&inst, &mut ledger);
            assert!(
                z.verify(&inst, 3.0),
                "N={universe} Δ={delta} |L|={sets}: |Z|={} unhit={}",
                z.set.len(),
                z.unhit_mass
            );
            assert!(ledger.total_rounds() > 0);
        }
    }

    #[test]
    fn deterministic_set_has_no_log_factor() {
        // The headline property: |Z| ≤ 3N/Δ (+3), strictly below the plain
        // hitting-set bound Θ(N ln N / Δ) for large N.
        let universe = 2048;
        let delta = 64;
        let inst = random_instance(universe, delta, 500, 7);
        let mut ledger = RoundLedger::new(universe);
        let z = soft_hitting_set(&inst, &mut ledger);
        let soft_bound = 3.0 * universe as f64 / delta as f64 + 3.0;
        let hard_bound = universe as f64 * (universe as f64).ln() / delta as f64;
        assert!((z.set.len() as f64) <= soft_bound);
        assert!((z.set.len() as f64) < hard_bound / 2.0);
    }

    #[test]
    fn empty_l_yields_small_set() {
        let inst = SoftHittingInstance::new(100, 10, Vec::new()).unwrap();
        let mut ledger = RoundLedger::new(100);
        let z = soft_hitting_set(&inst, &mut ledger);
        // No sets to hit: nothing forces selections.
        assert!(z.set.len() <= 31, "|Z| = {}", z.set.len());
        assert_eq!(z.unhit_mass, 0);
        assert!(z.verify(&inst, 3.0));
    }

    #[test]
    fn delta_one_selects_everything_needed() {
        let sets: Vec<Vec<usize>> = (0..8).map(|i| vec![i]).collect();
        let inst = SoftHittingInstance::new(8, 1, sets).unwrap();
        let mut ledger = RoundLedger::new(8);
        let z = soft_hitting_set(&inst, &mut ledger);
        // With Δ = 1, c·N/Δ ≥ N: selecting everything is allowed, and the
        // potential argument still bounds unhit mass by 3·|L|.
        assert!(z.verify(&inst, 3.0));
    }

    #[test]
    fn instance_validation() {
        assert!(matches!(
            SoftHittingInstance::new(10, 0, vec![]),
            Err(SoftHittingError::DeltaZero)
        ));
        assert!(matches!(
            SoftHittingInstance::new(10, 3, vec![vec![1, 2]]),
            Err(SoftHittingError::SetTooSmall { .. })
        ));
        assert!(matches!(
            SoftHittingInstance::new(10, 2, vec![vec![1, 10]]),
            Err(SoftHittingError::ElementOutOfRange { .. })
        ));
    }

    #[test]
    fn unhit_statistics_are_consistent() {
        let inst = random_instance(128, 8, 40, 20);
        let mut ledger = RoundLedger::new(128);
        let z = soft_hitting_set(&inst, &mut ledger);
        // Recompute unhit mass independently.
        let mut mass = 0;
        let mut count = 0;
        for s in inst.sets() {
            if !s.iter().any(|e| z.set.binary_search(e).is_ok()) {
                mass += s.len();
                count += 1;
            }
        }
        assert_eq!(mass, z.unhit_mass);
        assert_eq!(count, z.unhit_sets);
    }
}
