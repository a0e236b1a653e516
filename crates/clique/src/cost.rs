//! Round-cost accounting for Congested Clique algorithms.
//!
//! Algorithms in this workspace perform their computation centrally but
//! charge every communication step to a [`RoundLedger`]. The formulas charged
//! live in [`model`] and correspond one-to-one to the communication lemmas the
//! paper invokes (see the table in `DESIGN.md` §1).
//!
//! Rounds are integers. The paper's bounds are asymptotic; the constants used
//! here are the smallest ones consistent with the cited constructions and are
//! documented on each formula. What matters for the reproduction is the
//! *growth shape* (who wins, where crossovers fall), which constants do not
//! change.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pure round-cost formulas for Congested Clique primitives.
///
/// All functions are deterministic and side-effect free so that they can be
/// unit-tested directly; [`RoundLedger`] exposes charging wrappers.
pub mod model {
    /// Ceiling division helper used by the formulas.
    #[inline]
    pub fn div_ceil(a: u64, b: u64) -> u64 {
        debug_assert!(b > 0);
        a.div_ceil(b)
    }

    /// `⌈log₂(x)⌉` for `x ≥ 1`; `0` for `x ≤ 1`.
    #[inline]
    pub fn log2_ceil(x: u64) -> u64 {
        if x <= 1 {
            0
        } else {
            64 - (x - 1).leading_zeros() as u64
        }
    }

    /// `⌈x^{1/3}⌉` computed exactly with integer arithmetic.
    pub fn cbrt_ceil(x: u64) -> u64 {
        if x == 0 {
            return 0;
        }
        let mut r = (x as f64).cbrt().round() as u64;
        // Fix up floating point error.
        while r > 0 && (r - 1).saturating_pow(3) >= x {
            r -= 1;
        }
        while r.saturating_pow(3) < x {
            r += 1;
        }
        r
    }

    /// One node broadcasts a single `O(log n)`-bit word: 1 round.
    ///
    /// In the clique a node can send (the same or different) words to all
    /// `n − 1` peers in a single round.
    #[inline]
    pub fn broadcast_one() -> u64 {
        1
    }

    /// Lenzen's deterministic routing \[Lenzen, PODC 2013\]: if every node is
    /// the source of at most `load` words and the destination of at most
    /// `load` words, all words are delivered in `O(⌈load/n⌉)` rounds.
    ///
    /// Constant: 2 rounds per unit of normalized load (distribute + deliver).
    #[inline]
    pub fn lenzen_route(load: u64, n: u64) -> u64 {
        2 * div_ceil(load.max(1), n.max(1))
    }

    /// One node learns `k` words scattered across the clique (gather):
    /// `⌈k/n⌉ + 1` rounds via Lenzen routing (Thm 32 proof of the paper).
    #[inline]
    pub fn gather_to_one(k: u64, n: u64) -> u64 {
        div_ceil(k.max(1), n.max(1)) + 1
    }

    /// All nodes learn the same `k` words ("learn-all"): `2⌈k/n⌉ + 2` rounds.
    ///
    /// Proof of Thm 32: one node gathers the `k` words (`⌈k/n⌉ + 1`), splits
    /// them into `n` parts of size `⌈k/n⌉`, sends one part per node
    /// (1 round folded into the gather constant), and every node broadcasts
    /// its part (`⌈k/n⌉` rounds).
    #[inline]
    pub fn learn_all(k: u64, n: u64) -> u64 {
        2 * div_ceil(k.max(1), n.max(1)) + 2
    }

    /// Dense min-plus (semiring) matrix product: `⌈n^{1/3}⌉` rounds
    /// \[Censor-Hillel et al., *Algebraic methods in the congested clique*\].
    #[inline]
    pub fn dense_minplus(n: u64) -> u64 {
        cbrt_ceil(n).max(1)
    }

    /// Sparse min-plus matrix product (Thm 36 of the paper, from \[3,5\]):
    /// `O((ρ_S ρ_T ρ_P)^{1/3} / n^{2/3} + 1)` rounds, with `ρ_P` the output
    /// density (bounded by `n` when unknown).
    #[inline]
    pub fn sparse_minplus(rho_s: u64, rho_t: u64, rho_out: u64, n: u64) -> u64 {
        let num = cbrt_ceil(rho_s.max(1) * rho_t.max(1) * rho_out.max(1));
        let den = (n.max(1) as f64).powf(2.0 / 3.0);
        ((num as f64 / den).ceil() as u64) + 1
    }

    /// Filtered min-plus product (Thm 58 of the paper, from \[3\]):
    /// `O((ρ_S ρ_T ρ)^{1/3}/n^{2/3} + log W)` rounds where `ρ` is the filter
    /// width and `W` bounds the number of distinct finite values.
    #[inline]
    pub fn filtered_minplus(rho_s: u64, rho_t: u64, rho: u64, w: u64, n: u64) -> u64 {
        sparse_minplus(rho_s, rho_t, rho, n) + log2_ceil(w.max(2))
    }

    /// `(S,d)`-source detection (Thm 11 of the paper, from \[3\]):
    /// `O((m^{1/3}|S|^{2/3}/n + 1) · d)` rounds on a graph with `m` edges.
    #[inline]
    pub fn source_detection(m: u64, s: u64, d: u64, n: u64) -> u64 {
        let per_hop = ((m.max(1) as f64).powf(1.0 / 3.0) * (s.max(1) as f64).powf(2.0 / 3.0)
            / n.max(1) as f64)
            .ceil() as u64
            + 1;
        per_hop * d.max(1)
    }

    /// Distance-through-sets (Thm 35 of the paper, from \[3\]):
    /// `O(ρ^{2/3}/n^{1/3} + 1)` rounds where `ρ` is the average set size.
    #[inline]
    pub fn through_sets(rho: u64, n: u64) -> u64 {
        ((rho.max(1) as f64).powf(2.0 / 3.0) / (n.max(1) as f64).powf(1.0 / 3.0)).ceil() as u64 + 1
    }

    /// Seed length of the read-once-DNF-fooling PRG (Lemma 56, from
    /// \[Gopalan et al., FOCS 2012\]): `O(log N · (log log N)³)` bits.
    #[inline]
    pub fn prg_seed_bits(big_n: u64) -> u64 {
        let ln = log2_ceil(big_n.max(4)).max(2);
        let lln = log2_ceil(ln).max(1);
        ln * lln.pow(3)
    }

    /// Deterministic (soft) hitting set selection by the method of
    /// conditional expectations over `⌊log n⌋`-bit seed chunks
    /// (Thm 57): `⌈seed_bits / ⌊log₂ n⌋⌉` rounds, i.e. `O((log log n)³)`.
    #[inline]
    pub fn conditional_expectation_rounds(big_n: u64, n: u64) -> u64 {
        let chunk = log2_ceil(n.max(4)).max(1);
        div_ceil(prg_seed_bits(big_n), chunk).max(1)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn div_ceil_basics() {
            assert_eq!(div_ceil(0, 4), 0);
            assert_eq!(div_ceil(1, 4), 1);
            assert_eq!(div_ceil(4, 4), 1);
            assert_eq!(div_ceil(5, 4), 2);
        }

        #[test]
        fn log2_ceil_basics() {
            assert_eq!(log2_ceil(0), 0);
            assert_eq!(log2_ceil(1), 0);
            assert_eq!(log2_ceil(2), 1);
            assert_eq!(log2_ceil(3), 2);
            assert_eq!(log2_ceil(1024), 10);
            assert_eq!(log2_ceil(1025), 11);
        }

        #[test]
        fn cbrt_ceil_exact_cubes() {
            for r in 0..50u64 {
                assert_eq!(cbrt_ceil(r * r * r), r);
                if r > 1 {
                    assert_eq!(cbrt_ceil(r * r * r - 1), r);
                    assert_eq!(cbrt_ceil(r * r * r + 1), r + 1);
                }
            }
        }

        #[test]
        fn lenzen_is_constant_for_balanced_load() {
            assert_eq!(lenzen_route(1000, 1000), 2);
            assert_eq!(lenzen_route(1, 1000), 2);
            assert_eq!(lenzen_route(2000, 1000), 4);
        }

        #[test]
        fn learn_all_scales_with_k_over_n() {
            let n = 1024;
            assert_eq!(learn_all(n, n), 4);
            assert_eq!(learn_all(10 * n, n), 22);
        }

        #[test]
        fn dense_minplus_is_cbrt() {
            assert_eq!(dense_minplus(1000), 10);
            assert_eq!(dense_minplus(1), 1);
        }

        #[test]
        fn sparse_minplus_constant_when_sqrt_dense() {
            // ρ_S = ρ_T = √n, output density n: (n^{1/2}·n^{1/2}·n)^{1/3} = n^{2/3};
            // divided by n^{2/3} this is 1, so the product is O(1) rounds.
            let n = 1 << 12;
            let s = 1 << 6;
            let r = sparse_minplus(s, s, n, n);
            assert!(r <= 3, "expected O(1), got {r}");
        }

        #[test]
        fn source_detection_linear_in_d() {
            let n = 1024;
            let m = n * 8;
            let s = 32;
            let r1 = source_detection(m, s, 10, n);
            let r2 = source_detection(m, s, 20, n);
            assert_eq!(r2, 2 * r1);
        }

        #[test]
        fn through_sets_constant_for_sqrt_sets() {
            let n = 1 << 12;
            let r = through_sets(1 << 6, n);
            assert!(r <= 3, "expected O(1), got {r}");
        }

        #[test]
        fn prg_seed_matches_asymptotics() {
            // log N = 12, log log N ≈ 4 → 12·64 = 768 bits.
            assert_eq!(prg_seed_bits(4096), 12 * 4u64.pow(3));
        }

        #[test]
        fn conditional_expectation_is_polyloglog() {
            // For N = n the round count is (log log n)³ up to rounding.
            let n = 1u64 << 12;
            let r = conditional_expectation_rounds(n, n);
            assert_eq!(r, 64); // (log log n)³ with log log n = 4
        }
    }
}

/// A single cost entry recorded by the ledger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CostEntry {
    /// Slash-separated phase path active when the charge was made.
    pub phase: String,
    /// Human-readable label of the primitive.
    pub label: String,
    /// Rounds charged.
    pub rounds: u64,
}

/// Hierarchical round/message ledger for one algorithm execution.
///
/// Create one ledger per algorithm run, [`enter`](RoundLedger::enter) phases
/// to attribute costs, and charge primitives through the `charge_*` methods
/// (which apply the formulas in [`model`]) or [`charge`](RoundLedger::charge)
/// directly.
///
/// # Example
///
/// ```
/// use cc_clique::cost::RoundLedger;
///
/// let mut ledger = RoundLedger::new(256);
/// ledger.charge("announce sets", 1);
/// {
///     let mut phase = ledger.enter("hopset");
///     phase.charge_source_detection("A1 exploration", 2048, 16, 8);
/// }
/// assert!(ledger.total_rounds() > 1);
/// assert!(ledger.report().contains("hopset"));
/// ```
#[derive(Clone, Debug)]
pub struct RoundLedger {
    n: usize,
    entries: Vec<CostEntry>,
    stack: Vec<String>,
    messages: u64,
}

impl RoundLedger {
    /// Creates a ledger for an `n`-node clique.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "clique must have at least one node");
        RoundLedger {
            n,
            entries: Vec::new(),
            stack: Vec::new(),
            messages: 0,
        }
    }

    /// Number of nodes in the clique this ledger models.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Enters a named phase; the returned guard pops the phase on drop and
    /// dereferences to the ledger so charges can be made through it.
    pub fn enter(&mut self, phase: &str) -> PhaseGuard<'_> {
        self.stack.push(phase.to_string());
        PhaseGuard { ledger: self }
    }

    fn phase_path(&self) -> String {
        self.stack.join("/")
    }

    /// Charges `rounds` rounds under the current phase.
    pub fn charge(&mut self, label: impl Into<String>, rounds: u64) {
        let entry = CostEntry {
            phase: self.phase_path(),
            label: label.into(),
            rounds,
        };
        self.entries.push(entry);
    }

    /// Records `count` point-to-point messages (informational; does not
    /// affect round totals).
    pub fn note_messages(&mut self, count: u64) {
        self.messages += count;
    }

    /// Total messages noted.
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Charges one broadcast round.
    pub fn charge_broadcast(&mut self, label: impl Into<String>) {
        self.charge(label, model::broadcast_one());
    }

    /// Charges a Lenzen routing step with per-node load `load`.
    pub fn charge_lenzen(&mut self, label: impl Into<String>, load: u64) {
        let n = self.n as u64;
        self.charge(label, model::lenzen_route(load, n));
    }

    /// Charges a learn-all of `k` words.
    pub fn charge_learn_all(&mut self, label: impl Into<String>, k: u64) {
        let n = self.n as u64;
        self.charge(label, model::learn_all(k, n));
    }

    /// Charges a dense min-plus matrix product.
    pub fn charge_dense_minplus(&mut self, label: impl Into<String>) {
        let n = self.n as u64;
        self.charge(label, model::dense_minplus(n));
    }

    /// Charges a sparse min-plus matrix product (Thm 36).
    pub fn charge_sparse_minplus(
        &mut self,
        label: impl Into<String>,
        rho_s: u64,
        rho_t: u64,
        rho_out: u64,
    ) {
        let n = self.n as u64;
        self.charge(label, model::sparse_minplus(rho_s, rho_t, rho_out, n));
    }

    /// Charges a filtered min-plus product (Thm 58).
    pub fn charge_filtered_minplus(
        &mut self,
        label: impl Into<String>,
        rho_s: u64,
        rho_t: u64,
        rho: u64,
        w: u64,
    ) {
        let n = self.n as u64;
        self.charge(label, model::filtered_minplus(rho_s, rho_t, rho, w, n));
    }

    /// Charges an `(S,d)`-source detection run (Thm 11).
    pub fn charge_source_detection(&mut self, label: impl Into<String>, m: u64, s: u64, d: u64) {
        let n = self.n as u64;
        self.charge(label, model::source_detection(m, s, d, n));
    }

    /// Charges a distance-through-sets computation (Thm 35).
    pub fn charge_through_sets(&mut self, label: impl Into<String>, rho: u64) {
        let n = self.n as u64;
        self.charge(label, model::through_sets(rho, n));
    }

    /// Charges a deterministic conditional-expectation selection over a
    /// universe of size `big_n` (Thm 57 / Lemma 9).
    pub fn charge_conditional_expectation(&mut self, label: impl Into<String>, big_n: u64) {
        let n = self.n as u64;
        self.charge(label, model::conditional_expectation_rounds(big_n, n));
    }

    /// Total rounds charged so far.
    pub fn total_rounds(&self) -> u64 {
        self.entries.iter().map(|e| e.rounds).sum()
    }

    /// Rounds aggregated by top-level phase, in deterministic order.
    pub fn by_phase(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for e in &self.entries {
            let top = e.phase.split('/').next().unwrap_or("").to_string();
            *map.entry(top).or_insert(0) += e.rounds;
        }
        map
    }

    /// All raw entries in charge order.
    pub fn entries(&self) -> &[CostEntry] {
        &self.entries
    }

    /// Merges another ledger's entries into this one under the current phase.
    pub fn absorb(&mut self, other: &RoundLedger) {
        let prefix = self.phase_path();
        for e in &other.entries {
            let phase = if prefix.is_empty() {
                e.phase.clone()
            } else if e.phase.is_empty() {
                prefix.clone()
            } else {
                format!("{prefix}/{}", e.phase)
            };
            self.entries.push(CostEntry {
                phase,
                label: e.label.clone(),
                rounds: e.rounds,
            });
        }
        self.messages += other.messages;
    }

    /// Renders the ledger in the integer metrics-text style shared with the
    /// observability layer: one `{prefix}_rounds_total` / `_messages_total`
    /// line plus a `{prefix}_phase_rounds{phase="…"}` line per top-level
    /// phase (deterministic order — same [`RoundLedger::by_phase`]
    /// aggregation the report prints). Everything is `u64`; no floats.
    pub fn exposition(&self, prefix: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{prefix}_rounds_total {}\n", self.total_rounds()));
        out.push_str(&format!("{prefix}_messages_total {}\n", self.messages));
        for (phase, rounds) in self.by_phase() {
            let name = if phase.is_empty() { "root" } else { &phase };
            out.push_str(&format!(
                "{prefix}_phase_rounds{{phase=\"{name}\"}} {rounds}\n"
            ));
        }
        out
    }

    /// Renders a human-readable per-phase report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rounds total: {} (n = {})\n",
            self.total_rounds(),
            self.n
        ));
        for (phase, rounds) in self.by_phase() {
            let name = if phase.is_empty() { "<root>" } else { &phase };
            out.push_str(&format!("  {name:<32} {rounds:>8}\n"));
        }
        out
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report())
    }
}

/// RAII guard returned by [`RoundLedger::enter`].
///
/// Dereferences to the ledger; pops the phase on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    ledger: &'a mut RoundLedger,
}

impl Deref for PhaseGuard<'_> {
    type Target = RoundLedger;

    fn deref(&self) -> &RoundLedger {
        self.ledger
    }
}

impl DerefMut for PhaseGuard<'_> {
    fn deref_mut(&mut self) -> &mut RoundLedger {
        self.ledger
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.ledger.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut l = RoundLedger::new(64);
        l.charge("a", 3);
        l.charge("b", 4);
        assert_eq!(l.total_rounds(), 7);
        assert_eq!(l.entries().len(), 2);
    }

    #[test]
    fn phases_nest_and_pop() {
        let mut l = RoundLedger::new(64);
        {
            let mut g = l.enter("outer");
            g.charge("x", 1);
            {
                let mut g2 = g.enter("inner");
                g2.charge("y", 2);
            }
            g.charge("z", 4);
        }
        l.charge("root", 8);
        let phases: Vec<_> = l.entries().iter().map(|e| e.phase.clone()).collect();
        assert_eq!(phases, vec!["outer", "outer/inner", "outer", ""]);
        let by = l.by_phase();
        assert_eq!(by["outer"], 7);
        assert_eq!(by[""], 8);
    }

    #[test]
    fn absorb_prefixes_phases() {
        let mut inner = RoundLedger::new(64);
        {
            let mut g = inner.enter("sub");
            g.charge("w", 5);
        }
        let mut outer = RoundLedger::new(64);
        let mut g = outer.enter("main");
        g.absorb(&inner);
        drop(g);
        assert_eq!(outer.total_rounds(), 5);
        assert_eq!(outer.entries()[0].phase, "main/sub");
    }

    #[test]
    fn convenience_charges_use_model() {
        let mut l = RoundLedger::new(1024);
        l.charge_learn_all("k", 1024);
        assert_eq!(l.total_rounds(), model::learn_all(1024, 1024));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = RoundLedger::new(0);
    }

    #[test]
    fn report_contains_phases() {
        let mut l = RoundLedger::new(16);
        let mut g = l.enter("emulator");
        g.charge("sample", 1);
        drop(g);
        assert!(l.report().contains("emulator"));
        assert!(l.to_string().contains("rounds total"));
    }

    #[test]
    fn exposition_renders_totals_and_phases() {
        let mut l = RoundLedger::new(16);
        let mut g = l.enter("emulator");
        g.charge("sample", 3);
        drop(g);
        l.charge("loose", 4);
        l.note_messages(9);
        let text = l.exposition("cc_solver");
        assert!(text.contains("cc_solver_rounds_total 7\n"));
        assert!(text.contains("cc_solver_messages_total 9\n"));
        assert!(text.contains("cc_solver_phase_rounds{phase=\"emulator\"} 3\n"));
        assert!(text.contains("cc_solver_phase_rounds{phase=\"root\"} 4\n"));
    }

    #[test]
    fn messages_are_tracked() {
        let mut l = RoundLedger::new(16);
        l.note_messages(100);
        l.note_messages(20);
        assert_eq!(l.total_messages(), 120);
    }
}
