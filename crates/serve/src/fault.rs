//! Deterministic fault injection for the serving plane.
//!
//! A [`FaultPlan`] is a seeded schedule of induced failures, threaded
//! through test-only seams in the server ([`crate::server`]) and client
//! ([`crate::client`]): worker panics, connection resets, torn
//! (partially-written) frames on either side, refused thread spawns.
//! Every decision is a pure function of `(seed, site, draw index)` — the same xorshift
//! replay-coordinates discipline as `cc-analyze schedule` — so a chaos
//! run that fails prints one seed and replays exactly, per site. (Thread
//! interleaving still varies across runs; what is deterministic is the
//! sequence of decisions each site sees, which is what the exactly-once
//! and bit-identity assertions depend on.)
//!
//! Rates are per-mille per draw, and each site has a *draw window*: after
//! `window` draws the site goes quiet. A chaos test sizes windows so the
//! system self-quiesces — faults stop firing, traffic drains cleanly, and
//! the final accounting phase can assert exact request/response
//! reconciliation with no fault in flight.
//!
//! The production path never constructs a plan; `ServerConfig::fault`
//! defaults to `None` and every seam is a cheap `Option` check.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where a fault can be injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// A worker panics at the top of a batch; containment must answer the
    /// batch `Internal` and keep the worker pool alive.
    WorkerPanic,
    /// The server resets a connection between frames; the client sees a
    /// disconnect and must reconnect (retryable).
    ConnReset,
    /// The server writes a torn response frame, then kills the
    /// connection; the client must treat the torn tail as fatal for that
    /// request (never blind-retry a partially-read response).
    PartialWrite,
    /// The client writes a torn request frame, then drops the connection;
    /// the server's reader must survive the mid-stream EOF.
    ClientTornWrite,
    /// The OS refuses to start one of a connection's threads; the acceptor
    /// must drop that connection, count it and keep accepting.
    SpawnRefused,
}

const SITE_COUNT: usize = 5;

impl FaultSite {
    /// Every site, for iteration in summaries.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WorkerPanic,
        FaultSite::ConnReset,
        FaultSite::PartialWrite,
        FaultSite::ClientTornWrite,
        FaultSite::SpawnRefused,
    ];

    /// The site's slot in the per-site tables: its declaration order.
    fn idx(self) -> usize {
        self as usize
    }

    /// A per-site salt so sites draw independent streams from one seed.
    fn salt(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0x9e37_79b9_7f4a_7c15,
            FaultSite::ConnReset => 0xbf58_476d_1ce4_e5b9,
            FaultSite::PartialWrite => 0x94d0_49bb_1331_11eb,
            FaultSite::ClientTornWrite => 0xd6e8_feb8_6659_fd93,
            FaultSite::SpawnRefused => 0xa076_1d64_78bd_642f,
        }
    }
}

/// One site's schedule: fire at `per_mille`/1000 per draw, for the first
/// `window` draws only.
#[derive(Clone, Copy, Debug, Default)]
struct SiteRate {
    per_mille: u32,
    window: u64,
}

/// A seeded, replayable fault schedule. Cheap to share (`Arc`) and to
/// consult (one atomic increment + one hash per draw).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [SiteRate; SITE_COUNT],
    draws: [AtomicU64; SITE_COUNT],
    fired: [AtomicU64; SITE_COUNT],
}

/// SplitMix64 finalizer: a well-mixed pure function of the input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with every site quiet; arm sites with
    /// [`FaultPlan::with_site`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [SiteRate::default(); SITE_COUNT],
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Arms `site` at `per_mille`/1000 per draw for its first `window`
    /// draws (after which the site is quiet — the self-quiesce contract).
    #[must_use]
    pub fn with_site(mut self, site: FaultSite, per_mille: u32, window: u64) -> Self {
        if let Some(rate) = self.rates.get_mut(site.idx()) {
            *rate = SiteRate { per_mille, window };
        }
        self
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws one decision for `site`. Deterministic per `(seed, site,
    /// draw index)` — calling sites consume their own draw streams.
    pub fn fire(&self, site: FaultSite) -> bool {
        let i = site.idx();
        let Some(draws) = self.draws.get(i) else {
            return false;
        };
        let k = draws.fetch_add(1, Ordering::Relaxed);
        let rate = self.rates.get(i).copied().unwrap_or_default();
        if rate.per_mille == 0 || k >= rate.window {
            return false;
        }
        let hit = mix(self.seed ^ site.salt() ^ k) % 1000 < u64::from(rate.per_mille);
        if hit {
            if let Some(f) = self.fired.get(i) {
                f.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// How many times `site` actually fired so far.
    pub fn fires(&self, site: FaultSite) -> u64 {
        self.fired
            .get(site.idx())
            .map_or(0, |f| f.load(Ordering::Relaxed))
    }

    /// Whether every armed site has exhausted its draw window — the
    /// system has self-quiesced and exact accounting is safe.
    pub fn quiesced(&self) -> bool {
        FaultSite::ALL.iter().all(|&site| {
            let rate = self.rates.get(site.idx()).copied().unwrap_or_default();
            rate.per_mille == 0
                || self
                    .draws
                    .get(site.idx())
                    .is_some_and(|d| d.load(Ordering::Relaxed) >= rate.window)
        })
    }

    /// One-line replay coordinates for failure messages.
    pub fn coordinates(&self) -> String {
        format!("fault plan seed {:#018x}", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_draw() {
        let a = FaultPlan::new(7).with_site(FaultSite::WorkerPanic, 300, 64);
        let b = FaultPlan::new(7).with_site(FaultSite::WorkerPanic, 300, 64);
        let fires_a: Vec<bool> = (0..64).map(|_| a.fire(FaultSite::WorkerPanic)).collect();
        let fires_b: Vec<bool> = (0..64).map(|_| b.fire(FaultSite::WorkerPanic)).collect();
        assert_eq!(fires_a, fires_b);
        assert!(fires_a.iter().any(|&f| f), "rate 0.3 over 64 draws fires");
        assert_eq!(
            a.fires(FaultSite::WorkerPanic),
            b.fires(FaultSite::WorkerPanic)
        );
        // A different seed draws a different stream (overwhelmingly).
        let c = FaultPlan::new(8).with_site(FaultSite::WorkerPanic, 300, 64);
        let fires_c: Vec<bool> = (0..64).map(|_| c.fire(FaultSite::WorkerPanic)).collect();
        assert_ne!(fires_a, fires_c);
    }

    #[test]
    fn windows_quiesce_and_unarmed_sites_stay_quiet() {
        let plan = FaultPlan::new(3).with_site(FaultSite::ConnReset, 1000, 5);
        assert!(!plan.quiesced());
        for k in 0..5 {
            assert!(plan.fire(FaultSite::ConnReset), "draw {k} at rate 1000");
        }
        assert!(plan.quiesced());
        assert!(!plan.fire(FaultSite::ConnReset), "window exhausted");
        assert_eq!(plan.fires(FaultSite::ConnReset), 5);
        assert!(!plan.fire(FaultSite::WorkerPanic), "unarmed site");
        assert_eq!(plan.fires(FaultSite::WorkerPanic), 0);
    }
}
