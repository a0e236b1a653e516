//! The hot-reload slot: an epoch-counted [`DistOracle`] swap.
//!
//! [`SnapshotSlot`] holds the serving snapshot behind a narrow mutex that
//! is held only long enough to clone or replace one `Arc` — never across
//! an oracle call, a file open, or any I/O. Workers [`pin`] the current
//! generation once per batch and answer the whole batch against that
//! pinned `Arc`, so a reload that lands mid-batch is invisible to the
//! batch: in-flight work finishes against generation *k* while new
//! batches pin *k+1*. The old snapshot's backing (an `mmap`, via
//! `Arc<dyn ByteOwner>` inside the oracle) is unmapped when the last
//! pinned batch drops its `Arc` — no reader ever observes a torn or
//! unmapped table.
//!
//! Validation (checksum, dimension checks, quarantine) happens *before*
//! [`swap`] in the server's reload path ([`crate::server`]), under the
//! dedicated reload lock — this type only publishes an already-validated
//! snapshot.
//!
//! [`pin`]: SnapshotSlot::pin
//! [`swap`]: SnapshotSlot::swap

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cc_core::DistOracle;

use crate::lock_recovering;

/// One published snapshot: the oracle plus the generation that swapped it
/// in.
#[derive(Debug)]
pub struct Generation {
    /// The serving oracle.
    pub oracle: Arc<DistOracle>,
    /// Monotonic: `1` at boot, `+1` per successful reload.
    pub generation: u64,
}

/// The swap point between the reload path and the workers.
#[derive(Debug)]
pub struct SnapshotSlot {
    /// The narrow lock: held only to clone or replace the `Arc`.
    slot: Mutex<Arc<Generation>>,
    /// Mirror of the published generation, readable without the lock
    /// (stats, version answers).
    generation: AtomicU64,
}

impl SnapshotSlot {
    /// Publishes the boot snapshot as generation 1.
    pub fn new(oracle: Arc<DistOracle>) -> Self {
        SnapshotSlot {
            slot: Mutex::new(Arc::new(Generation {
                oracle,
                generation: 1,
            })),
            generation: AtomicU64::new(1),
        }
    }

    /// Clones the current generation's `Arc`. Workers call this once per
    /// batch; the batch then runs entirely against the pinned snapshot,
    /// immune to concurrent swaps.
    pub fn pin(&self) -> Arc<Generation> {
        Arc::clone(&lock_recovering(&self.slot))
    }

    /// The published generation number, lock-free.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes `oracle` as the next generation and returns its number.
    /// The caller (the server's reload path) has already validated the
    /// snapshot; this only swaps the `Arc`.
    pub fn swap(&self, oracle: Arc<DistOracle>) -> u64 {
        let mut slot = lock_recovering(&self.slot);
        let next = slot.generation.wrapping_add(1);
        *slot = Arc::new(Generation {
            oracle,
            generation: next,
        });
        drop(slot);
        self.generation.store(next, Ordering::Release);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::{DistanceMatrix, Guarantee};
    use cc_graphs::StorageKind;

    fn oracle(n: usize, scale: u32) -> Arc<DistOracle> {
        let mut m = DistanceMatrix::new(n);
        for u in 0..n {
            for v in 0..n {
                let d = u.abs_diff(v) as u32 * scale;
                m.improve(u, v, d);
            }
        }
        Arc::new(DistOracle::from_matrix(
            &m,
            Guarantee::mult2(0.25),
            StorageKind::SymmetricPacked,
        ))
    }

    #[test]
    fn pins_survive_swaps_and_generations_advance() {
        let slot = SnapshotSlot::new(oracle(8, 1));
        assert_eq!(slot.generation(), 1);
        let pinned = slot.pin();
        assert_eq!(pinned.generation, 1);

        assert_eq!(slot.swap(oracle(8, 2)), 2);
        assert_eq!(slot.generation(), 2);
        // The pre-swap pin still answers against generation 1's tables.
        let d = pinned.oracle.dist(0, 5).map(|e| e.dist);
        assert_eq!(d, Some(5));
        let d2 = slot.pin().oracle.dist(0, 5).map(|e| e.dist);
        assert_eq!(d2, Some(10));
    }

    #[test]
    fn concurrent_pinners_always_see_a_whole_generation() {
        let slot = Arc::new(SnapshotSlot::new(oracle(16, 1)));
        std::thread::scope(|scope| {
            let swapper = {
                let slot = Arc::clone(&slot);
                scope.spawn(move || {
                    for round in 0..50u32 {
                        slot.swap(oracle(16, 1 + (round % 3)));
                    }
                })
            };
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let pinned = slot.pin();
                        // Whatever generation we pinned, its answers are
                        // internally consistent: dist(0, v) = v * scale.
                        let one = pinned.oracle.dist(0, 1).map(|e| e.dist);
                        let five = pinned.oracle.dist(0, 5).map(|e| e.dist);
                        match (one, five) {
                            (Some(s), Some(f)) => assert_eq!(f, s * 5),
                            other => panic!("absent answers: {other:?}"),
                        }
                    }
                });
            }
            swapper.join().expect("swapper");
        });
        assert_eq!(slot.generation(), 51);
    }
}
