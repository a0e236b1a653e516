//! Reusable scratch and thread configuration for the sparse min-plus
//! kernel.
//!
//! Repeated products — the filtered `(k,d)`-nearest squaring and apsp2's
//! two-step E'' product — call the kernel several times on same-sized
//! matrices. A [`MinplusWorkspace`] owns the packed accumulator rows and
//! touched-column lists the kernel needs, so steady-state products perform
//! no scratch allocation, and carries the worker-thread count the kernel
//! shards output rows across.

use cc_graphs::INF;

/// The "untouched" value of the packed accumulator: value ∞, witness bits
/// zero. A candidate `(value << 32) | k` beats it exactly when its value is
/// finite — and among equal values the **smaller witness wins**, which is
/// how the kernel keeps the smallest realizing `k` with a single
/// branch-free `min`.
pub(crate) const PACKED_EMPTY: u64 = (INF as u64) << 32;

/// Per-worker scratch of the sparse kernel: the packed accumulator row
/// `(value << 32) | witness` per column, kept at [`PACKED_EMPTY`] between
/// products, and the touched-column list of the sparse emit path. One lane
/// is handed to each worker thread.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) pacc: Vec<u64>,
    pub(crate) touched: Vec<u32>,
}

impl Scratch {
    /// Grows the accumulator to dimension `n`. The empty invariant is
    /// maintained by the kernel (it restores every cell it writes), so
    /// growth only needs to initialize the new tail.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.pacc.len() < n {
            self.pacc.resize(n, PACKED_EMPTY);
        }
        debug_assert!(
            self.pacc.iter().all(|&p| p == PACKED_EMPTY),
            "packed accumulator must be empty between products"
        );
    }
}

/// Reusable workspace for the sparse min-plus kernel.
///
/// Holds the scratch lanes of [`SparseMatrix::minplus`] and the worker
/// thread count it shards rows across. Each output row of a min-plus
/// product depends only on the input matrices, so row sharding is
/// **bit-identical** to serial execution at any thread count (the same
/// determinism argument as the sharded clique engine, DESIGN.md §1.2).
///
/// Construct once and pass to every product of a loop:
///
/// ```
/// use cc_graphs::generators;
/// use cc_matrix::{MinplusWorkspace, SparseMatrix};
///
/// let g = generators::cycle(32);
/// let mut ws = MinplusWorkspace::with_threads(4);
/// let mut a = SparseMatrix::adjacency(&g);
/// for _ in 0..3 {
///     a = a.minplus(&a, &mut ws).0; // no scratch allocation after iter 1
/// }
/// assert_eq!(a.get(0, 8), 8);
/// ```
///
/// [`SparseMatrix::minplus`]: crate::SparseMatrix::minplus
#[derive(Debug)]
pub struct MinplusWorkspace {
    threads: usize,
    lanes: Vec<Scratch>,
}

impl MinplusWorkspace {
    /// A serial (single-thread) workspace.
    pub fn new() -> Self {
        Self::with_threads(1)
    }

    /// A workspace running the kernel on `threads` worker threads
    /// (`0` and `1` both mean serial).
    pub fn with_threads(threads: usize) -> Self {
        MinplusWorkspace {
            threads: threads.max(1),
            lanes: Vec::new(),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `count` scratch lanes, each grown to dimension `n`.
    pub(crate) fn lanes(&mut self, count: usize, n: usize) -> &mut [Scratch] {
        if self.lanes.len() < count {
            self.lanes.resize_with(count, Scratch::default);
        }
        for lane in &mut self.lanes[..count] {
            lane.ensure(n);
        }
        &mut self.lanes[..count]
    }
}

impl Default for MinplusWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(MinplusWorkspace::with_threads(0).threads(), 1);
        assert_eq!(MinplusWorkspace::with_threads(6).threads(), 6);
        assert_eq!(MinplusWorkspace::default().threads(), 1);
    }

    #[test]
    fn lanes_grow_and_are_reused() {
        let mut ws = MinplusWorkspace::with_threads(2);
        {
            let lanes = ws.lanes(2, 8);
            assert_eq!(lanes.len(), 2);
            assert!(lanes.iter().all(|l| l.pacc.len() == 8));
        }
        // Larger n grows in place; the empty invariant holds for the tail.
        let lanes = ws.lanes(2, 16);
        assert!(lanes.iter().all(|l| l.pacc.len() == 16));
        assert!(lanes
            .iter()
            .all(|l| l.pacc.iter().all(|&p| p == PACKED_EMPTY)));
    }
}
