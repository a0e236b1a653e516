//! The admission-control queue: bounded, non-blocking intake, blocking
//! batched drain.
//!
//! Readers call [`BoundedQueue::try_push`], which never blocks — a full
//! queue is the shedding signal (the caller answers `Overloaded`), and a
//! closed queue means shutdown (`ShuttingDown`). Workers call
//! [`BoundedQueue::pop_batch`], which blocks until work arrives and then
//! drains up to a batch of it in one lock hold, so co-arriving requests
//! coalesce into one oracle batch call.
//!
//! Close semantics are drain-friendly: [`BoundedQueue::close`] rejects new
//! pushes immediately but lets workers keep popping until the queue is
//! empty — in-flight requests complete, new ones are refused. That is the
//! graceful-shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::lock_recovering;

/// Why a push was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushError {
    /// The queue is at capacity — shed the request.
    Full,
    /// The queue is closed — the server is draining.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with batched, blocking consumption.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking push.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item comes back with the error.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = lock_recovering(&self.inner);
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then drains up to `max` items in
    /// arrival order. Returns an empty vec only when the queue is closed
    /// *and* fully drained — the worker's exit signal.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) {
        out.clear();
        let mut inner = lock_recovering(&self.inner);
        loop {
            if !inner.items.is_empty() {
                let take = inner.items.len().min(max.max(1));
                out.extend(inner.items.drain(..take));
                // More left? Wake a sibling worker.
                let more = !inner.items.is_empty();
                drop(inner);
                if more {
                    self.ready.notify_one();
                }
                return;
            }
            if inner.closed {
                return;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes intake. Pending items remain poppable; blocked workers wake.
    pub fn close(&self) {
        lock_recovering(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// Current depth (racy snapshot — for stats).
    pub fn depth(&self) -> usize {
        lock_recovering(&self.inner).items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_shed_and_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3).unwrap_err(), (3, PushError::Full));
        assert_eq!(q.depth(), 2);

        let mut batch = Vec::new();
        q.pop_batch(10, &mut batch);
        assert_eq!(batch, vec![1, 2]);

        q.close();
        assert_eq!(q.try_push(4).unwrap_err(), (4, PushError::Closed));
        q.pop_batch(10, &mut batch);
        assert!(batch.is_empty(), "closed + drained");
    }

    #[test]
    fn close_drains_pending_items_first() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        let mut batch = Vec::new();
        q.pop_batch(1, &mut batch);
        assert_eq!(batch, vec![1]);
        q.pop_batch(1, &mut batch);
        assert_eq!(batch, vec![2]);
        q.pop_batch(1, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn blocked_workers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut total = 0u64;
                    let mut batch = Vec::new();
                    loop {
                        q.pop_batch(4, &mut batch);
                        if batch.is_empty() {
                            return total;
                        }
                        total += batch.drain(..).sum::<u64>();
                    }
                })
            })
            .collect();
        for i in 1..=100u64 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err((_, PushError::Full)) => std::thread::yield_now(),
                    Err((_, PushError::Closed)) => unreachable!(),
                }
            }
        }
        q.close();
        let grand: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(grand, 5050);
    }
}
