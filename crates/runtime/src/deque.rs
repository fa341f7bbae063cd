//! Minimal work-stealing primitives on `std` alone.
//!
//! The threaded runtime previously leaned on `crossbeam::deque`; this module
//! replaces it with mutex-guarded double-ended queues so the workspace builds
//! with no external dependencies at all. The semantics are the same ones the
//! runtime relies on: the owner pushes and pops LIFO at the back of its deque
//! (depth-first execution keeps the working set small), thieves and the
//! global injector take FIFO from the front (stealing the biggest subtrees).
//! Contention on these locks is bounded by the steal rate: an idle worker
//! tries one sibling per sweep and parks between sweeps.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The owning side of a worker's deque: LIFO push/pop at the back.
pub(crate) struct Worker<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Worker<T> {
    /// A fresh, empty deque.
    pub(crate) fn new_lifo() -> Self {
        Self {
            inner: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Pushes a task for LIFO execution by the owner.
    pub(crate) fn push(&self, t: T) {
        self.inner.lock().expect("deque poisoned").push_back(t);
    }

    /// Pops the most recently pushed task (depth-first order).
    pub(crate) fn pop(&self) -> Option<T> {
        self.inner.lock().expect("deque poisoned").pop_back()
    }

    /// A handle other workers use to steal from this deque.
    pub(crate) fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The thieving side of a worker's deque: FIFO steal from the front.
pub(crate) struct Stealer<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Stealer<T> {
    /// Steals the oldest queued task, if any.
    pub(crate) fn steal(&self) -> Option<T> {
        self.inner.lock().expect("deque poisoned").pop_front()
    }
}

/// A global FIFO injection queue shared by the whole pool.
pub(crate) struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// An empty injector.
    pub(crate) fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueues a task for any worker to pick up.
    pub(crate) fn push(&self, t: T) {
        self.queue.lock().expect("injector poisoned").push_back(t);
    }

    /// Takes the oldest injected task, if any.
    pub(crate) fn steal(&self) -> Option<T> {
        self.queue.lock().expect("injector poisoned").pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let w: Worker<u32> = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Some(1), "thief takes the oldest");
        assert_eq!(w.pop(), Some(3), "owner takes the newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn injector_is_fifo() {
        let inj: Injector<u32> = Injector::new();
        inj.push(1);
        inj.push(2);
        assert_eq!(inj.steal(), Some(1));
        assert_eq!(inj.steal(), Some(2));
        assert_eq!(inj.steal(), None);
    }

    #[test]
    fn stealing_is_safe_across_threads() {
        let w: Worker<u64> = Worker::new_lifo();
        for i in 0..1000 {
            w.push(i);
        }
        let total: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = w.stealer();
                    scope.spawn(move || {
                        let mut sum = 0u64;
                        while let Some(v) = s.steal() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .sum()
        });
        assert_eq!(total, 999 * 1000 / 2);
    }
}
