//! The bounded global ring behind the journal and the span recorder.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::metrics::Counter;

/// A bounded FIFO of records: once full, each push evicts the oldest
/// record and bumps the drop counter. Only the (cold) enabled recording
/// paths lock it.
pub(crate) struct Ring<T> {
    items: Mutex<VecDeque<T>>,
    /// Effective capacity; 0 means "not yet resolved" (env var or default).
    capacity: AtomicUsize,
    env_var: &'static str,
    default: usize,
    dropped: &'static Counter,
}

impl<T: Copy> Ring<T> {
    /// An empty ring whose capacity comes from `env_var`, else `default`,
    /// until [`Ring::set_capacity`] overrides it.
    pub(crate) const fn new(
        env_var: &'static str,
        default: usize,
        dropped: &'static Counter,
    ) -> Self {
        Ring {
            items: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(0),
            env_var,
            default,
            dropped,
        }
    }

    /// The last [`Ring::set_capacity`] value, else the env var, else the
    /// default.
    pub(crate) fn capacity(&self) -> usize {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap != 0 {
            return cap;
        }
        let cap = std::env::var(self.env_var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(self.default);
        self.capacity.store(cap, Ordering::Relaxed);
        cap
    }

    /// Overrides the capacity (clamped to at least 1) and trims the ring
    /// to it; trimmed records count as dropped.
    pub(crate) fn set_capacity(&self, cap: usize) {
        let cap = cap.max(1);
        self.capacity.store(cap, Ordering::Relaxed);
        self.trim(&mut self.items(), cap);
    }

    /// Appends `item`, evicting the oldest record if the ring is full.
    pub(crate) fn push(&self, item: T) {
        let mut items = self.items();
        self.trim(&mut items, self.capacity() - 1);
        items.push_back(item);
    }

    fn items(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items
            .lock()
            .expect("a thread panicked while recording telemetry")
    }

    fn trim(&self, items: &mut VecDeque<T>, len: usize) {
        while items.len() > len {
            items.pop_front();
            self.dropped.incr();
        }
    }

    /// Copies the contents, oldest first, without draining.
    pub(crate) fn records(&self) -> Vec<T> {
        self.items().iter().copied().collect()
    }

    /// Removes and returns the contents, oldest first.
    pub(crate) fn drain(&self) -> Vec<T> {
        self.items().drain(..).collect()
    }
}
