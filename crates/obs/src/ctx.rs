//! Thread-local event context: which session, worker, epoch, and
//! iteration an instrumented thread is currently working for.
//!
//! The service's worker loop sets the session id for the duration of a
//! scheduling slice; `moqo-parallel` sets the worker id in each spawned
//! intra-query thread; the RMQ loop bumps the iteration. Journal events
//! capture the ambient [`Ctx`] at emission time, so every event is
//! attributable without threading ids through APIs.

use std::cell::Cell;

/// Ambient context attached to journal events. Zero fields mean "not
/// set" (e.g. a sequential optimizer has no worker id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Service session id (0 outside a session).
    pub session: u64,
    /// Intra-query worker id, 1-based (0 outside a parallel worker).
    pub worker: u32,
    /// Shared-frontier exchange epoch last observed by this thread: the
    /// delta-log position its worker has read up to.
    pub epoch: u64,
    /// Optimizer iteration counter of the driving loop.
    pub iteration: u64,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx {
        session: 0,
        worker: 0,
        epoch: 0,
        iteration: 0,
    }) };
}

/// The calling thread's current context.
#[inline]
pub fn current() -> Ctx {
    CTX.with(Cell::get)
}

/// Sets the session id for this thread (0 clears it).
pub fn set_session(session: u64) {
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.session = session;
        c.set(ctx);
    });
}

/// Sets the 1-based intra-query worker id for this thread (0 clears it).
pub fn set_worker(worker: u32) {
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.worker = worker;
        c.set(ctx);
    });
}

/// Sets the last-observed exchange epoch for this thread.
pub fn set_epoch(epoch: u64) {
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.epoch = epoch;
        c.set(ctx);
    });
}

/// Sets the driving loop's iteration counter for this thread.
pub fn set_iteration(iteration: u64) {
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.iteration = iteration;
        c.set(ctx);
    });
}

/// Resets every field to the unset state.
pub fn clear() {
    CTX.with(|c| c.set(Ctx::default()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_is_thread_local_and_settable() {
        clear();
        assert_eq!(current(), Ctx::default());
        set_session(7);
        set_worker(2);
        set_iteration(31);
        set_epoch(4);
        assert_eq!(
            current(),
            Ctx {
                session: 7,
                worker: 2,
                epoch: 4,
                iteration: 31,
            }
        );
        let other = std::thread::spawn(current).join().unwrap();
        assert_eq!(other, Ctx::default());
        clear();
        assert_eq!(current(), Ctx::default());
    }
}
