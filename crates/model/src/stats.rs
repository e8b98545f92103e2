//! One thread-local RAII stats scope for every per-request counter.
//!
//! The profile cache, the segment cache and the worker pool keep no
//! process-wide totals: a request wants exactly the counts it caused.
//! Each counter type names a thread-local slot ([`ScopedStats`]);
//! its bump sites add to that slot through [`StatsScope::bump`] while a
//! scope is open on the thread, and do nothing otherwise. A scope observes
//! exactly the bumps made between `enter` and `finish` *on its thread*, so
//! concurrent requests on different pool workers report disjoint counts.
//! Entering saves any enclosing scope; finishing (or dropping) folds the
//! inner counts back into it, so the outer scope counts both.

use std::cell::Cell;
use std::thread::LocalKey;

/// A thread-local slot holding the open scope's counts (`None` = unscoped).
pub type StatsSlot<T> = LocalKey<Cell<Option<T>>>;

/// A counter type that [`StatsScope`] can attribute per request.
pub trait ScopedStats: Copy + Default + 'static {
    /// The slot [`StatsScope::enter`] and [`StatsScope::bump`] use.
    fn slot() -> &'static StatsSlot<Self>;

    /// Add `other`'s counts to `self`.
    fn absorb(&mut self, other: Self);
}

/// RAII scope attributing this thread's bumps of one slot to one request.
#[derive(Debug)]
pub struct StatsScope<T: ScopedStats> {
    slot: &'static StatsSlot<T>,
    prev: Option<T>,
    done: bool,
}

impl<T: ScopedStats> StatsScope<T> {
    /// Open a scope on `T`'s own slot.
    pub fn enter() -> Self {
        Self::enter_on(T::slot())
    }

    /// Open a scope on another slot of the same counter type, so two kinds
    /// of traffic counted alike stay apart.
    pub fn enter_on(slot: &'static StatsSlot<T>) -> Self {
        StatsScope {
            slot,
            prev: slot.replace(Some(T::default())),
            done: false,
        }
    }

    /// Close the scope and return the counts recorded inside it.
    pub fn finish(mut self) -> T {
        self.close()
    }

    fn close(&mut self) -> T {
        if self.done {
            return T::default();
        }
        self.done = true;
        let inner = self.slot.replace(self.prev).unwrap_or_default();
        Self::bump_on(self.slot, |outer| outer.absorb(inner));
        inner
    }

    /// Apply `f` to the counts of the scope open on `T`'s own slot, if any.
    pub fn bump(f: impl FnOnce(&mut T)) {
        Self::bump_on(T::slot(), f);
    }

    /// [`Self::bump`] on another slot.
    pub fn bump_on(slot: &'static StatsSlot<T>, f: impl FnOnce(&mut T)) {
        slot.with(|s| {
            if let Some(mut cur) = s.get() {
                f(&mut cur);
                s.set(Some(cur));
            }
        });
    }
}

impl<T: ScopedStats> Drop for StatsScope<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Hits(u64);

    thread_local! {
        static HITS: Cell<Option<Hits>> = const { Cell::new(None) };
        static OTHER_HITS: Cell<Option<Hits>> = const { Cell::new(None) };
    }

    impl ScopedStats for Hits {
        fn slot() -> &'static StatsSlot<Self> {
            &HITS
        }

        fn absorb(&mut self, other: Self) {
            self.0 += other.0;
        }
    }

    type HitScope = StatsScope<Hits>;

    fn hit(n: u64) {
        for _ in 0..n {
            HitScope::bump(|h| h.0 += 1);
        }
    }

    #[test]
    fn nested_scopes_fold_into_the_enclosing_scope() {
        let outer = HitScope::enter();
        hit(1);
        let inner = HitScope::enter();
        hit(2);
        assert_eq!(inner.finish(), Hits(2));
        hit(4);
        assert_eq!(outer.finish(), Hits(7), "inner counts fold outward");
    }

    #[test]
    fn unscoped_bumps_are_dropped() {
        hit(3);
        let scope = HitScope::enter();
        assert_eq!(scope.finish(), Hits(0));
    }

    #[test]
    fn dropping_without_finish_still_folds() {
        let outer = HitScope::enter();
        {
            let _inner = HitScope::enter();
            hit(3);
        }
        hit(1);
        assert_eq!(outer.finish(), Hits(4));
    }

    #[test]
    fn a_closed_scope_adds_nothing_more() {
        let outer = HitScope::enter();
        let mut inner = HitScope::enter();
        hit(2);
        assert_eq!(inner.close(), Hits(2));
        assert_eq!(inner.close(), Hits(0), "a second close is empty");
        drop(inner);
        assert_eq!(outer.finish(), Hits(2), "folded exactly once");
    }

    #[test]
    fn two_slots_of_one_type_stay_disjoint() {
        let own = HitScope::enter();
        let other = HitScope::enter_on(&OTHER_HITS);
        hit(2);
        HitScope::bump_on(&OTHER_HITS, |h| h.0 += 5);
        assert_eq!(other.finish(), Hits(5));
        assert_eq!(own.finish(), Hits(2));
    }

    #[test]
    fn scopes_on_two_threads_report_disjoint_counts() {
        use std::sync::{Arc, Barrier};
        let barrier = Arc::new(Barrier::new(2));
        let spawn = |n: u64| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let scope = HitScope::enter();
                barrier.wait();
                hit(n);
                barrier.wait();
                scope.finish()
            })
        };
        let (a, b) = (spawn(3), spawn(11));
        assert_eq!(a.join().unwrap(), Hits(3));
        assert_eq!(b.join().unwrap(), Hits(11));
    }
}
