//! A bounded work-stealing job pool for coarse fan-outs: the table sweeps'
//! cells and memo-serve's requests.
//!
//! Submit a batch of independent jobs, get their results back **in
//! submission order**, never running more worker threads than the machine
//! has cores — across *nested* uses too. A strategy search runs on its
//! caller's thread: its per-config jobs take microseconds, less than
//! spawning and joining a batch's scoped threads.
//!
//! Design notes (std-only; the workspace has no crates.io access):
//!
//! * **Work stealing.** Jobs are dealt to per-worker deques in contiguous
//!   blocks. A worker drains its own deque from the front and, when empty,
//!   steals from the back of the fullest other deque — the classic Chase-Lev
//!   arrangement approximated with mutexed deques, which is plenty here
//!   because each job is a whole search or request (milliseconds), not a
//!   microtask.
//! * **Global concurrency budget.** Helper threads beyond the calling thread
//!   are metered by a process-wide token counter initialised to
//!   `available_parallelism() - 1`. Concurrent or nested `run` calls share
//!   it and degrade gracefully toward serial execution on the caller's
//!   thread instead of oversubscribing the host.
//! * **Deterministic reduction order.** Results are returned indexed by
//!   submission order regardless of which worker ran what and when. Callers
//!   that fold the results serially therefore observe the exact sequence a
//!   serial loop would have produced, so a sweep's table is the serial
//!   loop's.

use memo_model::stats::{ScopedStats, StatsScope, StatsSlot};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Pool telemetry for the batches one thread started inside a
/// [`PoolStatsScope`] (advisory counts; the scope is the only reader).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `run` invocations (batches of jobs).
    pub batches: u64,
    /// Total jobs executed across all batches.
    pub jobs: u64,
    /// Helper threads spawned beyond the calling threads.
    helpers_spawned: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
}

thread_local! {
    /// Active stats scope on this thread (`None` = unscoped).
    static POOL_SCOPE: Cell<Option<PoolStats>> = const { Cell::new(None) };
}

impl ScopedStats for PoolStats {
    fn slot() -> &'static StatsSlot<Self> {
        &POOL_SCOPE
    }

    fn absorb(&mut self, other: PoolStats) {
        self.batches += other.batches;
        self.jobs += other.jobs;
        self.helpers_spawned += other.helpers_spawned;
        self.steals += other.steals;
    }
}

/// Scope attributing pool work *initiated from this thread* to one request:
/// it observes exactly the batches started between `enter` and `finish` on
/// this thread — including the steals and helper threads those batches
/// used, which are credited to the initiating thread when each batch
/// completes.
pub type PoolStatsScope = StatsScope<PoolStats>;

/// Number of workers the host supports (`available_parallelism`, min 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide helper-thread tokens. The calling thread is always free, so
/// the budget is one less than the core count.
fn helper_tokens() -> &'static AtomicUsize {
    static TOKENS: OnceLock<AtomicUsize> = OnceLock::new();
    TOKENS.get_or_init(|| AtomicUsize::new(available_workers().saturating_sub(1)))
}

/// Take up to `want` helper tokens (possibly zero).
fn acquire_helpers(want: usize) -> usize {
    let tokens = helper_tokens();
    let mut cur = tokens.load(Ordering::Relaxed);
    loop {
        let take = want.min(cur);
        if take == 0 {
            return 0;
        }
        match tokens.compare_exchange_weak(cur, cur - take, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(seen) => cur = seen,
        }
    }
}

fn release_helpers(n: usize) {
    if n > 0 {
        helper_tokens().fetch_add(n, Ordering::AcqRel);
    }
}

/// Record a batch in the calling thread's scope (if any).
fn count_batch(jobs: usize, helpers: usize) {
    PoolStatsScope::bump(|s| {
        s.batches += 1;
        s.jobs += jobs as u64;
        s.helpers_spawned += helpers as u64;
    });
}

/// Fold a finished batch's steal count (accumulated per run so helper
/// threads don't write the caller's thread-local) into the calling
/// thread's scope.
fn count_steals(stolen: u64) {
    PoolStatsScope::bump(|s| s.steals += stolen);
}

/// A bounded work-stealing pool. Holds no threads of its own: each `run`
/// spawns scoped workers capped by both the pool's width and the global
/// helper budget, so a `Pool` is cheap to construct anywhere.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    width: usize,
}

impl Pool {
    /// A pool that uses at most `width` concurrent workers (including the
    /// calling thread). Width 0 is clamped to 1.
    pub fn new(width: usize) -> Self {
        Pool {
            width: width.max(1),
        }
    }

    /// The default pool: as wide as the machine (`available_parallelism`).
    pub fn machine() -> Self {
        Pool::new(available_workers())
    }

    /// Run every job and return the results **in submission order**.
    ///
    /// Jobs run at most `min(width, jobs, cores)` at a time; when the global
    /// helper budget is exhausted (nested `run` calls), everything executes
    /// on the calling thread, serially, in submission order. A panicking job
    /// propagates the panic to the caller after the scope joins.
    fn run<F, T>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let helpers = if self.width <= 1 || n <= 1 {
            0
        } else {
            acquire_helpers((self.width - 1).min(n - 1))
        };
        count_batch(n, helpers);
        if helpers == 0 {
            // Serial fast path: submission order *is* execution order.
            return jobs.into_iter().map(|f| f()).collect();
        }
        let workers = helpers + 1;

        // Deal contiguous index blocks to per-worker deques.
        let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let run_steals = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let jobs = &jobs;
            let queues = &queues;
            let run_steals = &run_steals;
            let handles: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || worker_loop(w, jobs, queues, run_steals)))
                .collect();
            let mut done = worker_loop(0, jobs, queues, run_steals);
            for h in handles {
                done.extend(h.join().expect("pool worker panicked"));
            }
            for (idx, value) in done {
                slots[idx] = Some(value);
            }
        });
        release_helpers(helpers);
        count_steals(run_steals.into_inner());
        slots
            .into_iter()
            .map(|s| s.expect("every job index produced a result"))
            .collect()
    }

    /// Map `f` over `items` through the pool, preserving item order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(
            items
                .into_iter()
                .map(|item| move || f(item))
                .collect::<Vec<_>>(),
        )
    }
}

/// One worker: drain own deque from the front, then steal from the back of
/// the fullest other deque until every queue is empty.
fn worker_loop<F, T>(
    me: usize,
    jobs: &[Mutex<Option<F>>],
    queues: &[Mutex<VecDeque<usize>>],
    steals: &AtomicU64,
) -> Vec<(usize, T)>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let mut out = Vec::new();
    loop {
        let idx = pop_own(&queues[me]).or_else(|| steal(me, queues, steals));
        let Some(idx) = idx else { break };
        let job = jobs[idx]
            .lock()
            .expect("job mutex poisoned")
            .take()
            .expect("job indices are claimed exactly once");
        out.push((idx, job()));
    }
    out
}

fn pop_own(queue: &Mutex<VecDeque<usize>>) -> Option<usize> {
    queue.lock().expect("queue mutex poisoned").pop_front()
}

fn steal(me: usize, queues: &[Mutex<VecDeque<usize>>], steals: &AtomicU64) -> Option<usize> {
    // Victim with the most remaining work first.
    let mut victims: Vec<(usize, usize)> = queues
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != me)
        .map(|(w, q)| (q.lock().expect("queue mutex poisoned").len(), w))
        .collect();
    victims.sort_unstable_by(|a, b| b.cmp(a));
    for (_, w) in victims {
        if let Some(idx) = queues[w].lock().expect("queue mutex poisoned").pop_back() {
            // Per-run accumulator: helper threads must not touch the
            // caller's thread-local scope, so the run folds this into the
            // initiating scope once, at batch end.
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_submission_order() {
        let pool = Pool::machine();
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros((64 - i) as u64 * 10));
                    i * i
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_is_serial() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let order = &order;
                move || {
                    order.lock().unwrap().push(i);
                    i
                }
            })
            .collect();
        let out = Pool::new(1).run(jobs);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_stay_within_the_budget() {
        // Outer × inner fan-out far beyond the core count must not deadlock
        // and must still produce ordered results at every level.
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let outer: Vec<_> = (0..8)
            .map(|o| {
                move || {
                    let inner: Vec<_> = (0..8)
                        .map(|i| {
                            move || {
                                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                                PEAK.fetch_max(live, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                LIVE.fetch_sub(1, Ordering::SeqCst);
                                o * 10 + i
                            }
                        })
                        .collect();
                    Pool::machine().run(inner)
                }
            })
            .collect();
        let out = Pool::machine().run(outer);
        for (o, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|i| o * 10 + i).collect::<Vec<_>>());
        }
        // The caller thread of each nested run also executes jobs, so the
        // theoretical ceiling is the core count plus the callers blocked in
        // their own scopes; helper threads alone never exceed the budget.
        assert!(
            PEAK.load(Ordering::SeqCst) <= 2 * available_workers() + 8,
            "peak concurrency {} for {} cores",
            PEAK.load(Ordering::SeqCst),
            available_workers()
        );
    }

    #[test]
    fn empty_and_single_jobs() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(Pool::machine().run(none).is_empty());
        assert_eq!(Pool::machine().run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn stats_count_batches_and_jobs() {
        // A scope sees only this thread's batches, so sibling tests running
        // concurrently cannot move the counts.
        let scope = PoolStatsScope::enter();
        let out = Pool::machine().run((0..32).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 32);
        let s = scope.finish();
        assert_eq!(s.batches, 1);
        assert_eq!(s.jobs, 32);
        assert!(s.helpers_spawned < available_workers() as u64);
    }

    #[test]
    fn overlapping_scopes_report_disjoint_exact_counts() {
        use std::sync::{Arc, Barrier};
        // Two "requests" on separate threads, each running its own batches
        // inside its own scope while the other is mid-flight; each scope must
        // see exactly its own batches/jobs.
        let barrier = Arc::new(Barrier::new(2));
        let spawn = |batches: usize, jobs_per: usize| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let scope = PoolStatsScope::enter();
                barrier.wait();
                for _ in 0..batches {
                    let out = Pool::machine().map((0..jobs_per).collect::<Vec<_>>(), |x| x);
                    assert_eq!(out.len(), jobs_per);
                }
                scope.finish()
            })
        };
        let a = spawn(3, 16);
        let b = spawn(5, 9);
        let sa = a.join().unwrap();
        let sb = b.join().unwrap();
        assert_eq!((sa.batches, sa.jobs), (3, 48));
        assert_eq!((sb.batches, sb.jobs), (5, 45));
        // Helper spawns and steals belong to whichever scope initiated the
        // batch — they can be zero under contention, never negative noise
        // from the other request.
        assert!(sa.helpers_spawned <= 3 * (available_workers() as u64 - 1).max(1));
        assert!(sb.helpers_spawned <= 5 * (available_workers() as u64 - 1).max(1));
    }

    #[test]
    fn scope_captures_steals_of_its_own_batches() {
        // Uneven job durations force steals; they must land in the scope
        // that initiated the batch (accumulated per run, not per thread).
        if available_workers() < 2 {
            return; // serial machine: nothing to steal
        }
        let scope = PoolStatsScope::enter();
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                }
            })
            .collect();
        Pool::machine().run(jobs);
        let s = scope.finish();
        assert_eq!(s.batches, 1);
        assert_eq!(s.jobs, 64);
        // With worker 0 pinned on the slow job its whole block gets stolen
        // (scheduling-dependent, so no exact count — but the plumbing must
        // deliver the run's steals to this scope).
        assert!(s.steals <= 64);
    }

    #[test]
    fn nested_scopes_fold_into_the_enclosing_scope() {
        let outer = PoolStatsScope::enter();
        Pool::machine().map(vec![1, 2, 3], |x| x);
        let inner = PoolStatsScope::enter();
        Pool::machine().map(vec![1, 2], |x| x);
        let si = inner.finish();
        assert_eq!((si.batches, si.jobs), (1, 2));
        let so = outer.finish();
        assert_eq!((so.batches, so.jobs), (2, 5), "inner counts fold outward");
    }

    #[test]
    fn map_preserves_order() {
        let out = Pool::machine().map((0..100).collect::<Vec<_>>(), |x| x + 1);
        assert_eq!(out, (1..101).collect::<Vec<_>>());
    }
}
