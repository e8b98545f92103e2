//! A bounded, chunked job pool behind the table sweeps' cells and
//! memo-serve's requests.
//!
//! Submit a batch of independent jobs, get their results back **in
//! submission order**, never running more worker threads than the machine
//! has cores — across *nested* uses too. A strategy search runs on its
//! caller's thread: its per-config jobs take microseconds, less than
//! spawning and joining a batch's scoped threads.
//!
//! Design notes (std-only; the workspace has no crates.io access):
//!
//! * **Guided self-scheduling.** A batch is cut into contiguous chunks,
//!   each holding 1/(2 × workers) of the items not yet cut, so chunk
//!   sizes shrink to single items at the tail (a guided schedule).
//!   Workers claim chunks in order through one atomic cursor and take
//!   each chunk's items out of its own uncontended lock: a job of half a
//!   microsecond (a warm memo-serve request) pays a shared-counter bump
//!   per chunk, not a lock per job, and the single-item tail leaves a
//!   table sweep's last long searches to whichever worker is free.
//! * **Per-worker state.** [`Pool::map_init`] gives every worker one
//!   `init()` value for the batch, created when the worker claims its
//!   first chunk and dropped with the batch; [`Pool::map`] is `map_init`
//!   with unit state.
//! * **Global concurrency budget.** Helper threads beyond the calling thread
//!   are metered by a process-wide token counter initialised to
//!   `available_parallelism() - 1`. Concurrent or nested batches share
//!   it and degrade gracefully toward serial execution on the caller's
//!   thread instead of oversubscribing the host.
//! * **Deterministic reduction order.** Results are returned indexed by
//!   submission order regardless of which worker ran what and when. Callers
//!   that fold the results serially therefore observe the exact sequence a
//!   serial loop would have produced, so a sweep's table is the serial
//!   loop's.

use memo_model::stats::{ScopedStats, StatsScope, StatsSlot};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Pool telemetry for the batches one thread started inside a
/// [`PoolStatsScope`] (advisory counts; the scope is the only reader).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches of jobs (`map` and `map_init` calls).
    pub batches: u64,
    /// Total jobs executed across all batches.
    pub jobs: u64,
    /// Helper threads spawned beyond the calling threads.
    helpers_spawned: u64,
    /// Chunks run on helper threads rather than on the calling thread:
    /// the share of a batch the helpers took over.
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
/// this thread — including the helper threads those batches used and
/// the chunks they ran, which are credited to the initiating thread when each batch
/// completes.
pub type PoolStatsScope = StatsScope<PoolStats>;

/// Number of workers the host supports (`available_parallelism`, min 1),
/// read once per process: on Linux each `available_parallelism` call
/// reads the cgroup's CPU quota from files, which costs more than a batch
/// of microsecond jobs.
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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

/// Fold the chunks a finished batch's helpers ran (returned by the
/// helpers, so they never write the caller's thread-local) into the
/// calling thread's scope.
fn count_steals(stolen: u64) {
    PoolStatsScope::bump(|s| s.steals += stolen);
}

/// A bounded chunked pool. Holds no threads of its own: each batch
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

    /// Map `f` over `items` through the pool, preserving item order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        self.map_init(items, || (), |(), item| f(item))
    }

    /// Map `f` over `items` with per-worker state and return the results
    /// **in submission order**. Each worker calls `init` once, when it
    /// claims its first chunk, and passes that state to `f` for every item
    /// it runs; the states are dropped with the batch.
    ///
    /// Items run at most `min(width, items, cores)` at a time; when the
    /// global helper budget is exhausted (nested batches), everything
    /// executes on the calling thread, serially, in submission order, with
    /// one state. A panicking job propagates the panic to the caller after
    /// the scope joins.
    pub fn map_init<I, S, T, Init, F>(&self, items: Vec<I>, init: Init, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, I) -> T + Sync,
    {
        let n = items.len();
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
            let mut state = init();
            return items.into_iter().map(|item| f(&mut state, item)).collect();
        }
        let workers = helpers + 1;

        // Guided chunks: each takes 1/(2 × workers) of the items left, so
        // they shrink to single items at the tail. Claimed in order through
        // `next`, which publishes only indices (each chunk's items pass
        // through its own lock), so it can be `Relaxed`.
        let mut chunks: Vec<Mutex<Vec<I>>> = Vec::new();
        let (mut items, mut left) = (items.into_iter(), n);
        while left > 0 {
            let len = left.div_ceil(2 * workers);
            chunks.push(Mutex::new(items.by_ref().take(len).collect()));
            left -= len;
        }
        let n_chunks = chunks.len();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut state = None;
            let mut done = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(c) else { break };
                let chunk = std::mem::take(&mut *chunk.lock().expect("chunk mutex poisoned"));
                let state = state.get_or_insert_with(&init);
                done.push((c, chunk.into_iter().map(|item| f(state, item)).collect()));
            }
            done
        };

        let mut slots: Vec<Vec<T>> = (0..n_chunks).map(|_| Vec::new()).collect();
        let mut stolen = 0;
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for h in handles {
                let theirs = h.join().expect("pool worker panicked");
                stolen += theirs.len() as u64;
                done.extend(theirs);
            }
            for (c, results) in done {
                slots[c] = results;
            }
        });
        release_helpers(helpers);
        count_steals(stolen);
        let mut out = Vec::with_capacity(n);
        for results in slots {
            out.extend(results);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Pool {
        /// Run every job through the pool, results in submission order.
        fn run<F, T>(&self, jobs: Vec<F>) -> Vec<T>
        where
            F: FnOnce() -> T + Send,
            T: Send,
        {
            self.map(jobs, |job| job())
        }
    }

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
        // Uneven job durations leave most chunks to the helper; its chunk
        // count must land in the scope that initiated the batch
        // (accumulated per batch, not per thread).
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
        // With worker 0 pinned on the slow job the helper runs the rest of
        // the chunks (scheduling-dependent, so no exact count — but the
        // plumbing must deliver the batch's count to this scope).
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
    fn map_init_makes_at_most_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let scope = PoolStatsScope::enter();
        let out = Pool::machine().map_init(
            (0..1_500).collect::<Vec<u64>>(),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |seen, x| {
                *seen += 1;
                x * 2
            },
        );
        let s = scope.finish();
        assert_eq!(out, (0..1_500).map(|x| x * 2).collect::<Vec<_>>());
        let inits = inits.load(Ordering::SeqCst);
        assert!(
            (1..=s.helpers_spawned as usize + 1).contains(&inits),
            "{inits} states for {} workers",
            s.helpers_spawned + 1
        );
        assert!(s.steals <= 1_500);

        // Serial fast path: one state threads through every item in order.
        for pool in [Pool::new(1), Pool::machine()] {
            let n = if pool.width == 1 { 40 } else { 1 };
            let inits = AtomicUsize::new(0);
            let out = pool.map_init(
                (0..n).collect::<Vec<_>>(),
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
                |order: &mut Vec<usize>, x| {
                    order.push(x);
                    order.len()
                },
            );
            assert_eq!(inits.load(Ordering::SeqCst), 1);
            assert_eq!(out, (1..=n).collect::<Vec<_>>(), "state runs in order");
        }
    }

    #[test]
    fn map_init_keeps_submission_order_at_every_chunking() {
        for n in [1, 2, 15, 16, 17, 97, 1_500] {
            let out =
                Pool::machine().map_init((0..n).collect::<Vec<usize>>(), || 7, |k, x| x * *k + 1);
            assert_eq!(
                out,
                (0..n).map(|x| x * 7 + 1).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn nested_map_init_runs_serially_and_keeps_order() {
        let outer = Pool::machine().map_init(
            (0..16).collect::<Vec<usize>>(),
            || (),
            |(), o| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let me = std::thread::current().id();
                let scope = PoolStatsScope::enter();
                let inner = Pool::machine().map_init(
                    (0..33).collect::<Vec<usize>>(),
                    || 0,
                    |count, i| {
                        *count += 1;
                        (o * 100 + i, *count, std::thread::current().id() == me)
                    },
                );
                (me, inner, scope.finish().helpers_spawned)
            },
        );
        let threads: std::collections::HashSet<_> = outer.iter().map(|(t, ..)| *t).collect();
        for (o, (_, inner, helpers)) in outer.into_iter().enumerate() {
            let values: Vec<_> = inner.iter().map(|&(v, ..)| v).collect();
            assert_eq!(values, (0..33).map(|i| o * 100 + i).collect::<Vec<_>>());
            // An outer batch that ran on every core held every helper
            // token for its whole run, so each nested batch was serial:
            // one state, on the thread that started it.
            if threads.len() == available_workers() {
                assert_eq!(helpers, 0, "outer job {o} spawned helpers");
                let counts: Vec<_> = inner.iter().map(|&(_, c, _)| c).collect();
                assert_eq!(counts, (1..=33).collect::<Vec<_>>());
                assert!(inner.iter().all(|&(.., here)| here));
            }
        }
    }

    #[test]
    fn map_preserves_order() {
        let out = Pool::machine().map((0..100).collect::<Vec<_>>(), |x| x + 1);
        assert_eq!(out, (1..101).collect::<Vec<_>>());
    }
}
