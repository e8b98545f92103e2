//! Memoization of the profiling stage.
//!
//! `profile()` — trace generation, the α solve, and the calibrated cost
//! model — is a pure function of (model, strategy, remat policy, logits
//! materialization, sequence length, batch, calibration). The strategy
//! search, the ablation variants and the bench sweeps evaluate the *same*
//! (workload, config) pair under different downstream stages over and over;
//! this cache computes each distinct profile once and shares it as an
//! `Arc<ProfileReport>`. The same shards memoize the memory plan of each
//! profiled trace and `memo-serve`'s KV-policy pick
//! ([`crate::serving::pick_policy`]) for each serving workload.
//!
//! Correctness argument: a hit returns the identical bytes a fresh
//! `profile()` call would produce, because the key captures **every** input
//! the function reads — the calibration is folded in by its IEEE-754 bit
//! pattern ([`memo_hal::calib::Calibration::fingerprint`]), so any change
//! that could perturb a float in the report changes the key. Stages that
//! post-process the report (the DeepSpeed `head_scale`) do so *outside* the
//! cached value. Eviction (when a shard overflows [`ProfileCache::SHARD_CAP`])
//! only affects the hit rate, never a result.

use crate::outcome::CellOutcome;
use crate::profiler::{self, ProfileReport};
use crate::serving;
use crate::session::Workload;
use memo_hal::calib::CalibFingerprint;
use memo_model::config::ModelConfig;
use memo_model::trace::{IterationTrace, RematPolicy};
use memo_parallel::strategy::ParallelConfig;
use memo_plan::bilevel::BilevelReport;
use memo_plan::dispatch::PlannerKind;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Everything `profile()` reads, by value. Two equal keys guarantee
/// bit-identical reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    model: ModelConfig,
    cfg: ParallelConfig,
    policy: RematPolicy,
    materialize_logits: bool,
    n_gpus: usize,
    seq_len: u64,
    batch: u64,
    calib: CalibFingerprint,
}

impl ProfileKey {
    pub fn new(
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
    ) -> Self {
        ProfileKey {
            model: w.model.clone(),
            cfg: *cfg,
            policy,
            materialize_logits,
            n_gpus: w.n_gpus,
            seq_len: w.seq_len,
            batch: w.batch,
            calib: w.calib.fingerprint(),
        }
    }
}

/// Key of the serving table: every field of the [`Workload`], which is all
/// [`serving::pick_policy`] reads. The host planning budget sits in the
/// calibration's tier chain, so the fingerprint folds it in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ServingKey {
    model: ModelConfig,
    n_gpus: usize,
    seq_len: u64,
    batch: u64,
    calib: CalibFingerprint,
}

impl ServingKey {
    fn new(w: &Workload) -> Self {
        ServingKey {
            model: w.model.clone(),
            n_gpus: w.n_gpus,
            seq_len: w.seq_len,
            batch: w.batch,
            calib: w.calib.fingerprint(),
        }
    }
}

/// Key of the plan table: the profile fingerprint plus the planner that
/// consumed the trace. Bi-level and whole-trace plans for the same trace are
/// distinct artifacts, so the planner knob must be part of the fingerprint —
/// otherwise switching [`PlannerKind`] mid-process would serve stale plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    profile: ProfileKey,
    planner: PlannerKind,
}

/// Sharded, process-wide memo table for [`profiler::profile`] and for the
/// memory plan derived from its trace. The plan table is keyed by
/// [`PlanKey`] — the same [`ProfileKey`] inputs plus the planner knob. A
/// third table memoizes [`serving::pick_policy`], keyed by the workload.
#[derive(Debug)]
pub struct ProfileCache {
    shards: Vec<Mutex<HashMap<ProfileKey, Arc<ProfileReport>>>>,
    plan_shards: Vec<Mutex<HashMap<PlanKey, Arc<BilevelReport>>>>,
    serving_shards: Vec<Mutex<HashMap<ServingKey, Arc<CellOutcome>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: AtomicBool,
}

/// Hit/miss counters since the last [`ProfileCache::reset_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Hits over total lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

thread_local! {
    /// Active stats scope on this thread (`None` = unscoped).
    static CACHE_SCOPE: Cell<Option<CacheStats>> = const { Cell::new(None) };
}

fn bump_scope(f: impl FnOnce(&mut CacheStats)) {
    CACHE_SCOPE.with(|s| {
        if let Some(mut cur) = s.get() {
            f(&mut cur);
            s.set(Some(cur));
        }
    });
}

/// RAII scope attributing this thread's profile/plan-cache lookups to one
/// request. The process-global counters keep racing totals across every
/// thread; a scope observes exactly the lookups made between `enter` and
/// `finish` *on this thread*, so concurrent requests on different pool
/// workers report disjoint counts. Entering saves any enclosing scope;
/// finishing folds the inner counts back into it, composing the way the
/// global counters do.
#[derive(Debug)]
pub struct CacheStatsScope {
    prev: Option<CacheStats>,
    done: bool,
}

impl CacheStatsScope {
    pub fn enter() -> Self {
        CacheStatsScope {
            prev: CACHE_SCOPE.replace(Some(CacheStats::default())),
            done: false,
        }
    }

    /// Close the scope and return the counts recorded inside it.
    pub fn finish(mut self) -> CacheStats {
        self.close()
    }

    fn close(&mut self) -> CacheStats {
        if self.done {
            return CacheStats::default();
        }
        self.done = true;
        let inner = CACHE_SCOPE.replace(self.prev).unwrap_or_default();
        bump_scope(|outer| outer.absorb(inner));
        inner
    }
}

impl Drop for CacheStatsScope {
    fn drop(&mut self) {
        self.close();
    }
}

/// Lock a shard, recovering from poisoning: a worker that panicked while
/// holding the lock may have left a half-updated map behind, so the
/// recovered shard is dropped wholesale — losing cached entries, never
/// correctness (every entry is recomputable) — and the poison flag is
/// cleared so later locks are clean.
fn lock_shard<K, V>(shard: &Mutex<HashMap<K, V>>) -> MutexGuard<'_, HashMap<K, V>> {
    shard.lock().unwrap_or_else(|poisoned| {
        shard.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.clear();
        guard
    })
}

impl ProfileCache {
    const SHARDS: usize = 16;
    /// Per-shard entry cap. Profiles are a few hundred KiB (the trace
    /// dominates), so ~16 × 256 entries bounds the cache at a few GiB on
    /// the largest sweeps while still covering a full table grid.
    const SHARD_CAP: usize = 256;

    fn new() -> Self {
        fn shards<T: Default>() -> Vec<Mutex<T>> {
            (0..ProfileCache::SHARDS)
                .map(|_| Mutex::new(T::default()))
                .collect()
        }
        ProfileCache {
            shards: shards(),
            plan_shards: shards(),
            serving_shards: shards(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static ProfileCache {
        static CACHE: OnceLock<ProfileCache> = OnceLock::new();
        CACHE.get_or_init(ProfileCache::new)
    }

    /// Look `key` up in its shard of `table`, computing and inserting the
    /// value on a miss. Returns the value and whether the lookup hit.
    ///
    /// The value is computed outside the lock: it is expensive, and
    /// concurrent misses on one key are rare (the search fans out over
    /// distinct configs). A racing duplicate insert is harmless, because
    /// every memoized function is pure and both values are bit-identical.
    fn memo<K: Hash + Eq, V>(
        table: &[Mutex<HashMap<K, Arc<V>>>],
        key: K,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let shard = &table[(h.finish() as usize) % table.len()];
        if let Some(hit) = lock_shard(shard).get(&key) {
            return (Arc::clone(hit), true);
        }
        let value = Arc::new(compute());
        let mut map = lock_shard(shard);
        if map.len() >= Self::SHARD_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&value));
        (value, false)
    }

    /// Record one profile/plan lookup in the global counters and the
    /// thread's stats scope.
    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            bump_scope(|s| s.hits += 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            bump_scope(|s| s.misses += 1);
        }
    }

    fn bypass(&self, use_cache: bool) -> bool {
        !use_cache || !self.enabled.load(Ordering::Relaxed)
    }

    /// Look up or compute the profile for `(w, cfg, policy, materialize_logits)`.
    ///
    /// With the cache disabled (or `use_cache` false) this is a plain
    /// `profile()` call wrapped in a fresh `Arc` — no lookup, no insert,
    /// no stats.
    pub fn profile(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
        use_cache: bool,
    ) -> Arc<ProfileReport> {
        let compute = || profiler::profile(w, cfg, policy, materialize_logits);
        if self.bypass(use_cache) {
            return Arc::new(compute());
        }
        let key = ProfileKey::new(w, cfg, policy, materialize_logits);
        let (report, hit) = Self::memo(&self.shards, key, compute);
        self.count(hit);
        report
    }

    /// Look up or compute the memory plan for the trace profiled under the
    /// same key. `trace` must be the trace of the [`ProfileReport`] this key
    /// maps to — the plan is a pure function of (trace, planner), and the
    /// trace a pure function of the key, so hits are bit-identical to fresh
    /// [`crate::planner::plan_with`] calls.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
        planner: PlannerKind,
        trace: &IterationTrace,
        use_cache: bool,
    ) -> Arc<BilevelReport> {
        let compute = || crate::planner::plan_with(trace, planner);
        if self.bypass(use_cache) {
            return Arc::new(compute());
        }
        let key = PlanKey {
            profile: ProfileKey::new(w, cfg, policy, materialize_logits),
            planner,
        };
        let (report, hit) = Self::memo(&self.plan_shards, key, compute);
        self.count(hit);
        report
    }

    /// Look up or compute [`serving::pick_policy`] for `w`: the KV-cache
    /// policy pick of a serving tenant. Bypassed like the other tables.
    ///
    /// These lookups are not counted in [`CacheStats`], which keeps
    /// meaning profile and plan traffic: a serving request makes one
    /// lookup where a training request makes dozens, so folding them in
    /// would move every hit rate reported against the profile cache.
    pub fn serving(&self, w: &Workload, use_cache: bool) -> Arc<CellOutcome> {
        let compute = || serving::pick_policy(w);
        if self.bypass(use_cache) {
            return Arc::new(compute());
        }
        Self::memo(&self.serving_shards, ServingKey::new(w), compute).0
    }

    /// Hit/miss counters since the last reset.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zero the hit/miss counters (bench runs measure per-phase rates).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Globally enable/disable the cache (e.g. the forced-serial baseline
    /// leg of `search_bench`). Disabling does not drop existing entries.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether lookups are currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drop every cached entry (tests; bench runs isolating phases).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
        for shard in &self.plan_shards {
            lock_shard(shard).clear();
        }
        for shard in &self.serving_shards {
            lock_shard(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::w7;

    #[test]
    fn hit_is_bit_identical_to_fresh_profile() {
        let cache = ProfileCache::new();
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let first = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let second = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(Arc::ptr_eq(&first, &second), "second lookup must hit");
        let fresh = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        assert_eq!(*first, fresh);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_inputs_do_not_collide() {
        let cache = ProfileCache::new();
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let a = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let b = cache.profile(&w, &cfg, RematPolicy::FullRecompute, false, true);
        let c = cache.profile(&w, &cfg, RematPolicy::FullRecompute, true, true);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&b, &c));
        let mut w2 = w.clone();
        w2.calib.gemm_efficiency *= 0.5;
        let d = cache.profile(&w2, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(!Arc::ptr_eq(&a, &d), "calibration change must miss");
        assert_ne!(a.layer_time.fwd(), d.layer_time.fwd());
    }

    #[test]
    fn disabled_cache_never_records_stats() {
        let cache = ProfileCache::new();
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        cache.set_enabled(false);
        let a = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let b = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0 });
        assert_eq!(*a, *b, "bypass still deterministic");
    }

    #[test]
    fn hit_rate_arithmetic() {
        assert_eq!(CacheStats { hits: 0, misses: 0 }.hit_rate(), 0.0);
        assert_eq!(CacheStats { hits: 3, misses: 1 }.hit_rate(), 0.75);
    }

    #[test]
    fn poisoned_shards_recover_and_later_requests_still_serve() {
        // A request that panics while holding a shard lock must not poison
        // the cache for the rest of the process (the serve-layer failure
        // mode). The next lookup recovers the shard, recomputes, and
        // memoization resumes.
        let cache = ProfileCache::new();
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let before = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        fn poison<T>(shards: &[Mutex<T>]) {
            for shard in shards {
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _guard = shard.lock().unwrap();
                    panic!("worker dies mid-request");
                }));
                assert!(died.is_err());
                assert!(shard.is_poisoned());
            }
        }
        poison(&cache.shards);
        poison(&cache.plan_shards);
        poison(&cache.serving_shards);
        let after = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "poisoned shard was cleared, so this is a recompute"
        );
        assert_eq!(*before, *after, "recompute is bit-identical");
        let hit = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(Arc::ptr_eq(&after, &hit), "memoization resumed");
        cache.clear();
        assert!(cache.shards.iter().all(|s| !s.is_poisoned()));
        assert!(cache.plan_shards.iter().all(|s| !s.is_poisoned()));
        assert!(cache.serving_shards.iter().all(|s| !s.is_poisoned()));
    }

    #[test]
    fn overlapping_request_scopes_report_disjoint_counts() {
        use std::sync::{Arc as StdArc, Barrier};
        // Two overlapping "requests" on separate threads against the same
        // shared cache: each scope must see exactly its own lookups even
        // though the global counters race (this is the per-request stats
        // bug the serve layer exposes).
        let cache = StdArc::new(ProfileCache::new());
        let barrier = StdArc::new(Barrier::new(2));
        let spawn = |hits: usize, tp: usize| {
            let cache = StdArc::clone(&cache);
            let barrier = StdArc::clone(&barrier);
            std::thread::spawn(move || {
                let w = w7(8, 64);
                let cfg = ParallelConfig::megatron(tp, 8 / tp, 1, 1);
                let scope = CacheStatsScope::enter();
                barrier.wait();
                // One miss on this request's own key, then `hits` hits.
                for _ in 0..=hits {
                    cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
                }
                scope.finish()
            })
        };
        let a = spawn(2, 4);
        let b = spawn(4, 2);
        let sa = a.join().unwrap();
        let sb = b.join().unwrap();
        assert_eq!(sa, CacheStats { hits: 2, misses: 1 });
        assert_eq!(sb, CacheStats { hits: 4, misses: 1 });
        // The globals hold the racing total, as before.
        assert_eq!(cache.stats(), CacheStats { hits: 6, misses: 2 });
    }

    #[test]
    fn nested_scopes_fold_into_the_enclosing_scope() {
        let cache = ProfileCache::new();
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let outer = CacheStatsScope::enter();
        cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let inner = CacheStatsScope::enter();
        cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let si = inner.finish();
        assert_eq!(si, CacheStats { hits: 1, misses: 0 });
        let so = outer.finish();
        assert_eq!(
            so,
            CacheStats { hits: 1, misses: 1 },
            "inner counts fold outward"
        );
    }

    /// 7B on 8 GPUs at 64K with `gib` GiB of host budget: token-swap wins
    /// at 16 GiB, paging at 1 TiB.
    fn serving_w(gib: u64) -> Workload {
        let mut w = w7(8, 64);
        w.calib.set_host_memory_bytes(gib << 30);
        w
    }

    #[test]
    fn serving_hit_is_shared_uncounted_and_equal_to_a_fresh_pick() {
        let cache = ProfileCache::new();
        let w = serving_w(16);
        let scope = CacheStatsScope::enter();
        let first = cache.serving(&w, true);
        let second = cache.serving(&w, true);
        assert!(Arc::ptr_eq(&first, &second), "second lookup must hit");
        let uncached = cache.serving(&w, false);
        assert!(!Arc::ptr_eq(&first, &uncached));
        assert_eq!(*first, *uncached);
        assert_eq!(*first, serving::pick_policy(&w));
        assert_eq!(scope.finish(), CacheStats::default());
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "serving lookups stay out of CacheStats"
        );
    }

    #[test]
    fn serving_table_honours_clear_and_the_bypass() {
        let cache = ProfileCache::new();
        let w = serving_w(16);
        let a = cache.serving(&w, true);
        cache.clear();
        let b = cache.serving(&w, true);
        assert!(!Arc::ptr_eq(&a, &b), "clear empties the serving table");
        cache.set_enabled(false);
        let c = cache.serving(&w, true);
        assert!(!Arc::ptr_eq(&b, &c), "a disabled cache bypasses the table");
        cache.set_enabled(true);
        let d = cache.serving(&w, true);
        assert!(Arc::ptr_eq(&b, &d), "disabling does not drop entries");
        for x in [&b, &c, &d] {
            assert_eq!(**x, *a);
        }
    }

    #[test]
    fn serving_lookup_misses_when_only_the_host_budget_changes() {
        let cache = ProfileCache::new();
        let (tight, ample) = (serving_w(16), serving_w(1024));
        let a = cache.serving(&tight, true);
        let b = cache.serving(&ample, true);
        assert!(!Arc::ptr_eq(&a, &b), "host budget is part of the key");
        assert_ne!(*a, *b, "and it moves the pick");
        assert_eq!(*b, serving::pick_policy(&ample));
    }
}
