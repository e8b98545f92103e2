//! Memoization of the profiling stage.
//!
//! `profile()` — the streamed liveness peak, the α solve, and the
//! calibrated cost model, with the trace left to be generated on first use
//! ([`profiler::LazyTrace`]) — is a pure function of (model, strategy,
//! remat policy, logits materialization, sequence length, batch,
//! calibration). The strategy
//! search, the ablation variants and the bench sweeps evaluate the *same*
//! (workload, config) pair under different downstream stages over and over;
//! this cache computes each distinct profile once and shares it as an
//! `Arc<ProfileReport>`. The same shards memoize the memory plan of each
//! profiled trace and `memo-serve`'s per-workload answer
//! (`crate::serving::pick`): a training tenant's MEMO cell or a serving
//! tenant's KV-cache policy.
//!
//! Correctness argument: a hit returns the identical bytes a fresh
//! `profile()` call would produce, because the key captures **every** input
//! the function reads — the calibration is folded in by its IEEE-754 bit
//! pattern ([`memo_hal::calib::Calibration::fingerprint`]), so any change
//! that could perturb a float in the report changes the key. Stages that
//! post-process the report (the DeepSpeed `head_scale`) do so *outside* the
//! cached value. Eviction (when a shard overflows `ProfileCache::SHARD_CAP`)
//! only affects the hit rate, never a result.

use crate::profiler::{self, ProfileReport};
use crate::serving::{self, Pick, TenantKind};
use crate::session::Workload;
use memo_hal::calib::CalibFingerprint;
use memo_model::config::ModelConfig;
use memo_model::hash::{lock_shard, FxHashMap, FxHasher};
use memo_model::stats::{ScopedStats, StatsScope, StatsSlot};
use memo_model::trace::{IterationTrace, RematPolicy};
use memo_parallel::strategy::ParallelConfig;
use memo_plan::bilevel::BilevelReport;
use memo_plan::dispatch::PlannerKind;
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything `profile()` reads, by value. Two equal keys guarantee
/// bit-identical reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
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
    /// The key of `cfg`'s profile on `w`, whose calibration the caller
    /// fingerprinted as `calib` (once per search or row, not per key).
    pub(crate) fn new(
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
        calib: CalibFingerprint,
    ) -> Self {
        debug_assert!(calib == w.calib.fingerprint());
        ProfileKey {
            model: w.model.clone(),
            cfg: *cfg,
            policy,
            materialize_logits,
            n_gpus: w.n_gpus,
            seq_len: w.seq_len,
            batch: w.batch,
            calib,
        }
    }
}

/// Key of the pick table: which pick, and every field of the
/// [`Workload`] — all that [`serving::pick`] reads. The host planning
/// budget sits in the calibration's tier chain, so the fingerprint folds
/// it in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PickKey {
    kind: TenantKind,
    model: ModelConfig,
    n_gpus: usize,
    seq_len: u64,
    batch: u64,
    calib: CalibFingerprint,
}

impl PickKey {
    fn new(w: &Workload, kind: TenantKind) -> Self {
        PickKey {
            kind,
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
struct PlanKey {
    profile: ProfileKey,
    planner: PlannerKind,
}

/// One lock-guarded shard of a memo table. Keys are built by the program
/// (no crafted collisions), and the maps are never iterated, so the Fx
/// hasher cannot move any output.
type Shard<K, V> = Mutex<FxHashMap<K, Arc<V>>>;

/// Sharded, process-wide memo table for [`profiler::profile`] and for the
/// memory plan derived from its trace. The plan table is keyed by
/// `PlanKey` — the same `ProfileKey` inputs plus the planner knob. A
/// third table memoizes `serving::pick`, keyed by tenant kind and
/// workload.
#[derive(Debug)]
pub struct ProfileCache {
    shards: Vec<Shard<ProfileKey, ProfileReport>>,
    plan_shards: Vec<Shard<PlanKey, BilevelReport>>,
    pick_shards: Vec<Shard<PickKey, Pick>>,
}

/// Hit/miss counters of the lookups inside one scope.
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
}

thread_local! {
    /// Active profile/plan stats scope on this thread (`None` = unscoped).
    static CACHE_SCOPE: Cell<Option<CacheStats>> = const { Cell::new(None) };
    /// Active pick-table stats scope on this thread: the second slot of
    /// [`CacheStats`], entered with `CacheStatsScope::enter_on(&PICK_SCOPE)`
    /// and kept apart from profile/plan traffic.
    pub static PICK_SCOPE: Cell<Option<CacheStats>> = const { Cell::new(None) };
}

impl ScopedStats for CacheStats {
    fn slot() -> &'static StatsSlot<Self> {
        &CACHE_SCOPE
    }

    fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Scope attributing this thread's profile/plan-cache lookups (or, on
/// [`PICK_SCOPE`], pick-table lookups) to one request.
pub type CacheStatsScope = StatsScope<CacheStats>;

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
            pick_shards: shards(),
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
    /// distinct configs). When two misses on one key race, the first
    /// insert wins and the later one returns the stored value, so every
    /// lookup of a key reads one value until the shard is evicted.
    fn memo<K: Hash + Eq, V>(
        table: &[Shard<K, V>],
        key: K,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        // The shard comes from the hash's high half: an Fx hash ends in a
        // multiply, so its low bits are the weakest.
        let mut h = FxHasher::default();
        key.hash(&mut h);
        let shard = &table[(h.finish() >> 32) as usize % table.len()];
        if let Some(hit) = lock_shard(shard).get(&key) {
            return (Arc::clone(hit), true);
        }
        let value = Arc::new(compute());
        let mut map = lock_shard(shard);
        if let Some(first) = map.get(&key) {
            return (Arc::clone(first), false);
        }
        if map.len() >= Self::SHARD_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&value));
        (value, false)
    }

    /// Record one profile/plan lookup in the thread's stats scope.
    fn count(hit: bool) {
        CacheStatsScope::bump(|s| {
            s.hits += u64::from(hit);
            s.misses += u64::from(!hit);
        });
    }

    /// Look up or compute the profile for `(w, cfg, policy, materialize_logits)`.
    ///
    /// With `use_cache` false this is a plain
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
        if !use_cache {
            return Arc::new(compute());
        }
        let key = ProfileKey::new(w, cfg, policy, materialize_logits, w.calib.fingerprint());
        self.profile_keyed(key, compute)
    }

    /// [`Self::profile`] under a key the caller built: a grid row or a
    /// search keeps it for its plan lookup ([`Self::plan_keyed`]), and
    /// fingerprints its calibration once for all its keys.
    pub(crate) fn profile_keyed(
        &self,
        key: ProfileKey,
        compute: impl FnOnce() -> ProfileReport,
    ) -> Arc<ProfileReport> {
        let (report, hit) = Self::memo(&self.shards, key, compute);
        Self::count(hit);
        report
    }

    /// Look up or compute the memory plan for the trace profiled under the
    /// same key. `trace` must be the trace of the [`ProfileReport`] this key
    /// maps to — the plan is a pure function of (trace, planner), and the
    /// trace a pure function of the key, so hits are bit-identical to fresh
    /// `crate::planner::plan_with` calls.
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
        if !use_cache {
            return Arc::new(crate::planner::plan_with(trace, planner));
        }
        let key = ProfileKey::new(w, cfg, policy, materialize_logits, w.calib.fingerprint());
        self.plan_keyed(key, planner, trace)
    }

    /// [`Self::plan`] under the profile's key.
    pub(crate) fn plan_keyed(
        &self,
        profile: ProfileKey,
        planner: PlannerKind,
        trace: &IterationTrace,
    ) -> Arc<BilevelReport> {
        let compute = || crate::planner::plan_with(trace, planner);
        let key = PlanKey { profile, planner };
        let (report, hit) = Self::memo(&self.plan_shards, key, compute);
        Self::count(hit);
        report
    }

    /// Look up or compute `serving::pick` for a `kind` tenant of `w`.
    /// Bypassed like the other tables.
    ///
    /// These lookups are counted only in the thread's [`PICK_SCOPE`]
    /// scope, never in the profile/plan scope, which keeps meaning profile
    /// and plan traffic: a request makes one pick lookup, and a training
    /// miss makes dozens of profile lookups underneath it.
    pub fn pick(&self, w: &Workload, kind: TenantKind, use_cache: bool) -> Arc<Pick> {
        let compute = || serving::pick(w, kind);
        if !use_cache {
            return Arc::new(compute());
        }
        let (pick, hit) = Self::memo(&self.pick_shards, PickKey::new(w, kind), compute);
        CacheStatsScope::bump_on(&PICK_SCOPE, |s| {
            s.hits += u64::from(hit);
            s.misses += u64::from(!hit);
        });
        pick
    }

    /// Drop every cached entry (tests; bench runs isolating phases).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
        for shard in &self.plan_shards {
            lock_shard(shard).clear();
        }
        for shard in &self.pick_shards {
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
        let scope = CacheStatsScope::enter();
        let first = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        let second = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(Arc::ptr_eq(&first, &second), "second lookup must hit");
        let fresh = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        assert_eq!(*first, fresh);
        assert_eq!(scope.finish(), CacheStats { hits: 1, misses: 1 });
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
        let scope = CacheStatsScope::enter();
        let a = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, false);
        let b = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, false);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(scope.finish(), CacheStats { hits: 0, misses: 0 });
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
        let picks_before = KINDS.map(|kind| cache.pick(&w, kind, true));
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
        poison(&cache.pick_shards);
        let after = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "poisoned shard was cleared, so this is a recompute"
        );
        assert_eq!(*before, *after, "recompute is bit-identical");
        let hit = cache.profile(&w, &cfg, RematPolicy::MemoTokenWise, false, true);
        assert!(Arc::ptr_eq(&after, &hit), "memoization resumed");
        for (kind, before) in KINDS.into_iter().zip(picks_before) {
            let after = cache.pick(&w, kind, true);
            assert!(!Arc::ptr_eq(&before, &after), "{kind:?}: recomputed");
            assert_eq!(*before, *after);
            assert!(Arc::ptr_eq(&after, &cache.pick(&w, kind, true)));
        }
        cache.clear();
        assert!(cache.shards.iter().all(|s| !s.is_poisoned()));
        assert!(cache.plan_shards.iter().all(|s| !s.is_poisoned()));
        assert!(cache.pick_shards.iter().all(|s| !s.is_poisoned()));
    }

    #[test]
    fn overlapping_request_scopes_report_disjoint_counts() {
        use std::sync::{Arc as StdArc, Barrier};
        // Two overlapping "requests" on separate threads against the same
        // shared cache: each scope must see exactly its own lookups (this
        // is the per-request stats bug the serve layer exposes).
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
    fn budget_w(gib: u64) -> Workload {
        let mut w = w7(8, 64);
        w.calib.set_host_memory_bytes(gib << 30);
        w
    }

    const KINDS: [TenantKind; 2] = [TenantKind::Training, TenantKind::Serving];

    #[test]
    fn pick_hits_are_shared_counted_apart_and_equal_to_a_fresh_pick() {
        let cache = ProfileCache::new();
        let w = budget_w(16);
        for kind in KINDS {
            let picks = CacheStatsScope::enter_on(&PICK_SCOPE);
            let first = cache.pick(&w, kind, true);
            let profiles = CacheStatsScope::enter();
            let second = cache.pick(&w, kind, true);
            assert_eq!(
                profiles.finish(),
                CacheStats::default(),
                "{kind:?}: pick lookups stay out of the profile/plan scope"
            );
            assert!(Arc::ptr_eq(&first, &second), "{kind:?}: repeat must hit");
            let uncached = cache.pick(&w, kind, false);
            assert!(!Arc::ptr_eq(&first, &uncached));
            assert_eq!(*first, *uncached);
            assert_eq!(*first, serving::pick(&w, kind));
            assert_eq!(
                picks.finish(),
                CacheStats { hits: 1, misses: 1 },
                "the bypass is not a lookup"
            );
        }
        assert_eq!(
            *cache.pick(&w, TenantKind::Training, true),
            serving::pick_training(&w)
        );
    }

    #[test]
    fn pick_table_honours_clear_and_the_bypass() {
        let cache = ProfileCache::new();
        let w = budget_w(16);
        for kind in KINDS {
            let a = cache.pick(&w, kind, true);
            cache.clear();
            let b = cache.pick(&w, kind, true);
            assert!(!Arc::ptr_eq(&a, &b), "clear empties the pick table");
            let picks = CacheStatsScope::enter_on(&PICK_SCOPE);
            let c = cache.pick(&w, kind, false);
            assert_eq!(picks.finish(), CacheStats::default());
            assert!(
                !Arc::ptr_eq(&b, &c),
                "`use_cache = false` bypasses the table"
            );
            let d = cache.pick(&w, kind, true);
            assert!(Arc::ptr_eq(&b, &d), "the bypass does not drop entries");
            for x in [&b, &c, &d] {
                assert_eq!(**x, *a);
            }
        }
    }

    #[test]
    fn pick_lookup_misses_when_only_the_host_budget_changes() {
        let cache = ProfileCache::new();
        let (tight, ample) = (budget_w(16), budget_w(1024));
        for kind in KINDS {
            let a = cache.pick(&tight, kind, true);
            let b = cache.pick(&ample, kind, true);
            assert!(!Arc::ptr_eq(&a, &b), "{kind:?}: host budget is in the key");
            assert_eq!(*b, serving::pick(&ample, kind));
        }
        assert_ne!(
            cache.pick(&tight, TenantKind::Serving, true).outcome,
            cache.pick(&ample, TenantKind::Serving, true).outcome,
            "the budget moves the serving pick"
        );
        let training = cache.pick(&ample, TenantKind::Training, true);
        assert_eq!(*training, serving::pick_training(&ample));
        assert!(training.picked.is_some() && training.report.is_some());
    }

    #[test]
    fn training_and_serving_picks_of_one_workload_never_collide() {
        let cache = ProfileCache::new();
        let w = budget_w(16);
        let training = cache.pick(&w, TenantKind::Training, true);
        let serving = cache.pick(&w, TenantKind::Serving, true);
        assert!(!Arc::ptr_eq(&training, &serving));
        assert_ne!(*training, *serving);
        assert_eq!(serving.grid_cells, 4);
        assert!(serving.picked.is_none() && serving.report.is_none());
        let picks = CacheStatsScope::enter_on(&PICK_SCOPE);
        assert!(Arc::ptr_eq(
            &training,
            &cache.pick(&w, TenantKind::Training, true)
        ));
        assert!(Arc::ptr_eq(
            &serving,
            &cache.pick(&w, TenantKind::Serving, true)
        ));
        assert_eq!(picks.finish(), CacheStats { hits: 2, misses: 0 });
    }
}
