//! Delta simulation: a sharded memo cache of simulated schedule segments.
//!
//! Strategy search evaluates dense grids of candidates whose schedules
//! differ in a single knob — and re-evaluates the *same* schedule inputs
//! across sweep passes, serving queries, and lockstep verification legs.
//! The [`SegmentCache`] memoizes the result of the scalar schedule
//! ([`build_schedule_scalars`]) keyed by a bit-exact fingerprint
//! of every input the recurrence reads: buffer slots, the head block,
//! every run of the layout (count, policy, fwd/bwd/recompute times, and
//! each Swap run's whole
//! [`TierTrafficList`](crate::schedule::TierTrafficList)), and the *entry
//! state* of every staging pool (capacity and used bytes). Because the
//! recurrence is a pure function of exactly these inputs, a hit can skip
//! the simulation entirely and replay only the staging side effects in
//! bulk through the splice primitives ([`TierStaging::reserve_layers`] /
//! [`TierStaging::release_layers`]), whose contract is state- and
//! error-identical to the sequential per-layer loop. Failed builds are
//! memoized too: a hit on an out-of-tier-memory entry replays the
//! reservations up to the failing layer, leaving the exact partial state
//! the real build leaves.
//!
//! Divergence rules (fall back to the uncached build, counted in
//! [`SegmentCacheStats::fallbacks`]): staging narrower than a Swap run's
//! traffic chain, or a layout the fixed-capacity key cannot hold (more
//! than `MAX_KEY_RUNS` runs, or more words than fit). See DESIGN.md §2g.

use crate::schedule::{
    build_schedule_scalars, LayerSegment, ScalarSchedule, SegmentPolicy, MAX_TIERS,
};
use crate::tiers::{OutOfTierMemory, TierStaging};
use memo_hal::time::SimTime;
use memo_model::hash::{lock_shard, FxHashMap, FxHasher};
use memo_model::stats::{ScopedStats, StatsScope, StatsSlot};
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// Most runs a [`ScheduleKey`] holds: the pipeline's
/// `[Swap][Recompute][Retained]` layout.
const MAX_KEY_RUNS: usize = 3;

/// Fixed word capacity of a [`ScheduleKey`]: 3 header words, 5 per run,
/// one full-depth traffic chain (1 + 3 per tier) across the Swap runs, and
/// 1 + 2 per staging pool.
const MAX_KEY_WORDS: usize = 3 + 5 * MAX_KEY_RUNS + 1 + 3 * MAX_TIERS + 1 + 2 * MAX_TIERS;

/// Bit-exact fingerprint of every input the schedule recurrence reads.
/// Two equal keys imply bit-identical [`ScalarSchedule`]s *and* identical
/// staging side effects (the recurrence is a pure function of the key).
#[derive(Debug, Clone, Copy)]
struct ScheduleKey {
    len: u8,
    words: [u64; MAX_KEY_WORDS],
}

impl ScheduleKey {
    /// Fingerprint a schedule build. `None` when the layout exceeds the
    /// fixed key capacity — more than `MAX_KEY_RUNS` runs, or traffic
    /// and staging chains too deep for the words left — and the caller
    /// falls back to the uncached path.
    fn new(
        segments: &[LayerSegment],
        t_head: SimTime,
        staging: &TierStaging,
        slots: usize,
    ) -> Option<ScheduleKey> {
        if segments.len() > MAX_KEY_RUNS {
            return None;
        }
        let traffic_words: usize = swap_runs(segments)
            .map(|s| 1 + 3 * s.costs.traffic.len())
            .sum();
        if 3 + 5 * segments.len() + traffic_words + 1 + 2 * staging.tiers() > MAX_KEY_WORDS {
            return None;
        }
        let mut words = [0u64; MAX_KEY_WORDS];
        let mut n = 0usize;
        let mut push = |w: u64| {
            words[n] = w;
            n += 1;
        };
        push(slots as u64);
        push(t_head.0);
        push(segments.len() as u64);
        for seg in segments {
            push(seg.count as u64);
            push(seg.policy as u64);
            push(seg.costs.t_fwd.0);
            push(seg.costs.t_bwd.0);
            push(seg.costs.t_recompute.0);
            if seg.policy == SegmentPolicy::Swap {
                push(seg.costs.traffic.len() as u64);
                for t in &seg.costs.traffic {
                    push(t.bytes);
                    push(t.bandwidth.to_bits());
                    push(t.latency_secs.to_bits());
                }
            }
        }
        push(staging.tiers() as u64);
        for tier in 0..staging.tiers() {
            let pool = staging.pool(tier).expect("tier < len");
            push(pool.capacity());
            push(pool.used());
        }
        Some(ScheduleKey {
            len: n as u8,
            words,
        })
    }

    fn as_words(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

/// The runs that stage traffic.
fn swap_runs(segments: &[LayerSegment]) -> impl Iterator<Item = &LayerSegment> {
    segments.iter().filter(|s| s.policy == SegmentPolicy::Swap)
}

impl PartialEq for ScheduleKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_words() == other.as_words()
    }
}

impl Eq for ScheduleKey {}

impl Hash for ScheduleKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in self.as_words() {
            state.write_u64(w);
        }
    }
}

type Shard = FxHashMap<ScheduleKey, Result<ScalarSchedule, OutOfTierMemory>>;

/// Hit/miss/fallback counters of the [`SegmentCache`] lookups inside one
/// scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentCacheStats {
    /// Schedule builds served from a memoized segment.
    pub hits: u64,
    /// Builds simulated and memoized.
    pub misses: u64,
    /// Builds that bypassed the cache (a staging chain narrower than the
    /// traffic, or a layout beyond the key capacity).
    pub fallbacks: u64,
}

thread_local! {
    /// Active stats scope on this thread (`None` = unscoped).
    static SEGMENT_SCOPE: Cell<Option<SegmentCacheStats>> = const { Cell::new(None) };
}

impl ScopedStats for SegmentCacheStats {
    fn slot() -> &'static StatsSlot<Self> {
        &SEGMENT_SCOPE
    }

    fn absorb(&mut self, other: SegmentCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fallbacks += other.fallbacks;
    }
}

/// Scope attributing this thread's segment-cache lookups to one request.
pub type SegmentStatsScope = StatsScope<SegmentCacheStats>;

/// Sharded memo cache of scalar schedule builds, keyed by
/// `ScheduleKey`. Process-global like `ProfileCache`; shards bound lock
/// contention when sweeps run on the worker pool.
pub struct SegmentCache {
    shards: Vec<Mutex<Shard>>,
}

impl SegmentCache {
    const SHARDS: usize = 16;
    /// Per-shard entry cap; a full shard is cleared wholesale (same cheap
    /// eviction policy as `ProfileCache`).
    const SHARD_CAP: usize = 4096;

    fn new() -> Self {
        SegmentCache {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    /// The process-global cache.
    pub fn global() -> &'static SegmentCache {
        static GLOBAL: OnceLock<SegmentCache> = OnceLock::new();
        GLOBAL.get_or_init(SegmentCache::new)
    }

    fn shard(&self, key: &ScheduleKey) -> &Mutex<Shard> {
        // The shard comes from the hash's high half: an Fx hash ends in a
        // multiply, so its low bits are the weakest.
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() >> 32) as usize % Self::SHARDS]
    }

    /// Scalar schedule build ([`build_schedule_scalars`]) through the cache.
    ///
    /// * **Hit (Ok)**: return the memoized scalars and replay the staging
    ///   effects in bulk — every Swap run's reserves, then its releases,
    ///   the order the recurrence performs them in (all reserves precede
    ///   all releases), via the batched splice primitives whose state and
    ///   errors match the sequential loop bit-for-bit.
    /// * **Hit (Err)**: replay the reservations until they fail,
    ///   reproducing the error and the partial staging state of the real
    ///   build.
    /// * **Miss**: run [`build_schedule_scalars`] and memoize its result
    ///   (failures included).
    /// * **Divergence** (staging narrower than a Swap run's traffic chain,
    ///   or a layout beyond the key capacity): run it uncached.
    pub fn schedule_cursor_only(
        &self,
        segments: &[LayerSegment],
        t_head: SimTime,
        staging: &mut TierStaging,
        slots: usize,
    ) -> Result<ScalarSchedule, OutOfTierMemory> {
        let narrow = swap_runs(segments).any(|s| staging.tiers() < s.costs.traffic.len());
        let key = if narrow {
            None
        } else {
            ScheduleKey::new(segments, t_head, staging, slots)
        };
        let Some(key) = key else {
            SegmentStatsScope::bump(|s| s.fallbacks += 1);
            return build_schedule_scalars(segments, t_head, staging, slots);
        };
        let cached = {
            let shard = lock_shard(self.shard(&key));
            shard.get(&key).copied()
        };
        if let Some(entry) = cached {
            SegmentStatsScope::bump(|s| s.hits += 1);
            // Deterministic: the key captures every pool's capacity and
            // used bytes, so a state that admitted the reserves once admits
            // them again — and one that failed fails identically.
            for seg in swap_runs(segments) {
                staging.reserve_layers(&seg.costs.traffic, seg.count as u64)?;
            }
            return match entry {
                Ok(s) => {
                    for seg in swap_runs(segments) {
                        staging.release_layers(&seg.costs.traffic, seg.count as u64);
                    }
                    Ok(s)
                }
                Err(e) => unreachable!("memoized failure {e} did not reproduce"),
            };
        }
        SegmentStatsScope::bump(|s| s.misses += 1);
        let result = build_schedule_scalars(segments, t_head, staging, slots);
        let mut shard = lock_shard(self.shard(&key));
        if shard.len() >= Self::SHARD_CAP {
            shard.clear();
        }
        shard.insert(key, result);
        result
    }

    /// Drop every memoized segment (scopes keep their counts).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
    }
}

impl Default for SegmentCache {
    fn default() -> Self {
        SegmentCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{LayerCosts, TierTraffic, TierTrafficList};

    /// The paper's layout on two slots, through `cache`.
    fn cached(
        cache: &SegmentCache,
        n: usize,
        c: LayerCosts,
        t_head: SimTime,
        staging: &mut TierStaging,
    ) -> Result<ScalarSchedule, OutOfTierMemory> {
        cache.schedule_cursor_only(&LayerSegment::uniform(n, 2, c), t_head, staging, 2)
    }

    fn costs(offload_bytes: u64) -> LayerCosts {
        LayerCosts::single_tier(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::from_millis(3),
            offload_bytes,
            1e9,
        )
    }

    #[test]
    fn hit_returns_bit_identical_scalars_and_staging_state() {
        let cache = SegmentCache::new();
        let c = costs(1_000_000);
        let scope = SegmentStatsScope::enter();
        let mut s1 = TierStaging::single(100_000_000);
        let miss = cached(&cache, 12, c, SimTime::from_millis(5), &mut s1).unwrap();
        let mut s2 = TierStaging::single(100_000_000);
        let hit = cached(&cache, 12, c, SimTime::from_millis(5), &mut s2).unwrap();
        assert_eq!(miss, hit);
        assert_eq!(s1, s2, "staging replay must reproduce used bytes and peaks");
        let st = scope.finish();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn memoized_failure_replays_error_and_partial_state() {
        let cache = SegmentCache::new();
        let c = costs(1_000_000);
        let scope = SegmentStatsScope::enter();
        let mut s1 = TierStaging::single(3 * 1_000_000);
        let e1 = cached(&cache, 12, c, SimTime::ZERO, &mut s1).unwrap_err();
        let mut s2 = TierStaging::single(3 * 1_000_000);
        let e2 = cached(&cache, 12, c, SimTime::ZERO, &mut s2).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(s1, s2, "partial commit state must match the real build");
        assert_eq!(scope.finish().hits, 1);
    }

    #[test]
    fn entry_state_is_part_of_the_key() {
        // A pool with bytes already used must not hit the fresh-pool entry:
        // the recurrence would behave differently (and may OOHM).
        let cache = SegmentCache::new();
        let c = costs(1_000_000);
        let scope = SegmentStatsScope::enter();
        let mut fresh = TierStaging::single(10 * 1_000_000);
        cached(&cache, 12, c, SimTime::ZERO, &mut fresh).unwrap();
        let mut dirty = TierStaging::single(10 * 1_000_000);
        dirty.reserve_layer(&c.traffic).unwrap();
        let r = cached(&cache, 12, c, SimTime::ZERO, &mut dirty);
        assert_eq!(scope.finish().hits, 0, "dirty pool must miss");
        // 10 layers swap but only 9 more layers fit on top of the 1 staged.
        assert!(r.is_err());
    }

    #[test]
    fn cache_matches_uncached_fast_path_across_knobs() {
        let cache = SegmentCache::new();
        for n in [2usize, 3, 5, 8, 16] {
            for slots in [2usize, 3] {
                for bytes in [0u64, 500_000, 2_000_000] {
                    let c = costs(bytes);
                    // Twice through the cache (miss then hit), once around it.
                    for _ in 0..2 {
                        let mut a = TierStaging::single(8 * 2_000_000);
                        let mut b = TierStaging::single(8 * 2_000_000);
                        let via = cache.schedule_cursor_only(
                            &LayerSegment::uniform(n, slots, c),
                            SimTime::from_millis(1),
                            &mut a,
                            slots,
                        );
                        let raw = build_schedule_scalars(
                            &LayerSegment::uniform(n, slots, c),
                            SimTime::from_millis(1),
                            &mut b,
                            slots,
                        );
                        assert_eq!(via, raw);
                        assert_eq!(a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn poisoned_shards_recover_and_later_requests_still_serve() {
        // One request panics while holding a shard lock (the serve-layer
        // failure mode: a worker dies mid-insert). The cache must not stay
        // poisoned for the rest of the process: the next request recovers
        // the shard, recomputes, and memoization resumes.
        let cache = SegmentCache::new();
        let c = costs(1_000_000);
        let scope = SegmentStatsScope::enter();
        let mut s1 = TierStaging::single(100_000_000);
        let before = cached(&cache, 12, c, SimTime::from_millis(5), &mut s1).unwrap();
        // Poison every shard so the test does not depend on which shard
        // the key hashes to.
        for shard in &cache.shards {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("worker dies mid-request");
            }));
            assert!(died.is_err());
            assert!(shard.is_poisoned());
        }
        // Next request: served (recomputed — the poisoned shard was
        // cleared), bit-identical, and memoized again.
        let mut s2 = TierStaging::single(100_000_000);
        let after = cached(&cache, 12, c, SimTime::from_millis(5), &mut s2).unwrap();
        assert_eq!(before, after);
        assert_eq!(s1, s2);
        let mut s3 = TierStaging::single(100_000_000);
        let hit = cached(&cache, 12, c, SimTime::from_millis(5), &mut s3).unwrap();
        assert_eq!(before, hit);
        // miss (cold), miss (post-poison recompute), then a clean hit.
        let st = scope.finish();
        assert_eq!((st.hits, st.misses), (1, 2));
        // Recovery is lazy (per shard, on next lock); clear() touches every
        // shard, after which no poison flag may remain.
        cache.clear();
        assert!(cache.shards.iter().all(|s| !s.is_poisoned()));
    }

    #[test]
    fn scoped_stats_attribute_only_this_threads_lookups() {
        use std::sync::{Arc, Barrier};
        // Two overlapping "requests" on separate threads, each inside its
        // own scope, hammering the same shared cache. Every scope must see
        // exactly its own lookups.
        let cache = Arc::new(SegmentCache::new());
        let barrier = Arc::new(Barrier::new(2));
        let spawn = |reps: u64, offload: u64| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let scope = SegmentStatsScope::enter();
                barrier.wait();
                let c = costs(offload);
                for _ in 0..reps {
                    let mut s = TierStaging::single(100_000_000);
                    cached(&cache, 12, c, SimTime::ZERO, &mut s).unwrap();
                }
                // One fallback, attributed to this scope only: a two-tier
                // chain over a one-pool staging (a two-layer model stages
                // nothing, so the uncached build succeeds).
                let mut deep = c;
                deep.traffic.push(TierTraffic {
                    bytes: 1,
                    bandwidth: 1e9,
                    latency_secs: 0.0,
                });
                let mut s = TierStaging::single(100_000_000);
                cached(&cache, 2, deep, SimTime::ZERO, &mut s).unwrap();
                scope.finish()
            })
        };
        let a = spawn(3, 1_000_000);
        let b = spawn(5, 2_000_000);
        let sa = a.join().unwrap();
        let sb = b.join().unwrap();
        assert_eq!((sa.hits, sa.misses, sa.fallbacks), (2, 1, 1));
        assert_eq!((sb.hits, sb.misses, sb.fallbacks), (4, 1, 1));
    }

    #[test]
    fn nested_scopes_fold_into_the_enclosing_scope() {
        let cache = SegmentCache::new();
        let c = costs(1_000_000);
        let outer = SegmentStatsScope::enter();
        let mut s = TierStaging::single(100_000_000);
        cached(&cache, 12, c, SimTime::ZERO, &mut s).unwrap();
        let inner = SegmentStatsScope::enter();
        let mut s2 = TierStaging::single(100_000_000);
        cached(&cache, 12, c, SimTime::ZERO, &mut s2).unwrap();
        let si = inner.finish();
        assert_eq!((si.hits, si.misses), (1, 0));
        let so = outer.finish();
        assert_eq!((so.hits, so.misses), (1, 1), "inner counts fold outward");
    }

    #[test]
    fn deep_chains_key_all_tiers() {
        let cache = SegmentCache::new();
        let mut traffic = TierTrafficList::new();
        traffic.push(TierTraffic {
            bytes: 1_000_000,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
        traffic.push(TierTraffic {
            bytes: 400_000,
            bandwidth: 1e8,
            latency_secs: 1e-4,
        });
        let c = LayerCosts::with_traffic(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::ZERO,
            traffic,
        );
        let scope = SegmentStatsScope::enter();
        let mut a = TierStaging::new(&[u64::MAX / 2, 10 * 400_000]);
        let first = cached(&cache, 10, c, SimTime::ZERO, &mut a).unwrap();
        // Same shape, deeper tier smaller: must miss and fail on tier 1.
        let mut b = TierStaging::new(&[u64::MAX / 2, 3 * 400_000]);
        let err = cached(&cache, 10, c, SimTime::ZERO, &mut b).unwrap_err();
        assert_eq!(err.tier, 1);
        let mut a2 = TierStaging::new(&[u64::MAX / 2, 10 * 400_000]);
        let hit = cached(&cache, 10, c, SimTime::ZERO, &mut a2).unwrap();
        assert_eq!(first, hit);
        assert_eq!(scope.finish().hits, 1);
    }
}
