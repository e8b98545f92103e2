//! Parity oracle for the search performance layer.
//!
//! The profile cache is pure plumbing: the strategy a search picks, and the
//! outcome it reports, must be bit-identical to the uncached search. These
//! tests pin that contract for every execution mode and — via proptest —
//! for randomly drawn cache keys. (The file and test names predate the
//! search's move to the caller's thread.)

use memo::core::cache::ProfileCache;
use memo::core::profiler;
use memo::core::session::Workload;
use memo::model::config::ModelConfig;
use memo::model::trace::RematPolicy;
use memo::parallel::strategy::{ParallelConfig, SystemSpec};
use proptest::prelude::*;

/// Every mode picks the identical (strategy, outcome) whether evaluated
/// through the profile cache or uncached.
#[test]
fn parallel_cached_search_matches_serial_for_every_mode() {
    for &(n_gpus, seq_k) in &[(8usize, 64u64), (8, 256), (8, 1024)] {
        let w = Workload::new(ModelConfig::gpt_7b(), n_gpus, seq_k * 1024);
        for &sys in &SystemSpec::ALL_MODES {
            let uncached = w.run_best_or_failure_with(sys, false);
            let cached = w.run_best_or_failure(sys);
            assert_eq!(
                cached,
                uncached,
                "{} @ {seq_k}K: cached search diverged from the uncached oracle",
                sys.name()
            );
        }
    }
}

/// `run_best` (the convenience wrapper) agrees with the uncached search on
/// the winning strategy.
#[test]
fn run_best_agrees_with_serial_options() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 128 * 1024);
    for &sys in &[SystemSpec::Memo, SystemSpec::MegatronLM] {
        let (cfg, out) = w.run_best_or_failure_with(sys, false);
        assert_eq!(w.run_best(sys), cfg.map(|cfg| (cfg, out)));
    }
}

/// Valid 8-GPU strategies and the three remat policies, drawn at random.
fn arb_cache_inputs() -> impl Strategy<Value = (ParallelConfig, RematPolicy, bool, u64)> {
    let cfgs = prop::sample::select(vec![
        ParallelConfig::megatron(8, 1, 1, 1),
        ParallelConfig::megatron(4, 2, 1, 1),
        ParallelConfig::megatron(4, 1, 2, 1),
        ParallelConfig::megatron(2, 2, 2, 1),
        ParallelConfig::megatron(2, 1, 2, 2),
        ParallelConfig::megatron(1, 1, 1, 8),
    ]);
    let policies = prop::sample::select(vec![
        RematPolicy::KeepAll,
        RematPolicy::FullRecompute,
        RematPolicy::MemoTokenWise,
    ]);
    let seq_ks = prop::sample::select(vec![8u64, 16, 32, 64]);
    let logits = prop::sample::select(vec![false, true]);
    (cfgs, policies, logits, seq_ks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit is byte-identical to a fresh `profile()` call: every
    /// float in the report compares `==` (no tolerance).
    #[test]
    fn cache_hits_are_byte_identical_to_fresh_profiles(
        (cfg, policy, logits, seq_k) in arb_cache_inputs()
    ) {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k * 1024);
        let cache = ProfileCache::global();
        // Warm, then hit: both lookups go through the cache.
        let warmed = cache.profile(&w, &cfg, policy, logits, true);
        let hit = cache.profile(&w, &cfg, policy, logits, true);
        prop_assert!(std::sync::Arc::ptr_eq(&warmed, &hit));
        let fresh = profiler::profile(&w, &cfg, policy, logits);
        prop_assert_eq!(&*hit, &fresh);
    }
}
