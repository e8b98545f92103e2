//! The Table 4 ablation rows (§5.3), all at a fixed strategy (7B, 8 GPUs,
//! TP 4 × CP 2 in the paper). Each row is a [`SystemSpec`] run through
//! [`Workload::run_with`](crate::session::Workload::run_with):
//!
//! * Full Recomputation — [`SystemSpec::MegatronLM`]: vanilla full
//!   recomputation on the caching allocator;
//! * Full Recomputation + Memory Plan — [`SystemSpec::FullRecomputePlan`]:
//!   transient tensors placed by the bi-level plan (isolates the
//!   memory-planning win);
//! * Full Swapping + Memory Plan — [`SystemSpec::FullSwapPlan`]: α forced
//!   to 1 with no recomputation (isolates the swapping win and exposes the
//!   OOHM failure mode);
//! * MEMO — [`SystemSpec::Memo`]: the full system (token-wise α from the
//!   LP + plan);
//! * extension beyond the paper's table — [`SystemSpec::TensorHybrid`]:
//!   swap-vs-recompute decided per whole tensor (Capuchin-style
//!   granularity, §6 related work).
//!
//! [`SystemSpec`]: memo_parallel::strategy::SystemSpec
//! [`SystemSpec::MegatronLM`]: memo_parallel::strategy::SystemSpec::MegatronLM
//! [`SystemSpec::FullRecomputePlan`]: memo_parallel::strategy::SystemSpec::FullRecomputePlan
//! [`SystemSpec::FullSwapPlan`]: memo_parallel::strategy::SystemSpec::FullSwapPlan
//! [`SystemSpec::Memo`]: memo_parallel::strategy::SystemSpec::Memo
//! [`SystemSpec::TensorHybrid`]: memo_parallel::strategy::SystemSpec::TensorHybrid

#[cfg(test)]
mod tests {
    use crate::outcome::CellOutcome;
    use crate::pipeline::ExecutionPipeline;
    use crate::session::Workload;
    use memo_parallel::strategy::{ParallelConfig, SystemSpec};

    fn workload(s_k: u64) -> Workload {
        crate::testutil::w7(8, s_k)
    }

    fn cfg() -> ParallelConfig {
        ParallelConfig::megatron(4, 2, 1, 1) // Table 4's fixed strategy
    }

    #[test]
    fn table4_orderings_at_256k() {
        // At 256K the paper reports: full swap + plan (53.62%) >
        // full recompute + plan (42.05%) > full recompute (29.07%),
        // with MEMO matching full swapping.
        let w = workload(256);
        let fr = w.run_with(SystemSpec::MegatronLM, &cfg()).mfu().unwrap();
        let frp = w
            .run_with(SystemSpec::FullRecomputePlan, &cfg())
            .mfu()
            .unwrap();
        let fsp = w.run_with(SystemSpec::FullSwapPlan, &cfg()).mfu().unwrap();
        let memo = w.run_with(SystemSpec::Memo, &cfg()).mfu().unwrap();
        assert!(frp >= fr, "plan must not hurt recompute ({frp} vs {fr})");
        assert!(fsp > frp, "swap {fsp} should beat recompute {frp} at 256K");
        assert!(
            memo >= fsp * 0.95,
            "MEMO {memo} should match full swap {fsp}"
        );
    }

    #[test]
    fn full_swapping_oohms_at_long_context() {
        // Paper: X_oohm from 384K onward for Full Swapping + Plan.
        let mut hit = false;
        for s in [384u64, 512, 640, 768] {
            let out = workload(s).run_with(SystemSpec::FullSwapPlan, &cfg());
            if matches!(out, CellOutcome::Oohm { .. }) {
                hit = true;
                break;
            }
        }
        assert!(
            hit,
            "full swapping should exhaust host memory somewhere in 384K-768K"
        );
    }

    #[test]
    fn memo_supports_the_longest_sequences() {
        // MEMO must keep working at lengths where all ablations fail.
        let w = workload(896);
        assert!(w.run_with(SystemSpec::Memo, &cfg()).is_ok());
        let fsp = w.run_with(SystemSpec::FullSwapPlan, &cfg());
        assert!(!fsp.is_ok());
    }

    #[test]
    fn token_granularity_dominates_tensor_granularity() {
        // Token-wise granularity is effectively continuous (any fraction of
        // token rows); the tensor-granularity hybrid moves in whole-tensor
        // steps (1/14 or 4/14 of the "others" bytes). At the continuous
        // optimum MEMO can never swap less than the hybrid within the same
        // budget, so its MFU weakly dominates — and strictly wins where the
        // budget falls inside a tensor step.
        let mut strictly_better = false;
        for s in [64u64, 96, 128, 160, 192] {
            let w = workload(s);
            let p = crate::profiler::profile(
                &w,
                &cfg(),
                memo_model::trace::RematPolicy::MemoTokenWise,
                false,
            );
            let raw = memo_swap::alpha::solve_alpha_raw(&p.alpha_inputs(&w.calib, 2));
            let memo = ExecutionPipeline::memo_at_alpha(raw, 2)
                .execute_cached(&w, &cfg(), true)
                .outcome
                .mfu()
                .unwrap();
            let hybrid = w.run_with(SystemSpec::TensorHybrid, &cfg()).mfu().unwrap();
            assert!(
                memo >= hybrid - 1e-9,
                "{s}K: memo {memo:.4} < tensor hybrid {hybrid:.4}"
            );
            if memo > hybrid + 1e-3 {
                strictly_better = true;
            }
        }
        assert!(strictly_better, "token granularity never paid off in range");
    }

    #[test]
    fn short_sequences_favor_recompute_over_full_swap() {
        // Paper 64K row: full swapping 37.40% < full recompute + plan 42.91%
        // (offload cannot hide under compute at short lengths).
        let w = workload(64);
        let frp = w
            .run_with(SystemSpec::FullRecomputePlan, &cfg())
            .mfu()
            .unwrap();
        let fsp = w.run_with(SystemSpec::FullSwapPlan, &cfg()).mfu().unwrap();
        assert!(
            fsp < frp,
            "full swap {fsp} should lose to planned recompute {frp} at 64K"
        );
        // ...and MEMO should beat both by picking a fractional α.
        let memo = w.run_with(SystemSpec::Memo, &cfg()).mfu().unwrap();
        assert!(memo >= frp && memo >= fsp);
    }
}
