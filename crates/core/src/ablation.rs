//! The Table 4 ablation variants (§5.3), all at a fixed strategy
//! (7B, 8 GPUs, TP 4 × CP 2 in the paper):
//!
//! * `FullRecompute` — vanilla full recomputation on the caching allocator
//!   (Megatron behaviour);
//! * `FullRecomputePlan` — full recomputation, but transient tensors are
//!   placed by the bi-level plan (isolates the memory-planning win);
//! * `FullSwapPlan` — α forced to 1 with no recomputation (isolates the
//!   swapping win and exposes the OOHM failure mode);
//! * `Memo` — the full system (token-wise α from the LP + plan).

use crate::outcome::CellOutcome;
use crate::session::Workload;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

/// One row of Table 4 (plus one extension row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    FullRecompute,
    FullRecomputePlan,
    FullSwapPlan,
    /// Extension beyond the paper's table: swap-vs-recompute decided per
    /// whole tensor (Capuchin-style granularity, §6 related work).
    TensorHybrid,
    Memo,
}

impl Variant {
    /// The paper's four Table 4 rows.
    pub const ALL: [Variant; 4] = [
        Variant::FullRecompute,
        Variant::FullRecomputePlan,
        Variant::FullSwapPlan,
        Variant::Memo,
    ];

    /// The paper's rows plus the tensor-granularity extension.
    pub const EXTENDED: [Variant; 5] = [
        Variant::FullRecompute,
        Variant::FullRecomputePlan,
        Variant::FullSwapPlan,
        Variant::TensorHybrid,
        Variant::Memo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::FullRecompute => "Full Recomputation",
            Variant::FullRecomputePlan => "Full Recomputation + Memory Plan",
            Variant::FullSwapPlan => "Full Swapping + Memory Plan",
            Variant::TensorHybrid => "Tensor-granularity Hybrid + Plan",
            Variant::Memo => "MEMO (fine-grained + plan)",
        }
    }

    /// The execution mode each ablation row dispatches to.
    pub fn spec(self) -> SystemSpec {
        match self {
            Variant::FullRecompute => SystemSpec::MegatronLM,
            Variant::FullRecomputePlan => SystemSpec::FullRecomputePlan,
            Variant::FullSwapPlan => SystemSpec::FullSwapPlan,
            Variant::TensorHybrid => SystemSpec::TensorHybrid,
            Variant::Memo => SystemSpec::Memo,
        }
    }
}

/// Run one ablation variant: every row is a [`SystemSpec`] through the
/// staged pipeline.
pub fn run_variant(w: &Workload, variant: Variant, cfg: &ParallelConfig) -> CellOutcome {
    w.run_with(variant.spec(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ExecutionPipeline;

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
        let fr = run_variant(&w, Variant::FullRecompute, &cfg())
            .mfu()
            .unwrap();
        let frp = run_variant(&w, Variant::FullRecomputePlan, &cfg())
            .mfu()
            .unwrap();
        let fsp = run_variant(&w, Variant::FullSwapPlan, &cfg())
            .mfu()
            .unwrap();
        let memo = run_variant(&w, Variant::Memo, &cfg()).mfu().unwrap();
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
            let out = run_variant(&workload(s), Variant::FullSwapPlan, &cfg());
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
        assert!(run_variant(&w, Variant::Memo, &cfg()).is_ok());
        let fsp = run_variant(&w, Variant::FullSwapPlan, &cfg());
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
            let raw = memo_swap::alpha::solve_alpha_raw(&memo_swap::alpha::AlphaInputs {
                s_input: p.split.s_input,
                s_attn: p.split.s_attn,
                s_others: p.split.s_others,
                bandwidth: w.calib.effective_pcie(),
                t_layer_fwd: p.layer_time.fwd(),
                n_layers: p.layers_local,
                host_capacity: w.calib.host_capacity_per_gpu(),
            });
            let memo = ExecutionPipeline::memo_at_alpha(raw, 2)
                .execute_cached(&w, &cfg(), true)
                .outcome
                .mfu()
                .unwrap();
            let hybrid = run_variant(&w, Variant::TensorHybrid, &cfg())
                .mfu()
                .unwrap();
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
        let frp = run_variant(&w, Variant::FullRecomputePlan, &cfg())
            .mfu()
            .unwrap();
        let fsp = run_variant(&w, Variant::FullSwapPlan, &cfg())
            .mfu()
            .unwrap();
        assert!(
            fsp < frp,
            "full swap {fsp} should lose to planned recompute {frp} at 64K"
        );
        // ...and MEMO should beat both by picking a fractional α.
        let memo = run_variant(&w, Variant::Memo, &cfg()).mfu().unwrap();
        assert!(memo >= frp && memo >= fsp);
    }
}
