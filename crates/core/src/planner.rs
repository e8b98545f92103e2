//! The memory planner (§4.3.3, Figure 10): a thin orchestration layer over
//! `memo_plan`'s bi-level solver, with plan verification.

use memo_model::trace::IterationTrace;
use memo_plan::bilevel::{plan_iteration, plan_whole, BilevelReport};
use memo_plan::dispatch::PlannerKind;

/// Plan the addresses of every activation tensor in `trace`.
///
/// The returned report carries the plan plus per-level solver statistics
/// (instance sizes, optimality, node counts) — the paper reports planning
/// completes in minutes; ours completes in milliseconds because the level-1
/// and level-2 instances are small by construction.
pub fn plan(trace: &IterationTrace) -> BilevelReport {
    plan_with(trace, PlannerKind::Bilevel)
}

/// Plan `trace` under an explicit planner selection: the bi-level
/// decomposition (§4.3.3) or the whole-trace flat DSA path, which hands the
/// entire iteration to the size-based dispatch policy (exact BnB when small,
/// boxing with a certified gap when large).
pub(crate) fn plan_with(trace: &IterationTrace, planner: PlannerKind) -> BilevelReport {
    let report = match planner {
        PlannerKind::Bilevel => plan_iteration(trace),
        PlannerKind::WholeTrace => plan_whole(trace),
    };
    debug_assert!(
        report.plan.validate_against(trace).is_ok(),
        "{} planner produced an invalid plan",
        planner.name()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler;
    use crate::session::Workload;
    use memo_model::config::ModelConfig;
    use memo_model::trace::RematPolicy;
    use memo_parallel::strategy::ParallelConfig;

    #[test]
    fn plans_a_real_memo_trace() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        let report = plan(&p.trace);
        report.plan.validate_against(&p.trace).unwrap();
        // The plan must be within a modest factor of the liveness bound.
        let lb = p.trace.peak_live_bytes();
        assert!(report.plan.peak >= lb);
        assert!(
            (report.plan.peak as f64) < 1.4 * lb as f64,
            "plan peak {} too far above liveness bound {lb}",
            report.plan.peak
        );
    }

    #[test]
    fn whole_trace_planner_plans_a_real_memo_trace() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        let report = plan_with(&p.trace, PlannerKind::WholeTrace);
        report.plan.validate_against(&p.trace).unwrap();
        let whole = report.whole.expect("whole-trace stats populated");
        assert!(report.layer_fwd.is_none() && report.layer_bwd.is_none());
        // The flat plan sees the global instance, so it can only beat or
        // match the liveness bound the bi-level path is judged against.
        let lb = p.trace.peak_live_bytes();
        assert!(report.plan.peak >= lb);
        if let Some(g) = whole.guarantee {
            assert!(report.plan.peak <= g, "peak above certified guarantee");
        }
    }

    #[test]
    fn level1_instances_are_small() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        let report = plan(&p.trace);
        let fwd = report.layer_fwd.expect("fwd stats");
        let bwd = report.layer_bwd.expect("bwd stats");
        assert!(fwd.n_tensors < 40, "fwd instance size {}", fwd.n_tensors);
        assert!(bwd.n_tensors < 40, "bwd instance size {}", bwd.n_tensors);
    }

    #[test]
    fn bilevel_plans_are_a_pure_function_of_the_trace() {
        // CP2·PP4 at 64K: the level-2 instance has equal-duration,
        // equal-size tensors, and the heuristic's stable sorts place them
        // in input order. Each plan hashes its tensor maps under a fresh
        // random seed; eight plans must still agree.
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
        let cfg = ParallelConfig::megatron(1, 2, 4, 1);
        let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        let first = plan(&p.trace);
        for _ in 1..8 {
            let again = plan(&p.trace);
            assert_eq!(again.plan, first.plan);
            assert_eq!(again.level2.nodes, first.level2.nodes);
        }
    }
}
