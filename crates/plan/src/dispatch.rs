//! Size-based planner dispatch: exact BnB below a threshold, the boxing
//! family above it.
//!
//! Documented thresholds (exercised by the tests here and in
//! `tests/boxing_scale.rs`):
//!
//! * `n ≤ DispatchOptions::exact.max_tensors` (default 40) → exact
//!   branch-and-bound ([`crate::bnb`]), backend [`PlannerBackend::Exact`];
//! * above that → the boxing solver ([`crate::boxing`]), backend
//!   [`PlannerBackend::Boxing`] — unless a best-fit portfolio member
//!   produced the winning packing, which is reported as
//!   [`PlannerBackend::BestFit`]. The portfolio is the skyline
//!   certificate (every `n`; it returns at once when its peak equals the
//!   liveness bound, which token-chunked traces reach) and the O(n²)
//!   best-fit heuristic (`n ≤ BoxingOptions::portfolio_max_tensors`,
//!   default 4096). With `portfolio_max_tensors == 0` neither runs and
//!   only the boxing candidates are reported.
//!
//! [`crate::bilevel::plan_whole`] is the whole-model entry point: it
//! streams the trace into a flat [`DsaInstance`] and dispatches it — the
//! path selected by `SystemSpec::MemoWholePlan`.

use crate::bilevel::LevelStats;
use crate::bnb::{self, BnbOptions};
use crate::boxing::{self, BoxingOptions, Candidate};
use crate::dsa::{Assignment, DsaInstance};

/// Which planning pipeline handles an iteration trace. This is the
/// `SystemSpec`-level knob threaded through the execution pipeline and the
/// profile/plan caches (it participates in cache fingerprints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerKind {
    /// The paper's bi-level decomposition (§4.2 / Figure 8).
    Bilevel,
    /// Flat whole-trace instance solved by the dispatch policy below.
    WholeTrace,
}

impl PlannerKind {
    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::Bilevel => "bilevel",
            PlannerKind::WholeTrace => "whole-trace",
        }
    }
}

/// The backend that actually solved a dispatched instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerBackend {
    /// Exact branch-and-bound.
    Exact,
    /// Boxing (recursive boxes or stacked bands candidate won).
    Boxing,
    /// A best-fit portfolio member won: the skyline certificate or the
    /// best-fit heuristic.
    BestFit,
}

impl PlannerBackend {
    pub fn name(self) -> &'static str {
        match self {
            PlannerBackend::Exact => "exact",
            PlannerBackend::Boxing => "boxing",
            PlannerBackend::BestFit => "best-fit",
        }
    }
}

/// Dispatch configuration.
#[derive(Debug, Clone, Default)]
pub struct DispatchOptions {
    /// Exact-search options; `exact.max_tensors` is the dispatch threshold.
    pub exact: BnbOptions,
    /// Boxing options for instances above the threshold.
    pub boxing: BoxingOptions,
}

/// A dispatched solve.
#[derive(Debug, Clone)]
pub struct DispatchSolution {
    pub assignment: Assignment,
    pub backend: PlannerBackend,
    pub lower_bound: u64,
    /// Proven optimal (exact search closed, or peak == lower bound).
    pub optimal: bool,
    /// Exact-search nodes (0 for boxing).
    pub(crate) nodes: u64,
    /// Boxing's certified `2·K·LOAD` bound (None on the exact path).
    pub guarantee: Option<u64>,
}

impl DispatchSolution {
    pub(crate) fn level_stats(&self) -> LevelStats {
        LevelStats {
            n_tensors: self.assignment.offsets.len(),
            peak: self.assignment.peak,
            lower_bound: self.lower_bound,
            optimal: self.optimal,
            nodes: self.nodes,
        }
    }
}

/// Solve one instance under the dispatch policy.
pub fn solve(inst: &DsaInstance, opts: &DispatchOptions) -> DispatchSolution {
    if inst.len() <= opts.exact.max_tensors {
        let sol = bnb::solve(inst, opts.exact);
        DispatchSolution {
            lower_bound: sol.lower_bound,
            optimal: sol.optimal,
            nodes: sol.nodes,
            guarantee: None,
            backend: PlannerBackend::Exact,
            assignment: sol.assignment,
        }
    } else {
        let sol = boxing::solve_with(inst, &opts.boxing);
        let backend = match sol.stats.candidate {
            Candidate::BestFit => PlannerBackend::BestFit,
            _ => PlannerBackend::Boxing,
        };
        DispatchSolution {
            lower_bound: sol.lower_bound,
            optimal: sol.assignment.peak == sol.lower_bound,
            nodes: 0,
            guarantee: Some(sol.guarantee),
            backend,
            assignment: sol.assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    fn chain(n: usize, overlap_all: bool) -> DsaInstance {
        DsaInstance::new(
            (0..n as u32)
                .map(|i| DsaTensor {
                    id: TensorId(u64::from(i)),
                    size: 8 + u64::from(i),
                    birth: if overlap_all { 0 } else { i },
                    death: if overlap_all { n as u32 + 1 } else { i + 1 },
                })
                .collect(),
        )
    }

    #[test]
    fn dispatch_picks_exact_at_and_below_threshold() {
        let opts = DispatchOptions::default();
        assert_eq!(opts.exact.max_tensors, 40, "documented threshold");
        let sol = solve(&chain(40, false), &opts);
        assert_eq!(sol.backend, PlannerBackend::Exact);
        assert!(sol.optimal);
        assert!(sol.guarantee.is_none());
    }

    #[test]
    fn dispatch_picks_boxing_family_above_threshold() {
        let opts = DispatchOptions::default();
        let sol = solve(&chain(41, false), &opts);
        assert_ne!(sol.backend, PlannerBackend::Exact);
        assert!(sol.guarantee.is_some());
        assert!(sol.assignment.peak <= sol.guarantee.unwrap());
    }

    #[test]
    fn dispatch_reports_boxing_when_portfolio_disabled() {
        let opts = DispatchOptions {
            boxing: BoxingOptions {
                portfolio_max_tensors: 0,
            },
            ..DispatchOptions::default()
        };
        let sol = solve(&chain(41, true), &opts);
        assert_eq!(sol.backend, PlannerBackend::Boxing);
    }

    /// Token-chunked traces (power-of-two, 1.5× and odd chunk sizes, with
    /// and without a partial last chunk) are stack-shaped: the skyline
    /// certificate plans them at the liveness bound.
    #[test]
    fn chunked_traces_plan_at_the_liveness_bound() {
        use memo_model::chunked::{for_each_request, ChunkedParams};
        use memo_model::config::{DType, ModelConfig};
        for (seq, chunk) in [
            (1024, 256),
            (1000, 256),
            (1152, 384),
            (1000, 384),
            (1000, 97),
        ] {
            let p = ChunkedParams {
                model: ModelConfig::tiny(3, 64, 4, 256),
                dtype: DType::F16,
                seq_tokens: seq,
                chunk_tokens: chunk,
            };
            let mut b = crate::DsaInstanceBuilder::new();
            for_each_request(&p, |r| b.push(r));
            let inst = b.finish().unwrap();
            let sol = solve(&inst, &DispatchOptions::default());
            sol.assignment.validate(&inst).unwrap();
            assert_eq!(sol.backend, PlannerBackend::BestFit, "{seq}/{chunk}");
            assert!(sol.optimal, "{seq}/{chunk}");
            assert_eq!(sol.assignment.peak, sol.lower_bound, "{seq}/{chunk}");
            assert_eq!(sol.lower_bound, inst.lower_bound());
        }
    }
}
