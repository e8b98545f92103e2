//! Run observation: per-stage wall timing, cache statistics, the
//! captured (or synthesized) stream timeline, and the allocator event log
//! of one pipeline execution.
//!
//! The observer is **opt-in and `Option`-gated**: every pipeline stage
//! takes an `Option<&mut RunObserver>` and does nothing — no clock reads,
//! no allocator recording, no timeline capture — when it is `None`. The
//! default `execute_cached` path passes `None`, so observation
//! costs nothing unless a caller explicitly asks for it, and golden-parity
//! outputs cannot be perturbed by it (DESIGN.md §2c).

use memo_alloc::caching::AllocEvent;
use memo_hal::engine::Timeline;

/// Wall-clock seconds spent in each pipeline stage (host time, not
/// simulated time). `schedule` includes the metrics arithmetic — the two
/// run fused in the pipeline and metrics is a handful of divides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSecs {
    /// Stage 1: profile (trace + layer costs + α program), cache included.
    pub profile: f64,
    /// Stage 2: activation policy decision.
    pub policy: f64,
    /// Stage 3: memory backend (plan lookup or caching-allocator replay).
    pub memory: f64,
    /// Stages 4+5: schedule construction and metrics.
    pub schedule: f64,
}

impl StageSecs {
    /// Sum over the stages.
    #[cfg(test)]
    fn total(&self) -> f64 {
        self.profile + self.policy + self.memory + self.schedule
    }
}

/// Everything one observed pipeline run collects.
///
/// Construct with [`RunObserver::new`], pass as `Some(&mut obs)` to
/// `crate::pipeline::ExecutionPipeline::execute_from` (or
/// [`crate::session::Workload::run_report_observed`]), then hand the
/// filled observer to the `memo-obs` exporters.
#[derive(Debug, Clone, Default)]
pub struct RunObserver {
    /// Host wall time per stage.
    pub stage_secs: StageSecs,
    /// [`crate::cache::ProfileCache`] hits attributable to this run.
    pub cache_hits: u64,
    /// Cache misses attributable to this run.
    pub cache_misses: u64,
    /// The simulated stream timeline: the three-stream swap schedule for
    /// the swap family, a synthesized single-stream timeline for the
    /// closed-form recompute family.
    pub timeline: Option<Timeline>,
    /// Allocator events of the steady-state caching replay (empty for the
    /// static-plan backend, which performs no dynamic allocation).
    pub alloc_events: Vec<AllocEvent>,
}

impl RunObserver {
    pub fn new() -> Self {
        RunObserver::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_secs_total() {
        let s = StageSecs {
            profile: 1.0,
            policy: 2.0,
            memory: 3.0,
            schedule: 4.0,
        };
        assert_eq!(s.total(), 10.0);
        assert_eq!(StageSecs::default().total(), 0.0);
    }

    #[test]
    fn default_observer_is_empty() {
        let o = RunObserver::new();
        assert!(o.timeline.is_none());
        assert!(o.alloc_events.is_empty());
        assert_eq!(o.cache_hits + o.cache_misses, 0);
    }
}
