//! # memo-core — the MEMO training framework (§4.3, Figure 10)
//!
//! Ties every substrate together into the paper's three-component pipeline:
//!
//! 1. [`profiler::profile`] runs a profiling pass: generates the memory
//!    request trace, measures (models) per-layer times, and solves the α
//!    program;
//! 2. [`planner::plan`] runs the bi-level MIP over the trace and
//!    emits a [`MemoryPlan`](memo_plan::MemoryPlan);
//! 3. [`pipeline::ExecutionPipeline`] runs the training iteration on the
//!    simulated cluster as explicit stages — profile, activation policy,
//!    memory backend, schedule, metrics — covering MEMO (rounding buffers +
//!    three streams + planned addresses), the Megatron-LM / DeepSpeed
//!    baselines (full recomputation + the caching allocator), and the
//!    keep-all / tensor-hybrid / N-tier variants.
//!
//! [`session`] is the user-facing API: build a [`session::Workload`], pick a
//! [`SystemSpec`](memo_parallel::SystemSpec), `run_with()` — and read
//! MFU/TGS or an OOM/OOHM outcome (the cells of Table 3), or
//! `run_report()` for the full byte/time accounting. [`ablation`] provides
//! the Table 4 variants.

pub mod ablation;
pub mod cache;
pub mod delta;
pub mod metrics;
pub mod observer;
pub mod outcome;
pub mod pipeline;
pub mod planner;
pub mod profiler;
pub mod serving;
pub mod session;

pub use cache::{CacheStats, CacheStatsScope, ProfileCache};
pub use delta::{pick_best, pick_best_or_failure, DeltaContext, DeltaStats};
pub use metrics::Metrics;
pub use observer::RunObserver;
pub use outcome::CellOutcome;
pub use pipeline::{ExecutionPipeline, ExecutionReport, ProfileSource};
pub use serving::{ServingEngine, ServingReport, ServingResources};
pub use session::Workload;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::session::Workload;
    use memo_model::config::ModelConfig;

    /// The 7B test workload shared by the session/delta/ablation tests.
    pub fn w7(n_gpus: usize, s_k: u64) -> Workload {
        Workload::new(ModelConfig::gpt_7b(), n_gpus, s_k * 1024)
    }
}
