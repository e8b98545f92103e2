//! Parallel sweep driver for the end-to-end tables.

use memo_core::outcome::CellOutcome;
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_parallel::pool::Pool;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

/// One evaluated cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub system: SystemSpec,
    pub model: &'static str,
    pub seq_k: u64,
    pub strategy: Option<ParallelConfig>,
    pub outcome: CellOutcome,
}

/// Evaluate `systems × seq_k` for one (model, n_gpus) pair, in parallel.
///
/// Cells fan out over the chunked [`Pool`], capped at
/// `available_parallelism` workers machine-wide; each cell's strategy
/// search runs on the worker that took it. Results come back in job order,
/// identical to a serial loop.
pub fn sweep_group(
    model: &ModelConfig,
    n_gpus: usize,
    seq_ks: &[u64],
    systems: &[SystemSpec],
) -> Vec<Cell> {
    let mut jobs: Vec<(SystemSpec, u64)> = Vec::new();
    for &sys in systems {
        for &s in seq_ks {
            jobs.push((sys, s));
        }
    }
    Pool::machine().map(jobs, |(sys, s_k)| {
        let w = Workload::new(model.clone(), n_gpus, s_k * 1024);
        let (cfg, outcome) = w.run_best_or_failure(sys);
        Cell {
            system: sys,
            model: model.name,
            seq_k: s_k,
            strategy: cfg,
            outcome,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_small_group() {
        let cells = sweep_group(
            &ModelConfig::gpt_7b(),
            8,
            &[64, 256],
            &[SystemSpec::Memo, SystemSpec::MegatronLM],
        );
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.outcome.is_ok()));
    }
}
