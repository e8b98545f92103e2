//! Re-entrant shared-cache execution: the serve layer drives
//! `execute_cached` and pinned (`ProfileSource::Pinned`) runs concurrently
//! from many pool workers against the process-global `ProfileCache` and
//! `SegmentCache`.
//! Correctness claim: results are a pure function of the cell — never of
//! which worker ran it, which path (cached vs delta) evaluated it, or what
//! the shared caches contained at the time. The property interleaves both
//! paths across workers and asserts bit-identical reports against a serial
//! reference pass.

use memo_core::delta::DeltaContext;
use memo_core::pipeline::{ExecutionPipeline, ExecutionReport, ProfileSource};
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_parallel::pool::Pool;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use proptest::prelude::*;

const ALPHA_POINTS: usize = 9;

fn alpha_at(idx: usize) -> f64 {
    idx as f64 / (ALPHA_POINTS - 1) as f64
}

fn memo_grid(w: &Workload) -> Vec<ParallelConfig> {
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn)
}

fn assert_reports_equal(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
    assert_eq!(a.spec, b.spec, "{what}: spec");
    assert_eq!(a.strategy, b.strategy, "{what}: strategy");
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.bytes, b.bytes, "{what}: bytes");
    assert_eq!(a.time, b.time, "{what}: time");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized cells (strategy × α × path), executed twice: once
    /// serially through `execute_cached`, once fanned out over the pool
    /// where each worker owns a `DeltaContext` and each cell takes the
    /// cached or the delta path per its flag. Both legs share the
    /// process-global caches — which other test threads also mutate — and
    /// must agree bit-exactly cell by cell.
    #[test]
    fn interleaved_pool_execution_is_bit_identical_to_serial(
        seq_k in prop::sample::select(vec![64u64, 128, 256]),
        cells in prop::collection::vec(
            (0usize..64, 0usize..ALPHA_POINTS, 0u8..2),
            4..24,
        ),
    ) {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k * 1024);
        let grid = memo_grid(&w);
        prop_assert!(!grid.is_empty());
        let cells: Vec<(usize, usize, bool)> = cells
            .into_iter()
            .map(|(ci, ai, delta)| (ci % grid.len(), ai, delta == 1))
            .collect();

        // Serial reference: always the full cached path, one thread.
        let serial: Vec<ExecutionReport> = cells
            .iter()
            .map(|&(ci, ai, _)| ExecutionPipeline::memo_at_alpha(alpha_at(ai), 2).execute_cached(&w, &grid[ci], true))
            .collect();

        // Pooled leg: per-worker contexts, interleaved paths, shared
        // global caches warmed by the serial leg (and by whatever other
        // tests are doing concurrently).
        let pooled: Vec<ExecutionReport> = Pool::machine().map_with(
            cells.clone(),
            DeltaContext::new,
            |ctx, (ci, ai, delta)| {
                let pipe = ExecutionPipeline::memo_at_alpha(alpha_at(ai), 2);
                if delta {
                    pipe.execute_from(&w, &grid[ci], ProfileSource::Pinned(ctx), None)
                } else {
                    pipe.execute_cached(&w, &grid[ci], true)
                }
            },
        );

        for (i, ((ci, ai, delta), (s, p))) in
            cells.iter().zip(serial.iter().zip(&pooled)).enumerate()
        {
            assert_reports_equal(
                s,
                p,
                &format!("cell {i}: seq {seq_k}K cfg {ci} alpha idx {ai} delta {delta}"),
            );
        }
    }
}
