//! Re-entrant shared-cache execution: the serve layer drives
//! `execute_cached` runs and grid rows (`Workload::run_alpha_grid`)
//! concurrently from many pool workers against the process-global
//! `ProfileCache` and `SegmentCache`.
//! Correctness claim: results are a pure function of the cell — never of
//! which worker ran it, which path (cached cell vs grid row) evaluated it,
//! or what the shared caches contained at the time. The property
//! interleaves both paths across workers and asserts bit-identical reports
//! against a serial reference pass.

use memo_core::pipeline::{ExecutionPipeline, ExecutionReport};
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

    /// Randomized strategy rows (strategy × path, every α of the lattice),
    /// executed twice: once serially through `execute_cached`, once fanned
    /// out over the pool with `Pool::map`, where each row takes the cached
    /// path cell by cell or runs as one `run_alpha_grid` row per its flag.
    /// Both legs share the process-global caches — which other test
    /// threads also mutate — and must agree bit-exactly cell by cell.
    #[test]
    fn interleaved_pool_execution_is_bit_identical_to_serial(
        seq_k in prop::sample::select(vec![64u64, 128, 256]),
        rows in prop::collection::vec((0usize..64, 0u8..2), 2..12),
    ) {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k * 1024);
        let grid = memo_grid(&w);
        prop_assert!(!grid.is_empty());
        let rows: Vec<(usize, bool)> = rows
            .into_iter()
            .map(|(ci, row)| (ci % grid.len(), row == 1))
            .collect();
        let cached_row = |ci: usize| -> Vec<ExecutionReport> {
            (0..ALPHA_POINTS)
                .map(|ai| {
                    ExecutionPipeline::memo_at_alpha(alpha_at(ai), 2)
                        .execute_cached(&w, &grid[ci], true)
                })
                .collect()
        };

        // Serial reference: always the full cached path, one thread.
        let serial: Vec<Vec<ExecutionReport>> =
            rows.iter().map(|&(ci, _)| cached_row(ci)).collect();

        // Pooled leg: interleaved paths, shared global caches warmed by
        // the serial leg (and by whatever other tests are doing
        // concurrently).
        let pooled: Vec<Vec<ExecutionReport>> = Pool::machine().map(rows.clone(), |(ci, row)| {
            if row {
                w.run_alpha_grid(&grid[ci], ALPHA_POINTS, 2)
                    .into_iter()
                    .map(|(_, rep)| rep)
                    .collect()
            } else {
                cached_row(ci)
            }
        });

        for (i, ((ci, row), (s, p))) in rows.iter().zip(serial.iter().zip(&pooled)).enumerate() {
            prop_assert_eq!(p.len(), ALPHA_POINTS);
            for (ai, (s, p)) in s.iter().zip(p).enumerate() {
                assert_reports_equal(
                    s,
                    p,
                    &format!("row {i}: seq {seq_k}K cfg {ci} alpha idx {ai} grid row {row}"),
                );
            }
        }
    }
}
