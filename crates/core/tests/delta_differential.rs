//! Differential suite: grid rows (`Workload::run_alpha_grid`,
//! `Workload::run_mixed_policy_grid`) must be **bit-exact** with
//! `execute_cached` — same outcome (including OOM/OOHM failure cells with
//! identical shortfall values), same byte and time decompositions, same
//! final pick — while each row holds one profile and one plan and builds
//! its swap schedules through the process-global segment cache.
//!
//! The properties compare every cell of randomized rows field by field,
//! because adjacency is exactly what a row exploits: a wrong segment-cache
//! key or a stale held plan shows up as a divergence on the cell after the
//! knob change, not on the first cell.

use memo_core::outcome::CellOutcome;
use memo_core::pipeline::{ExecutionPipeline, ExecutionReport};
use memo_core::session::{pick_best_or_failure, Workload};
use memo_model::config::ModelConfig;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use proptest::prelude::*;

fn memo_grid(w: &Workload) -> Vec<ParallelConfig> {
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn)
}

/// Assert that a row cell is bit-identical to its `execute_cached` run.
fn assert_matches_cached(
    pipe: &ExecutionPipeline,
    w: &Workload,
    cfg: &ParallelConfig,
    row: &ExecutionReport,
    what: &str,
) -> ExecutionReport {
    let full = pipe.execute_cached(w, cfg, true);
    assert_eq!(full.spec, row.spec, "{what}: spec");
    assert_eq!(full.strategy, row.strategy, "{what}: strategy");
    assert_eq!(full.outcome, row.outcome, "{what}: outcome");
    assert_eq!(full.bytes, row.bytes, "{what}: bytes");
    assert_eq!(full.time, row.time, "{what}: time");
    full
}

/// One α row of `cfg`, every cell checked against `execute_cached`.
/// Returns the row's cells and their cached twins, keyed by α.
#[allow(clippy::type_complexity)]
fn checked_alpha_row(
    w: &Workload,
    cfg: &ParallelConfig,
    points: usize,
    slots: usize,
    what: &str,
) -> (Vec<(f64, ExecutionReport)>, Vec<(f64, ExecutionReport)>) {
    let row = w.run_alpha_grid(cfg, points, slots);
    assert_eq!(row.len(), points, "{what}: row length");
    let full = row
        .iter()
        .map(|(alpha, rep)| {
            let pipe = ExecutionPipeline::memo_at_alpha(*alpha, slots);
            let full = assert_matches_cached(&pipe, w, cfg, rep, &format!("{what} alpha {alpha}"));
            (*alpha, full)
        })
        .collect();
    (row, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random α rows: a random workload (64K–1M), one to three random
    /// strategies, 2–17 points and 2 or 3 slots. Every cell is checked
    /// against `execute_cached`, and the TGS pick over the rows is
    /// identical between the two. Long contexts (768K+) push high-α cells
    /// into OOHM and tight strategies into OOM, so failure cells are part
    /// of most cases.
    #[test]
    fn random_knob_walks_are_bit_identical(
        seq_k in prop::sample::select(vec![64u64, 128, 256, 512, 768, 1024]),
        cfgs in prop::collection::vec(0usize..64, 1..4),
        points in prop::sample::select(vec![2usize, 5, 9, 17]),
        slots in prop::sample::select(vec![2usize, 3]),
    ) {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k * 1024);
        let grid = memo_grid(&w);
        prop_assert!(!grid.is_empty());
        let mut cells = Vec::new();
        let mut full_cells = Vec::new();
        for ci in cfgs.into_iter().map(|c| c % grid.len()) {
            let what = format!("seq {seq_k}K cfg {ci} points {points} slots {slots}");
            let (row, full) = checked_alpha_row(&w, &grid[ci], points, slots, &what);
            cells.extend(row.into_iter().map(|(alpha, rep)| ((ci, alpha), rep)));
            full_cells.extend(full.into_iter().map(|(alpha, rep)| ((ci, alpha), rep)));
        }

        // Pick parity: the fold over row reports must agree with the same
        // fold over the full-simulation reports.
        let (a, fa) = pick_best_or_failure(&cells, |(_, rep)| &rep.outcome);
        let (b, fb) = pick_best_or_failure(&full_cells, |(_, rep)| &rep.outcome);
        prop_assert_eq!(a.map(|(k, _)| *k), b.map(|(k, _)| *k), "pick diverged over the rows");
        prop_assert_eq!(fa, fb, "pick outcome diverged over the rows");
    }

    /// Random mixed-policy rows: every swap-layer count of a random
    /// strategy, at the solved or an overridden α and 2 or 3 slots, each
    /// cell checked against `execute_cached`; a uniform α row of the same
    /// strategy runs between them through the same caches (held plans and
    /// segment-cache keys must not bleed between policies).
    #[test]
    fn mixed_policy_walks_are_bit_identical(
        seq_k in prop::sample::select(vec![64u64, 256, 768]),
        cfg_pick in 0usize..64,
        alpha_idx in 0usize..20,
        slots in prop::sample::select(vec![2usize, 3]),
    ) {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k * 1024);
        let grid = memo_grid(&w);
        let cfg = grid[cfg_pick % grid.len()];
        // Indices past the 17-point lattice take the solved α.
        let alpha_override = (alpha_idx <= 16).then(|| alpha_idx as f64 / 16.0);
        let layers_local = cfg.layers_local(w.model.n_layers);
        for round in 0..2 {
            let row = w.run_mixed_policy_grid(&cfg, alpha_override, slots);
            prop_assert_eq!(row.len(), layers_local.saturating_sub(slots) + 1);
            for (k, rep) in &row {
                assert_matches_cached(
                    &ExecutionPipeline::memo_mixed(*k, alpha_override, slots),
                    &w,
                    &cfg,
                    rep,
                    &format!("seq {seq_k}K mixed k {k} alpha {alpha_override:?} round {round}"),
                );
            }
            checked_alpha_row(&w, &cfg, 5, slots, &format!("seq {seq_k}K interleaved uniform"));
        }
    }
}

/// Deterministic spot check that the random rows do traverse failure
/// cells: at 1M the α endpoints of the 7B grid must contain OOHM and OOM
/// cells, and rows must report them exactly as `execute_cached` does
/// (pinned without relying on proptest's sampling).
#[test]
fn oohm_and_oom_cells_appear_and_match_at_one_million_tokens() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1024 * 1024);
    let grid = memo_grid(&w);
    let mut saw_oohm = false;
    let mut saw_oom = false;
    let mut saw_ok = false;
    for (ci, cfg) in grid.iter().enumerate() {
        let (row, _) = checked_alpha_row(&w, cfg, 2, 2, &format!("endpoint cfg {ci}"));
        for (_, rep) in &row {
            let label = format!("{:?}", rep.outcome);
            saw_oohm |= label.starts_with("Oohm");
            saw_oom |= label.starts_with("Oom");
            saw_ok |= rep.outcome.metrics().is_some();
        }
    }
    assert!(saw_oohm, "1M grid endpoints must contain OOHM cells");
    assert!(saw_oom, "1M grid endpoints must contain OOM cells");
    assert!(saw_ok, "1M grid endpoints must contain feasible cells");
}

/// The dense MEMO@1M grid `speed_gates` sweeps (7B, 8 GPUs): a full
/// `execute_cached` sweep and the `run_alpha_grid` rows of the 340-cell
/// grid (every strategy × 17 α) are bit-identical cell by cell, pick the
/// same cell, and contain a feasible one; every cell of the 424-cell
/// mixed-policy grid matches a full `memo_mixed` run.
#[test]
fn dense_grid_at_one_million_tokens_is_bit_identical() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let grid = memo_bench::inputs::memo_grid(&w);
    let cells: Vec<(ParallelConfig, f64)> = grid.cells().collect();
    assert_eq!(cells.len(), 340);
    let full: Vec<(usize, ExecutionReport)> = cells
        .iter()
        .map(|(cfg, alpha)| {
            ExecutionPipeline::memo_at_alpha(*alpha, 2).execute_cached(&w, cfg, true)
        })
        .enumerate()
        .collect();
    let rows: Vec<(usize, ExecutionReport)> = grid
        .configs
        .iter()
        .flat_map(|cfg| w.run_alpha_grid(cfg, grid.alphas.len(), 2))
        .map(|(_, rep)| rep)
        .enumerate()
        .collect();
    assert_eq!(rows.len(), cells.len());
    for ((i, a), (_, b)) in full.iter().zip(&rows) {
        let (cfg, alpha) = &cells[*i];
        let what = format!("cell {i} ({} alpha={alpha:.3})", cfg.describe());
        assert_eq!(a.spec, b.spec, "{what}: spec");
        assert_eq!(a.strategy, b.strategy, "{what}: strategy");
        assert_eq!(a.outcome, b.outcome, "{what}: outcome");
        assert_eq!(a.bytes, b.bytes, "{what}: bytes");
        assert_eq!(a.time, b.time, "{what}: time");
    }
    let pick = pick_best_or_failure(&full, |(_, rep)| &rep.outcome)
        .0
        .map(|(i, _)| *i);
    assert_eq!(
        pick,
        pick_best_or_failure(&rows, |(_, rep)| &rep.outcome)
            .0
            .map(|(i, _)| *i),
        "grid pick diverged"
    );
    assert!(pick.is_some(), "no feasible cell in the MEMO@1M grid");

    let mut mixed_cells = 0;
    for cfg in &grid.configs {
        for (k, rep) in w.run_mixed_policy_grid(cfg, None, 2) {
            let full = ExecutionPipeline::memo_mixed(k, None, 2).execute_cached(&w, cfg, true);
            let what = format!("mixed {} k={k}", cfg.describe());
            assert_eq!(rep.outcome, full.outcome, "{what}: outcome");
            assert_eq!(rep.bytes, full.bytes, "{what}: bytes");
            assert_eq!(rep.time, full.time, "{what}: time");
            mixed_cells += 1;
        }
    }
    assert_eq!(mixed_cells, 424);
}

/// A fully-infeasible grid (every cell OOM on a starved GPU) must not
/// panic any dense-grid helper: `pick_best_or_failure` finds no pick and
/// surfaces the least-bad failure by `CellOutcome::failure_rank`,
/// mirroring `run_best_or_failure`'s `NoValidStrategy` path for the empty
/// grid.
#[test]
fn fully_infeasible_grids_report_least_bad_failure_without_panicking() {
    let mut w = Workload::new(ModelConfig::gpt_7b(), 8, 256 * 1024);
    // 2 GiB per GPU: model states alone exceed it for every strategy.
    w.calib.gpu_memory_bytes = 2 << 30;
    let grid = memo_grid(&w);
    assert!(!grid.is_empty());
    let cells: Vec<((usize, f64), ExecutionReport)> = grid
        .iter()
        .enumerate()
        .flat_map(|(ci, cfg)| {
            let (row, _) = checked_alpha_row(&w, cfg, 3, 2, &format!("starved cfg {ci}"));
            row.into_iter().map(move |(alpha, rep)| ((ci, alpha), rep))
        })
        .collect();
    assert!(
        cells.iter().all(|(_, rep)| !rep.outcome.is_ok()),
        "2 GiB GPUs must make every cell infeasible"
    );
    let (pick, failure) = pick_best_or_failure(&cells, |(_, rep)| &rep.outcome);
    assert!(pick.is_none());
    // The reported failure is the least-bad one actually in the grid.
    let min_rank = cells
        .iter()
        .map(|(_, rep)| rep.outcome.failure_rank())
        .min()
        .unwrap();
    assert_eq!(failure.failure_rank(), min_rank);
    match &failure {
        CellOutcome::Oom { needed, capacity } | CellOutcome::Oohm { needed, capacity } => {
            assert!(needed > capacity, "shortfall must be real");
        }
        other => panic!("starved grid must fail on memory, got {other:?}"),
    }
    // The empty grid degrades to NoValidStrategy, not a panic.
    let empty: Vec<(usize, ExecutionReport)> = Vec::new();
    let (pick, failure) = pick_best_or_failure(&empty, |(_, rep)| &rep.outcome);
    assert!(pick.is_none());
    assert_eq!(failure, CellOutcome::NoValidStrategy);
}
