//! Differential suite for the iteration-simulation fast path.
//!
//! An unobserved `run_report` records at `RecordLevel::CursorOnly` and may
//! take the steady-state splicing path in `memo_swap::schedule`; an
//! observed run records at `RecordLevel::Full` and drives the event loop
//! span by span. The two must agree bit-for-bit on every reported number —
//! outcome metrics, byte and time breakdowns, and the OOM/OOHM
//! diagnostics — across all six execution modes. Underneath, the swap
//! schedule builder itself must match the verbatim pre-fast-path event
//! loop on the reference engine at both recording levels.

use memo::core::observer::RunObserver;
use memo::core::session::Workload;
use memo::hal::engine::RecordLevel;
use memo::model::config::ModelConfig;
use memo::parallel::strategy::{ParallelConfig, SystemSpec};
use memo_bench::inputs::sim_inputs;

fn w7(s_k: u64) -> Workload {
    Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024)
}

fn mega() -> ParallelConfig {
    ParallelConfig::megatron(4, 2, 1, 1)
}

/// All six modes with the configuration each is pinned under in
/// `golden_parity`.
fn six_modes() -> Vec<(SystemSpec, ParallelConfig)> {
    vec![
        (SystemSpec::Memo, mega()),
        (SystemSpec::MegatronLM, mega()),
        (SystemSpec::MegatronKeepAll, mega()),
        (SystemSpec::DeepSpeed, ParallelConfig::ulysses(8, 1)),
        (SystemSpec::TensorHybrid, mega()),
        (SystemSpec::MemoTiered(2), mega()),
    ]
}

/// Run one cell down both recording paths and assert the full reports are
/// identical.
#[track_caller]
fn assert_cell_parity(w: &Workload, spec: SystemSpec, cfg: &ParallelConfig) {
    let fast = w.run_report(spec, cfg);
    let mut obs = RunObserver::new();
    let full = w.run_report_observed(spec, cfg, &mut obs);
    let label = format!("{spec:?} @ {}K", w.seq_len / 1024);
    assert_eq!(fast.outcome, full.outcome, "{label}: outcome diverged");
    assert_eq!(fast.bytes, full.bytes, "{label}: byte breakdown diverged");
    assert_eq!(fast.time, full.time, "{label}: time breakdown diverged");
    assert_eq!(fast.strategy, full.strategy, "{label}: strategy diverged");
}

#[test]
fn six_modes_bit_identical_across_sequence_lengths() {
    for s_k in [64, 256, 1024] {
        let w = w7(s_k);
        for (spec, cfg) in six_modes() {
            assert_cell_parity(&w, spec, &cfg);
        }
    }
}

#[test]
fn schedule_builder_matches_the_reference_engine() {
    // The profiled MEMO inputs `speed_gates` times: reference engine vs the
    // interned engine recording `Full` spans and `CursorOnly` (spliced).
    for s_k in [64, 256, 1024] {
        let si = sim_inputs(&w7(s_k), &mega());
        let r = si.reference();
        for level in [RecordLevel::Full, RecordLevel::CursorOnly] {
            let s = si.schedule(level);
            let what = format!("{s_k}K {level:?}");
            assert_eq!(s.makespan, r.makespan, "{what}: makespan");
            assert_eq!(s.forward_end, r.forward_end, "{what}: forward end");
            assert_eq!(s.compute_busy, r.compute_busy, "{what}: compute busy");
            assert_eq!(s.compute_idle, r.compute_idle, "{what}: compute idle");
            assert_eq!(s.host_peak, r.host_peak, "{what}: host peak");
        }
    }
}

#[test]
fn oom_and_oohm_diagnostics_identical() {
    // 2M tokens pushes the keep-all and recompute family into X_oom at
    // this strategy; a starved host pushes MEMO into X_oohm. The failure
    // diagnostics (needed/capacity) must match across the two paths too.
    let w = w7(2048);
    for (spec, cfg) in six_modes() {
        assert_cell_parity(&w, spec, &cfg);
    }

    let mut starved = w7(1024);
    starved.calib.set_host_memory_bytes(8 << 30);
    for (spec, cfg) in six_modes() {
        assert_cell_parity(&starved, spec, &cfg);
    }
}

#[test]
fn ablation_entry_points_identical() {
    // The slots / alpha ablations route through the same schedule builder
    // with different knobs; cover one of each.
    let w = w7(256);
    assert_cell_parity(&w, SystemSpec::MemoBufferSlots(4), &mega());
    assert_cell_parity(&w, SystemSpec::FullSwapPlan, &mega());
}
