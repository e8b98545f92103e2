//! Differential suite for the iteration-simulation fast path.
//!
//! An unobserved `run_report` reads the scalar schedule
//! (`memo_swap::build_schedule_scalars`, with steady-state splicing); an
//! observed run records the event loop span by span
//! (`memo_swap::build_schedule`). The two must agree bit-for-bit on every
//! reported number — outcome metrics, byte and time breakdowns, and the
//! OOM/OOHM diagnostics — across all six execution modes and the mixed
//! `[Swap][Recompute][Retained]` layouts. Underneath, both schedule
//! builders must match the verbatim pre-fast-path schedule builder
//! (`memo_swap::reference`).

use memo::core::observer::RunObserver;
use memo::core::session::Workload;
use memo::hal::engine::StreamId;
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

/// Run one cell unobserved and observed and assert the full reports are
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
    // The profiled MEMO inputs `speed_gates` times: the reference builder
    // vs `build_schedule`'s recorded build and the scalar (spliced) build.
    for s_k in [64, 256, 1024] {
        let si = sim_inputs(&w7(s_k), &mega());
        let r = si.reference();
        let s = si.schedule();
        let what = format!("{s_k}K recorded");
        assert_eq!(s.makespan, r.makespan, "{what}: makespan");
        assert_eq!(s.forward_end, r.forward_end, "{what}: forward end");
        assert_eq!(s.compute_busy, r.compute_busy, "{what}: compute busy");
        assert_eq!(s.compute_idle, r.compute_idle, "{what}: compute idle");
        assert_eq!(s.host_peak, r.host_peak, "{what}: host peak");

        let (q, host_peak) = si.scalars();
        let what = format!("{s_k}K scalar");
        assert_eq!(q.makespan(), r.makespan, "{what}: makespan");
        assert_eq!(q.forward_end, r.forward_end, "{what}: forward end");
        assert_eq!(q.compute_busy, r.compute_busy, "{what}: compute busy");
        assert_eq!(q.compute_idle(), r.compute_idle, "{what}: compute idle");
        assert_eq!(host_peak, r.host_peak, "{what}: host peak");
        let cursors = [q.compute_end, q.offload_end, q.prefetch_end];
        let busy = [q.compute_busy, q.io_busy, q.io_busy];
        for (i, (cursor, busy)) in cursors.into_iter().zip(busy).enumerate() {
            let sid = StreamId(i);
            assert_eq!(r.timeline.stream_cursor(sid), cursor, "{what}: cursor {i}");
            assert_eq!(r.timeline.busy_time(sid), busy, "{what}: busy {i}");
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

/// `MemoMixed(k)` for k in {0, L/2, L−2}: the three-run
/// `[Swap × k][Recompute][Retained × 2]` layouts (k = L−2 is plain MEMO).
fn mixed_specs(w: &Workload, cfg: &ParallelConfig) -> Vec<SystemSpec> {
    let l = w.model.n_layers / cfg.pp;
    [0, l / 2, l - 2]
        .into_iter()
        .map(|k| SystemSpec::MemoMixed(u8::try_from(k).expect("layer count fits u8")))
        .collect()
}

#[test]
fn mixed_layouts_bit_identical_observed_and_unobserved() {
    for s_k in [64, 256, 1024] {
        let w = w7(s_k);
        for spec in mixed_specs(&w, &mega()) {
            assert_cell_parity(&w, spec, &mega());
        }
    }
    // The starved host of `oom_and_oohm_diagnostics_identical`: the swap
    // runs overflow it, so the X_oohm diagnostics must match too.
    let mut starved = w7(1024);
    starved.calib.set_host_memory_bytes(8 << 30);
    for spec in mixed_specs(&starved, &mega()) {
        assert_cell_parity(&starved, spec, &mega());
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
