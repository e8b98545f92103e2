//! Iteration-simulation benchmark.
//!
//! Times the three-stream swap schedule builder at 7B/8GPU ×
//! {64K, 256K, 1M} tokens on three legs:
//!
//! * **reference** — the verbatim pre-fast-path event loop on the
//!   heap-labelled `memo_hal::reference` engine;
//! * **full** — the same event loop on the interned/arena engine
//!   (`RecordLevel::Full`, spans + marks recorded);
//! * **fast** — `RecordLevel::CursorOnly` with steady-state layer
//!   splicing (the strategy search's inner-loop path).
//!
//! The costs come from the real profiler output, exactly as the
//! `ExecutionPipeline` builds them. Emits `BENCH_sim.json` with per-cell
//! wall-clock, simulated-iterations/sec for each leg, the fast-path
//! speedup, and `parity` — makespan/cursor/busy/host-peak equality across
//! all three legs, also asserted. A second table re-runs all six
//! execution modes end-to-end down both recording paths and asserts the
//! reported outcomes are identical. The MEMO@1M headline must be ≥ 3×.

use memo_core::observer::RunObserver;
use memo_core::session::Workload;
use memo_hal::engine::RecordLevel;
use memo_hal::time::SimTime;
use memo_model::config::ModelConfig;
use memo_model::trace::RematPolicy;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_swap::schedule::{
    build_iteration_schedule_recorded, LayerCosts, ScheduleOutcome, TierTraffic, TierTrafficList,
};
use memo_swap::tiers::TierStaging;
use std::time::Instant;

/// One benchmark cell's inputs: the schedule-builder arguments the
/// pipeline would pass for MEMO at this workload.
struct SimInputs {
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    buffer_bytes: u64,
    slots: usize,
    host_capacity: u64,
}

/// Derive the builder inputs from a profiled workload, mirroring
/// `ExecutionPipeline::build_schedule`'s token-wise arm.
fn sim_inputs(w: &Workload, cfg: &ParallelConfig) -> SimInputs {
    let p = memo_core::profiler::profile(w, cfg, RematPolicy::MemoTokenWise, false);
    let swapped_others = (p.alpha.alpha * p.split.s_others as f64).round() as u64;
    let offload_bytes = p.split.s_input + p.split.s_attn + swapped_others;
    let recompute_fraction = 1.0 - swapped_others as f64 / p.split.s_others.max(1) as f64;
    SimInputs {
        n_layers: p.layers_local,
        costs: LayerCosts {
            t_fwd: SimTime::from_secs_f64(p.layer_time.fwd()),
            t_bwd: SimTime::from_secs_f64(p.layer_time.bwd),
            t_recompute: SimTime::from_secs_f64(
                recompute_fraction * p.layer_time.fwd_without_attention(),
            ),
            traffic: {
                let mut traffic = TierTrafficList::new();
                traffic.push(TierTraffic {
                    bytes: offload_bytes,
                    bandwidth: w.calib.effective_pcie(),
                    latency_secs: 0.0,
                });
                traffic
            },
        },
        t_head: SimTime::from_secs_f64(p.head_secs),
        buffer_bytes: p.split.total(),
        slots: 2,
        host_capacity: w.calib.host_capacity_per_gpu().max(1),
    }
}

fn run_reference(si: &SimInputs) -> memo_swap::reference::ReferenceScheduleOutcome {
    let mut host = TierStaging::single(si.host_capacity);
    memo_swap::reference::build_iteration_schedule_with_slots(
        si.n_layers,
        si.costs,
        si.t_head,
        &mut host,
        si.buffer_bytes,
        si.slots,
    )
    .expect("host fits")
}

fn run_new(si: &SimInputs, level: RecordLevel) -> ScheduleOutcome {
    let mut host = TierStaging::single(si.host_capacity);
    build_iteration_schedule_recorded(
        si.n_layers,
        si.costs,
        si.t_head,
        &mut host,
        si.buffer_bytes,
        si.slots,
        level,
    )
    .expect("host fits")
}

/// Warm up, then time `reps` schedule builds. Returns average wall-ms.
fn time_builds(reps: usize, mut build: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 + 2 {
        build();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        build();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// All three legs must agree on every timing quantity and the host peak.
fn parity_check(si: &SimInputs) -> bool {
    let r = run_reference(si);
    let f = run_new(si, RecordLevel::Full);
    let l = run_new(si, RecordLevel::CursorOnly);
    [&f, &l].iter().all(|s| {
        s.makespan == r.makespan
            && s.forward_end == r.forward_end
            && s.compute_busy == r.compute_busy
            && s.compute_idle == r.compute_idle
            && s.host_peak == r.host_peak
    })
}

struct Cell {
    seq_k: u64,
    n_layers: usize,
    reps: usize,
    reference_ms: f64,
    full_ms: f64,
    fast_ms: f64,
    parity: bool,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms.max(1e-12)
    }
}

fn ips(ms: f64) -> f64 {
    1.0 / (ms / 1e3).max(1e-12)
}

/// The six paper modes with the configuration each is pinned under in
/// `golden_parity`.
fn six_modes() -> Vec<(SystemSpec, ParallelConfig)> {
    let mega = ParallelConfig::megatron(4, 2, 1, 1);
    vec![
        (SystemSpec::Memo, mega),
        (SystemSpec::MegatronLM, mega),
        (SystemSpec::MegatronKeepAll, mega),
        (SystemSpec::DeepSpeed, ParallelConfig::ulysses(8, 1)),
        (SystemSpec::TensorHybrid, mega),
        (SystemSpec::MemoTiered(2), mega),
    ]
}

fn main() {
    let model = ModelConfig::gpt_7b();
    let n_gpus = 8;
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let seq_ks: [u64; 3] = [64, 256, 1024];

    println!(
        "sim_bench — 7B on {n_gpus} GPUs ({}), MEMO schedule at {seq_ks:?}K\n",
        cfg.describe()
    );
    println!(
        "{:>6} {:>7} {:>8} {:>13} {:>10} {:>10} {:>8} {:>7}",
        "seq", "layers", "reps", "reference us", "full us", "fast us", "speedup", "parity"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &s_k in &seq_ks {
        let w = Workload::new(model.clone(), n_gpus, s_k * 1024);
        let si = sim_inputs(&w, &cfg);

        // Calibrate rep count off the slowest leg so each cell times
        // ~0.2 s of reference builds.
        let t0 = Instant::now();
        run_reference(&si);
        let est = t0.elapsed().as_secs_f64().max(1e-7);
        let reps = ((0.2 / est) as usize).clamp(200, 200_000);

        let reference_ms = time_builds(reps, || {
            run_reference(&si);
        });
        let full_ms = time_builds(reps, || {
            run_new(&si, RecordLevel::Full);
        });
        let fast_ms = time_builds(reps, || {
            run_new(&si, RecordLevel::CursorOnly);
        });
        let parity = parity_check(&si);
        assert!(
            parity,
            "{s_k}K: fast-path schedule diverged from the reference engine"
        );

        let cell = Cell {
            seq_k: s_k,
            n_layers: si.n_layers,
            reps,
            reference_ms,
            full_ms,
            fast_ms,
            parity,
        };
        println!(
            "{:>5}K {:>7} {:>8} {:>13.2} {:>10.2} {:>10.2} {:>7.1}x {:>7}",
            s_k,
            cell.n_layers,
            cell.reps,
            cell.reference_ms * 1e3,
            cell.full_ms * 1e3,
            cell.fast_ms * 1e3,
            cell.speedup(),
            cell.parity
        );
        cells.push(cell);
    }

    // End-to-end mode parity: unobserved (cursor-only, spliced) vs
    // observed (fully recorded) execution must report identical cells.
    println!("\nsix-mode end-to-end parity at 1M tokens:");
    let w1m = Workload::new(model.clone(), n_gpus, 1024 * 1024);
    let mut mode_parity: Vec<(String, bool)> = Vec::new();
    for (spec, mcfg) in six_modes() {
        let fast = w1m.run_report(spec, &mcfg);
        let mut obs = RunObserver::new();
        let full = w1m.run_report_observed(spec, &mcfg, &mut obs);
        let ok = fast.outcome == full.outcome && fast.bytes == full.bytes && fast.time == full.time;
        assert!(ok, "{spec:?}@1M: observed and unobserved outcomes diverged");
        println!("  {:<16} {}", format!("{spec:?}"), ok);
        mode_parity.push((format!("{spec:?}"), ok));
    }

    let memo_1m = cells.iter().find(|c| c.seq_k == 1024).expect("1M cell");
    let headline = memo_1m.speedup();
    println!(
        "\nMEMO@1M schedule simulation: {:.2}x vs reference engine \
         ({:.0} → {:.0} simulated iterations/sec, target >= 3x)",
        headline,
        ips(memo_1m.reference_ms),
        ips(memo_1m.fast_ms)
    );
    assert!(
        headline >= 3.0,
        "fast path must simulate >= 3x more iterations/sec at MEMO@1M, got {headline:.2}x"
    );

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"seq_k\": {}, \"n_layers\": {}, \"reps\": {}, \
                 \"reference_ms\": {:.6}, \"full_ms\": {:.6}, \"fast_ms\": {:.6}, \
                 \"reference_iters_per_sec\": {:.0}, \"full_iters_per_sec\": {:.0}, \
                 \"fast_iters_per_sec\": {:.0}, \"speedup\": {:.3}, \"parity\": {}}}",
                c.seq_k,
                c.n_layers,
                c.reps,
                c.reference_ms,
                c.full_ms,
                c.fast_ms,
                ips(c.reference_ms),
                ips(c.full_ms),
                ips(c.fast_ms),
                c.speedup(),
                c.parity
            )
        })
        .collect();
    let mode_json: Vec<String> = mode_parity
        .iter()
        .map(|(name, ok)| format!("    {{\"spec\": \"{name}\", \"parity\": {ok}}}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"model\": \"{}\",\n  \"n_gpus\": {},\n  \
         \"parallel\": \"{}\",\n  \"cells\": [\n{}\n  ],\n  \
         \"mode_parity\": [\n{}\n  ],\n  \"memo_1m_sim_speedup\": {:.3}\n}}\n",
        model.name,
        n_gpus,
        cfg.describe(),
        cell_json.join(",\n"),
        mode_json.join(",\n"),
        headline
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}
