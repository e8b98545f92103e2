//! Wall-clock gates of the fast paths. Run in release mode:
//!
//! ```text
//! cargo run --release -p memo-bench --bin speed_gates
//! ```
//!
//! Prints one `PASS`/`FAIL` line per gate, writes no file, and exits 1 if
//! any gate misses. The bit-exactness of each fast path is checked by the
//! workspace tests on the same cells (`memo_bench::inputs`); this bin only
//! times them:
//!
//! * the iteration-simulation fast path (`build_schedule_scalars`, with
//!   steady-state splicing) ≥ 3× the reference engine at MEMO@1M;
//! * paged KV replay ≥ 3× the caching allocator's realloc pattern at
//!   13B@256K;
//! * caching-allocator trace replay ≥ 3× `ReferenceCachingAllocator` on
//!   the 7B/8-GPU (TP4·CP2) traces at {64K, 256K, 1M} × {FullRecompute,
//!   KeepAll};
//! * the "delta" gates: grid rows (`Workload::run_alpha_grid`) over the
//!   dense MEMO@1M grid, warm sweep ≥ 3× and cold sweep ≥ 1× the per-cell
//!   `execute_cached` baseline (median of alternating pairs, caches
//!   cleared before every cold sweep), and the mixed-policy sweep (with
//!   full-simulation verification) < 30 s;
//! * a cold, serial TensorHybrid strategy search ≥ 2× an exhaustive
//!   `run_with` fold over the same grid at 7B/8 GPUs {256K, 1M}: the
//!   search plans only the configs its pick needs;
//! * a cold, serial Megatron-LM strategy search ≥ 3× an exhaustive
//!   `run_with` fold over the same grid at 7B/8 GPUs/1M, where every
//!   config fails: the search replays none that liveness certifies `X_oom`;
//! * a cold `profiler::profile` ≥ 2× the same call with the trace built,
//!   over every config the six modes enumerate at 7B/8 GPUs/256K: the
//!   profile streams the liveness peak and builds the trace on first use;
//! * the 1,013,850-interval MegaTrain chunked instance plans in < 30 s,
//!   validates in at most 3× the plan's time, stays within the boxing
//!   guarantee (`gap_ok`) and is proven optimal (peak at the liveness
//!   bound).

use memo_alloc::caching::CachingAllocator;
use memo_alloc::paged::PagedKvAllocator;
use memo_alloc::reference::ReferenceCachingAllocator;
use memo_alloc::snapshot::replay_peak;
use memo_alloc::DeviceAllocator;
use memo_bench::inputs::{kv_cell, memo_grid, replay_traces, sim_inputs, KvCell, MemoGrid};
use memo_core::cache::ProfileCache;
use memo_core::pipeline::{ExecutionPipeline, ExecutionReport, PipelineStages};
use memo_core::profiler::profile;
use memo_core::session::{pick_best_or_failure, Workload};
use memo_model::chunked::ChunkedParams;
use memo_model::config::ModelConfig;
use memo_model::decode::DecodeEvent;
use memo_model::trace::{IterationTrace, TensorId};
use memo_parallel::search::enumerate_configs;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_plan::dispatch::{self, DispatchOptions};
use memo_plan::DsaInstanceBuilder;
use memo_swap::SegmentCache;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Print one gate line; returns whether it passed.
fn gate(name: &str, pass: bool, detail: String) -> bool {
    println!("{} {name}: {detail}", if pass { "PASS" } else { "FAIL" });
    pass
}

/// Warm up, then time `reps` calls. Returns average wall-ms.
fn mean_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 + 2 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Best wall-ms of `reps` calls.
fn min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Calls of a gate leg that take ~50 ms, calibrated off one call of `f`,
/// at most `max`.
fn reps_for(max: usize, f: impl FnOnce()) -> usize {
    let t0 = Instant::now();
    f();
    ((0.05 / t0.elapsed().as_secs_f64().max(1e-7)) as usize).clamp(1, max)
}

/// Time two legs of a gate (each returns wall-ms) in 11 alternating
/// pairs, so both see the same machine mode, and return the
/// `(fast_ms, slow_ms)` pair of median `slow / fast` ratio.
fn median_pair(mut fast: impl FnMut() -> f64, mut slow: impl FnMut() -> f64) -> (f64, f64) {
    const PAIRS: usize = 11;
    let mut pairs: Vec<(f64, f64)> = (0..PAIRS).map(|_| (fast(), slow())).collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    pairs[PAIRS / 2]
}

fn sim_gate() -> bool {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let si = sim_inputs(&w, &ParallelConfig::megatron(4, 2, 1, 1));
    // Calibrate the rep count off the reference leg so each leg times
    // ~0.2 s of reference builds.
    let t0 = Instant::now();
    black_box(si.reference());
    let est = t0.elapsed().as_secs_f64().max(1e-7);
    let reps = ((0.2 / est) as usize).clamp(200, 200_000);
    let reference_ms = mean_ms(reps, || {
        black_box(si.reference());
    });
    let fast_ms = mean_ms(reps, || {
        black_box(si.scalars());
    });
    let speedup = reference_ms / fast_ms.max(1e-12);
    gate(
        "sim fast path vs reference engine at MEMO@1M",
        speedup >= 3.0,
        format!("{speedup:.2}x ({reference_ms:.4} -> {fast_ms:.4} ms per build; gate >= 3x)"),
    )
}

/// Replay the decode trace on the paged allocator; a sequence whose
/// append fails is released (preempted).
fn paged_replay(cell: &KvCell) {
    let kv = cell.kv();
    let mut a = PagedKvAllocator::new(cell.device, cell.page);
    let mut dead = vec![false; cell.trace.params.arrivals];
    for ev in &cell.trace.events {
        match *ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => {
                a.admit(seq).expect("fresh sequence id");
                if a.append_bytes(seq, prompt_tokens * kv).is_err() {
                    a.release(seq).expect("admitted sequence");
                    dead[seq as usize] = true;
                }
            }
            DecodeEvent::Append { seq } => {
                if !dead[seq as usize] && a.append_bytes(seq, kv).is_err() {
                    a.release(seq).expect("admitted sequence");
                    dead[seq as usize] = true;
                }
            }
            DecodeEvent::Depart { seq } => {
                if !dead[seq as usize] {
                    a.release(seq).expect("admitted sequence");
                    dead[seq as usize] = true;
                }
            }
            DecodeEvent::StepEnd => {}
        }
    }
    black_box(a);
}

/// Replay the decode trace on the `CachingAllocator` realloc pattern:
/// arrive mallocs the prompt KV; every append mallocs the grown tensor
/// before freeing the old one; depart frees.
fn caching_replay(cell: &KvCell) {
    let kv = cell.kv();
    let mut a = CachingAllocator::new(cell.device);
    // Live tensor id and byte size per sequence; None = dead.
    let mut live: Vec<Option<(u64, u64)>> = vec![None; cell.trace.params.arrivals];
    let mut next_id: u64 = 0;
    let mut fresh = || {
        next_id += 1;
        TensorId(next_id)
    };
    for ev in &cell.trace.events {
        match *ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => {
                let id = fresh();
                let bytes = prompt_tokens * kv;
                if a.malloc(id, bytes).is_ok() {
                    live[seq as usize] = Some((id.0, bytes));
                }
            }
            DecodeEvent::Append { seq } => {
                let Some((old, bytes)) = live[seq as usize] else {
                    continue;
                };
                let id = fresh();
                let grown = a.malloc(id, bytes + kv).is_ok();
                a.free(TensorId(old));
                live[seq as usize] = grown.then_some((id.0, bytes + kv));
            }
            DecodeEvent::Depart { seq } => {
                if let Some((id, _)) = live[seq as usize].take() {
                    a.free(TensorId(id));
                }
            }
            DecodeEvent::StepEnd => {}
        }
    }
    black_box(a);
}

fn kv_gate() -> bool {
    let cell = kv_cell(ModelConfig::gpt_13b(), 256 << 10);
    let paged_ms = min_ms(3, || paged_replay(&cell));
    let caching_ms = min_ms(3, || caching_replay(&cell));
    let speedup = caching_ms / paged_ms.max(1e-12);
    gate(
        "paged KV replay vs caching realloc at 13B@256K",
        speedup >= 3.0,
        format!("{speedup:.2}x ({caching_ms:.2} -> {paged_ms:.2} ms per replay; gate >= 3x)"),
    )
}

/// The warm-up and steady passes a caching-replay search runs per config,
/// on a fresh device large enough that neither pass reorganises.
fn replay_twice<A: DeviceAllocator>(mut a: A, trace: &IterationTrace) {
    black_box(replay_peak(&mut a, trace));
    black_box(replay_peak(&mut a, trace));
}

fn caching_replay_gate() -> bool {
    const ROOMY: u64 = 1 << 42;
    let traces = replay_traces();
    let requests: usize = traces.iter().map(|t| 2 * t.len()).sum();
    let fast = || {
        for t in &traces {
            replay_twice(CachingAllocator::new(ROOMY), t);
        }
    };
    let reference = || {
        for t in &traces {
            replay_twice(ReferenceCachingAllocator::new(ROOMY), t);
        }
    };
    let reps = reps_for(10_000, reference);
    let (fast_ms, reference_ms) = median_pair(|| mean_ms(reps, fast), || mean_ms(reps, reference));
    let speedup = reference_ms / fast_ms.max(1e-12);
    let ns = |ms: f64| ms * 1e6 / requests as f64;
    gate(
        "caching replay fast path vs reference allocator, 7B TP4·CP2 traces",
        speedup >= 3.0,
        format!(
            "{speedup:.2}x over {} traces ({:.0} -> {:.0} ns per request; gate >= 3x)",
            traces.len(),
            ns(reference_ms),
            ns(fast_ms)
        ),
    )
}

/// Empty the profile, plan and segment caches.
fn clear_caches() {
    ProfileCache::global().clear();
    SegmentCache::global().clear();
}

fn static_search_gate() -> bool {
    let spec = SystemSpec::TensorHybrid;
    let cells = [256u64, 1024].map(|k| Workload::new(ModelConfig::gpt_7b(), 8, k << 10));
    let search = || {
        for w in &cells {
            clear_caches();
            black_box(w.run_best_or_failure(spec));
        }
    };
    let exhaustive = || {
        for w in &cells {
            clear_caches();
            let gpn = w.calib.gpus_per_node.min(w.n_gpus);
            let best = enumerate_configs(spec, &w.model, w.n_gpus, gpn)
                .iter()
                .filter_map(|cfg| w.run_with(spec, cfg).metrics().map(|m| m.tgs))
                .fold(f64::NEG_INFINITY, f64::max);
            black_box(best);
        }
    };
    let reps = reps_for(1_000, exhaustive);
    let (search_ms, exhaustive_ms) =
        median_pair(|| mean_ms(reps, search), || mean_ms(reps, exhaustive));
    let speedup = exhaustive_ms / search_ms.max(1e-12);
    gate(
        "cold static-plan search vs exhaustive fold, TensorHybrid 7B/8 GPUs {256K, 1M}",
        speedup >= 2.0,
        format!(
            "{speedup:.2}x ({exhaustive_ms:.2} -> {search_ms:.2} ms per pass over {} cells; \
             gate >= 2x)",
            cells.len()
        ),
    )
}

fn failure_search_gate() -> bool {
    let spec = SystemSpec::MegatronLM;
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    let configs = enumerate_configs(spec, &w.model, w.n_gpus, gpn);
    let search = || {
        clear_caches();
        black_box(w.run_best_or_failure(spec));
    };
    let exhaustive = || {
        clear_caches();
        let outcomes = configs.iter().map(|cfg| w.run_with(spec, cfg));
        black_box(pick_best_or_failure(outcomes, |out| out));
    };
    let (pick, failure) = w.run_best_or_failure(spec);
    let reps = reps_for(1_000, exhaustive);
    let (search_ms, exhaustive_ms) =
        median_pair(|| mean_ms(reps, search), || mean_ms(reps, exhaustive));
    let speedup = exhaustive_ms / search_ms.max(1e-12);
    gate(
        "cold all-fail search vs exhaustive fold, Megatron-LM 7B/8 GPUs/1M",
        pick.is_none() && speedup >= 3.0,
        format!(
            "{speedup:.2}x ({exhaustive_ms:.2} -> {search_ms:.2} ms per search over {} configs, \
             {}; gate >= 3x, nothing feasible)",
            configs.len(),
            failure.cell()
        ),
    )
}

fn profile_gate() -> bool {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 256 << 10);
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    let configs: Vec<_> = SystemSpec::ALL_MODES
        .into_iter()
        .flat_map(|spec| {
            let st = PipelineStages::for_spec(spec);
            enumerate_configs(spec, &w.model, w.n_gpus, gpn)
                .into_iter()
                .map(move |cfg| (cfg, st.remat, st.materialize_logits))
        })
        .collect();
    let lazy = || {
        for (cfg, remat, logits) in &configs {
            black_box(profile(&w, cfg, *remat, *logits));
        }
    };
    let built = || {
        for (cfg, remat, logits) in &configs {
            let p = profile(&w, cfg, *remat, *logits);
            black_box(&*p.trace);
        }
    };
    let reps = reps_for(10_000, built);
    let (lazy_ms, built_ms) = median_pair(|| mean_ms(reps, lazy), || mean_ms(reps, built));
    let speedup = built_ms / lazy_ms.max(1e-12);
    let us = |ms: f64| ms * 1e3 / configs.len() as f64;
    gate(
        "cold profile vs profile with the trace built, six modes at 7B/8 GPUs/256K",
        speedup >= 2.0,
        format!(
            "{speedup:.2}x over {} configs ({:.2} -> {:.2} us per profile; gate >= 2x)",
            configs.len(),
            us(built_ms),
            us(lazy_ms)
        ),
    )
}

/// One sweep of the grid through `execute_cached`, one cell at a time.
fn sweep_baseline(w: &Workload, grid: &MemoGrid) -> Vec<ExecutionReport> {
    grid.cells()
        .map(|(cfg, alpha)| {
            ExecutionPipeline::memo_at_alpha(alpha, 2).execute_cached(w, &cfg, true)
        })
        .collect()
}

/// One sweep of the grid as `run_alpha_grid` rows, one per strategy.
fn sweep_rows(w: &Workload, grid: &MemoGrid) -> Vec<ExecutionReport> {
    grid.configs
        .iter()
        .flat_map(|cfg| w.run_alpha_grid(cfg, grid.alphas.len(), 2))
        .map(|(_, rep)| rep)
        .collect()
}

fn delta_gates() -> [bool; 3] {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let grid = memo_grid(&w);
    let cells = grid.cells().count();

    let rows = || {
        black_box(sweep_rows(&w, &grid));
    };
    let baseline = || {
        black_box(sweep_baseline(&w, &grid));
    };
    let cold_rows = || {
        clear_caches();
        rows();
    };
    let cold_baseline = || {
        clear_caches();
        baseline();
    };
    // Each leg reads its best call, as the single-shot legs these pairs
    // replaced did: a leg's mean also carries preemption noise, which
    // dilutes the ratio. Cold: every sweep starts from empty profile and
    // segment caches.
    let reps = reps_for(1_000, cold_baseline);
    let (cold_rows_ms, cold_baseline_ms) =
        median_pair(|| min_ms(reps, cold_rows), || min_ms(reps, cold_baseline));
    let cold = cold_baseline_ms / cold_rows_ms.max(1e-9);

    // Warm: steady-state repeated sweeps.
    baseline();
    rows();
    let reps = reps_for(10_000, baseline);
    let (warm_rows_ms, warm_baseline_ms) =
        median_pair(|| min_ms(reps, rows), || min_ms(reps, baseline));
    let warm = warm_baseline_ms / warm_rows_ms.max(1e-9);

    // Mixed-policy sweep: every swap-layer count of every strategy,
    // each cell re-run through full simulation.
    let t0 = Instant::now();
    let mut mixed_cells = 0usize;
    for cfg in &grid.configs {
        for (k, rep) in w.run_mixed_policy_grid(cfg, None, 2) {
            let full = ExecutionPipeline::memo_mixed(k, None, 2).execute_cached(&w, cfg, true);
            black_box((rep, full));
            mixed_cells += 1;
        }
    }
    let mixed_ms = t0.elapsed().as_secs_f64() * 1e3;

    [
        gate(
            "delta warm sweep vs execute_cached, MEMO@1M grid",
            warm >= 3.0,
            format!(
                "{warm:.2}x over {cells} cells ({warm_baseline_ms:.3} -> {warm_rows_ms:.3} ms; \
                 gate >= 3x)"
            ),
        ),
        gate(
            "delta cold sweep vs execute_cached, MEMO@1M grid",
            cold >= 1.0,
            format!(
                "{cold:.2}x over {cells} cells ({cold_baseline_ms:.3} -> {cold_rows_ms:.3} ms; \
                 gate >= 1x)"
            ),
        ),
        gate(
            "delta mixed-policy sweep, MEMO@1M",
            mixed_ms < 30_000.0,
            format!("{mixed_ms:.1} ms for {mixed_cells} cells with verification (gate < 30000 ms)"),
        ),
    ]
}

fn megatrain_gate() -> bool {
    let params = ChunkedParams::megatrain();
    let mut builder = DsaInstanceBuilder::new();
    memo_model::chunked::for_each_request(&params, |r| builder.push(r));
    let inst = builder.finish().expect("chunked trace must be balanced");
    let t0 = Instant::now();
    let sol = dispatch::solve(&inst, &DispatchOptions::default());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let valid = sol.assignment.validate(&inst).is_ok();
    let validate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let check = validate_ms / ms;
    let peak = sol.assignment.peak;
    let gap_ok = peak >= sol.lower_bound && sol.guarantee.is_none_or(|g| peak <= g);
    let optimal = sol.optimal;
    gate(
        "MegaTrain chunked plan",
        inst.len() >= 1_000_000 && ms < 30_000.0 && valid && gap_ok && optimal && check <= 3.0,
        format!(
            "{} intervals in {ms:.1} ms, validated in {validate_ms:.1} ms ({check:.2}x), \
             valid {valid}, gap_ok {gap_ok}, optimal {optimal} (gap {:.3}; gate >= 1M \
             intervals, < 30000 ms, validate <= 3x the plan, valid, gap_ok, optimal)",
            inst.len(),
            peak as f64 / sol.lower_bound.max(1) as f64
        ),
    )
}

fn main() -> ExitCode {
    let mut results = vec![
        sim_gate(),
        kv_gate(),
        caching_replay_gate(),
        static_search_gate(),
        failure_search_gate(),
        profile_gate(),
    ];
    results.extend(delta_gates());
    results.push(megatrain_gate());
    let misses = results.iter().filter(|&&ok| !ok).count();
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{misses} of {} speed gates missed", results.len());
        ExitCode::FAILURE
    }
}
