//! Delta-simulation benchmark: dense strategy grids at MEMO@1M.
//!
//! Sweeps the full Megatron-family strategy grid × a 17-point α lattice
//! (7B, 8 GPUs, 1Mi context) twice per measurement: once through the PR 5
//! cursor-only path (`execute_cached` per cell, fresh recurrence + timeline
//! every time) and once through the delta path (`ProfileSource::Pinned`:
//! profile/plan pins + the process-global segment cache, serpentine knob
//! order, no timeline). Asserts per-cell bit-identical reports and the identical final
//! pick, then times the per-layer mixed-policy sweep the delta path opens.
//! Emits `BENCH_delta.json`; the headline is the warm-sweep speedup
//! (target ≥ 3×).

use memo_core::delta::{pick_best, DeltaContext, DeltaStats};
use memo_core::pipeline::{ExecutionPipeline, ExecutionReport, ProfileSource};
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_parallel::sweep::serpentine_pairs;
use memo_swap::SegmentCache;
use std::time::Instant;

/// One full-grid sweep through `execute_cached` (the PR 5 baseline).
fn sweep_baseline(w: &Workload, walk: &[(ParallelConfig, f64)]) -> Vec<ExecutionReport> {
    walk.iter()
        .map(|(cfg, alpha)| {
            ExecutionPipeline::memo_at_alpha(*alpha, 2).execute_cached(w, cfg, true)
        })
        .collect()
}

/// One full-grid sweep through a fresh pinned context, whose
/// telemetry is added to `total`.
fn sweep_delta(
    w: &Workload,
    walk: &[(ParallelConfig, f64)],
    total: &mut DeltaStats,
) -> Vec<ExecutionReport> {
    let mut ctx = DeltaContext::new();
    let reports = walk
        .iter()
        .map(|(cfg, alpha)| {
            ExecutionPipeline::memo_at_alpha(*alpha, 2).execute_from(
                w,
                cfg,
                ProfileSource::Pinned(&mut ctx),
                None,
            )
        })
        .collect();
    let s = ctx.stats();
    total.delta_runs += s.delta_runs;
    total.full_fallbacks += s.full_fallbacks;
    total.pin_hits += s.pin_hits;
    total.pin_misses += s.pin_misses;
    total.restamps += s.restamps;
    reports
}

fn assert_reports_equal(a: &ExecutionReport, b: &ExecutionReport, what: &str) -> bool {
    assert_eq!(a.outcome, b.outcome, "{what}: outcome diverged");
    assert_eq!(a.bytes, b.bytes, "{what}: byte accounting diverged");
    assert_eq!(a.time, b.time, "{what}: time decomposition diverged");
    true
}

fn min_sweep_ms(reps: usize, mut sweep: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let cells = sweep();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(cells > 0);
        best = best.min(ms);
    }
    best
}

fn main() {
    let model = ModelConfig::gpt_7b();
    let n_gpus = 8;
    let seq_k = 1024u64;
    let alpha_points = 17usize;
    let warm_reps = 25usize;
    let w = Workload::new(model.clone(), n_gpus, seq_k * 1024);
    let gpn = w.calib.gpus_per_node.min(n_gpus);

    let configs = search::enumerate_configs(SystemSpec::Memo, &model, n_gpus, gpn);
    let alphas: Vec<f64> = (0..alpha_points)
        .map(|i| i as f64 / (alpha_points - 1) as f64)
        .collect();
    // Serpentine order: the strategy (expensive knob — new profile/plan)
    // changes only at row boundaries; α walks back and forth.
    let walk = serpentine_pairs(&configs, &alphas);
    println!(
        "delta_bench — {} @ {}K on {} GPUs: {} strategies x {} alpha = {} cells\n",
        model.name,
        seq_k,
        n_gpus,
        configs.len(),
        alphas.len(),
        walk.len()
    );

    let profile_cache = memo_core::cache::ProfileCache::global();
    let segment_cache = SegmentCache::global();

    // ---- cold sweeps: all caches empty ------------------------------------
    profile_cache.clear();
    profile_cache.reset_stats();
    segment_cache.clear();
    segment_cache.reset_stats();
    let mut ds = DeltaStats::default();

    let t0 = Instant::now();
    let base_reports = sweep_baseline(&w, &walk);
    let cold_baseline_ms = t0.elapsed().as_secs_f64() * 1e3;

    profile_cache.clear();
    segment_cache.clear();
    let t0 = Instant::now();
    let delta_reports = sweep_delta(&w, &walk, &mut ds);
    let cold_delta_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- parity: every cell bit-identical, same final pick ----------------
    let mut parity = true;
    for (i, (base, delta)) in base_reports.iter().zip(&delta_reports).enumerate() {
        let (cfg, alpha) = &walk[i];
        parity &= assert_reports_equal(
            base,
            delta,
            &format!("cell {i} ({} alpha={alpha:.3})", cfg.describe()),
        );
    }
    let keyed = |reports: &[ExecutionReport]| -> Vec<(usize, ExecutionReport)> {
        reports.iter().cloned().enumerate().collect()
    };
    let base_pick = pick_best(&keyed(&base_reports)).map(|(i, _)| i);
    let delta_pick = pick_best(&keyed(&delta_reports)).map(|(i, _)| i);
    assert_eq!(base_pick, delta_pick, "grid pick diverged");
    let identical_pick = base_pick == delta_pick;
    let feasible = base_reports
        .iter()
        .filter(|r| r.outcome.metrics().is_some())
        .count();
    assert!(feasible > 0, "no feasible cell in the MEMO@1M grid");
    let pick = base_pick.expect("a feasible cell exists");
    println!(
        "parity: {} cells identical ({} feasible); pick = {} alpha={:.3}",
        walk.len(),
        feasible,
        walk[pick].0.describe(),
        walk[pick].1
    );

    // ---- warm sweeps: steady-state repeated-sweep timing ------------------
    let warm_baseline_ms = min_sweep_ms(warm_reps, || sweep_baseline(&w, &walk).len());
    let warm_delta_ms = min_sweep_ms(warm_reps, || sweep_delta(&w, &walk, &mut ds).len());
    let cold_speedup = cold_baseline_ms / cold_delta_ms.max(1e-9);
    let warm_speedup = warm_baseline_ms / warm_delta_ms.max(1e-9);

    println!(
        "\n{:<28} {:>12} {:>12} {:>8}",
        "sweep", "baseline ms", "delta ms", "speedup"
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>7.1}x",
        "cold (empty caches)", cold_baseline_ms, cold_delta_ms, cold_speedup
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>7.1}x",
        format!("warm (min of {warm_reps})"),
        warm_baseline_ms,
        warm_delta_ms,
        warm_speedup
    );
    assert!(
        cold_speedup >= 1.0,
        "cold delta sweep slower than baseline ({cold_speedup:.2}x)"
    );
    assert!(
        warm_speedup >= 3.0,
        "warm grid-sweep speedup {warm_speedup:.2}x below the 3x target"
    );

    let seg = segment_cache.stats();
    println!(
        "\nsegment cache: {} hits / {} misses / {} fallbacks; \
         delta: {} runs, {} pin hits, {} pin misses",
        seg.hits, seg.misses, seg.fallbacks, ds.delta_runs, ds.pin_hits, ds.pin_misses
    );

    // ---- mixed-policy sweep: the search space the delta path opens --------
    // For every strategy, walk k = 0 ..= layers_local − 2 swap layers at the
    // solved α; every cell is verified against full simulation.
    let budget_ms = 30_000.0;
    let t0 = Instant::now();
    let mut mixed_cells = 0usize;
    let mut mixed_parity = true;
    let mut mixed_best: Option<(ParallelConfig, usize, f64)> = None;
    for cfg in &configs {
        let grid = w.run_mixed_policy_grid(cfg, None, 2);
        for (k, rep) in &grid {
            let full = ExecutionPipeline::memo_mixed(*k, None, 2).execute_cached(&w, cfg, true);
            mixed_parity &=
                assert_reports_equal(rep, &full, &format!("mixed {} k={k}", cfg.describe()));
            if let Some(m) = rep.outcome.metrics() {
                if mixed_best.as_ref().is_none_or(|(_, _, b)| m.tgs >= *b) {
                    mixed_best = Some((*cfg, *k, m.tgs));
                }
            }
        }
        mixed_cells += grid.len();
    }
    let mixed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        mixed_ms < budget_ms,
        "mixed-policy sweep took {mixed_ms:.0} ms (budget {budget_ms:.0} ms)"
    );
    let (mb_cfg, mb_k, mb_tgs) = mixed_best.expect("some mixed cell is feasible");
    println!(
        "mixed-policy sweep: {} cells in {:.1} ms (incl. full-sim verification); \
         best {} k={} ({:.0} TGS)",
        mixed_cells,
        mixed_ms,
        mb_cfg.describe(),
        mb_k,
        mb_tgs
    );

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let json = format!(
        "{{\n  \"bench\": \"delta\",\n  \"model\": \"{}\",\n  \"n_gpus\": {},\n  \
         \"seq_k\": {},\n  \"workers\": {},\n  \
         \"grid\": {{\"strategies\": {}, \"alpha_points\": {}, \"cells\": {}, \"feasible\": {}}},\n  \
         \"cold\": {{\"baseline_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.3}}},\n  \
         \"warm\": {{\"baseline_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.3}, \"reps\": {}}},\n  \
         \"parity\": {},\n  \"identical_pick\": {},\n  \
         \"pick\": {{\"strategy\": \"{}\", \"alpha\": {:.4}}},\n  \
         \"mixed\": {{\"cells\": {}, \"ms\": {:.3}, \"parity\": {}, \
         \"best_strategy\": \"{}\", \"best_swap_layers\": {}}},\n  \
         \"segment_cache\": {{\"hits\": {}, \"misses\": {}, \"fallbacks\": {}}},\n  \
         \"delta_stats\": {{\"delta_runs\": {}, \"full_fallbacks\": {}, \
         \"pin_hits\": {}, \"pin_misses\": {}, \"restamps\": {}}},\n  \
         \"warm_speedup\": {:.3}\n}}\n",
        model.name,
        n_gpus,
        seq_k,
        memo_parallel::pool::available_workers(),
        configs.len(),
        alpha_points,
        walk.len(),
        feasible,
        cold_baseline_ms,
        cold_delta_ms,
        cold_speedup,
        warm_baseline_ms,
        warm_delta_ms,
        warm_speedup,
        warm_reps,
        parity,
        identical_pick,
        walk[pick].0.describe(),
        walk[pick].1,
        mixed_cells,
        mixed_ms,
        mixed_parity,
        mb_cfg.describe(),
        mb_k,
        seg.hits,
        seg.misses,
        seg.fallbacks,
        ds.delta_runs,
        ds.full_fallbacks,
        ds.pin_hits,
        ds.pin_misses,
        ds.restamps,
        warm_speedup
    );
    std::fs::write("BENCH_delta.json", &json).expect("write BENCH_delta.json");
    println!("\nwrote BENCH_delta.json (warm speedup {warm_speedup:.1}x, target >= 3x)");
}
