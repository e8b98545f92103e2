//! Every table and figure of the paper the repository reproduces, plus the
//! extension studies, in one binary:
//!
//! ```text
//! cargo run --release -p memo-bench --bin experiments          # all, in order
//! cargo run --release -p memo-bench --bin experiments table3   # one
//! ```
//!
//! Run with no argument, it prints each experiment under a `==> name <==`
//! line; `tests/golden/experiments.txt` is that output, and CI regenerates
//! it and fails on any difference. Every experiment is deterministic on
//! stdout (`fig8` prints its wall-clock times on stderr), and `fig11` also
//! writes `FIG11_trace.json` to the working directory. An unknown name
//! exits 2 and lists the valid ones.

use memo_alloc::caching::CachingAllocator;
use memo_alloc::expandable::ExpandableAllocator;
use memo_alloc::plan::PlanAllocator;
use memo_alloc::snapshot::replay;
use memo_alloc::DeviceAllocator;
use memo_bench::paper::{FIG12A, SEQ_K, TABLE3, TABLE4, TABLE4_SEQ_K};
use memo_bench::{cell_text, sweep};
use memo_core::{planner, profiler, session::Workload};
use memo_dist::groups::RankGrid;
use memo_dist::iteration::{run_distributed_iteration, DistSpec};
use memo_hal::calib::Calibration;
use memo_hal::time::SimTime;
use memo_hal::timeline::render_ascii;
use memo_model::activations::{skeletal_catalog, skeletal_split, LayerDims};
use memo_model::config::{DType, ModelConfig};
use memo_model::trace::{RematPolicy, SegmentKind, TensorId};
use memo_obs::chrome::TraceBuilder;
use memo_parallel::pipeline::{simulate, PipeSchedule};
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_parallel::{cost, memory};
use memo_plan::bilevel::{plan_flat, plan_iteration};
use memo_plan::dsa::DsaInstance;
use memo_swap::schedule::{build_schedule, LayerCosts, LayerSegment};
use memo_swap::tiers::TierStaging;
use memo_tensor::train::{train_loss_curve, TrainSpec};
use memo_tensor::Policy;
use std::time::Instant;

/// Every experiment, by name, in the order a full run prints them.
const EXPERIMENTS: [(&str, fn()); 21] = [
    ("ablation_buffers", ablation_buffers),
    ("allocators", allocators),
    ("calibration_sweep", calibration_sweep),
    ("fig11", fig11),
    ("fig12ab", fig12ab),
    ("fig12c", fig12c),
    ("fig12d", fig12d),
    ("fig1a", fig1a),
    ("fig1b", fig1b),
    ("fig4_9", fig4_9),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("nvme_tier", nvme_tier),
    ("pipeline_schedules", pipeline_schedules),
    ("remat_modes", remat_modes),
    ("straggler", straggler),
    ("table3", table3),
    ("table4", table4),
    ("tables5_7", tables5_7),
    ("varlen", varlen),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for (name, run) in EXPERIMENTS {
            println!("==> {name} <==");
            run();
        }
        return;
    }
    match EXPERIMENTS.iter().find(|(name, _)| *name == args[0]) {
        Some((_, run)) if args.len() == 1 => run(),
        _ => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: experiments [NAME]; NAME is one of: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// Design-choice ablation (extension beyond the paper's tables): how many
/// rounding buffers should MEMO use?
///
/// The paper fixes two (§4.1, Figure 6). This sweep varies the slot count
/// and shows why two is right: the α program's binding constraint is PCIe
/// *bandwidth* — a serial resource — so extra buffers cannot reduce the
/// forward stalls, while each additional slot costs a full per-layer
/// skeletal footprint of GPU memory and therefore shortens the supported
/// context.
fn ablation_buffers() {
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    println!("Buffer-count ablation — 7B on 8 GPUs, {}\n", cfg.describe());
    println!(
        "{:>7} | {:>28} | {:>28} | {:>28}",
        "seq", "2 buffers (paper)", "3 buffers", "4 buffers"
    );
    for s_k in [64u64, 128, 256, 512, 768, 1024, 1152] {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024);
        print!("{:>6}K |", s_k);
        for slots in [2u8, 3, 4] {
            let out = w.run_with(SystemSpec::MemoBufferSlots(slots), &cfg);
            match out.metrics() {
                Some(m) => print!(
                    " {:>6.2}% MFU {:>6.1} GiB GPU |",
                    m.mfu * 100.0,
                    m.peak_gpu_bytes as f64 / (1u64 << 30) as f64
                ),
                None => print!(" {:>26} |", out.cell()),
            }
        }
        println!();
    }
    println!("\nfinding: MFU is flat in the buffer count (PCIe bandwidth binds, not");
    println!("buffering) while GPU memory grows ~16·bsh per extra slot — shrinking");
    println!("the maximum context. Two buffers, as the paper chose, dominate.");
}

/// Extension study: allocator shoot-out on the same steady-state iteration
/// trace — the PyTorch caching allocator, VMM expandable segments
/// (GMLake-style, the paper's [17]), and MEMO's static plan.
///
/// Metrics: peak reserved physical memory, reorganisations, and runtime
/// memory-management operations on the critical path.
fn allocators() {
    const GIB: f64 = (1u64 << 30) as f64;

    let w = Workload::new(ModelConfig::gpt_7b(), 8, 512 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::FullRecompute, false);
    let trace = &p.trace;
    println!(
        "Allocator comparison — 7B @ 512K, {}, full-recompute trace ({} requests)\n",
        cfg.describe(),
        trace.len()
    );
    println!(
        "liveness lower bound: {:.3} GiB\n",
        trace.peak_live_bytes() as f64 / GIB
    );
    println!(
        "{:<28} {:>14} {:>10} {:>22}",
        "allocator", "peak reserved", "reorgs", "runtime mgmt ops/iter"
    );

    // PyTorch caching allocator.
    let mut caching = CachingAllocator::new(u64::MAX / 4);
    let series = replay(&mut caching, trace);
    assert!(series.oom.is_none());
    println!(
        "{:<28} {:>10.3} GiB {:>10} {:>22}",
        "caching (PyTorch default)",
        series.peak_reserved() as f64 / GIB,
        series.reorgs,
        format!("{} mallocs", caching.stats().n_mallocs)
    );

    // Expandable segments, eager unmap (minimal footprint, max driver work).
    let mut exp = ExpandableAllocator::new(u64::MAX / 4);
    let series = replay(&mut exp, trace);
    assert!(series.oom.is_none());
    println!(
        "{:<28} {:>10.3} GiB {:>10} {:>22}",
        "expandable (eager unmap)",
        exp.peak_mapped_bytes() as f64 / GIB,
        0,
        format!("{} map/unmap", exp.map_calls + exp.unmap_calls)
    );

    // Expandable segments, lazy unmap (PyTorch-style page cache): warm an
    // iteration first, then measure the steady state.
    let mut lazy = ExpandableAllocator::new_lazy(u64::MAX / 4);
    let warm = replay(&mut lazy, trace);
    assert!(warm.oom.is_none());
    let maps0 = lazy.map_calls + lazy.unmap_calls;
    let series = replay(&mut lazy, trace);
    assert!(series.oom.is_none());
    println!(
        "{:<28} {:>10.3} GiB {:>10} {:>22}",
        "expandable (lazy, steady)",
        lazy.peak_mapped_bytes() as f64 / GIB,
        0,
        format!("{} map/unmap", lazy.map_calls + lazy.unmap_calls - maps0)
    );

    // MEMO static plan (on the MEMO-policy trace for its own system, but
    // here planned over the same full-recompute trace for comparability).
    let report = planner::plan(trace);
    let mut plan = PlanAllocator::from_addresses(report.plan.address_triples(), report.plan.peak);
    let series = replay(&mut plan, trace);
    assert!(series.oom.is_none());
    println!(
        "{:<28} {:>10.3} GiB {:>10} {:>22}",
        "MEMO bi-level plan",
        plan.reserved_bytes() as f64 / GIB,
        0,
        "0 (table lookups)".to_string()
    );

    println!("\nexpandable segments eliminate most fragmentation without planning, but");
    println!("pay thousands of driver mapping calls per iteration and still track the");
    println!("page-rounded live set; the static plan needs no runtime management at");
    println!("all and its peak is solver-certified before training starts.");
}

/// Extension study: sensitivity of MEMO's advantage to the hardware balance.
///
/// Observation 1 rests on compute (O(s²)) outgrowing transfer (O(s)); the
/// crossover location depends on the PCIe-to-FLOPs ratio. This sweep varies
/// nominal PCIe bandwidth (the paper's testbed: 32 GB/s; PCIe 5.0 doubles
/// it; next-gen NVLink-C2C style links go far beyond) and reports where the
/// overlap crossover lands and what α the LP picks at 128K — showing how
/// MEMO's token-wise dial adapts across hardware generations, and that its
/// MFU stays pinned while pure-swapping designs live and die by this ratio.
fn calibration_sweep() {
    let cfg = ParallelConfig::megatron(8, 1, 1, 1);
    println!("PCIe sensitivity — 7B on 8 GPUs, TP8\n");
    println!(
        "{:>10} | {:>12} | {:>10} | {:>16} | {:>16}",
        "PCIe GB/s", "crossover", "α @128K", "MEMO @128K", "full swap @128K"
    );
    for gbps in [8.0f64, 16.0, 32.0, 64.0, 128.0] {
        let mut w = Workload::new(ModelConfig::gpt_7b(), 8, 128 * 1024);
        w.calib.set_pcie_bandwidth(gbps * 1e9);

        // crossover: first 32K multiple where offload hides under compute
        let mut crossover = None;
        for k in (32..=2048).step_by(32) {
            let s = k as u64 * 1024;
            let lt = cost::layer_time(&w.model, &cfg, s, &w.calib);
            if cost::full_offload_seconds(&w.model, &cfg, s, &w.calib) <= lt.fwd() {
                crossover = Some(k);
                break;
            }
        }

        let memo = w.run_with(SystemSpec::Memo, &cfg);
        let swap = w.run_with(SystemSpec::FullSwapPlan, &cfg);
        let alpha = memo.metrics().and_then(|m| m.alpha);
        println!(
            "{:>10} | {:>11} | {:>10} | {:>16} | {:>16}",
            gbps,
            crossover.map(|k| format!("{k}K")).unwrap_or("> 2M".into()),
            alpha.map(|a| format!("{a}")).unwrap_or("-".into()),
            memo.metrics()
                .map(|m| format!("{:.2}% MFU", m.mfu * 100.0))
                .unwrap_or_else(|| memo.cell()),
            swap.metrics()
                .map(|m| format!("{:.2}% MFU", m.mfu * 100.0))
                .unwrap_or_else(|| swap.cell()),
        );
    }
    println!("\nslower links push the crossover out and α down (more recomputation);");
    println!("faster links let α saturate at 1 early. MEMO's MFU moves a point or");
    println!("two across a 16x bandwidth range; pure swapping swings from stalled");
    println!("to optimal — the LP is what makes the design portable.");
}

/// Figure 11: the three-stream schedule with and without token-wise
/// recomputation. At a sequence length where full swapping cannot hide under
/// compute, the α < 1 schedule keeps the compute stream busy while the
/// α = 1 schedule stalls layer i+2 on layer i's offload.
fn fig11() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 96 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
    let lt = &p.layer_time;
    let n = 6; // a few layers are enough to see the pattern

    println!(
        "Figure 11 — schedule w/ and w/o token-wise recomputation (7B, 96K, {})",
        cfg.describe()
    );
    println!(
        "solved α = {} (binding: {:?})\n",
        p.alpha.alpha, p.alpha.binding
    );

    let mut trace = TraceBuilder::new();
    for (label, alpha) in [
        ("with token-wise recomputation (α from LP)", p.alpha.alpha),
        ("w/o token-wise recomputation (α = 1, full swap)", 1.0),
    ] {
        let costs = LayerCosts::single_tier(
            SimTime::from_secs_f64(lt.fwd()),
            SimTime::from_secs_f64(lt.bwd),
            SimTime::from_secs_f64((1.0 - alpha) * lt.fwd_without_attention()),
            p.split.swapped_bytes(alpha),
            w.calib.effective_pcie(),
        );
        let mut host = TierStaging::unbounded(1);
        let layout = LayerSegment::uniform(n, 2, costs);
        let out =
            build_schedule(&layout, SimTime::ZERO, &mut host, 2).expect("host unconstrained here");
        println!("--- {label}");
        print!("{}", render_ascii(&out.timeline, 110));
        println!(
            "makespan {}  compute idle {}\n",
            out.makespan, out.compute_idle
        );
        trace.add_timeline(label, &out.timeline);
    }

    std::fs::write("FIG11_trace.json", trace.to_string()).expect("write FIG11_trace.json");
    println!("wrote FIG11_trace.json (open in chrome://tracing or Perfetto)");
}

/// Figure 12(a,b): longest supported sequence length and its MFU when
/// training the 7B model on 8/16/32/64 GPUs, per system.
fn fig12ab() {
    /// Largest feasible length on a 128K grid (up to `limit_k`).
    fn frontier(sys: SystemSpec, n_gpus: usize, limit_k: u64) -> (u64, Option<f64>) {
        let mut best = (0u64, None);
        let mut k = 128u64;
        while k <= limit_k {
            let w = Workload::new(ModelConfig::gpt_7b(), n_gpus, k * 1024);
            if let Some((_, out)) = w.run_best(sys) {
                best = (k, out.mfu());
            }
            k += 128;
        }
        best
    }

    println!("Figure 12(a,b) — longest supported 7B sequence and its MFU\n");
    println!(
        "{:>6} | {:>22} | {:>22} | {:>22}",
        "#GPUs", "DeepSpeed", "Megatron-LM", "MEMO"
    );
    for &(n_gpus, p_ds, p_mega, p_memo) in &FIG12A {
        let limit = (p_memo * 2).max(2048);
        let (ds, ds_mfu) = frontier(SystemSpec::DeepSpeed, n_gpus, limit);
        let (mg, mg_mfu) = frontier(SystemSpec::MegatronLM, n_gpus, limit);
        let (me, me_mfu) = frontier(SystemSpec::Memo, n_gpus, limit);
        let f = |k: u64, mfu: Option<f64>, paper: u64| {
            format!(
                "{k}K {}[p:{paper}K]",
                mfu.map(|m| format!("{:.1}% ", m * 100.0))
                    .unwrap_or_default()
            )
        };
        println!(
            "{:>6} | {:>22} | {:>22} | {:>22}",
            n_gpus,
            f(ds, ds_mfu, p_ds),
            f(mg, mg_mfu, p_mega),
            f(me, me_mfu, p_memo)
        );
    }
    println!("\n[p:...] = the paper's reported frontier. MEMO's frontier must scale ~linearly in #GPUs with MFU >50%.");
}

/// Figure 12(c): MFU of the three systems training the 7B model on 64 GPUs
/// with sequence lengths from 1024K to 8192K.
fn fig12c() {
    println!("Figure 12(c) — 7B on 64 GPUs, 1M..8M tokens\n");
    println!(
        "{:>7} | {:>24} | {:>24} | {:>24}",
        "seq", "DeepSpeed", "Megatron-LM", "MEMO"
    );
    for k in (1..=8u64).map(|x| x * 1024) {
        let w = Workload::new(ModelConfig::gpt_7b(), 64, k * 1024);
        let mut row = format!("{:>6}K |", k);
        for sys in SystemSpec::PAPER {
            let (cfg, out) = w.run_best_or_failure(sys);
            let strat = cfg.map(|c| c.describe()).unwrap_or_default();
            row.push_str(&format!(" {:>16} {:>8} |", cell_text(&out), strat));
        }
        println!("{row}");
    }
    println!("\npaper: MEMO stays above 50% MFU through 8192K; baselines fail or collapse.");
}

/// Figure 12(d): convergence — loss curves of MEMO's token-wise policy for
/// α ∈ {0, 0.125, 0.25, 0.5, 1} must coincide with the baseline
/// (keep-everything ≙ Megatron-LM numerics).
///
/// Unlike the other figures this one runs *real training* on the
/// `memo-tensor` substrate: activations are genuinely discarded, staged to
/// a host buffer and rebuilt. Equality is asserted bitwise.
fn fig12d() {
    let spec = TrainSpec {
        steps: 200,
        ..TrainSpec::default()
    };
    println!(
        "Figure 12(d) — convergence of token-wise recomputation/swapping\n\
         tiny GPT: vocab {}, hidden {}, {} layers, {} heads, seq {}, {} steps\n",
        spec.cfg.vocab,
        spec.cfg.hidden,
        spec.cfg.n_layers,
        spec.cfg.n_heads,
        spec.seq_len,
        spec.steps
    );

    let policies: Vec<(String, Policy)> = vec![
        ("baseline (keep-all / Megatron)".into(), Policy::KeepAll),
        ("full recomputation".into(), Policy::FullRecompute),
        ("MEMO α=0".into(), Policy::TokenWise { alpha: 0.0 }),
        ("MEMO α=0.125".into(), Policy::TokenWise { alpha: 0.125 }),
        ("MEMO α=0.25".into(), Policy::TokenWise { alpha: 0.25 }),
        ("MEMO α=0.5".into(), Policy::TokenWise { alpha: 0.5 }),
        ("MEMO α=1".into(), Policy::TokenWise { alpha: 1.0 }),
    ];

    let base = train_loss_curve(&spec, Policy::KeepAll);
    let mut all_identical = true;
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>14}",
        "policy", "loss@1", "loss@100", "loss@end", "max|Δ| vs base"
    );
    for (name, policy) in &policies {
        let curve = train_loss_curve(&spec, *policy);
        let max_d = curve
            .iter()
            .zip(&base)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if max_d > 0.0 {
            all_identical = false;
        }
        println!(
            "{:<34} {:>9.4} {:>9.4} {:>9.4} {:>14.3e}",
            name,
            curve[0],
            curve[99.min(curve.len() - 1)],
            curve[curve.len() - 1],
            max_d
        );
    }

    // A coarse ASCII loss curve (they all coincide, so plot one).
    println!("\nloss curve (all policies coincide):");
    let h = 10usize;
    let max = base.iter().cloned().fold(f32::MIN, f32::max);
    let min = base.iter().cloned().fold(f32::MAX, f32::min);
    let cols = 80.min(base.len());
    let step = base.len() as f64 / cols as f64;
    let mut grid = vec![vec![' '; cols]; h];
    for c in 0..cols {
        let v = base[(c as f64 * step) as usize];
        let y = ((v - min) / (max - min + 1e-9) * (h - 1) as f32) as usize;
        grid[h - 1 - y][c] = '*';
    }
    for row in grid {
        println!("|{}|", row.into_iter().collect::<String>());
    }
    println!(
        "\nall curves bitwise identical: {} (paper: \"loss curves ... all align\")",
        all_identical
    );
    assert!(all_identical, "convergence equivalence violated");
}

/// Figure 1(a): allocated vs reserved GPU memory under the PyTorch caching
/// allocator when training the 7B model at 512K tokens on 8 GPUs
/// (Megatron-style full recomputation), showing the fragmentation gap and
/// reorganisation count — then the same workload under MEMO's static plan.
fn fig1a() {
    fn gib(b: u64) -> f64 {
        b as f64 / (1u64 << 30) as f64
    }

    let w = Workload::new(ModelConfig::gpt_7b(), 8, 512 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    println!("Figure 1(a) — GPU memory under the caching allocator");
    println!(
        "workload: 7B, 512K tokens, 8 GPUs, {}, full recomputation\n",
        cfg.describe()
    );

    let p = profiler::profile(&w, &cfg, RematPolicy::FullRecompute, false);
    let usable = w.calib.usable_gpu_memory();
    let static_bytes = memory::params_bytes(&w.model, &cfg);
    let mut alloc = CachingAllocator::new(usable - static_bytes);

    // Warm-up iteration, then the lazy optimizer-state allocation, then the
    // steady-state iteration the figure shows.
    let warm = replay(&mut alloc, &p.trace);
    assert!(warm.oom.is_none(), "warm-up OOM: {:?}", warm.oom);
    for (k, bytes) in memory::persistent_tensor_sizes(&w.model, &cfg)
        .into_iter()
        .enumerate()
    {
        alloc
            .malloc(TensorId((1 << 40) + k as u64), bytes)
            .expect("optimizer states fit");
    }
    let series = replay(&mut alloc, &p.trace);

    println!("{}", series.render_ascii(100, 18));
    println!(
        "steady state: peak allocated {:.2} GiB, peak reserved {:.2} GiB,",
        gib(series.peak_allocated()),
        gib(series.peak_reserved())
    );
    println!(
        "fragmentation gap {:.2} GiB (paper: \"more than 4GB reserved but not allocated\")",
        gib(series.peak_fragmentation())
    );

    // The MEMO contrast: planned addresses, zero gap, zero reorganisations.
    let pm = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
    let report = memo_core::planner::plan(&pm.trace);
    println!(
        "\nMEMO plan for the same workload: arena {:.2} GiB, liveness bound {:.2} GiB, 0 reorganisations",
        gib(report.plan.peak),
        gib(pm.trace.peak_live_bytes())
    );
}

/// Figure 1(b): FlashAttention time, one-layer forward time and one-layer
/// full activation offload time vs sequence length (7B, TP = 8). The paper's
/// observation: beyond ≈192K tokens the offload hides completely under the
/// layer's compute.
fn fig1b() {
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(8, 1, 1, 1);
    let calib = Calibration::default();

    println!("Figure 1(b) — one-layer forward vs full offload (7B, TP=8)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10}",
        "seq", "flash_attn(s)", "layer_fwd(s)", "offload(s)", "overlap?"
    );
    let mut crossover: Option<u64> = None;
    for k in (32..=512).step_by(32) {
        let s = k as u64 * 1024;
        let lt = cost::layer_time(&m, &cfg, s, &calib);
        let off = cost::full_offload_seconds(&m, &cfg, s, &calib);
        let overlapped = off <= lt.fwd();
        if overlapped && crossover.is_none() {
            crossover = Some(k as u64);
        }
        println!(
            "{:>7}K {:>14.4} {:>14.4} {:>14.4} {:>10}",
            k,
            lt.attn_fwd,
            lt.fwd(),
            off,
            if overlapped { "yes" } else { "no" }
        );
    }
    match crossover {
        Some(k) => println!("\nfull overlap from {k}K tokens onward (paper: ≈192K)"),
        None => println!("\nno crossover in range — check calibration"),
    }
}

/// Figures 4 and 9: the memory request sequences — one transformer layer's
/// forward and backward (Figure 4), and the whole-iteration segmented view
/// (Figure 9).
fn fig4_9() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::FullRecompute, false);
    let trace = &p.trace;

    println!("Figure 4 — one transformer layer's memory requests\n");
    println!("Forward (layer 0):");
    print!("{}", trace.render_segment(SegmentKind::LayerFwd(0), 24));
    println!("\nBackward (layer 0):");
    print!("{}", trace.render_segment(SegmentKind::LayerBwd(0), 24));

    println!("\nFigure 9 — whole-iteration segment structure:\n");
    for seg in trace.segments() {
        let label = match seg.kind {
            SegmentKind::EmbeddingFwd => "Embedding fwd".to_string(),
            SegmentKind::LayerFwd(i) => format!("Transformer layer {i} fwd"),
            SegmentKind::ClassifierFwd => "Classifier fwd".to_string(),
            SegmentKind::ClassifierBwd => "Classifier bwd".to_string(),
            SegmentKind::LayerBwd(i) => format!("Transformer layer {i} bwd"),
            SegmentKind::EmbeddingBwd => "Embedding bwd".to_string(),
        };
        // Print boundary segments fully indexed, transformer ones summarised.
        match seg.kind {
            SegmentKind::LayerFwd(i) | SegmentKind::LayerBwd(i)
                if i > 0 && i + 1 < p.layers_local =>
            {
                if i == 1 {
                    println!("  ... layers 1..{} identical ...", p.layers_local - 2);
                }
            }
            _ => {
                println!(
                    "  requests {:>5}..{:<5} {label} ({} requests)",
                    seg.start,
                    seg.start + seg.len(),
                    seg.len()
                );
            }
        }
    }
    println!("\ntotal requests: {}", trace.len());
    println!(
        "transformer layers: {} (one forward and one backward body, repeated)",
        trace.layers()
    );
}

/// Figure 5: the skeletal activation catalog of one transformer layer, with
/// sizes (in bsh elements and bytes) and the 6.25% attention-output share.
fn fig5() {
    let m = ModelConfig::gpt_7b();
    let s: u64 = 1 << 20; // 1Mi tokens, b = 1 (the paper's running example)
    let dims = LayerDims::new(s, &m, DType::F16);

    println!("Figure 5 — skeletal activations of one transformer layer");
    println!(
        "model 7B (h={}, ffn={}), s=1Mi tokens, fp16\n",
        m.hidden, m.ffn_hidden
    );
    println!("{:<18} {:>10} {:>14}", "tensor", "×bsh", "bytes");
    let mut total = 0u64;
    for t in skeletal_catalog(&dims) {
        let x_bsh = t.bytes as f64 / dims.bsh_bytes() as f64;
        println!("{:<18} {:>10.2} {:>14}", t.kind.name(), x_bsh, t.bytes);
        total += t.bytes;
    }
    println!(
        "{:<18} {:>10.2} {:>14}",
        "TOTAL",
        total as f64 / dims.bsh_bytes() as f64,
        total
    );

    let split = skeletal_split(&dims);
    println!(
        "\nFlashAttention output share: {:.2}% (paper: 6.25%)",
        100.0 * split.s_attn as f64 / split.total() as f64
    );
    let all_layers_gib = (total * m.n_layers as u64) >> 30;
    println!(
        "all {} layers: {} GiB (paper §3.2: 4096 GB for one 1M-token sequence)",
        m.n_layers, all_layers_gib
    );
}

/// Figure 7: FlashAttention's share of one layer's forward time vs sequence
/// length (7B, TP = 8). Paper: > 90% beyond 576K tokens.
fn fig7() {
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(8, 1, 1, 1);
    let calib = Calibration::default();

    println!("Figure 7 — FlashAttention share of layer forward time (7B, TP=8)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "seq", "flash(s)", "other(s)", "share"
    );
    let mut first_over_90 = None;
    for k in [
        64u64, 128, 192, 256, 320, 384, 448, 512, 576, 640, 768, 896, 1024,
    ] {
        let s = k * 1024;
        let lt = cost::layer_time(&m, &cfg, s, &calib);
        let other = lt.dense_fwd + lt.elementwise_fwd;
        let share = lt.attn_fwd / (lt.attn_fwd + other);
        if share > 0.9 && first_over_90.is_none() {
            first_over_90 = Some(k);
        }
        println!(
            "{:>7}K {:>14.4} {:>14.4} {:>9.1}%",
            k,
            lt.attn_fwd,
            other,
            share * 100.0
        );
    }
    match first_over_90 {
        Some(k) => println!("\nattention exceeds 90% of forward compute from {k}K (paper: 576K)"),
        None => println!("\nattention never exceeded 90% — check calibration"),
    }
}

/// Figure 8: the bi-level MIP in action — level-1 solves for one layer's
/// forward/backward segments, pseudo-request substitution, level-2 solve,
/// and the comparison against the flat formulation.
fn fig8() {
    fn gib(b: u64) -> f64 {
        b as f64 / (1u64 << 30) as f64
    }

    let w = Workload::new(ModelConfig::gpt_7b(), 8, 256 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
    let flat_inst = DsaInstance::from_trace(&p.trace);

    println!("Figure 8 — bi-level MIP memory planning (7B, 256K, TP4·CP2)\n");
    println!(
        "full trace: {} requests, {} tensors, liveness lower bound {:.3} GiB\n",
        p.trace.len(),
        flat_inst.len(),
        gib(p.trace.peak_live_bytes())
    );

    let t0 = Instant::now();
    let report = plan_iteration(&p.trace);
    let bilevel_time = t0.elapsed();

    if let Some(fwd) = report.layer_fwd {
        println!(
            "level-1 fwd segment : {:>3} tensors, peak {:.3} GiB, optimal={}, {} nodes",
            fwd.n_tensors,
            gib(fwd.peak),
            fwd.optimal,
            fwd.nodes
        );
    }
    if let Some(bwd) = report.layer_bwd {
        println!(
            "level-1 bwd segment : {:>3} tensors, peak {:.3} GiB, optimal={}, {} nodes",
            bwd.n_tensors,
            gib(bwd.peak),
            bwd.optimal,
            bwd.nodes
        );
    }
    println!(
        "level-2 (pseudo)    : {:>3} tensors, peak {:.3} GiB, optimal={}, {} nodes",
        report.level2.n_tensors,
        gib(report.level2.peak),
        report.level2.optimal,
        report.level2.nodes
    );
    println!(
        "bi-level plan peak  : {:.3} GiB (paper: planning < 5 min; repetitive substructure makes it cheap)",
        gib(report.plan.peak)
    );
    report.plan.validate_against(&p.trace).expect("plan valid");

    let t1 = Instant::now();
    let (flat_plan, flat_stats) = plan_flat(&p.trace);
    let flat_time = t1.elapsed();
    flat_plan
        .validate_against(&p.trace)
        .expect("flat plan valid");
    println!(
        "\nflat formulation    : {:>3} tensors, peak {:.3} GiB (optimal={})",
        flat_stats.n_tensors,
        gib(flat_plan.peak),
        flat_stats.optimal
    );
    println!(
        "bi-level / flat peak ratio: {:.3}",
        report.plan.peak as f64 / flat_plan.peak as f64
    );
    // Wall-clock times vary run to run, so they go to stderr and stdout
    // stays byte-identical; speed claims belong to `speed_gates`.
    eprintln!(
        "bi-level plan in {bilevel_time:?}; flat plan in {flat_time:?}; bi-level / flat time ratio: {:.2}",
        bilevel_time.as_secs_f64() / flat_time.as_secs_f64().max(1e-9)
    );
}

/// Extension study (beyond the paper): a third storage tier.
///
/// The paper's host-memory constraint produces the `X_oohm` failures — full
/// swapping exhausts the 2 TB of node DRAM from ~512K tokens (Table 4), and
/// the α program must fall back to recomputation as contexts grow. A
/// ZeRO-Infinity-style NVMe tier (25 GB/s aggregate per node here) absorbs
/// the spill at lower bandwidth: the two-tier α program fills DRAM first,
/// then NVMe up to the remaining overlap headroom.
fn nvme_tier() {
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    println!("NVMe third tier — 7B on 8 GPUs, {}\n", cfg.describe());
    println!(
        "{:>7} | {:>20} | {:>20} | {:>20}",
        "seq", "full swap (host)", "MEMO (paper tiers)", "MEMO + NVMe"
    );
    for s_k in [256u64, 384, 512, 640, 768, 1024, 1152] {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024);
        let full_host = w.run_with(SystemSpec::FullSwapPlan, &cfg);
        let base = w.run_with(SystemSpec::Memo, &cfg);
        let nvme = w.run_with(SystemSpec::MemoTiered(2), &cfg);
        println!(
            "{:>6}K | {:>20} | {:>20} | {:>20}",
            s_k,
            cell_text(&full_host),
            cell_text(&base),
            cell_text(&nvme)
        );
        if let (Some(b), Some(n)) = (base.metrics(), nvme.metrics()) {
            assert!(n.mfu >= b.mfu - 1e-6, "NVMe must never hurt");
        }
    }
    println!("\nfull swapping dies of host OOM from ~512K (the paper's Table 4");
    println!("X_oohm column); the two-tier α raises the swapped fraction at every");
    println!("host-bound length, trimming recompute time without new failures.");
    println!("GPU-memory OOMs are untouched — the rounding buffers still must fit.");
}

/// Extension study: why the paper's strategies avoid pipeline parallelism at
/// long contexts (§2.3's "bubble" discussion, visible in Tables 6/7 as
/// PP=1 almost everywhere).
///
/// Simulates GPipe and 1F1B stage schedules at varying micro-batch counts
/// and shows (a) the bubble fraction `(pp−1)/m`, crippling at the `m = 1`
/// typical of million-token batches, and (b) 1F1B's in-flight-activation
/// advantage, which is irrelevant when m is small anyway.
fn pipeline_schedules() {
    println!("Pipeline schedules — bubble vs micro-batches (uniform stages)\n");
    println!(
        "{:>4} {:>4} | {:>22} | {:>22}",
        "pp", "m", "GPipe bubble/in-flight", "1F1B bubble/in-flight"
    );
    let t_fwd = SimTime::from_millis(10);
    let t_bwd = SimTime::from_millis(20);
    for (pp, m) in [(4usize, 1usize), (4, 2), (4, 4), (4, 16), (8, 1), (8, 8)] {
        let g = simulate(PipeSchedule::GPipe, pp, m, t_fwd, t_bwd);
        let f = simulate(PipeSchedule::OneFOneB, pp, m, t_fwd, t_bwd);
        println!(
            "{:>4} {:>4} | {:>13.1}% {:>7} | {:>13.1}% {:>7}",
            pp,
            m,
            g.bubble_fraction * 100.0,
            g.peak_in_flight,
            f.bubble_fraction * 100.0,
            f.peak_in_flight
        );
    }

    println!("\n1F1B schedule, pp=4, m=8 (drawn):");
    let f = simulate(PipeSchedule::OneFOneB, 4, 8, t_fwd, t_bwd);
    print!("{}", render_ascii(&f.timeline, 100));

    println!("\nlong-context reality: one million-token sequence = one micro-batch,");
    println!("so PP pays (pp-1)x extra wall time — hence TP/CP-heavy strategies in");
    println!("Tables 6-7, and our strategy search agrees (PP appears only when");
    println!("nothing else fits in memory).");
}

/// Extension study: the three rematerialisation regimes of §2.2 on the same
/// Megatron-style substrate — no recomputation (TE "selective" with
/// FlashAttention keeps every skeletal tensor), full recomputation, and
/// MEMO's token-wise hybrid. Shows the time/memory trade the paper's
/// Observation 1 starts from: keeping everything is fastest but dies first;
/// full recomputation reaches further at a flat ~25% MFU tax; MEMO gets the
/// speed of keeping everything with the reach of swapping.
fn remat_modes() {
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    println!(
        "Rematerialisation regimes — 7B on 8 GPUs, {}\n",
        cfg.describe()
    );
    println!(
        "{:>7} | {:>18} | {:>18} | {:>18}",
        "seq", "keep-all", "full recompute", "MEMO token-wise"
    );
    for s_k in [64u64, 128, 192, 256, 384, 512, 768, 1024] {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024);
        let keep = w.run_with(SystemSpec::MegatronKeepAll, &cfg);
        let full = w.run_with(SystemSpec::MegatronLM, &cfg);
        let memo = w.run_with(SystemSpec::Memo, &cfg);
        println!(
            "{:>6}K | {:>18} | {:>18} | {:>18}",
            s_k,
            cell_text(&keep),
            cell_text(&full),
            cell_text(&memo)
        );
    }
    println!("\nkeep-all is the per-step speed ceiling; MEMO matches it (minus small");
    println!("recompute slices) while outliving even full recomputation.");
}

/// Extension study: straggler sensitivity of the parallelism shapes.
///
/// The whole-cluster simulation runs every rank explicitly, so per-rank
/// compute jitter interacts with the collectives the way it does on a real
/// cluster: strategies that synchronise every layer (large TP/CP) wait for
/// the slowest member each time, while DP-heavy shapes only meet at the
/// gradient synchronisation. Context for §5.2's observation that large
/// model-parallel degrees carry heavy overheads — noise makes it worse.
fn straggler() {
    let base = DistSpec {
        layers: 32,
        t_fwd: SimTime::from_millis(40),
        t_bwd: SimTime::from_millis(80),
        t_collective: SimTime::from_millis(2),
        t_offload: SimTime::from_millis(30),
        t_grad_sync: SimTime::from_millis(10),
        jitter: 0.0,
        seed: 2026,
    };
    let shapes = [
        (
            "TP8 (per-layer barriers)",
            RankGrid {
                tp: 8,
                cp: 1,
                pp: 1,
                dp: 1,
            },
        ),
        (
            "TP4·CP2",
            RankGrid {
                tp: 4,
                cp: 2,
                pp: 1,
                dp: 1,
            },
        ),
        (
            "TP2·CP2·DP2",
            RankGrid {
                tp: 2,
                cp: 2,
                pp: 1,
                dp: 2,
            },
        ),
        (
            "DP8 (one barrier/iter)",
            RankGrid {
                tp: 1,
                cp: 1,
                pp: 1,
                dp: 8,
            },
        ),
    ];

    println!("Straggler sensitivity — 8 ranks, slowdown vs jitter-free run\n");
    print!("{:>26}", "strategy \\ jitter");
    let jitters = [0.05f64, 0.1, 0.2, 0.4];
    for j in jitters {
        print!(" | {:>7.0}%", j * 100.0);
    }
    println!();
    for (name, grid) in shapes {
        let clean = run_distributed_iteration(&grid, &base);
        print!("{name:>26}");
        for j in jitters {
            let noisy = run_distributed_iteration(&grid, &DistSpec { jitter: j, ..base });
            let slowdown = noisy.makespan.as_secs_f64() / clean.makespan.as_secs_f64();
            print!(" | {:>7.3}x", slowdown);
        }
        println!();
    }
    println!("\nper-layer collectives take the max over members every layer (2·layers");
    println!("barriers/iteration); pure DP absorbs noise until the single gradient");
    println!("sync. MEMO inherits whichever shape its strategy search picks.");

    // A storage-tier straggler: the same workload over the N-tier chain
    // with the NVMe tier progressively degraded. The α waterfall routes
    // around a slow deep tier (it just absorbs less), so MFU degrades
    // gracefully instead of collapsing like a compute straggler.
    println!("\nTiered-memory straggler — 7B/8GPU @ 768K, NVMe tier slowed\n");
    println!(
        "{:>18} {:>7} {:>7} {:>9}",
        "nvme bandwidth", "mfu", "alpha", "slowdown"
    );
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let healthy = {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 768 * 1024);
        w.run_with(SystemSpec::MemoTiered(0), &cfg)
            .mfu()
            .expect("healthy chain runs")
    };
    for nvme_gbps in [25.0f64, 10.0, 5.0, 1.0] {
        let mut w = Workload::new(ModelConfig::gpt_7b(), 8, 768 * 1024);
        let nvme = w.calib.hierarchy.tiers.last_mut().expect("chain has NVMe");
        nvme.write_bandwidth = nvme_gbps * 1e9;
        let out = w.run_with(SystemSpec::MemoTiered(0), &cfg);
        let m = out.metrics().expect("degraded chain still runs");
        println!(
            "{:>13.0} GB/s {:>7.3} {:>7.3} {:>8.3}x",
            nvme_gbps,
            m.mfu,
            m.alpha.unwrap_or(0.0),
            healthy / m.mfu
        );
    }
}

/// Table 3: end-to-end MFU and TGS of DeepSpeed, Megatron-LM and MEMO
/// across {7B/8, 13B/16, 30B/32, 65B/64} GPUs and 64K–1408K tokens, with
/// the paper's reported MFU printed alongside for comparison.
fn table3() {
    let systems = SystemSpec::PAPER;
    let models: [(ModelConfig, usize); 4] = [
        (ModelConfig::gpt_7b(), 8),
        (ModelConfig::gpt_13b(), 16),
        (ModelConfig::gpt_30b(), 32),
        (ModelConfig::gpt_65b(), 64),
    ];

    println!("Table 3 — MFU / TGS per system (ours), with paper MFU in brackets\n");
    let mut our_ratio_megatron: Vec<f64> = Vec::new();
    let mut our_ratio_deepspeed: Vec<f64> = Vec::new();
    let mut memo_mfus: Vec<f64> = Vec::new();

    for (gi, (model, n_gpus)) in models.iter().enumerate() {
        println!("== {} on {} GPUs ==", model.name, n_gpus);
        let cells = sweep::sweep_group(model, *n_gpus, &SEQ_K, &systems);
        let find = |sys: SystemSpec, s_k: u64| {
            cells
                .iter()
                .find(|c| c.system == sys && c.seq_k == s_k)
                .expect("cell computed")
        };
        let paper = &TABLE3[gi];
        for (si, &s_k) in SEQ_K.iter().enumerate() {
            print!("{:>6}K |", s_k);
            for &sys in &systems {
                let c = find(sys, s_k);
                let paper_mfu = match sys {
                    SystemSpec::DeepSpeed => paper.deepspeed[si],
                    SystemSpec::MegatronLM => paper.megatron[si],
                    _ => paper.memo[si],
                };
                let paper_txt = match paper_mfu {
                    Some(v) => format!("{v:5.2}%"),
                    None => "  X   ".to_string(),
                };
                print!(
                    " {:10} {:>17} [{paper_txt}] |",
                    sys.name(),
                    cell_text(&c.outcome)
                );
                if let Some(m) = c.outcome.metrics() {
                    if sys == SystemSpec::Memo {
                        memo_mfus.push(m.mfu);
                    }
                }
            }
            // MFU ratios where both MEMO and a baseline succeed.
            let memo = find(SystemSpec::Memo, s_k).outcome.mfu();
            if let (Some(me), Some(mg)) = (memo, find(SystemSpec::MegatronLM, s_k).outcome.mfu()) {
                our_ratio_megatron.push(me / mg);
            }
            if let (Some(me), Some(ds)) = (memo, find(SystemSpec::DeepSpeed, s_k).outcome.mfu()) {
                our_ratio_deepspeed.push(me / ds);
            }
            println!();
        }
        println!();
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("--- summary ---");
    println!(
        "MEMO average MFU: {:.2}% (paper: 51.33%)",
        100.0 * avg(&memo_mfus)
    );
    println!(
        "MEMO / Megatron-LM MFU ratio (cells where both run): {:.2}x (paper avg over its cells: 2.42x)",
        avg(&our_ratio_megatron)
    );
    println!(
        "MEMO / DeepSpeed MFU ratio: {:.2}x (paper: 2.26x)",
        avg(&our_ratio_deepspeed)
    );
}

/// Table 4: the ablation (full recomputation with and without the memory
/// plan, full swapping with the plan, and MEMO) for the 7B model on 8 GPUs
/// at the paper's fixed `TP4·CP2` strategy, plus a tensor-granularity row.
fn table4() {
    /// The rows in print order: name, execution mode, and the row of `TABLE4`
    /// it reproduces (none for the tensor-granularity extension).
    const ROWS: [(&str, SystemSpec, Option<usize>); 5] = [
        ("Full Recomputation", SystemSpec::MegatronLM, Some(0)),
        (
            "Full Recomputation + Memory Plan",
            SystemSpec::FullRecomputePlan,
            Some(1),
        ),
        (
            "Full Swapping + Memory Plan",
            SystemSpec::FullSwapPlan,
            Some(2),
        ),
        (
            "Tensor-granularity Hybrid + Plan",
            SystemSpec::TensorHybrid,
            None,
        ),
        ("MEMO (fine-grained + plan)", SystemSpec::Memo, Some(3)),
    ];

    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    println!(
        "Table 4 — ablation (7B, 8 GPUs, {}), ours [paper]\n",
        cfg.describe()
    );

    for (name, spec, paper_row) in ROWS {
        let paper_row = paper_row.map(|i| &TABLE4[i]);
        print!("{name:<36}");
        for (si, &s_k) in TABLE4_SEQ_K.iter().enumerate() {
            let w = Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024);
            let out = w.run_with(spec, &cfg);
            let paper = match paper_row {
                Some(row) => row.mfu[si]
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "X".into()),
                None => "ext".into(),
            };
            print!(" | {:>6}K {:>16} [{paper:>5}]", s_k, cell_text(&out));
        }
        println!();
    }

    // The two qualitative claims of §5.3:
    println!("\nexpected shape:");
    println!("  * memory plan alone lifts full recomputation (paper: 1.51x avg MFU)");
    println!("  * full swapping wins at >=256K but X_oohm at long contexts");
    println!("  * MEMO matches the better of the two everywhere and reaches furthest");
    println!("  * [ext] tensor-granularity hybrid (Capuchin-style, §6): whole-tensor");
    println!("    swap/recompute decisions — trails MEMO's token granularity near");
    println!("    the overlap crossover");
}

/// Tables 5–7 (Appendix A): the parallelism strategy each system selects
/// per workload — our automated search's choice, including MEMO's solved α.
fn tables5_7() {
    let systems = SystemSpec::PAPER;
    let models: [(ModelConfig, usize); 4] = [
        (ModelConfig::gpt_7b(), 8),
        (ModelConfig::gpt_13b(), 16),
        (ModelConfig::gpt_30b(), 32),
        (ModelConfig::gpt_65b(), 64),
    ];

    println!("Tables 5-7 — selected parallelism strategies (search over all valid configs)\n");
    for (model, n_gpus) in &models {
        println!("== {} on {} GPUs ==", model.name, n_gpus);
        let cells = sweep::sweep_group(model, *n_gpus, &SEQ_K, &systems);
        for &sys in &systems {
            print!("{:<12}", sys.name());
            for &s_k in &SEQ_K {
                let c = cells
                    .iter()
                    .find(|c| c.system == sys && c.seq_k == s_k)
                    .expect("cell");
                let txt = match (&c.strategy, c.outcome.metrics()) {
                    (Some(cfg), Some(m)) => {
                        let alpha = m.alpha.map(|a| format!(" α={a}")).unwrap_or_default();
                        format!("{}{}", cfg.describe(), alpha)
                    }
                    _ => "X".to_string(),
                };
                print!(" | {s_k}K {txt}");
            }
            println!();
        }
        println!();
    }
    println!("compare with the paper's Appendix A: same families (DS: SP·DP·Z3;");
    println!("Megatron/MEMO: TP·CP·DP with SP+ZeRO-1), SP capped by head count, and");
    println!("MEMO's α falling to 0 as the host-memory constraint binds at long contexts.");
}

/// Extension study: variable-length training data vs the caching allocator.
///
/// The Table 3/4 runs replay one fixed-shape iteration, which understates
/// real fragmentation: production long-context corpora pack *variable*
/// document lengths, so consecutive iterations issue different request
/// sizes into an allocator whose cache — already pinned by lazily-allocated
/// optimizer tensors — was shaped by other lengths. This study cycles
/// sequence lengths {100%, 75%, 50%, 87.5%} of the maximum for several
/// epochs and tracks reserved memory, reorganisations and external
/// fragmentation per iteration.
///
/// MEMO is structurally immune: its plan and rounding buffers are sized for
/// the profiled maximum and shorter batches simply use a prefix.
fn varlen() {
    const GIB: f64 = (1u64 << 30) as f64;

    let max_k = 512u64;
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let model = ModelConfig::gpt_7b();
    println!(
        "Variable-length data — 7B on 8 GPUs, {}, max {}K, full recomputation\n",
        cfg.describe(),
        max_k
    );

    // Traces at each packed length (per-GPU dims scale with the batch).
    let fractions = [1.0f64, 0.75, 0.5, 0.875];
    let traces: Vec<_> = fractions
        .iter()
        .map(|f| {
            let s = ((max_k * 1024) as f64 * f) as u64;
            let w = Workload::new(model.clone(), 8, s);
            profiler::profile(&w, &cfg, RematPolicy::FullRecompute, false)
                .trace
                .into_inner()
        })
        .collect();

    let w = Workload::new(model.clone(), 8, max_k * 1024);
    let capacity = w.calib.usable_gpu_memory() - memory::params_bytes(&model, &cfg);
    let mut alloc = CachingAllocator::new(capacity);

    println!(
        "{:>5} {:>8} {:>14} {:>14} {:>10} {:>12}",
        "iter", "len", "allocated", "reserved", "ext frag", "reorgs(cum)"
    );
    let mut first = true;
    for epoch in 0..3 {
        for (i, trace) in traces.iter().enumerate() {
            let series = replay(&mut alloc, trace);
            assert!(series.oom.is_none(), "OOM at epoch {epoch} iter {i}");
            if first {
                // lazy optimizer-state allocation after the first backward
                for (k, bytes) in memory::persistent_tensor_sizes(&model, &cfg)
                    .into_iter()
                    .enumerate()
                {
                    alloc.malloc(TensorId((1 << 40) + k as u64), bytes).unwrap();
                }
                first = false;
            }
            println!(
                "{:>5} {:>6.0}K {:>10.2} GiB {:>10.2} GiB {:>9.1}% {:>12}",
                epoch * traces.len() + i,
                max_k as f64 * fractions[i],
                series.peak_allocated() as f64 / GIB,
                alloc.reserved_bytes() as f64 / GIB,
                alloc.external_fragmentation() * 100.0,
                alloc.reorg_count()
            );
        }
    }

    // The MEMO contrast: one plan at the maximum length covers every batch.
    let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
    let report = planner::plan(&p.trace);
    println!(
        "\nMEMO: plan sized once at {}K ({:.2} GiB arena); shorter batches use a
prefix — reserved memory is constant and reorganisations are structurally zero.",
        max_k,
        report.plan.peak as f64 / GIB
    );
}
