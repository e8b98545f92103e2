//! The paper's headline experiment: train a 7B LLM with a **1 million token**
//! sequence on **8 GPUs**, walking through every stage of the MEMO pipeline
//! (Figure 10): job profiler → α program → bi-level memory planner →
//! runtime executor.
//!
//! ```sh
//! cargo run --release --example long_context_1m
//! ```

use memo::core::{planner, profiler, session::Workload};
use memo::model::config::ModelConfig;
use memo::model::trace::RematPolicy;
use memo::parallel::strategy::{ParallelConfig, SystemSpec};
use memo::swap::alpha::solve_alpha;
use memo::swap::buffers::skeletal_gpu_bytes;

const GIB: f64 = (1u64 << 30) as f64;

fn main() {
    let workload = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let cfg = ParallelConfig::megatron(8, 1, 1, 1);

    println!("=== MEMO: 7B model, 1Mi tokens, 8 GPUs ===\n");

    // --- 1. job profiler (§4.3.2) -----------------------------------------
    let p = profiler::profile(&workload, &cfg, RematPolicy::MemoTokenWise, false);
    println!("[profiler]");
    println!("  per-GPU sequence shard : {} tokens", p.dims.tokens_local);
    println!(
        "  one-layer forward      : {:.3}s (attention {:.3}s)",
        p.layer_time.fwd(),
        p.layer_time.attn_fwd
    );
    println!(
        "  skeletal bytes / layer : {:.2} GiB (input+attn {:.2} GiB)",
        p.split.total() as f64 / GIB,
        (p.split.s_input + p.split.s_attn) as f64 / GIB
    );
    println!("  memory request trace   : {} requests", p.trace.len());

    // --- 2. the α program (§4.1) -------------------------------------------
    // MEMO's two rounding buffers: every other layer stages on the host.
    let alpha = solve_alpha(&p.alpha_inputs(&workload.calib, 2));
    println!("\n[token-wise swap fraction]");
    println!(
        "  solved α = {} (binding constraint: {:?})",
        alpha.alpha, alpha.binding
    );
    println!(
        "  offloaded per layer    : {:.2} GiB",
        p.split.swapped_bytes(alpha.alpha) as f64 / GIB
    );

    // --- 3. bi-level memory plan (§4.2) -------------------------------------
    let report = planner::plan(&p.trace);
    println!("\n[memory planner]");
    if let (Some(f), Some(b)) = (report.layer_fwd, report.layer_bwd) {
        println!(
            "  level-1 instances      : fwd {} tensors / bwd {} tensors (optimal: {}/{})",
            f.n_tensors, b.n_tensors, f.optimal, b.optimal
        );
    }
    println!(
        "  level-2 instance       : {} tensors",
        report.level2.n_tensors
    );
    println!(
        "  planned arena          : {:.2} GiB (liveness bound {:.2} GiB)",
        report.plan.peak as f64 / GIB,
        p.trace.peak_live_bytes() as f64 / GIB
    );

    // --- 4. memory budget ----------------------------------------------------
    let buffers = skeletal_gpu_bytes(
        p.split.s_input,
        p.split.s_attn,
        p.split.s_others,
        alpha.alpha,
    );
    println!("\n[GPU memory budget per device]");
    println!(
        "  model states           : {:.2} GiB",
        p.model_states.total() as f64 / GIB
    );
    println!("  rounding buffers       : {:.2} GiB", buffers as f64 / GIB);
    println!(
        "  planned transient arena: {:.2} GiB",
        report.plan.peak as f64 / GIB
    );
    println!(
        "  device capacity        : {:.2} GiB usable",
        workload.calib.usable_gpu_memory() as f64 / GIB
    );

    // --- 5. run -----------------------------------------------------------
    let out = workload.run_with(SystemSpec::Memo, &cfg);
    let m = out.metrics().expect("the headline configuration must fit");
    println!("\n[executor]");
    println!("  iteration time         : {:.2}s", m.iter_secs);
    println!(
        "  MFU                    : {:.2}%   (paper: 52.30%)",
        m.mfu * 100.0
    );
    println!(
        "  TGS                    : {:.2} tokens/GPU/s (paper: 188.73)",
        m.tgs
    );
    println!(
        "  host staging peak      : {:.1} GiB",
        m.host_peak_bytes as f64 / GIB
    );

    // The baselines cannot run this workload at all:
    println!("\n[baselines at 1Mi tokens]");
    for sys in [SystemSpec::MegatronLM, SystemSpec::DeepSpeed] {
        let (_, out) = workload.run_best_or_failure(sys);
        println!("  {:<12} -> {}", sys.name(), out.cell());
    }
}
