//! Figure 8: the bi-level MIP in action — level-1 solves for one layer's
//! forward/backward segments, pseudo-request substitution, level-2 solve,
//! and the comparison against the flat formulation.

use memo_core::profiler;
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_model::trace::RematPolicy;
use memo_parallel::strategy::ParallelConfig;
use memo_plan::bilevel::{plan_flat, plan_iteration};
use memo_plan::dsa::DsaInstance;
use std::time::Instant;

fn main() {
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
        "bi-level plan peak  : {:.3} GiB in {:?} (paper: planning < 5 min; repetitive substructure makes it cheap)",
        gib(report.plan.peak),
        bilevel_time
    );
    report.plan.validate_against(&p.trace).expect("plan valid");

    let t1 = Instant::now();
    let (flat_plan, flat_stats) = plan_flat(&p.trace);
    let flat_time = t1.elapsed();
    flat_plan
        .validate_against(&p.trace)
        .expect("flat plan valid");
    println!(
        "\nflat formulation    : {:>3} tensors, peak {:.3} GiB (optimal={}) in {:?}",
        flat_stats.n_tensors,
        gib(flat_plan.peak),
        flat_stats.optimal,
        flat_time
    );
    println!(
        "bi-level / flat peak ratio: {:.3}; bi-level / flat time ratio: {:.2}",
        report.plan.peak as f64 / flat_plan.peak as f64,
        bilevel_time.as_secs_f64() / flat_time.as_secs_f64().max(1e-9)
    );
}

fn gib(b: u64) -> f64 {
    b as f64 / (1u64 << 30) as f64
}
