//! Memory planning deep-dive: take one training iteration's memory request
//! trace, plan it with the bi-level MIP, verify the plan by executing it on
//! the plan allocator, and contrast with the caching allocator's
//! fragmentation on the same trace.
//!
//! ```sh
//! cargo run --release --example memory_planning
//! ```

use memo::alloc::caching::CachingAllocator;
use memo::alloc::plan::PlanAllocator;
use memo::alloc::snapshot::replay;
use memo::core::{profiler, session::Workload};
use memo::model::config::ModelConfig;
use memo::model::trace::RematPolicy;
use memo::parallel::strategy::ParallelConfig;
use memo::plan::bilevel::plan_iteration;

const GIB: f64 = (1u64 << 30) as f64;

fn main() {
    let workload = Workload::new(ModelConfig::gpt_13b(), 16, 384 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 2);
    let p = profiler::profile(&workload, &cfg, RematPolicy::MemoTokenWise, false);

    println!("13B model, 384K tokens, 16 GPUs, {}\n", cfg.describe());
    println!(
        "trace: {} requests, liveness lower bound {:.3} GiB",
        p.trace.len(),
        p.trace.peak_live_bytes() as f64 / GIB
    );

    // Plan and verify.
    let report = plan_iteration(&p.trace);
    report.plan.validate_against(&p.trace).expect("plan sound");
    println!("\nbi-level plan:");
    println!(
        "  arena: {:.3} GiB  (overhead over bound: {:.1}%)",
        report.plan.peak as f64 / GIB,
        100.0 * (report.plan.peak as f64 / p.trace.peak_live_bytes() as f64 - 1.0)
    );

    // Execute the plan — zero fragmentation, zero reorganisation by
    // construction; the allocator cross-checks address safety at runtime.
    let mut plan_alloc =
        PlanAllocator::from_addresses(report.plan.address_triples(), report.plan.peak);
    let plan_series = replay(&mut plan_alloc, &p.trace);
    assert!(plan_series.oom.is_none());
    println!(
        "  executed: reserved {:.3} GiB constant, reorganisations {}",
        plan_series.peak_reserved() as f64 / GIB,
        plan_series.reorgs
    );

    // Same trace through the caching allocator.
    let mut caching = CachingAllocator::new(workload.calib.usable_gpu_memory());
    let caching_series = replay(&mut caching, &p.trace);
    println!("\ncaching allocator on the same trace:");
    println!(
        "  peak reserved {:.3} GiB, peak gap {:.3} GiB, segments created {}",
        caching_series.peak_reserved() as f64 / GIB,
        caching_series.peak_fragmentation() as f64 / GIB,
        caching.stats().n_segments_created
    );
    println!(
        "\nplan vs caching reserved ratio: {:.2}x",
        caching_series.peak_reserved() as f64 / report.plan.peak as f64
    );
}
