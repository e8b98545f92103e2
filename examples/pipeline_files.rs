//! The Figure 10 pipeline as three file-exchanging stages, the way MEMO's
//! components actually cooperate: the **job profiler** writes the memory
//! request trace, the **memory planner** reads it and writes the plan, and
//! the **runtime executor** reads the plan and runs the iteration.
//!
//! ```sh
//! cargo run --release --example pipeline_files
//! ```

use memo::alloc::plan::PlanAllocator;
use memo::alloc::snapshot::replay;
use memo::core::{profiler, session::Workload};
use memo::model::config::ModelConfig;
use memo::model::io::{read_trace, write_trace};
use memo::model::trace::RematPolicy;
use memo::parallel::strategy::ParallelConfig;
use memo::plan::bilevel::plan_iteration;
use memo::plan::io::{read_plan, write_plan};
use std::fs::File;
use std::io::BufReader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("memo-pipeline");
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join("trace.memo");
    let plan_path = dir.join("plan.memo");

    // --- stage 1: job profiler --------------------------------------------
    let workload = Workload::new(ModelConfig::gpt_7b(), 8, 128 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let profile = profiler::profile(&workload, &cfg, RematPolicy::MemoTokenWise, false);
    write_trace(&profile.trace, File::create(&trace_path)?)?;
    println!(
        "[profiler] wrote {} requests to {} ({} bytes)",
        profile.trace.len(),
        trace_path.display(),
        std::fs::metadata(&trace_path)?.len()
    );

    // --- stage 2: memory planner --------------------------------------------
    let trace = read_trace(BufReader::new(File::open(&trace_path)?))?;
    trace.validate()?;
    let report = plan_iteration(&trace);
    write_plan(&report.plan, File::create(&plan_path)?)?;
    println!(
        "[planner]  wrote plan with {} placements, peak {:.3} GiB, to {}",
        report.plan.placements().len(),
        report.plan.peak as f64 / (1u64 << 30) as f64,
        plan_path.display()
    );

    // --- stage 3: runtime executor ------------------------------------------
    let plan = read_plan(BufReader::new(File::open(&plan_path)?))?;
    plan.validate_against(&trace)?;
    let mut alloc = PlanAllocator::from_addresses(plan.address_triples(), plan.peak);
    let series = replay(&mut alloc, &trace);
    assert!(series.oom.is_none());
    println!(
        "[executor] replayed the iteration: peak {:.3} GiB, {} reorganisations",
        series.peak_reserved() as f64 / (1u64 << 30) as f64,
        series.reorgs
    );

    std::fs::remove_file(trace_path).ok();
    std::fs::remove_file(plan_path).ok();
    Ok(())
}
