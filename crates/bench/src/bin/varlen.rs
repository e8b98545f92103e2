//! Extension study: variable-length training data vs the caching allocator.
//!
//! The Table 3/4 runs replay one fixed-shape iteration, which understates
//! real fragmentation: production long-context corpora pack *variable*
//! document lengths, so consecutive iterations issue different request
//! sizes into an allocator whose cache — already pinned by lazily-allocated
//! optimizer tensors — was shaped by other lengths. This study cycles
//! sequence lengths {100%, 75%, 50%, 87.5%} of the maximum for several
//! epochs and tracks reserved memory, reorganisations and external
//! fragmentation per iteration.
//!
//! MEMO is structurally immune: its plan and rounding buffers are sized for
//! the profiled maximum and shorter batches simply use a prefix.

use memo_alloc::caching::CachingAllocator;
use memo_alloc::snapshot::replay;
use memo_alloc::DeviceAllocator;
use memo_core::{planner, profiler, session::Workload};
use memo_model::config::ModelConfig;
use memo_model::trace::{RematPolicy, TensorId};
use memo_parallel::memory;
use memo_parallel::strategy::ParallelConfig;

const GIB: f64 = (1u64 << 30) as f64;

fn main() {
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
