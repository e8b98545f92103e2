//! Extension study (beyond the paper): a third storage tier.
//!
//! The paper's host-memory constraint produces the `X_oohm` failures — full
//! swapping exhausts the 2 TB of node DRAM from ~512K tokens (Table 4), and
//! the α program must fall back to recomputation as contexts grow. A
//! ZeRO-Infinity-style NVMe tier (25 GB/s aggregate per node here) absorbs
//! the spill at lower bandwidth: the two-tier α program fills DRAM first,
//! then NVMe up to the remaining overlap headroom.

use memo_bench::cell_text;
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

fn main() {
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
