//! Table 4: the ablation (full recomputation with and without the memory
//! plan, full swapping with the plan, and MEMO) for the 7B model on 8 GPUs
//! at the paper's fixed `TP4·CP2` strategy, plus a tensor-granularity row.

use memo_bench::cell_text;
use memo_bench::paper::{TABLE4, TABLE4_SEQ_K};
use memo_core::session::Workload;
use memo_model::config::ModelConfig;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

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

fn main() {
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
