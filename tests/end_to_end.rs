//! End-to-end integration: the full profiler → planner → executor pipeline
//! across crates, checked against the paper's qualitative claims.

use memo::core::session::Workload;
use memo::model::config::ModelConfig;
use memo::parallel::strategy::{ParallelConfig, SystemSpec};

#[test]
fn headline_7b_1m_on_8_gpus() {
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
    let (cfg, out) = w.run_best(SystemSpec::Memo).expect("1M tokens must fit");
    let m = out.metrics().unwrap();
    assert!(
        m.mfu > 0.48,
        "MFU {:.3} below band (cfg {})",
        m.mfu,
        cfg.describe()
    );
    assert!(m.mfu < 0.60);
    // Baselines cannot.
    assert!(w.run_best(SystemSpec::MegatronLM).is_none());
    assert!(w.run_best(SystemSpec::DeepSpeed).is_none());
}

#[test]
fn mfu_ordering_holds_across_models() {
    // MEMO > Megatron-LM > DeepSpeed wherever all three run (64K column).
    for (model, n_gpus) in [
        (ModelConfig::gpt_7b(), 8),
        (ModelConfig::gpt_13b(), 16),
        (ModelConfig::gpt_30b(), 32),
        (ModelConfig::gpt_65b(), 64),
    ] {
        let w = Workload::new(model.clone(), n_gpus, 64 * 1024);
        let memo = w.run_best(SystemSpec::Memo).unwrap().1.mfu().unwrap();
        let mega = w.run_best(SystemSpec::MegatronLM).unwrap().1.mfu().unwrap();
        let ds = w.run_best(SystemSpec::DeepSpeed).unwrap().1.mfu().unwrap();
        assert!(
            memo > mega && mega > ds,
            "{}: memo {memo:.3}, megatron {mega:.3}, ds {ds:.3}",
            model.name
        );
    }
}

#[test]
fn memo_mfu_flat_within_band_13b() {
    // The signature flat ~51% curve, 13B on 16 GPUs through 1408K.
    let mut mfus = Vec::new();
    for s_k in [128u64, 384, 768, 1152, 1408] {
        let w = Workload::new(ModelConfig::gpt_13b(), 16, s_k * 1024);
        let (_, out) = w.run_best(SystemSpec::Memo).expect("13B supports 1408K");
        mfus.push(out.mfu().unwrap());
    }
    let min = mfus.iter().cloned().fold(f64::MAX, f64::min);
    let max = mfus.iter().cloned().fold(f64::MIN, f64::max);
    assert!(min > 0.48, "min MFU {min:.3}");
    assert!(max - min < 0.05, "MFU spread too wide: {mfus:?}");
}

#[test]
fn alpha_values_follow_paper_pattern() {
    // Table 7's qualitative α pattern for the 7B model on 8 GPUs: α starts
    // low/zero at short lengths (overlap-bound), rises to 1 in the sweet
    // spot, then falls again as the host constraint binds.
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let alpha_at = |s_k: u64| {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, s_k * 1024);
        w.run_with(SystemSpec::Memo, &cfg)
            .metrics()
            .map(|m| m.alpha.unwrap())
    };
    let short = alpha_at(64).unwrap();
    let mid = alpha_at(256).unwrap();
    let long = alpha_at(1024).unwrap();
    assert!(mid > short || mid == 1.0, "mid {mid} vs short {short}");
    assert_eq!(mid, 1.0, "256K should fully swap (paper Table 7: α=1.0)");
    assert!(
        long < 1.0,
        "1024K must be host-capped (paper: α→0), got {long}"
    );
}

#[test]
fn scalability_frontier_grows_linearly() {
    // Figure 12(a): MEMO's max length doubles with the GPU count.
    let frontier = |n_gpus: usize| -> u64 {
        let mut best = 0;
        // coarse 256K grid, scaled with the cluster size
        let max_steps = 7 * n_gpus as u64 / 8;
        for s_k in (1..=max_steps).map(|k| k * 256) {
            let w = Workload::new(ModelConfig::gpt_7b(), n_gpus, s_k * 1024);
            if w.run_best(SystemSpec::Memo).is_some() {
                best = s_k;
            }
        }
        best
    };
    let f8 = frontier(8);
    let f16 = frontier(16);
    let f32 = frontier(32);
    assert!(f16 >= 2 * f8 - 256, "8->16 GPUs: {f8}K -> {f16}K");
    assert!(f32 >= 2 * f16 - 512, "16->32 GPUs: {f16}K -> {f32}K");
}

#[test]
fn oohm_vs_oom_distinguished() {
    // Full swapping exhausts host memory (OOHM), plain over-allocation
    // exhausts device memory (OOM); the outcome type must distinguish them.
    let w = Workload::new(ModelConfig::gpt_7b(), 8, 768 * 1024);
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let full_swap = memo::core::ExecutionPipeline::memo_at_alpha(1.0, 2)
        .execute_cached(&w, &cfg, true)
        .outcome;
    assert!(matches!(
        full_swap,
        memo::core::outcome::CellOutcome::Oohm { .. }
    ));

    let too_long = Workload::new(ModelConfig::gpt_7b(), 8, 2 << 20);
    let (_, fail) = too_long.run_best_or_failure(SystemSpec::MegatronLM);
    assert!(matches!(fail, memo::core::outcome::CellOutcome::Oom { .. }));
}
