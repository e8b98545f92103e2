//! Per-layer wall-time model: compute (GEMM + FlashAttention + elementwise)
//! plus exposed communication. This is the model behind Figures 1(b) and 7
//! and the timing input to every executor.

use crate::comm::{self, LayerComm};
use crate::strategy::ParallelConfig;
use memo_hal::calib::Calibration;
use memo_model::config::ModelConfig;
use memo_model::flops;

/// Decomposed per-GPU times (seconds) of one transformer layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// FlashAttention forward kernel time.
    pub attn_fwd: f64,
    /// Dense (QKV/proj/FFN) forward time.
    pub dense_fwd: f64,
    /// Elementwise/norm forward time.
    pub elementwise_fwd: f64,
    /// Exposed forward communication.
    comm_fwd: f64,
    /// Full backward time (compute + exposed comm).
    pub bwd: f64,
    comm_detail: LayerComm,
}

impl LayerTime {
    /// Total forward wall time of one layer.
    pub fn fwd(&self) -> f64 {
        self.attn_fwd + self.dense_fwd + self.elementwise_fwd + self.comm_fwd
    }

    /// Forward time excluding FlashAttention — the part token-wise
    /// recomputation re-runs (attention output is swapped, never redone).
    pub fn fwd_without_attention(&self) -> f64 {
        self.dense_fwd + self.elementwise_fwd
    }
}

/// Degree by which this GPU's share of a layer's *token-parallel* work is
/// reduced (CP and Ulysses split tokens; TP splits heads/columns).
fn compute_shard(cfg: &ParallelConfig) -> f64 {
    (cfg.tp * cfg.cp * cfg.ulysses) as f64
}

/// Compute the per-layer time decomposition for global sequence length `s`.
pub fn layer_time(
    model: &ModelConfig,
    cfg: &ParallelConfig,
    s: u64,
    calib: &Calibration,
) -> LayerTime {
    let shard = compute_shard(cfg);

    let attn_flops = flops::attn_fwd_flops(model, s) / shard;
    let dense_flops = (flops::layer_fwd_flops(model, s) - flops::attn_fwd_flops(model, s)) / shard;
    // Norms, GELU, residual adds, RoPE: ~30 flops per element over s·h
    // elements, bandwidth bound (low effective efficiency).
    let elementwise_flops = 30.0 * (s as f64) * model.hidden as f64 / shard;

    let attn_fwd = calib.compute_secs(attn_flops, calib.attn_efficiency);
    let dense_fwd = calib.compute_secs(dense_flops, calib.gemm_efficiency);
    let elementwise_fwd = calib.compute_secs(elementwise_flops, calib.elementwise_efficiency);

    let comm_detail = comm::layer_comm(model, cfg, s, calib);
    let comm_fwd = comm_detail.total();

    // Backward: dense 2×, attention 2.5× (flash recomputes internally),
    // elementwise 2×, comm volume symmetric — except ZeRO-3, which pays both
    // a parameter gather and a gradient reduce-scatter.
    let bwd = 2.0 * dense_fwd
        + 2.5 * attn_fwd
        + 2.0 * elementwise_fwd
        + comm_fwd
        + comm_detail.zero3_gather;

    LayerTime {
        attn_fwd,
        dense_fwd,
        elementwise_fwd,
        comm_fwd,
        bwd,
        comm_detail,
    }
}

/// Time to offload one layer's fully-swapped skeletal activations
/// (Figure 1b's third curve): `16·bsh` elements in fp16, per GPU.
pub fn full_offload_seconds(
    model: &ModelConfig,
    cfg: &ParallelConfig,
    s: u64,
    calib: &Calibration,
) -> f64 {
    let tokens_local = cfg.tokens_local(s) as f64;
    let bytes = 16.0 * tokens_local * model.hidden as f64 * 2.0;
    bytes / calib.effective_pcie()
}

/// Head (embedding + final norm + classifier + loss) time per iteration,
/// forward + backward, per GPU.
pub fn head_seconds(model: &ModelConfig, cfg: &ParallelConfig, s: u64, calib: &Calibration) -> f64 {
    let shard = compute_shard(cfg);
    let fwd = flops::classifier_fwd_flops(model, s) / shard;
    let bwd = flops::classifier_bwd_flops(model, s) / shard;
    calib.compute_secs(fwd + bwd, calib.gemm_efficiency)
}

/// The optimizer step (fp32 Adam over the local shard).
pub fn optimizer_seconds(model: &ModelConfig, cfg: &ParallelConfig, calib: &Calibration) -> f64 {
    let local = model.params() as f64 / (cfg.tp * cfg.pp) as f64 / cfg.zero_group() as f64;
    calib.optimizer_secs_per_bparam * local / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Calibration {
        Calibration::default()
    }

    /// Figure 1(b): for the 7B model at TP=8, full-offload time crosses
    /// under one-layer forward time near s = 192K.
    #[test]
    fn figure1b_crossover_near_192k() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let ratio_at = |s: u64| {
            let lt = layer_time(&m, &cfg, s, &c());
            full_offload_seconds(&m, &cfg, s, &c()) / lt.fwd()
        };
        // Well below the crossover: offload dominates compute.
        assert!(ratio_at(64 * 1024) > 1.0, "64K should not overlap");
        // Well above: compute dominates.
        assert!(ratio_at(320 * 1024) < 1.0, "320K should fully overlap");
        // The crossover sits in the 128K–256K band around the paper's 192K.
        let lo = ratio_at(128 * 1024);
        let hi = ratio_at(256 * 1024);
        assert!(
            lo > 1.0 && hi < 1.0,
            "crossover must lie between 128K and 256K (got {lo:.2}, {hi:.2})"
        );
    }

    /// Figure 7: FlashAttention share of forward time exceeds 90% past 576K.
    #[test]
    fn figure7_attention_share() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let share = |s: u64| {
            let lt = layer_time(&m, &cfg, s, &c());
            lt.attn_fwd / (lt.attn_fwd + lt.dense_fwd + lt.elementwise_fwd)
        };
        assert!(share(576 * 1024) > 0.90);
        assert!(share(16 * 1024) < 0.60);
    }

    #[test]
    fn backward_roughly_double_forward() {
        let m = ModelConfig::gpt_13b();
        let cfg = ParallelConfig::megatron(4, 2, 1, 2);
        let lt = layer_time(&m, &cfg, 1 << 18, &c());
        let ratio = lt.bwd / lt.fwd();
        assert!((1.8..2.6).contains(&ratio), "bwd/fwd ratio {ratio}");
    }

    #[test]
    fn sharding_reduces_time() {
        let m = ModelConfig::gpt_7b();
        let s = 1 << 18;
        let t1 = layer_time(&m, &ParallelConfig::megatron(1, 1, 1, 1), s, &c());
        let t8 = layer_time(&m, &ParallelConfig::megatron(8, 1, 1, 1), s, &c());
        assert!(t8.fwd() < t1.fwd() / 4.0);
    }

    #[test]
    fn optimizer_time_shrinks_with_sharding() {
        let m = ModelConfig::gpt_65b();
        let a = optimizer_seconds(&m, &ParallelConfig::megatron(8, 1, 1, 8), &c());
        let b = optimizer_seconds(&m, &ParallelConfig::megatron(8, 1, 1, 1), &c());
        assert!(a < b);
    }

    #[test]
    fn recompute_slice_excludes_attention() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let lt = layer_time(&m, &cfg, 1 << 19, &c());
        assert!(lt.fwd_without_attention() < 0.2 * lt.fwd());
    }
}
