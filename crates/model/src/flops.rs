//! FLOP accounting.
//!
//! The paper's model-FLOPs formula per sample (§5.1, causal FlashAttention):
//!
//! ```text
//! 6·s·P + 6·n·h·s²
//! ```
//!
//! The `6·s·P` term is forward + backward over all parameter matmuls
//! (2 FLOPs/param forward, 4 backward); the `6·n·h·s²` term is the causal
//! attention score/value matmuls (`2·s²·h` forward per layer after the
//! causal-mask halving, tripled for fwd+bwd).
//!
//! MFU is *model FLOPs* per second over peak — recomputation does **not**
//! count toward MFU, which is why full recomputation caps MFU at ~75 % of the
//! no-recompute ceiling.

use crate::config::ModelConfig;

/// FLOPs of one transformer layer's forward pass over `s` tokens
/// (per sample, whole layer across all GPUs).
pub fn layer_fwd_flops(m: &ModelConfig, s: u64) -> f64 {
    let dense = 2.0 * s as f64 * dense_params_per_layer(m);
    dense + attn_fwd_flops(m, s)
}

/// FLOPs of the causal FlashAttention forward of one layer: `2·s²·h`
/// (QKᵀ and AV matmuls are `2·s²·h` each, halved by the causal mask).
pub fn attn_fwd_flops(m: &ModelConfig, s: u64) -> f64 {
    2.0 * (s as f64) * (s as f64) * m.hidden as f64
}

/// Matmul parameters of one layer (excludes norms/biases, which are
/// bandwidth-bound and not charged as model FLOPs).
fn dense_params_per_layer(m: &ModelConfig) -> f64 {
    let h = m.hidden as f64;
    let f = m.ffn_hidden as f64;
    4.0 * h * h + 2.0 * h * f
}

/// Classifier (LM head) forward FLOPs: `2·s·h·V`.
pub fn classifier_fwd_flops(m: &ModelConfig, s: u64) -> f64 {
    2.0 * s as f64 * m.hidden as f64 * m.vocab as f64
}

/// Classifier backward FLOPs.
pub fn classifier_bwd_flops(m: &ModelConfig, s: u64) -> f64 {
    2.0 * classifier_fwd_flops(m, s)
}

/// The paper's headline per-sample model FLOPs: `6·s·P + 6·n·h·s²`.
pub fn model_flops_per_sample(m: &ModelConfig, s: u64) -> f64 {
    6.0 * s as f64 * m.params() as f64
        + 6.0 * m.n_layers as f64 * m.hidden as f64 * (s as f64) * (s as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One layer's backward FLOPs as `memo_parallel::cost::layer_time`
    /// charges them: dense 2× forward, attention 2.5× (FlashAttention's
    /// internal recomputation).
    fn layer_bwd_flops(m: &ModelConfig, s: u64) -> f64 {
        let attn = attn_fwd_flops(m, s);
        2.0 * (layer_fwd_flops(m, s) - attn) + 2.5 * attn
    }

    /// Fraction of one layer's forward time that FlashAttention accounts
    /// for, given kernel efficiencies.
    fn attn_fwd_fraction(m: &ModelConfig, s: u64, gemm_eff: f64, attn_eff: f64) -> f64 {
        let attn_t = attn_fwd_flops(m, s) / attn_eff;
        let dense_t = (layer_fwd_flops(m, s) - attn_fwd_flops(m, s)) / gemm_eff;
        attn_t / (attn_t + dense_t)
    }

    #[test]
    fn headline_formula_decomposes() {
        // 6sP + 6nhs² should roughly equal layer fwd+bwd sums plus
        // embedding/classifier terms. The per-layer decomposition uses only
        // dense params, so allow a few percent from embeddings/norms.
        let m = ModelConfig::gpt_7b();
        let s = 1u64 << 17;
        let layers: f64 = (0..m.n_layers)
            .map(|_| layer_fwd_flops(&m, s) + layer_bwd_flops(&m, s))
            .sum();
        let head = classifier_fwd_flops(&m, s) + classifier_bwd_flops(&m, s);
        let total = layers + head;
        let headline = model_flops_per_sample(&m, s);
        let ratio = total / headline;
        assert!((0.9..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn attention_dominates_long_sequences() {
        // Figure 7: beyond 576K tokens FlashAttention is >90% of layer
        // forward time for the 7B model.
        let m = ModelConfig::gpt_7b();
        let frac = attn_fwd_fraction(&m, 576 * 1024, 0.66, 0.52);
        assert!(frac > 0.90, "at 576K got {frac}");
        let frac_short = attn_fwd_fraction(&m, 8 * 1024, 0.66, 0.52);
        assert!(frac_short < 0.5, "at 8K got {frac_short}");
    }

    #[test]
    fn quadratic_attention_scaling() {
        let m = ModelConfig::gpt_7b();
        let f1 = attn_fwd_flops(&m, 1 << 16);
        let f2 = attn_fwd_flops(&m, 1 << 17);
        assert!((f2 / f1 - 4.0).abs() < 1e-9);
    }
}
