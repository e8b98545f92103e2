//! Activation catalogs.
//!
//! §3.1 of the paper divides forward-pass activations into **skeletal**
//! tensors (needed by the backward pass) and **transient** tensors (created
//! and discarded within one layer's forward or backward pass).
//!
//! Figure 5 enumerates the skeletal tensors of one transformer layer. With
//! `ffn_hidden = 4·hidden` they total `16·b·s·h` elements:
//!
//! | tensor            | elements (×bsh) | role                               |
//! |-------------------|-----------------|------------------------------------|
//! | layer input       | 1               | LN1 backward / recompute anchor    |
//! | LN1 output        | 1               | QKV projection backward            |
//! | Q, K, V           | 3               | FlashAttention backward            |
//! | attention output  | 1               | proj backward + flash backward     |
//! | residual-1 output | 1               | LN2 backward                       |
//! | LN2 output        | 1               | FC1 backward                       |
//! | FC1 output        | ffn/h (=4)      | GELU backward                      |
//! | GELU output       | ffn/h (=4)      | FC2 backward                       |
//!
//! The attention output is `1/16 = 6.25 %` of the skeletal bytes — the
//! observation behind MEMO's tensor-level rule "always swap the FlashAttention
//! output, never recompute it" (§4.1).

use crate::config::{DType, ModelConfig};

/// Per-GPU dimensions of one transformer layer's activations.
///
/// `tokens_local` is `b · s_local` where `s_local` is the sequence slice this
/// GPU stores after sequence/context parallelism (`s / (tp·cp)` with
/// Megatron-style SP enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerDims {
    pub tokens_local: u64,
    pub(crate) hidden: u64,
    pub(crate) ffn_hidden: u64,
    pub dtype: DType,
}

impl LayerDims {
    pub fn new(tokens_local: u64, model: &ModelConfig, dtype: DType) -> Self {
        LayerDims {
            tokens_local,
            hidden: model.hidden as u64,
            ffn_hidden: model.ffn_hidden as u64,
            dtype,
        }
    }

    /// Bytes of one `b·s_local·h` activation tensor.
    pub fn bsh_bytes(&self) -> u64 {
        self.tokens_local * self.hidden * self.dtype.size_bytes()
    }

    /// Bytes of one `b·s_local·ffn` activation tensor.
    pub(crate) fn bsf_bytes(&self) -> u64 {
        self.tokens_local * self.ffn_hidden * self.dtype.size_bytes()
    }
}

/// The skeletal tensors of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkeletalKind {
    LayerInput,
    Ln1Out,
    Q,
    K,
    V,
    AttnOut,
    Residual1,
    Ln2Out,
    Fc1Out,
    GeluOut,
}

impl SkeletalKind {
    const ALL: [SkeletalKind; 10] = [
        SkeletalKind::LayerInput,
        SkeletalKind::Ln1Out,
        SkeletalKind::Q,
        SkeletalKind::K,
        SkeletalKind::V,
        SkeletalKind::AttnOut,
        SkeletalKind::Residual1,
        SkeletalKind::Ln2Out,
        SkeletalKind::Fc1Out,
        SkeletalKind::GeluOut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SkeletalKind::LayerInput => "layer_input",
            SkeletalKind::Ln1Out => "input_norm",
            SkeletalKind::Q => "q",
            SkeletalKind::K => "k",
            SkeletalKind::V => "v",
            SkeletalKind::AttnOut => "flash_attn_out",
            SkeletalKind::Residual1 => "residual1",
            SkeletalKind::Ln2Out => "post_attn_norm",
            SkeletalKind::Fc1Out => "fc1_out",
            SkeletalKind::GeluOut => "gelu_out",
        }
    }

    /// Size in bytes for the given per-GPU dimensions.
    pub fn bytes(self, dims: &LayerDims) -> u64 {
        match self {
            SkeletalKind::Fc1Out | SkeletalKind::GeluOut => dims.bsf_bytes(),
            _ => dims.bsh_bytes(),
        }
    }

    /// Whether this tensor can be reconstructed *token-wise* (row by row)
    /// from the layer input alone, without attention. Every skeletal tensor
    /// except the FlashAttention output is a per-token function of the layer
    /// input (LayerNorms, projections, GELU) — attention mixes tokens, which
    /// is exactly why MEMO always swaps `AttnOut` instead of recomputing it.
    pub fn token_wise_recomputable(self) -> bool {
        !matches!(self, SkeletalKind::AttnOut | SkeletalKind::LayerInput)
    }
}

/// One concrete skeletal tensor of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkeletalTensor {
    pub kind: SkeletalKind,
    pub bytes: u64,
}

/// The full Figure 5 catalog for one transformer layer.
pub fn skeletal_catalog(dims: &LayerDims) -> Vec<SkeletalTensor> {
    SkeletalKind::ALL
        .iter()
        .map(|&kind| SkeletalTensor {
            kind,
            bytes: kind.bytes(dims),
        })
        .collect()
}

/// Aggregate skeletal sizes of one layer, split the way the α optimisation
/// problem of §4.1 needs them: `S_input`, `S_attn` and `S_others`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkeletalSplit {
    /// Layer input tensor bytes (always swapped — recompute anchor).
    pub s_input: u64,
    /// FlashAttention output bytes (always swapped — too costly to recompute).
    pub s_attn: u64,
    /// Everything else: swapped for an α fraction of tokens, recomputed for
    /// the rest.
    pub s_others: u64,
}

impl SkeletalSplit {
    pub fn total(&self) -> u64 {
        self.s_input + self.s_attn + self.s_others
    }

    /// Bytes that travel to the CPU for a given swap fraction α.
    pub fn swapped_bytes(&self, alpha: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&alpha));
        self.s_input + self.s_attn + (alpha * self.s_others as f64).round() as u64
    }
}

/// Compute the [`SkeletalSplit`] for one layer.
pub fn skeletal_split(dims: &LayerDims) -> SkeletalSplit {
    let mut split = SkeletalSplit {
        s_input: 0,
        s_attn: 0,
        s_others: 0,
    };
    for t in skeletal_catalog(dims) {
        match t.kind {
            SkeletalKind::LayerInput => split.s_input += t.bytes,
            SkeletalKind::AttnOut => split.s_attn += t.bytes,
            _ => split.s_others += t.bytes,
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn dims_7b(tokens: u64) -> LayerDims {
        LayerDims::new(tokens, &ModelConfig::gpt_7b(), DType::BF16)
    }

    #[test]
    fn figure5_total_is_16_bsh() {
        // With ffn = 4h the skeletal total must be exactly 16·bsh elements.
        let dims = dims_7b(1024);
        let total: u64 = skeletal_catalog(&dims).iter().map(|t| t.bytes).sum();
        assert_eq!(total, 16 * dims.bsh_bytes());
    }

    #[test]
    fn attn_out_is_6_25_percent() {
        let dims = dims_7b(4096);
        let split = skeletal_split(&dims);
        let frac = split.s_attn as f64 / split.total() as f64;
        assert!((frac - 0.0625).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn paper_example_4096_gib() {
        // §3.2: GPT-7B (h=4096, 32 layers), s = 1Mi tokens, b=1, fp16:
        // skeletal activations total 4096 GiB across all layers.
        let m = ModelConfig::gpt_7b();
        let dims = LayerDims::new(1 << 20, &m, DType::F16);
        let per_layer: u64 = skeletal_catalog(&dims).iter().map(|t| t.bytes).sum();
        let total_gib = (per_layer * m.n_layers as u64) >> 30;
        assert_eq!(total_gib, 4096);
    }

    #[test]
    fn split_partitions_catalog() {
        let dims = dims_7b(333);
        let split = skeletal_split(&dims);
        let total: u64 = skeletal_catalog(&dims).iter().map(|t| t.bytes).sum();
        assert_eq!(split.total(), total);
    }

    #[test]
    fn swapped_bytes_monotone_in_alpha() {
        let dims = dims_7b(2048);
        let split = skeletal_split(&dims);
        let mut prev = 0;
        for i in 0..=8 {
            let alpha = i as f64 / 8.0;
            let b = split.swapped_bytes(alpha);
            assert!(b >= prev);
            prev = b;
        }
        assert_eq!(split.swapped_bytes(1.0), split.total());
        assert_eq!(split.swapped_bytes(0.0), split.s_input + split.s_attn);
    }

    #[test]
    fn recomputability_flags() {
        assert!(!SkeletalKind::AttnOut.token_wise_recomputable());
        assert!(!SkeletalKind::LayerInput.token_wise_recomputable());
        assert!(SkeletalKind::GeluOut.token_wise_recomputable());
        assert!(SkeletalKind::Q.token_wise_recomputable());
    }
}
