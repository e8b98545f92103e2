//! GPT model configurations (paper Table 2) and parameter counting.

/// Numeric storage type of activations / parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    F16,
    BF16,
    F32,
}

impl DType {
    pub(crate) const fn size_bytes(self) -> u64 {
        match self {
            DType::F16 | DType::BF16 => 2,
            DType::F32 => 4,
        }
    }
}

/// A decoder-only GPT configuration (Figure 3 architecture: embedding,
/// `n_layers` identical transformer layers, final classifier).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    pub name: &'static str,
    pub n_layers: usize,
    pub hidden: usize,
    pub ffn_hidden: usize,
    pub n_heads: usize,
    pub vocab: usize,
}

impl ModelConfig {
    /// 7B model: 32 layers, h=4096, ffn=16384, 32 heads (Table 2).
    pub const fn gpt_7b() -> Self {
        ModelConfig {
            name: "7B",
            n_layers: 32,
            hidden: 4096,
            ffn_hidden: 16384,
            n_heads: 32,
            vocab: 50257,
        }
    }

    /// 13B model: 40 layers, h=5120, ffn=20480, 40 heads (Table 2).
    pub const fn gpt_13b() -> Self {
        ModelConfig {
            name: "13B",
            n_layers: 40,
            hidden: 5120,
            ffn_hidden: 20480,
            n_heads: 40,
            vocab: 50257,
        }
    }

    /// 30B model: 48 layers, h=7168, ffn=28672, 56 heads (Table 2).
    pub const fn gpt_30b() -> Self {
        ModelConfig {
            name: "30B",
            n_layers: 48,
            hidden: 7168,
            ffn_hidden: 28672,
            n_heads: 56,
            vocab: 50257,
        }
    }

    /// 65B model: 80 layers, h=8192, ffn=32768, 64 heads (Table 2).
    pub const fn gpt_65b() -> Self {
        ModelConfig {
            name: "65B",
            n_layers: 80,
            hidden: 8192,
            ffn_hidden: 32768,
            n_heads: 64,
            vocab: 50257,
        }
    }

    /// 100B-class model (beyond the paper's Table 2): 90 layers, h=9600,
    /// 75 heads (head_dim 128) — the MegaTrain regime target for
    /// whole-trace planning and the 100B cells of `tests/plan_execution.rs`.
    pub const fn gpt_100b() -> Self {
        ModelConfig {
            name: "100B",
            n_layers: 90,
            hidden: 9600,
            ffn_hidden: 38400,
            n_heads: 75,
            vocab: 50257,
        }
    }

    /// All four evaluated models, smallest first.
    pub fn paper_models() -> [ModelConfig; 4] {
        [
            Self::gpt_7b(),
            Self::gpt_13b(),
            Self::gpt_30b(),
            Self::gpt_65b(),
        ]
    }

    /// A deliberately tiny configuration for unit tests and the convergence
    /// experiment substrate (not part of the paper's Table 2).
    pub const fn tiny(n_layers: usize, hidden: usize, n_heads: usize, vocab: usize) -> Self {
        ModelConfig {
            name: "tiny",
            n_layers,
            hidden,
            ffn_hidden: hidden * 4,
            n_heads,
            vocab,
        }
    }

    /// Parameters of one transformer layer: QKV + output projection
    /// (`4h²`), the two FFN matrices (`2·h·ffn`), plus biases and the two
    /// LayerNorm gains/biases.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        let attn = 4 * h * h + 4 * h; // qkv+proj weights and biases
        let ffn = 2 * h * f + f + h; // fc1, fc2 weights and biases
        let norms = 4 * h; // 2 LayerNorms, gain+bias each
        attn + ffn + norms
    }

    /// Total parameters `P`: embedding + layers + final LayerNorm +
    /// (untied) classifier.
    pub fn params(&self) -> u64 {
        let h = self.hidden as u64;
        let v = self.vocab as u64;
        let emb = v * h;
        let classifier = v * h;
        let final_norm = 2 * h;
        emb + classifier + final_norm + self.n_layers as u64 * self.params_per_layer()
    }

    /// Head dimension (`h / n_heads`).
    #[cfg(test)]
    fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_hyperparameters() {
        let m = ModelConfig::gpt_7b();
        assert_eq!(
            (m.n_layers, m.hidden, m.ffn_hidden, m.n_heads),
            (32, 4096, 16384, 32)
        );
        let m = ModelConfig::gpt_13b();
        assert_eq!(
            (m.n_layers, m.hidden, m.ffn_hidden, m.n_heads),
            (40, 5120, 20480, 40)
        );
        let m = ModelConfig::gpt_30b();
        assert_eq!(
            (m.n_layers, m.hidden, m.ffn_hidden, m.n_heads),
            (48, 7168, 28672, 56)
        );
        let m = ModelConfig::gpt_65b();
        assert_eq!(
            (m.n_layers, m.hidden, m.ffn_hidden, m.n_heads),
            (80, 8192, 32768, 64)
        );
    }

    #[test]
    fn parameter_counts_match_nominal_sizes() {
        // Each model's counted parameters should be within 10% of its name.
        let cases = [
            (ModelConfig::gpt_7b(), 7.0e9),
            (ModelConfig::gpt_13b(), 13.0e9),
            (ModelConfig::gpt_30b(), 30.0e9),
            (ModelConfig::gpt_65b(), 65.0e9),
            (ModelConfig::gpt_100b(), 100.0e9),
        ];
        for (m, nominal) in cases {
            let p = m.params() as f64;
            assert!(
                (p / nominal - 1.0).abs() < 0.10,
                "{}: counted {p:.3e}, nominal {nominal:.1e}",
                m.name
            );
        }
    }

    #[test]
    fn head_dim_divides() {
        for m in ModelConfig::paper_models() {
            assert_eq!(m.hidden % m.n_heads, 0);
            assert_eq!(m.head_dim() * m.n_heads, m.hidden);
        }
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::F32.size_bytes(), 4);
    }
}
