//! The paper's reported numbers (Table 3 MFU, Table 4 MFU), embedded for
//! side-by-side comparison in the regeneration binaries and EXPERIMENTS.md.
//!
//! `None` in the MFU position encodes a reported failure; `kind` says which
//! (`"oom"` GPU, `"oohm"` host).

/// One Table 3 row group: one model's MFU (%) at each of [`SEQ_K`] for
/// DeepSpeed, Megatron-LM and MEMO.
pub struct Table3Group {
    pub model: &'static str,
    pub deepspeed: &'static [Option<f64>],
    pub megatron: &'static [Option<f64>],
    pub memo: &'static [Option<f64>],
}

pub const SEQ_K: [u64; 12] = [
    64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408,
];

/// Table 3 as printed in the paper (MFU %, `None` = X_oom / X_oohm).
pub const TABLE3: [Table3Group; 4] = [
    // 7B on 8 GPUs
    Table3Group {
        model: "7B",
        deepspeed: &[
            Some(27.95),
            Some(25.46),
            Some(23.38),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        megatron: &[
            Some(41.55),
            Some(24.13),
            Some(29.07),
            Some(27.98),
            Some(34.43),
            Some(30.90),
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        memo: &[
            Some(52.34),
            Some(50.96),
            Some(53.62),
            Some(53.04),
            Some(51.84),
            Some(52.59),
            Some(51.89),
            Some(52.71),
            Some(52.30),
            None,
            None,
            None,
        ],
    },
    // 13B on 16 GPUs
    Table3Group {
        model: "13B",
        deepspeed: &[
            Some(27.97),
            Some(25.45),
            Some(21.98),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        megatron: &[
            Some(38.51),
            Some(23.02),
            Some(25.30),
            Some(22.88),
            Some(29.10),
            Some(19.41),
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        memo: &[
            Some(52.65),
            Some(50.93),
            Some(51.22),
            Some(51.91),
            Some(52.40),
            Some(52.13),
            Some(51.71),
            Some(51.76),
            Some(52.06),
            Some(51.74),
            Some(51.78),
            Some(52.10),
        ],
    },
    // 30B on 32 GPUs
    Table3Group {
        model: "30B",
        deepspeed: &[
            Some(29.93),
            Some(25.54),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        megatron: &[
            Some(35.76),
            Some(14.70),
            Some(17.15),
            Some(23.32),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        memo: &[
            Some(52.12),
            Some(49.66),
            Some(50.00),
            Some(50.69),
            Some(51.06),
            Some(51.72),
            Some(51.18),
            Some(51.50),
            Some(51.24),
            Some(51.73),
            Some(51.59),
            None,
        ],
    },
    // 65B on 64 GPUs
    Table3Group {
        model: "65B",
        deepspeed: &[
            Some(31.05),
            Some(26.13),
            Some(22.07),
            Some(20.40),
            Some(19.83),
            Some(19.06),
            Some(19.53),
            Some(19.12),
            Some(19.00),
            Some(19.11),
            Some(18.90),
            None,
        ],
        megatron: &[
            Some(22.79),
            Some(15.10),
            Some(9.57),
            Some(12.07),
            Some(5.32),
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        ],
        memo: &[
            Some(47.80),
            Some(48.61),
            Some(49.87),
            Some(48.85),
            Some(49.71),
            Some(50.05),
            Some(51.16),
            Some(51.05),
            Some(51.27),
            Some(51.20),
            Some(51.42),
            Some(51.45),
        ],
    },
];

/// Table 4 (ablation, 7B on 8 GPUs at TP4·CP2), MFU % at [`TABLE4_SEQ_K`].
pub struct Table4Row {
    pub mfu: &'static [Option<f64>],
}

pub const TABLE4_SEQ_K: [u64; 8] = [64, 128, 256, 384, 512, 640, 768, 896];

pub const TABLE4: [Table4Row; 4] = [
    // Full Recomputation
    Table4Row {
        mfu: &[
            Some(41.19),
            Some(23.00),
            Some(29.07),
            Some(25.67),
            None,
            None,
            None,
            None,
        ],
    },
    // Full Recomputation + Memory Plan
    Table4Row {
        mfu: &[
            Some(42.91),
            Some(43.17),
            Some(42.05),
            Some(42.49),
            Some(41.90),
            Some(42.15),
            None,
            None,
        ],
    },
    // Full Swapping + Memory Plan
    Table4Row {
        mfu: &[
            Some(37.40),
            Some(46.33),
            Some(53.62),
            None,
            None,
            None,
            None,
            None,
        ],
    },
    // MEMO
    Table4Row {
        mfu: &[
            Some(47.99),
            Some(50.96),
            Some(53.62),
            Some(53.04),
            Some(51.84),
            Some(52.59),
            Some(51.89),
            Some(52.71),
        ],
    },
];

/// Figure 12(a): longest supported sequence (K tokens) per #GPUs for the 7B
/// model, per the paper.
pub const FIG12A: [(usize, u64, u64, u64); 4] = [
    // (n_gpus, deepspeed, megatron, memo)
    (8, 256, 640, 1024),
    (16, 512, 1024, 2048),
    (32, 1536, 1536, 4096),
    (64, 1536, 2048, 8192),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shapes_consistent() {
        for g in &TABLE3 {
            assert_eq!(SEQ_K.len(), 12);
            assert_eq!(g.deepspeed.len(), 12);
            assert_eq!(g.megatron.len(), 12);
            assert_eq!(g.memo.len(), 12);
        }
    }

    #[test]
    fn paper_averages_match_headline() {
        // §5.2: MEMO averages 51.33% MFU; ratios 2.42× vs Megatron and
        // 2.26× vs DeepSpeed (averaged per the paper's aggregation).
        let mut memo_sum = 0.0;
        let mut memo_n = 0.0;
        for g in &TABLE3 {
            for v in g.memo.iter().flatten() {
                memo_sum += v;
                memo_n += 1.0;
            }
        }
        let memo_avg = memo_sum / memo_n;
        assert!((memo_avg - 51.33).abs() < 0.2, "MEMO avg {memo_avg}");
    }
}
