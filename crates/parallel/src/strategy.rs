//! Parallel configurations and their validity rules.

use memo_model::config::ModelConfig;

/// Which execution mode a run simulates: the three paper systems, the two
/// rematerialisation/granularity baselines, the N-tier extension, and the
/// ablation variants of Table 4. Every variant dispatches through the same
/// staged `ExecutionPipeline` in `memo-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemSpec {
    /// MEMO: Megatron-style parallelism + token-wise swap + memory plan.
    Memo,
    /// Megatron-LM + TransformerEngine: TP/SP/CP/PP, ZeRO-1, full
    /// recomputation, caching allocator.
    MegatronLM,
    /// Megatron-LM with rematerialisation disabled (keep-all activations).
    MegatronKeepAll,
    /// Megatron-DeepSpeed: Ulysses SP + ZeRO-3, full recomputation,
    /// caching allocator.
    DeepSpeed,
    /// Capuchin-style hybrid: swap-vs-recompute decided per whole tensor.
    TensorHybrid,
    /// Ablation: full recomputation with bi-level planned addresses.
    FullRecomputePlan,
    /// Ablation: α forced to 1 (swap everything, recompute nothing).
    FullSwapPlan,
    /// Ablation: MEMO with `n` rounding buffers instead of two.
    MemoBufferSlots(u8),
    /// MEMO over the calibration's full N-tier memory hierarchy, truncated
    /// to the first `depth` offload tiers (`0` = use the whole chain). The
    /// α program becomes the per-tier greedy waterfall; `MemoTiered(1)`
    /// reproduces [`SystemSpec::Memo`] bit-exactly, and `MemoTiered(2)` is
    /// MEMO with NVMe as a third storage tier: host overflow spills to
    /// NVMe at lower bandwidth (displayed as `MEMO+NVMe`).
    MemoTiered(u8),
    /// Per-layer mixed-policy search point: the first `k` layers swap
    /// token-wise, the last two stay retained in their rounding buffers,
    /// and everything between fully recomputes. `MemoMixed(k)` at
    /// `k ≥ layers_local − 2` reproduces [`SystemSpec::Memo`] bit-exactly;
    /// smaller `k` trades host-staging pressure for re-forward compute.
    MemoMixed(u8),
    /// MEMO with the memory plan computed over the *whole* iteration trace
    /// as one flat DSA instance (no bi-level decomposition), solved by the
    /// size-based dispatch policy: exact BnB below its tensor threshold,
    /// the boxing solver above it, best-fit as last resort. Opens the
    /// MegaTrain-class regime where traces carry far more tensors than the
    /// bi-level level-2 instance can absorb.
    MemoWholePlan,
    /// Inference/serving mode: a decode-phase workload (per-step KV append,
    /// continuous batching) managed by the named [`KvCachePolicy`]. Serving
    /// specs execute through `memo_core::serving`, not the training
    /// pipeline — the five training stages have no decode analogue.
    Serving(KvCachePolicy),
}

/// How a serving run manages the KV cache — the serving-side mirror of the
/// training contrast between the static plan and the caching allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvCachePolicy {
    /// Block-paged KV cache: fixed-size pages, per-sequence page tables,
    /// O(1) append/release (the vLLM-style fast path).
    Paged,
    /// PyTorch-style caching allocator with per-step KV realloc — the
    /// pre-paging baseline whose fragmentation caps concurrency the same
    /// way Figure 1(a) does for training.
    Caching,
    /// Paged KV plus the MEMO α mechanism applied to KV rows: an α
    /// fraction of every sequence's KV lives in host DRAM and streams
    /// back under the decode step's compute.
    TokenSwap,
    /// Paged KV plus MemGPT-style tiered paging: cold sequences' KV
    /// cascades down the calibration's N-tier memory hierarchy.
    Tiered,
}

impl KvCachePolicy {
    pub fn name(self) -> &'static str {
        match self {
            KvCachePolicy::Paged => "paged",
            KvCachePolicy::Caching => "caching",
            KvCachePolicy::TokenSwap => "kvswap",
            KvCachePolicy::Tiered => "tiered",
        }
    }

    /// Every serving policy, fastest-path first.
    pub const ALL: [KvCachePolicy; 4] = [
        KvCachePolicy::Paged,
        KvCachePolicy::Caching,
        KvCachePolicy::TokenSwap,
        KvCachePolicy::Tiered,
    ];
}

/// How the strategy search enumerates configurations for a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SearchFamily {
    /// TP × CP × PP × DP divisor grid (Megatron-style systems and MEMO).
    MegatronGrid,
    /// Ulysses SP × DP pairs (DeepSpeed).
    UlyssesGrid,
}

impl SystemSpec {
    /// The paper's three headline systems (Tables 3 and 5).
    pub const PAPER: [SystemSpec; 3] = [
        SystemSpec::DeepSpeed,
        SystemSpec::MegatronLM,
        SystemSpec::Memo,
    ];

    /// All six primary execution modes (systems + baselines + NVMe tier).
    pub const ALL_MODES: [SystemSpec; 6] = [
        SystemSpec::DeepSpeed,
        SystemSpec::MegatronLM,
        SystemSpec::MegatronKeepAll,
        SystemSpec::TensorHybrid,
        SystemSpec::Memo,
        SystemSpec::MemoTiered(2),
    ];

    /// The four serving modes (decode-phase KV-cache management).
    pub const SERVING: [SystemSpec; 4] = [
        SystemSpec::Serving(KvCachePolicy::Paged),
        SystemSpec::Serving(KvCachePolicy::Caching),
        SystemSpec::Serving(KvCachePolicy::TokenSwap),
        SystemSpec::Serving(KvCachePolicy::Tiered),
    ];

    pub fn name(self) -> &'static str {
        match self {
            SystemSpec::Memo => "MEMO",
            SystemSpec::MegatronLM => "Megatron-LM",
            SystemSpec::MegatronKeepAll => "Megatron-KA",
            SystemSpec::DeepSpeed => "DeepSpeed",
            SystemSpec::TensorHybrid => "TensorHybrid",
            SystemSpec::FullRecomputePlan => "Recompute+Plan",
            SystemSpec::FullSwapPlan => "FullSwap+Plan",
            SystemSpec::MemoBufferSlots(_) => "MEMO-slots",
            SystemSpec::MemoTiered(2) => "MEMO+NVMe",
            SystemSpec::MemoTiered(_) => "MEMO-tiered",
            SystemSpec::MemoMixed(_) => "MEMO-mixed",
            SystemSpec::MemoWholePlan => "MEMO-wholeplan",
            SystemSpec::Serving(KvCachePolicy::Paged) => "Serve-paged",
            SystemSpec::Serving(KvCachePolicy::Caching) => "Serve-caching",
            SystemSpec::Serving(KvCachePolicy::TokenSwap) => "Serve-kvswap",
            SystemSpec::Serving(KvCachePolicy::Tiered) => "Serve-tiered",
        }
    }

    /// Which strategy grid the search walks for this mode. Everything
    /// Megatron-shaped (including all MEMO variants) searches TP/CP/PP/DP;
    /// only DeepSpeed uses the Ulysses SP×DP space.
    pub(crate) fn family(self) -> SearchFamily {
        match self {
            SystemSpec::DeepSpeed => SearchFamily::UlyssesGrid,
            _ => SearchFamily::MegatronGrid,
        }
    }
}

/// A concrete parallelism assignment. World size is the product of all
/// degrees; unused dimensions stay at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Tensor parallel degree (Megatron/Memo).
    pub tp: usize,
    /// Context parallel degree (ring attention).
    pub cp: usize,
    /// Pipeline parallel degree.
    pub pp: usize,
    /// Data parallel degree.
    pub dp: usize,
    /// DeepSpeed-Ulysses sequence-parallel degree (1 when unused).
    pub ulysses: usize,
    /// Megatron-style sequence parallelism riding on TP (paper: always on).
    pub sp: bool,
    /// ZeRO stage (0–3) across the data-parallel group.
    pub zero_stage: u8,
}

impl ParallelConfig {
    /// Pure data parallelism.
    #[cfg(test)]
    pub(crate) fn dp_only(dp: usize) -> Self {
        ParallelConfig {
            tp: 1,
            cp: 1,
            pp: 1,
            dp,
            ulysses: 1,
            sp: false,
            zero_stage: 1,
        }
    }

    /// Megatron/Memo style TP×CP×PP×DP with SP and ZeRO-1 (the paper's
    /// fixed choices for both systems, Appendix A).
    pub fn megatron(tp: usize, cp: usize, pp: usize, dp: usize) -> Self {
        ParallelConfig {
            tp,
            cp,
            pp,
            dp,
            ulysses: 1,
            sp: true,
            zero_stage: 1,
        }
    }

    /// DeepSpeed-Ulysses SP×DP with ZeRO-3 (Appendix A, Table 5).
    pub fn ulysses(sp: usize, dp: usize) -> Self {
        ParallelConfig {
            tp: 1,
            cp: 1,
            pp: 1,
            dp,
            ulysses: sp,
            sp: false,
            zero_stage: 3,
        }
    }

    pub fn world(&self) -> usize {
        self.tp * self.cp * self.pp * self.dp * self.ulysses
    }

    /// The group over which ZeRO shards states. Context-parallel ranks
    /// replicate parameters and all-reduce gradients with the data-parallel
    /// group, so Megatron's distributed optimizer shards across DP×CP; for
    /// DeepSpeed the Ulysses group likewise behaves as data parallel for
    /// parameter sharding.
    pub(crate) fn zero_group(&self) -> usize {
        self.dp * self.cp * self.ulysses
    }

    /// Sequence shard this GPU stores activations for.
    /// With Megatron SP the TP group also splits the sequence.
    pub fn tokens_local(&self, s: u64) -> u64 {
        let mut div = self.cp * self.ulysses;
        if self.sp {
            div *= self.tp;
        }
        (s / div as u64).max(1)
    }

    /// Transformer layers resident on this GPU (pipeline sharding).
    pub fn layers_local(&self, n_layers: usize) -> usize {
        n_layers.div_ceil(self.pp)
    }

    /// Validity under the cluster and model constraints.
    pub fn validate(
        &self,
        model: &ModelConfig,
        n_gpus: usize,
        gpus_per_node: usize,
    ) -> Result<(), StrategyError> {
        if self.tp == 0 || self.cp == 0 || self.pp == 0 || self.dp == 0 || self.ulysses == 0 {
            return Err(StrategyError::ZeroDegree);
        }
        if self.world() != n_gpus {
            return Err(StrategyError::WorldMismatch {
                world: self.world(),
                n_gpus,
            });
        }
        // TP needs NVLink: must fit within one node.
        if self.tp > gpus_per_node {
            return Err(StrategyError::TpExceedsNode {
                tp: self.tp,
                gpus_per_node,
            });
        }
        // Attention heads must split across TP and Ulysses groups.
        let head_split = self.tp * self.ulysses;
        if !model.n_heads.is_multiple_of(head_split) {
            return Err(StrategyError::HeadsNotDivisible {
                heads: model.n_heads,
                split: head_split,
            });
        }
        // Pipeline stages need at least one layer each.
        if self.pp > model.n_layers {
            return Err(StrategyError::TooManyStages {
                pp: self.pp,
                layers: model.n_layers,
            });
        }
        if self.zero_stage > 3 {
            return Err(StrategyError::BadZeroStage(self.zero_stage));
        }
        Ok(())
    }

    /// Human-readable strategy string, e.g. `TP4·CP2·DP1` or `SP8·DP4·Z3`.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let z = usize::from(self.zero_stage);
        let parts = [
            ("SP", self.ulysses, self.ulysses > 1),
            ("TP", self.tp, self.tp > 1),
            ("CP", self.cp, self.cp > 1),
            ("PP", self.pp, self.pp > 1),
            ("DP", self.dp, true),
            ("Z", z, z > 0),
        ];
        // One string, written in place, single digits without the
        // formatter: every successful cell of a search or grid row
        // describes its strategy.
        let mut out = String::with_capacity(24);
        for (tag, degree, shown) in parts {
            if !shown {
                continue;
            }
            if !out.is_empty() {
                out.push('·');
            }
            out.push_str(tag);
            if degree < 10 {
                out.push(char::from(b'0' + degree as u8));
            } else {
                let _ = write!(out, "{degree}");
            }
        }
        out
    }
}

/// Why a configuration is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyError {
    ZeroDegree,
    WorldMismatch { world: usize, n_gpus: usize },
    TpExceedsNode { tp: usize, gpus_per_node: usize },
    HeadsNotDivisible { heads: usize, split: usize },
    TooManyStages { pp: usize, layers: usize },
    BadZeroStage(u8),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::ZeroDegree => write!(f, "parallel degree of zero"),
            StrategyError::WorldMismatch { world, n_gpus } => {
                write!(f, "degrees multiply to {world}, cluster has {n_gpus} GPUs")
            }
            StrategyError::TpExceedsNode { tp, gpus_per_node } => {
                write!(f, "TP {tp} exceeds node size {gpus_per_node}")
            }
            StrategyError::HeadsNotDivisible { heads, split } => {
                write!(
                    f,
                    "{heads} attention heads not divisible by head split {split}"
                )
            }
            StrategyError::TooManyStages { pp, layers } => {
                write!(f, "{pp} pipeline stages for {layers} layers")
            }
            StrategyError::BadZeroStage(s) => write!(f, "ZeRO stage {s} undefined"),
        }
    }
}

impl std::error::Error for StrategyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_products() {
        let c = ParallelConfig::megatron(4, 2, 1, 1);
        assert_eq!(c.world(), 8);
        let c = ParallelConfig::ulysses(8, 4);
        assert_eq!(c.world(), 32);
        assert_eq!(c.zero_group(), 32);
    }

    #[test]
    fn tokens_local_with_sp() {
        let c = ParallelConfig::megatron(4, 2, 1, 1);
        assert_eq!(c.tokens_local(1 << 20), (1 << 20) / 8);
        let mut c2 = c;
        c2.sp = false;
        assert_eq!(c2.tokens_local(1 << 20), (1 << 20) / 2);
        let u = ParallelConfig::ulysses(8, 1);
        assert_eq!(u.tokens_local(1 << 20), (1 << 20) / 8);
    }

    #[test]
    fn validation_catches_paper_constraints() {
        let m7 = ModelConfig::gpt_7b(); // 32 heads
                                        // valid Memo config from Table 7 (8 GPUs, 256K): TP4 CP2
        ParallelConfig::megatron(4, 2, 1, 1)
            .validate(&m7, 8, 8)
            .unwrap();
        // Ulysses SP cannot exceed head divisibility: 13B has 40 heads, SP 16
        // does not divide -> invalid (why DeepSpeed tops out at SP 8, §5.2).
        let m13 = ModelConfig::gpt_13b();
        let err = ParallelConfig::ulysses(16, 1)
            .validate(&m13, 16, 8)
            .unwrap_err();
        assert!(matches!(err, StrategyError::HeadsNotDivisible { .. }));
        // TP must fit in a node.
        let err = ParallelConfig::megatron(16, 1, 1, 1)
            .validate(&m7, 16, 8)
            .unwrap_err();
        assert!(matches!(err, StrategyError::TpExceedsNode { .. }));
        // world mismatch
        let err = ParallelConfig::megatron(4, 2, 1, 1)
            .validate(&m7, 16, 8)
            .unwrap_err();
        assert!(matches!(err, StrategyError::WorldMismatch { .. }));
    }

    #[test]
    fn describe_is_compact() {
        assert_eq!(
            ParallelConfig::megatron(4, 2, 1, 1).describe(),
            "TP4·CP2·DP1·Z1"
        );
        assert_eq!(ParallelConfig::ulysses(8, 2).describe(), "SP8·DP2·Z3");
        assert_eq!(ParallelConfig::dp_only(16).describe(), "DP16·Z1");
    }

    #[test]
    fn layers_local_rounds_up() {
        let c = ParallelConfig::megatron(1, 1, 3, 1);
        assert_eq!(c.layers_local(32), 11);
    }
}
