//! The job profiler (§4.3.2, Figure 10).
//!
//! Before training, MEMO profiles one iteration to learn (a) the memory
//! request sequence and (b) the quantities feeding the α program: skeletal
//! tensor sizes and the forward time of a single transformer layer. Because
//! all transformer layers are identical, profiling one layer suffices — the
//! trick that lets the real system profile under CUDA Unified Memory without
//! OOM; our simulated profiler gets the same information from the trace
//! generator and the calibrated cost model, and never runs out of memory,
//! so the Unified-Memory fallback is not modelled.
//!
//! The request sequence is the input of the memory plan (§4.2) and of the
//! caching-allocator replay, and nothing else reads it: the strategy
//! search screens a config on its liveness peak alone. So [`profile`]
//! streams that peak ([`trace::peak_live_bytes`]) and leaves the sequence
//! to a [`LazyTrace`], built the first time a plan or a replay reads it.

use crate::session::Workload;
use memo_model::activations::{self, LayerDims, SkeletalSplit};
use memo_model::config::DType;
use memo_model::trace::{self, IterationTrace, RematPolicy, TraceParams};
use memo_parallel::comm;
use memo_parallel::cost::{self, LayerTime};
use memo_parallel::memory::{self, ModelStateBytes};
use memo_parallel::strategy::ParallelConfig;
use memo_swap::alpha::{solve_alpha, AlphaInputs, AlphaSolution};
use std::ops::Deref;
use std::sync::OnceLock;

/// The per-GPU memory request trace of one iteration, generated from its
/// parameters the first time it is dereferenced and kept from then on.
/// Two lazy traces are equal when the traces they build are.
#[derive(Debug, Clone)]
pub struct LazyTrace {
    params: TraceParams,
    trace: OnceLock<IterationTrace>,
}

impl LazyTrace {
    /// The trace, by value.
    pub fn into_inner(self) -> IterationTrace {
        let params = self.params;
        self.trace.into_inner().unwrap_or_else(|| build(&params))
    }

    /// Whether the trace has been built.
    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.trace.get().is_some()
    }
}

impl Deref for LazyTrace {
    type Target = IterationTrace;

    fn deref(&self) -> &IterationTrace {
        self.trace.get_or_init(|| build(&self.params))
    }
}

impl PartialEq for LazyTrace {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A [`LazyTrace`]'s initialiser: the only place a profile's trace is
/// generated.
fn build(params: &TraceParams) -> IterationTrace {
    let built = trace::generate(params);
    debug_assert!(built.validate().is_ok());
    debug_assert_eq!(built.peak_live_bytes(), trace::peak_live_bytes(params));
    built
}

/// Everything the planner and executor need about one workload+strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The per-GPU memory request trace of one iteration, built on first
    /// use: only the memory plan and the allocator replay read it.
    pub trace: LazyTrace,
    /// The trace's liveness peak ([`IterationTrace::peak_live_bytes`]),
    /// streamed without building the trace.
    pub peak_live_bytes: u64,
    /// Per-layer time decomposition.
    pub layer_time: LayerTime,
    /// Per-layer skeletal byte split (per GPU).
    pub split: SkeletalSplit,
    /// The solved α program.
    pub alpha: AlphaSolution,
    /// Head (classifier + loss) seconds per iteration, fwd+bwd.
    pub head_secs: f64,
    /// Optimizer step seconds.
    pub optimizer_secs: f64,
    /// Exposed gradient-synchronisation seconds.
    pub grad_sync_secs: f64,
    /// Transformer layers resident on this GPU (pipeline sharding).
    pub layers_local: usize,
    /// Per-GPU activation dimensions.
    pub dims: LayerDims,
    /// Per-GPU model-state bytes.
    pub model_states: ModelStateBytes,
}

/// Profile a workload under a strategy and rematerialisation policy.
///
/// `materialize_logits` models an unfused fp32 loss (DeepSpeed baseline).
pub fn profile(
    w: &Workload,
    cfg: &ParallelConfig,
    policy: RematPolicy,
    materialize_logits: bool,
) -> ProfileReport {
    let layers_local = cfg.layers_local(w.model.n_layers);

    // Per-GPU trace: this GPU hosts `layers_local` transformer layers.
    let tokens_local = cfg.tokens_local(w.seq_len) * w.batch;
    let dims = LayerDims::new(tokens_local, &w.model, DType::BF16);
    let mut local_model = w.model.clone();
    local_model.n_layers = layers_local;
    let mut params = TraceParams::new(&local_model, dims, policy);
    params.vocab_local = (w.model.vocab as u64).div_ceil(cfg.tp as u64);
    params.comm_factor = if cfg.sp { cfg.tp as u64 } else { 1 };
    params.ce_chunk_tokens = 8192;
    params.materialize_logits = materialize_logits;
    let peak_live_bytes = trace::peak_live_bytes(&params);

    let layer_time = cost::layer_time(&w.model, cfg, w.seq_len * w.batch, &w.calib);
    let split = activations::skeletal_split(&dims);

    let alpha = solve_alpha(&AlphaInputs {
        s_input: split.s_input,
        s_attn: split.s_attn,
        s_others: split.s_others,
        bandwidth: w.calib.effective_pcie(),
        t_layer_fwd: layer_time.fwd(),
        n_layers: layers_local,
        host_capacity: w.calib.host_capacity_per_gpu(),
    });

    ProfileReport {
        trace: LazyTrace {
            params,
            trace: OnceLock::new(),
        },
        peak_live_bytes,
        layer_time,
        split,
        alpha,
        head_secs: cost::head_seconds(&w.model, cfg, w.seq_len * w.batch, &w.calib),
        optimizer_secs: cost::optimizer_seconds(&w.model, cfg, &w.calib),
        grad_sync_secs: comm::grad_sync_seconds(&w.model, cfg, &w.calib),
        layers_local,
        dims,
        model_states: memory::model_state_bytes(&w.model, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ExecutionPipeline;
    use memo_model::config::ModelConfig;
    use memo_parallel::search;
    use memo_parallel::strategy::{ParallelConfig, SystemSpec};
    use memo_swap::alpha::BindingConstraint;

    #[test]
    fn profile_produces_consistent_dims() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 512 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let p = profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        assert_eq!(p.dims.tokens_local, 512 * 1024 / 8);
        assert_eq!(p.layers_local, 32);
        assert_eq!(p.split.total(), 16 * p.dims.bsh_bytes());
        p.trace.validate().unwrap();
    }

    #[test]
    fn streamed_peak_is_the_built_traces_peak() {
        // Every config the six modes enumerate at 7B on 8 GPUs, each under
        // its mode's remat policy and logits: every pair the modes use.
        for seq_len in [256 << 10, 1 << 20] {
            let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_len);
            let gpn = w.calib.gpus_per_node.min(w.n_gpus);
            for spec in SystemSpec::ALL_MODES {
                let pipeline = ExecutionPipeline::new(spec);
                for cfg in search::enumerate_configs(spec, &w.model, w.n_gpus, gpn) {
                    let p = pipeline.profile(&w, &cfg, false);
                    assert!(!p.trace.is_built(), "profiling built the trace");
                    assert_eq!(
                        p.peak_live_bytes,
                        p.trace.peak_live_bytes(),
                        "{spec:?} {} at {seq_len} tokens",
                        cfg.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_grows_with_sequence_length() {
        // Longer sequences give more overlap headroom (Observation 1).
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut prev = -1.0;
        for s in [64, 128, 256, 384] {
            let w = Workload::new(ModelConfig::gpt_7b(), 8, s * 1024);
            let p = profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
            assert!(
                p.alpha.alpha >= prev,
                "alpha must be monotone over s (s={s}K: {} < {prev})",
                p.alpha.alpha
            );
            prev = p.alpha.alpha;
        }
    }

    #[test]
    fn alpha_host_bound_for_long_sequences() {
        // At 1M on 8 GPUs the host constraint caps α below 1 (the paper's
        // Table 7 pushes α to 0 at the longest lengths).
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 1 << 20);
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let p = profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        assert!(p.alpha.alpha < 1.0);
        assert_eq!(p.alpha.binding, BindingConstraint::HostMemory);
    }

    #[test]
    fn pipeline_shards_layers() {
        let w = Workload::new(ModelConfig::gpt_13b(), 16, 128 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 2, 1);
        let p = profile(&w, &cfg, RematPolicy::FullRecompute, false);
        assert_eq!(p.layers_local, 20);
    }

    #[test]
    fn costs_are_positive() {
        let w = Workload::new(ModelConfig::gpt_30b(), 32, 256 * 1024);
        let cfg = ParallelConfig::megatron(8, 2, 1, 2);
        let p = profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        assert!(p.head_secs > 0.0);
        assert!(p.optimizer_secs > 0.0);
        assert!(p.grad_sync_secs > 0.0);
        assert!(p.layer_time.fwd() > 0.0);
    }
}
