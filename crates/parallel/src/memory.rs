//! Per-GPU memory accounting of *model states* (§2.3, ZeRO):
//! fp16 parameters, fp16 gradients, and fp32 Adam states (master weights,
//! momentum, variance = 12 bytes/param), sharded per the configuration.

use crate::strategy::ParallelConfig;
use memo_model::config::ModelConfig;

/// Breakdown of model-state bytes on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStateBytes {
    params: u64,
    grads: u64,
    optimizer: u64,
}

impl ModelStateBytes {
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer
    }
}

/// Compute the per-GPU model-state footprint.
///
/// * TP and PP shard the parameter tensor itself.
/// * ZeRO-1 shards optimizer states over the (DP×Ulysses) group;
/// * ZeRO-2 additionally shards gradients;
/// * ZeRO-3 additionally shards parameters (gathered transiently per layer —
///   the transient gather buffer is charged to activations, not here).
pub fn model_state_bytes(model: &ModelConfig, cfg: &ParallelConfig) -> ModelStateBytes {
    let p = model.params();
    let shard = (cfg.tp * cfg.pp) as u64;
    let p_local = p.div_ceil(shard);
    let zg = cfg.zero_group() as u64;

    let params = if cfg.zero_stage >= 3 {
        2 * p_local.div_ceil(zg)
    } else {
        2 * p_local
    };
    let grads = if cfg.zero_stage >= 2 {
        2 * p_local.div_ceil(zg)
    } else {
        2 * p_local
    };
    let optimizer = if cfg.zero_stage >= 1 {
        12 * p_local.div_ceil(zg)
    } else {
        12 * p_local
    };
    ModelStateBytes {
        params,
        grads,
        optimizer,
    }
}

/// Per-GPU fp16 parameter bytes (allocated at model build, outside the
/// caching allocator's activation pool).
pub fn params_bytes(model: &ModelConfig, cfg: &ParallelConfig) -> u64 {
    let p_local = model.params().div_ceil((cfg.tp * cfg.pp) as u64);
    if cfg.zero_stage >= 3 {
        2 * p_local.div_ceil(cfg.zero_group() as u64)
    } else {
        2 * p_local
    }
}

/// The *persistent* tensors PyTorch lazily allocates through the caching
/// allocator during the first optimizer step: fp16 gradient buffers plus
/// fp32 master weights / Adam moments (sharded per ZeRO). Returned as
/// individual per-layer tensors because that is how they land — scattered
/// into whatever cached blocks are free after the first backward pass, which
/// is the root cause of the reserved-vs-allocated gap of Figure 1(a).
pub fn persistent_tensor_sizes(model: &ModelConfig, cfg: &ParallelConfig) -> Vec<u64> {
    let (layer, layers, head) = persistent_groups(model, cfg);
    let mut out = Vec::with_capacity(layers * 4 + 4);
    for _ in 0..layers {
        out.extend(layer);
    }
    out.extend(head);
    out
}

/// The sum of [`persistent_tensor_sizes`], in `u128` so that no sum
/// wraps, without listing the tensors.
pub fn persistent_tensor_bytes(model: &ModelConfig, cfg: &ParallelConfig) -> u128 {
    let (layer, layers, head) = persistent_groups(model, cfg);
    let sum = |group: [u64; 4]| group.into_iter().map(u128::from).sum::<u128>();
    sum(layer) * layers as u128 + sum(head)
}

/// The persistent tensors of one transformer layer, the number of layers
/// on this pipeline stage, and the embedding + classifier tensors. Each
/// group is the fp16 gradient, then the fp32 master weights, `exp_avg` and
/// `exp_avg_sq` as three tensors, the way Adam allocates them.
fn persistent_groups(model: &ModelConfig, cfg: &ParallelConfig) -> ([u64; 4], usize, [u64; 4]) {
    let zg = cfg.zero_group() as u64;
    let group = |p: u64| {
        // fp16 grads, sharded from ZeRO-2 up
        let g = if cfg.zero_stage >= 2 {
            2 * p.div_ceil(zg)
        } else {
            2 * p
        };
        // fp32 master + exp_avg + exp_avg_sq, sharded from ZeRO-1 up.
        let o = if cfg.zero_stage >= 1 {
            12 * p.div_ceil(zg)
        } else {
            12 * p
        };
        [g, o / 3, o / 3, o - 2 * (o / 3)]
    };
    let layer_p = model.params_per_layer().div_ceil((cfg.tp) as u64);
    // Embedding/classifier states sit on the first/last pipeline stages;
    // charge the per-stage average.
    let head_p = (2 * model.vocab as u64 * model.hidden as u64).div_ceil((cfg.tp * cfg.pp) as u64);
    let layers = model.n_layers.div_ceil(cfg.pp);
    (group(layer_p), layers, group(head_p))
}

/// Bytes of the largest transiently-gathered parameter group under ZeRO-3
/// (one transformer layer's fp16 weights, gathered for compute then
/// released). Zero for other stages.
pub fn zero3_gather_bytes(model: &ModelConfig, cfg: &ParallelConfig) -> u64 {
    if cfg.zero_stage >= 3 {
        2 * model.params_per_layer()
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ParallelConfig;

    #[test]
    fn unsharded_is_16_bytes_per_param() {
        let m = ModelConfig::gpt_7b();
        let mut cfg = ParallelConfig::dp_only(1);
        cfg.zero_stage = 0;
        let ms = model_state_bytes(&m, &cfg);
        assert_eq!(ms.total(), 16 * m.params());
    }

    #[test]
    fn zero_stages_shard_progressively() {
        let m = ModelConfig::gpt_7b();
        let make = |stage| {
            let mut c = ParallelConfig::dp_only(8);
            c.zero_stage = stage;
            model_state_bytes(&m, &c).total()
        };
        let z0 = make(0);
        let z1 = make(1);
        let z2 = make(2);
        let z3 = make(3);
        assert!(z0 > z1 && z1 > z2 && z2 > z3);
        // ZeRO-3 over 8 GPUs: everything /8.
        assert_eq!(z3, 16 * m.params().div_ceil(8));
    }

    #[test]
    fn tp_shards_all_three_components() {
        let m = ModelConfig::gpt_13b();
        let c4 = ParallelConfig::megatron(4, 1, 1, 2);
        let c8 = ParallelConfig::megatron(8, 1, 1, 1);
        let a = model_state_bytes(&m, &c4);
        let b = model_state_bytes(&m, &c8);
        assert!(b.params < a.params);
        assert!(b.total() < a.total());
    }

    #[test]
    fn zero1_matches_megatron_distributed_optimizer() {
        // Megatron + ZeRO-1 on TP4·DP2: params+grads 4P/tp, optim 12P/(tp·dp)
        let m = ModelConfig::gpt_7b();
        let c = ParallelConfig::megatron(4, 1, 1, 2);
        let ms = model_state_bytes(&m, &c);
        let p_local = m.params().div_ceil(4);
        assert_eq!(ms.params, 2 * p_local);
        assert_eq!(ms.grads, 2 * p_local);
        assert_eq!(ms.optimizer, 12 * p_local.div_ceil(2));
    }

    #[test]
    fn persistent_tensors_sum_to_state_totals() {
        // grads + optimizer from the breakdown must equal the lazy tensors.
        let m = ModelConfig::gpt_7b();
        for cfg in [
            ParallelConfig::megatron(4, 2, 1, 1),
            ParallelConfig::ulysses(8, 1),
            ParallelConfig::megatron(2, 1, 2, 2),
        ] {
            let ms = model_state_bytes(&m, &cfg);
            let lazy: u64 = persistent_tensor_sizes(&m, &cfg).iter().sum();
            assert_eq!(persistent_tensor_bytes(&m, &cfg), u128::from(lazy));
            let expect = ms.grads + ms.optimizer;
            let ratio = lazy as f64 / expect as f64;
            assert!(
                (0.95..1.05).contains(&ratio),
                "{}: lazy {lazy} vs states {expect}",
                cfg.describe()
            );
        }
    }

    #[test]
    fn params_bytes_matches_breakdown() {
        let m = ModelConfig::gpt_13b();
        let cfg = ParallelConfig::megatron(8, 1, 1, 2);
        assert_eq!(params_bytes(&m, &cfg), model_state_bytes(&m, &cfg).params);
        let u = ParallelConfig::ulysses(8, 2);
        assert_eq!(params_bytes(&m, &u), model_state_bytes(&m, &u).params);
    }

    #[test]
    fn gather_buffer_only_for_zero3() {
        let m = ModelConfig::gpt_7b();
        assert_eq!(
            zero3_gather_bytes(&m, &ParallelConfig::megatron(4, 2, 1, 1)),
            0
        );
        let u = ParallelConfig::ulysses(8, 1);
        assert_eq!(zero3_gather_bytes(&m, &u), 2 * m.params_per_layer());
    }
}
