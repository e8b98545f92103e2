//! Per-layer communication volumes and exposed (non-overlapped) time.
//!
//! Only order-of-magnitude fidelity is needed: the paper's point is that
//! high model-parallel degrees force heavy collectives that depress MFU.
//! Volumes follow the standard formulas; each mechanism gets an overlap
//! factor (how much hides under compute) from [`Calibration`].

use crate::strategy::ParallelConfig;
use memo_hal::calib::Calibration;
use memo_model::config::ModelConfig;

/// Seconds of *exposed* communication per transformer layer (forward), by
/// mechanism. Backward is charged at the same volume again.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LayerComm {
    tp_sp: f64,
    cp_ring: f64,
    ulysses_a2a: f64,
    pub(crate) zero3_gather: f64,
}

impl LayerComm {
    pub(crate) fn total(&self) -> f64 {
        self.tp_sp + self.cp_ring + self.ulysses_a2a + self.zero3_gather
    }
}

/// Ring-collective volume per GPU for a logical tensor of `bytes`.
fn ring_volume(bytes: f64, group: usize) -> f64 {
    if group <= 1 {
        0.0
    } else {
        bytes * (group as f64 - 1.0) / group as f64
    }
}

/// Pick the bandwidth class of a group of `degree` ranks: NVLink while the
/// group fits in a node, IB once it spans nodes.
fn group_bandwidth(degree: usize, intra_node_budget: usize, calib: &Calibration) -> f64 {
    if degree <= intra_node_budget {
        calib.effective_nvlink()
    } else {
        calib.effective_ib_per_gpu()
    }
}

/// Exposed communication seconds for one layer's **forward** pass.
pub(crate) fn layer_comm(
    model: &ModelConfig,
    cfg: &ParallelConfig,
    s: u64,
    calib: &Calibration,
) -> LayerComm {
    let h = model.hidden as f64;
    let exposed = 1.0 - calib.comm_overlap_fraction;
    let mut out = LayerComm::default();

    // --- TP + SP: 2 all-gathers + 2 reduce-scatters over (s/cp)·h fp16.
    if cfg.tp > 1 {
        let bytes = (s as f64 / cfg.cp as f64) * h * 2.0;
        let bw = calib.effective_nvlink(); // TP is intra-node by validation
        let vol = 4.0 * ring_volume(bytes, cfg.tp);
        out.tp_sp = vol / bw * exposed;
    }

    // --- CP ring attention: (cp-1) rounds of K,V block exchange; blocks are
    // (s/cp)·(h/tp) fp16 each. Megatron overlaps these aggressively.
    if cfg.cp > 1 {
        let block = (s as f64 / cfg.cp as f64) * (h / cfg.tp as f64) * 2.0;
        let vol = 2.0 * block * (cfg.cp as f64 - 1.0);
        let intra_budget = calib.gpus_per_node / cfg.tp.min(calib.gpus_per_node).max(1);
        let bw = group_bandwidth(cfg.cp, intra_budget.max(1), calib);
        // Ring attention overlaps better than generic collectives.
        out.cp_ring = vol / bw * exposed * 0.5;
    }

    // --- Ulysses: 4 all-to-alls (q, k, v, out), each ~ (s/sp)·h fp16 per GPU.
    if cfg.ulysses > 1 {
        let bytes = (s as f64 / cfg.ulysses as f64) * h * 2.0;
        let vol = 4.0 * ring_volume(bytes, cfg.ulysses);
        let bw = group_bandwidth(cfg.ulysses, calib.gpus_per_node, calib);
        out.ulysses_a2a = vol / bw * exposed;
    }

    // --- ZeRO-3: gather one layer's fp16 params before compute.
    if cfg.zero_stage >= 3 {
        let bytes = 2.0 * model.params_per_layer() as f64;
        let vol = ring_volume(bytes, cfg.zero_group());
        let bw = group_bandwidth(cfg.zero_group(), calib.gpus_per_node, calib);
        out.zero3_gather = vol / bw * exposed;
    }

    out
}

/// Exposed seconds of the end-of-iteration gradient synchronisation
/// (reduce-scatter/all-reduce over the DP group), for the whole model shard.
pub fn grad_sync_seconds(model: &ModelConfig, cfg: &ParallelConfig, calib: &Calibration) -> f64 {
    let group = cfg.zero_group();
    if group <= 1 {
        return 0.0;
    }
    let local_params = model.params() as f64 / (cfg.tp * cfg.pp) as f64;
    let bytes = 2.0 * local_params;
    let bw = group_bandwidth(group, calib.gpus_per_node, calib);
    // Gradient sync overlaps with backward compute to a large degree.
    ring_volume(bytes, group) / bw * (1.0 - calib.comm_overlap_fraction) * 0.5
}

/// Pipeline bubble multiplier with `m` micro-batches: iteration time scales
/// by `1 + (pp − 1)/m` (GPipe-style schedule). Long-context training runs
/// few micro-batches, so PP is expensive — visible in the paper's Megatron
/// 13B/384K and 65B/256K cells.
pub fn pipeline_bubble_factor(pp: usize, micro_batches: usize) -> f64 {
    interleaved_bubble_factor(pp, micro_batches, 1)
}

/// Bubble multiplier with `v` interleaved virtual stages per device
/// (Megatron's interleaved 1F1B): `1 + (pp − 1)/(v·m)`. Interleaving trades
/// `v×` more pipeline communication for a `v×` smaller bubble — but with
/// `m = 1` (the long-context regime) even `v = 4` leaves a large bubble,
/// which is why Tables 6–7 avoid PP altogether.
fn interleaved_bubble_factor(pp: usize, micro_batches: usize, v: usize) -> f64 {
    1.0 + (pp.saturating_sub(1)) as f64 / (micro_batches.max(1) * v.max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ParallelConfig;

    fn calib() -> Calibration {
        Calibration::default()
    }

    #[test]
    fn no_parallelism_no_comm() {
        let m = ModelConfig::gpt_7b();
        let mut cfg = ParallelConfig::dp_only(1);
        cfg.zero_stage = 0;
        let c = layer_comm(&m, &cfg, 1 << 17, &calib());
        assert_eq!(c.total(), 0.0);
        assert_eq!(grad_sync_seconds(&m, &cfg, &calib()), 0.0);
    }

    #[test]
    fn tp_comm_grows_with_sequence() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let a = layer_comm(&m, &cfg, 1 << 16, &calib()).tp_sp;
        let b = layer_comm(&m, &cfg, 1 << 18, &calib()).tp_sp;
        assert!(b > 3.9 * a && b < 4.1 * a, "TP comm must scale ~linearly");
    }

    #[test]
    fn ulysses_cross_node_is_slower_than_intra() {
        let m = ModelConfig::gpt_65b(); // 64 heads allows SP 64
        let intra = ParallelConfig::ulysses(8, 1);
        let cross = ParallelConfig::ulysses(64, 1);
        let a = layer_comm(&m, &intra, 1 << 20, &calib()).ulysses_a2a;
        let b = layer_comm(&m, &cross, 1 << 20, &calib()).ulysses_a2a;
        assert!(b > a, "cross-node all-to-all must be more expensive");
    }

    #[test]
    fn zero3_gather_independent_of_sequence() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::ulysses(8, 1);
        let a = layer_comm(&m, &cfg, 1 << 14, &calib()).zero3_gather;
        let b = layer_comm(&m, &cfg, 1 << 20, &calib()).zero3_gather;
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn bubble_factor() {
        assert_eq!(pipeline_bubble_factor(1, 1), 1.0);
        assert_eq!(pipeline_bubble_factor(2, 1), 2.0);
        assert_eq!(pipeline_bubble_factor(4, 3), 2.0);
    }

    #[test]
    fn interleaving_shrinks_bubble() {
        assert_eq!(interleaved_bubble_factor(4, 1, 1), 4.0);
        assert_eq!(interleaved_bubble_factor(4, 1, 3), 2.0);
        assert!(interleaved_bubble_factor(8, 1, 4) > 1.8); // still painful at m=1
        assert_eq!(interleaved_bubble_factor(4, 4, 2), 1.375);
    }

    #[test]
    fn grad_sync_positive_for_dp() {
        let m = ModelConfig::gpt_7b();
        let cfg = ParallelConfig::megatron(4, 1, 1, 2);
        assert!(grad_sync_seconds(&m, &cfg, &calib()) > 0.0);
    }
}
