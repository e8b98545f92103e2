//! Calibration constants for the simulated hardware.
//!
//! Defaults correspond to the paper's testbed (§5.1): NVIDIA A800-80GB nodes,
//! 8 GPUs per node, NVLink 400 GB/s, InfiniBand 200 GB/s, 2 TB host DRAM,
//! nominal CPU–GPU PCIe bandwidth 32 GB/s.
//!
//! The offload chain below GPU HBM lives in [`MemoryHierarchy`]: an ordered
//! list of [`crate::hierarchy::TierSpec`]s (host DRAM, NVMe, and optionally
//! CXL- or remote-memory pools). The default chain reproduces the paper's
//! GPU→host→NVMe testbed bit-exactly; see `MemoryHierarchy::three_tier`.
//!
//! Two derating factors deserve explanation because they anchor the paper's
//! headline crossovers:
//!
//! * the host tier's `utilization` and `sharing`: on an A800 server, pairs of
//!   GPUs hang off shared PCIe switches, and sustained pinned-memory H2D/D2H
//!   copy achieves well under the nominal link rate. With the defaults
//!   (32 GB/s × 0.75 / 2 = 12 GB/s effective per GPU under concurrent
//!   offload), the "one-layer forward time == one-layer offload time"
//!   crossover for the 7B model at TP=8 lands at ≈192K tokens, matching
//!   Figure 1(b).
//! * `gemm_efficiency` / `attn_efficiency`: achieved-vs-peak FLOPs for large
//!   GEMMs and FlashAttention kernels. These bound MFU from above; MEMO's
//!   measured ≈52% MFU sits just below the blended kernel efficiency once
//!   non-overlapped communication and the optimizer step are charged.

use crate::hierarchy::MemoryHierarchy;

pub(crate) const GIB: u64 = 1 << 30;

/// Hardware and kernel-efficiency constants used by every cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Peak dense fp16/bf16 throughput per GPU, in FLOP/s (A800: 312e12).
    pub peak_flops: f64,
    /// Fraction of peak achieved by large GEMM kernels.
    pub gemm_efficiency: f64,
    /// Fraction of peak achieved by FlashAttention kernels.
    pub attn_efficiency: f64,
    /// Fraction of peak achieved by bandwidth-bound elementwise/norm kernels,
    /// expressed as an *effective FLOP efficiency* so all ops share one unit.
    pub elementwise_efficiency: f64,
    /// HBM capacity per GPU in bytes (80 GiB).
    pub gpu_memory_bytes: u64,
    /// Bytes reserved on each GPU for the framework runtime: CUDA context,
    /// NCCL channel buffers for every communicator group (TP/CP/DP/PP each
    /// allocate their own), TransformerEngine workspaces and cuDNN plans —
    /// memory a training job cannot give to activations.
    gpu_reserved_bytes: u64,
    /// Number of GPUs attached to each node.
    pub gpus_per_node: usize,
    /// The ordered offload chain below GPU HBM, nearest tier first. Tier 0
    /// is the staging tier reached over PCIe (host DRAM on the paper's
    /// testbed); deeper tiers (NVMe, CXL, ...) are reached through it.
    pub hierarchy: MemoryHierarchy,
    /// NVLink bandwidth per GPU within a node, bytes/s (400 GB/s).
    nvlink_bandwidth: f64,
    /// Achievable fraction of NVLink bandwidth for NCCL collectives.
    nvlink_utilization: f64,
    /// Inter-node InfiniBand bandwidth per node, bytes/s (200 GB/s).
    ib_bandwidth: f64,
    /// Achievable fraction of IB bandwidth.
    ib_utilization: f64,
    /// Wall time charged for one caching-allocator reorganisation
    /// (a burst of `cudaFree` + `cudaMalloc` calls), seconds.
    pub reorg_penalty_secs: f64,
    /// Per-kernel launch overhead, seconds. Matters only for tiny ops.
    pub kernel_launch_secs: f64,
    /// Fraction of collective-communication time hidden under compute by the
    /// framework's overlap machinery (Megatron/TE style bulk overlap).
    pub comm_overlap_fraction: f64,
    /// Time charged for the optimizer step + gradient clipping per iteration,
    /// expressed as seconds per billion *local* parameters.
    pub optimizer_secs_per_bparam: f64,
    /// Megatron-DeepSpeed lacks TransformerEngine's fused kernels and runs
    /// unfused bias/norm/loss paths; its achieved compute throughput is this
    /// fraction of the Megatron-LM/MEMO stack's.
    pub ds_compute_derate: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            peak_flops: 312e12,
            gemm_efficiency: 0.66,
            attn_efficiency: 0.60,
            elementwise_efficiency: 0.08,
            gpu_memory_bytes: 80 * GIB,
            gpu_reserved_bytes: 12 * GIB,
            gpus_per_node: 8,
            hierarchy: MemoryHierarchy::three_tier(
                2048 * GIB,      // host DRAM per node
                0.85,            // usable for activation staging
                32e9,            // nominal PCIe bandwidth
                0.75,            // pinned-copy utilization
                2.0,             // GPUs per PCIe switch
                25e9,            // NVMe array bandwidth per node
                30 * 1024 * GIB, // NVMe capacity per node
            ),
            nvlink_bandwidth: 400e9,
            nvlink_utilization: 0.7,
            ib_bandwidth: 200e9,
            ib_utilization: 0.8,
            reorg_penalty_secs: 0.75,
            kernel_launch_secs: 6e-6,
            comm_overlap_fraction: 0.45,
            optimizer_secs_per_bparam: 0.020,
            ds_compute_derate: 0.72,
        }
    }
}

impl Calibration {
    /// Effective per-GPU CPU<->GPU copy bandwidth under concurrent offload
    /// from all GPUs of a node (bytes/s) — tier 0 of the hierarchy.
    pub fn effective_pcie(&self) -> f64 {
        self.hierarchy
            .tier(0)
            .map_or(0.0, |t| t.effective_write_bandwidth(self.gpus_per_node))
    }

    /// Effective NVLink collective bandwidth per GPU (bytes/s).
    pub fn effective_nvlink(&self) -> f64 {
        self.nvlink_bandwidth * self.nvlink_utilization
    }

    /// Effective InfiniBand bandwidth per GPU when all GPUs of a node
    /// communicate across nodes simultaneously (bytes/s).
    pub fn effective_ib_per_gpu(&self) -> f64 {
        self.ib_bandwidth * self.ib_utilization / self.gpus_per_node as f64
    }

    /// Effective per-GPU bandwidth of offload tier `idx` (bytes/s); 0.0 if
    /// the chain has no such tier (which disables it everywhere).
    pub fn effective_tier_bandwidth(&self, idx: usize) -> f64 {
        self.hierarchy
            .tier(idx)
            .map_or(0.0, |t| t.effective_write_bandwidth(self.gpus_per_node))
    }

    /// Capacity share of offload tier `idx` per GPU (bytes); 0 if absent.
    pub fn tier_capacity_per_gpu(&self, idx: usize) -> u64 {
        self.hierarchy
            .tier(idx)
            .map_or(0, |t| t.capacity_per_gpu(self.gpus_per_node))
    }

    /// Host DRAM usable for activation staging, per GPU (bytes) — tier 0.
    pub fn host_capacity_per_gpu(&self) -> u64 {
        self.tier_capacity_per_gpu(0)
    }

    /// Resize the host DRAM pool (tier 0), keeping its link untouched.
    pub fn set_host_memory_bytes(&mut self, bytes: u64) {
        if let Some(t) = self.hierarchy.tiers.first_mut() {
            t.capacity_bytes = bytes;
        }
    }

    /// Re-rate the CPU<->GPU link (tier 0).
    pub fn set_pcie_bandwidth(&mut self, bytes_per_sec: f64) {
        if let Some(t) = self.hierarchy.tiers.first_mut() {
            t.write_bandwidth = bytes_per_sec;
        }
    }

    /// HBM usable by the training job's allocator (bytes).
    pub fn usable_gpu_memory(&self) -> u64 {
        self.gpu_memory_bytes
            .saturating_sub(self.gpu_reserved_bytes)
    }

    /// Seconds to execute `flops` at the given efficiency fraction.
    pub fn compute_secs(&self, flops: f64, efficiency: f64) -> f64 {
        debug_assert!(efficiency > 0.0 && efficiency <= 1.0);
        flops / (self.peak_flops * efficiency) + self.kernel_launch_secs
    }

    /// A fingerprint of every calibration field, usable as a hash key.
    /// Floats are captured by their IEEE-754 bit patterns and the tier
    /// chain by its 64-bit `MemoryHierarchy::chain_hash`, so two
    /// calibrations fingerprint equal iff every field is bit-identical —
    /// exactly the condition under which the cost models produce identical
    /// outputs — up to a 64-bit collision in the tier-chain hash. The
    /// exhaustive destructuring makes adding a field without extending the
    /// fingerprint a compile error.
    pub fn fingerprint(&self) -> CalibFingerprint {
        let &Calibration {
            peak_flops,
            gemm_efficiency,
            attn_efficiency,
            elementwise_efficiency,
            gpu_memory_bytes,
            gpu_reserved_bytes,
            gpus_per_node,
            ref hierarchy,
            nvlink_bandwidth,
            nvlink_utilization,
            ib_bandwidth,
            ib_utilization,
            reorg_penalty_secs,
            kernel_launch_secs,
            comm_overlap_fraction,
            optimizer_secs_per_bparam,
            ds_compute_derate,
        } = self;
        CalibFingerprint([
            peak_flops.to_bits(),
            gemm_efficiency.to_bits(),
            attn_efficiency.to_bits(),
            elementwise_efficiency.to_bits(),
            gpu_memory_bytes,
            gpu_reserved_bytes,
            gpus_per_node as u64,
            hierarchy.chain_hash(),
            nvlink_bandwidth.to_bits(),
            nvlink_utilization.to_bits(),
            ib_bandwidth.to_bits(),
            ib_utilization.to_bits(),
            reorg_penalty_secs.to_bits(),
            kernel_launch_secs.to_bits(),
            comm_overlap_fraction.to_bits(),
            optimizer_secs_per_bparam.to_bits(),
            ds_compute_derate.to_bits(),
        ])
    }
}

/// The bit pattern of a [`Calibration`] — `Eq + Hash`, unlike the float
/// struct itself. See [`Calibration::fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CalibFingerprint([u64; 17]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{TierSharing, TierSpec};

    #[test]
    fn defaults_match_paper_testbed() {
        let c = Calibration::default();
        assert_eq!(c.peak_flops, 312e12);
        assert_eq!(c.gpu_memory_bytes, 80 * GIB);
        assert_eq!(c.hierarchy.tier(0).unwrap().capacity_bytes, 2048 * GIB);
        assert_eq!(c.gpus_per_node, 8);
        assert_eq!(c.hierarchy.len(), 2);
        assert_eq!(c.hierarchy.tier(0).unwrap().name, "host");
        assert_eq!(c.hierarchy.tier(1).unwrap().name, "nvme");
    }

    #[test]
    fn effective_pcie_is_derated() {
        let c = Calibration::default();
        let eff = c.effective_pcie();
        assert!(eff < c.hierarchy.tier(0).unwrap().write_bandwidth);
        assert!((eff - 12e9).abs() < 1e6, "expected ~12 GB/s, got {eff}");
    }

    #[test]
    fn legacy_accessors_match_flat_field_formulas() {
        // The three_tier chain must reproduce the retired flat-field
        // expressions bit-for-bit: these are the values every golden in the
        // repo was recorded against.
        let c = Calibration::default();
        assert_eq!(c.effective_pcie(), 32e9 * 0.75 / 2.0);
        assert_eq!(c.effective_tier_bandwidth(1), 25e9 / 8.0);
        assert_eq!(c.tier_capacity_per_gpu(1), 30 * 1024 * GIB / 8);
        assert_eq!(
            c.host_capacity_per_gpu(),
            (((2048 * GIB) as f64 * 0.85) / 8.0) as u64
        );
        // Tiers beyond the chain are disabled, not errors.
        assert_eq!(c.effective_tier_bandwidth(2), 0.0);
        assert_eq!(c.tier_capacity_per_gpu(2), 0);
    }

    #[test]
    fn host_capacity_split_across_gpus() {
        let c = Calibration::default();
        let per_gpu = c.host_capacity_per_gpu();
        assert!(per_gpu * 8 <= c.hierarchy.tier(0).unwrap().capacity_bytes);
        assert!(per_gpu > 100 * GIB);
    }

    #[test]
    fn fingerprint_distinguishes_any_field_change() {
        // Field-by-field perturbation: every Calibration field — including
        // every field of every tier in the hierarchy — must change the
        // fingerprint when it changes.
        let base = Calibration::default();
        assert_eq!(base.fingerprint(), Calibration::default().fingerprint());
        type CalibEdit = Box<dyn Fn(&mut Calibration)>;
        let cases: Vec<(&str, CalibEdit)> = vec![
            ("peak_flops", Box::new(|c| c.peak_flops += 1.0)),
            ("gemm_efficiency", Box::new(|c| c.gemm_efficiency += 0.01)),
            ("attn_efficiency", Box::new(|c| c.attn_efficiency += 0.01)),
            (
                "elementwise_efficiency",
                Box::new(|c| c.elementwise_efficiency += 0.01),
            ),
            ("gpu_memory_bytes", Box::new(|c| c.gpu_memory_bytes += 1)),
            (
                "gpu_reserved_bytes",
                Box::new(|c| c.gpu_reserved_bytes += 1),
            ),
            ("gpus_per_node", Box::new(|c| c.gpus_per_node = 4)),
            ("nvlink_bandwidth", Box::new(|c| c.nvlink_bandwidth += 1.0)),
            (
                "nvlink_utilization",
                Box::new(|c| c.nvlink_utilization += 0.01),
            ),
            ("ib_bandwidth", Box::new(|c| c.ib_bandwidth += 1.0)),
            ("ib_utilization", Box::new(|c| c.ib_utilization += 0.01)),
            (
                "reorg_penalty_secs",
                Box::new(|c| c.reorg_penalty_secs += 0.01),
            ),
            (
                "kernel_launch_secs",
                Box::new(|c| c.kernel_launch_secs += 1e-6),
            ),
            (
                "comm_overlap_fraction",
                Box::new(|c| c.comm_overlap_fraction += 0.01),
            ),
            (
                "optimizer_secs_per_bparam",
                Box::new(|c| c.optimizer_secs_per_bparam += 0.001),
            ),
            (
                "ds_compute_derate",
                Box::new(|c| c.ds_compute_derate += 0.01),
            ),
            // Hierarchy structure.
            (
                "hierarchy.pop",
                Box::new(|c| {
                    c.hierarchy.tiers.pop();
                }),
            ),
            (
                "hierarchy.push",
                Box::new(|c| {
                    c.hierarchy.push(TierSpec {
                        name: "cxl".to_string(),
                        capacity_bytes: 512 * GIB,
                        usable_fraction: 1.0,
                        write_bandwidth: 64e9,
                        utilization: 0.85,
                        sharing: TierSharing::Fixed(2.0),
                        latency_secs: 250e-9,
                    });
                }),
            ),
        ];
        for (label, perturb) in &cases {
            let mut c = base.clone();
            perturb(&mut c);
            assert_ne!(
                base.fingerprint(),
                c.fingerprint(),
                "perturbing {label} did not change the fingerprint"
            );
        }
        // Every field of every tier, in both tiers of the default chain.
        type TierEdit = Box<dyn Fn(&mut TierSpec)>;
        let tier_cases: Vec<(&str, TierEdit)> = vec![
            ("name", Box::new(|t| t.name.push('x'))),
            ("capacity_bytes", Box::new(|t| t.capacity_bytes += 1)),
            ("usable_fraction", Box::new(|t| t.usable_fraction += 0.01)),
            ("write_bandwidth", Box::new(|t| t.write_bandwidth += 1.0)),
            ("utilization", Box::new(|t| t.utilization += 0.01)),
            (
                "sharing",
                Box::new(|t| {
                    t.sharing = match t.sharing {
                        TierSharing::Fixed(n) => TierSharing::Fixed(n + 1.0),
                        TierSharing::NodeGpus => TierSharing::Fixed(1.0),
                    }
                }),
            ),
            ("latency_secs", Box::new(|t| t.latency_secs += 1e-6)),
        ];
        for idx in 0..base.hierarchy.len() {
            for (label, perturb) in &tier_cases {
                let mut c = base.clone();
                perturb(&mut c.hierarchy.tiers[idx]);
                assert_ne!(
                    base.fingerprint(),
                    c.fingerprint(),
                    "perturbing tier {idx} {label} did not change the fingerprint"
                );
            }
        }
    }

    #[test]
    fn compute_secs_scales_linearly() {
        let c = Calibration::default();
        let t1 = c.compute_secs(1e12, 0.5) - c.kernel_launch_secs;
        let t2 = c.compute_secs(2e12, 0.5) - c.kernel_launch_secs;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
