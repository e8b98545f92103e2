//! Cluster topology: nodes, GPUs, links.
//!
//! The simulator does not route individual packets; topology matters only for
//! which *bandwidth class* a transfer uses (PCIe to host, NVLink within a
//! node, InfiniBand across nodes) and how many peers share it. Those derated
//! bandwidths come from [`crate::Calibration`].

use crate::calib::Calibration;

/// A class of interconnect; selects the effective bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// CPU <-> GPU over PCIe (activation offload/prefetch path).
    PcieHost,
    /// GPU <-> GPU within one node over NVLink (TP/SP/CP collectives).
    NvLink,
    /// Node <-> node over InfiniBand (PP point-to-point, inter-node DP/CP).
    InfiniBand,
}

/// Static description of one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    pub memory_bytes: u64,
    pub peak_flops: f64,
}

/// Static description of a node's host side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpec {
    pub memory_bytes: u64,
}

/// A homogeneous cluster: `n_nodes` nodes of `gpus_per_node` identical GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub n_nodes: usize,
    pub gpus_per_node: usize,
    pub gpu: GpuSpec,
    pub host: HostSpec,
    pub calib: Calibration,
}

impl ClusterSpec {
    /// Build a cluster of `n_gpus` total GPUs using the calibration's node
    /// shape. `n_gpus` must be a multiple of `gpus_per_node` or less than one
    /// full node.
    pub fn with_gpus(n_gpus: usize, calib: Calibration) -> Self {
        assert!(n_gpus > 0, "cluster must have at least one GPU");
        let per_node = calib.gpus_per_node;
        let (n_nodes, gpus_per_node) = if n_gpus <= per_node {
            (1, n_gpus)
        } else {
            assert!(
                n_gpus.is_multiple_of(per_node),
                "{n_gpus} GPUs is not a multiple of the node size {per_node}"
            );
            (n_gpus / per_node, per_node)
        };
        ClusterSpec {
            n_nodes,
            gpus_per_node,
            gpu: GpuSpec {
                memory_bytes: calib.gpu_memory_bytes,
                peak_flops: calib.peak_flops,
            },
            host: HostSpec {
                memory_bytes: calib.host_memory_bytes(),
            },
            calib,
        }
    }

    pub fn total_gpus(&self) -> usize {
        self.n_nodes * self.gpus_per_node
    }

    /// Effective bandwidth for a transfer class, bytes/s per GPU.
    pub fn bandwidth(&self, kind: LinkKind) -> f64 {
        match kind {
            LinkKind::PcieHost => self.calib.effective_pcie(),
            LinkKind::NvLink => self.calib.effective_nvlink(),
            LinkKind::InfiniBand => self.calib.effective_ib_per_gpu(),
        }
    }

    /// Seconds to move `bytes` over the given link class.
    pub fn transfer_secs(&self, bytes: u64, kind: LinkKind) -> f64 {
        bytes as f64 / self.bandwidth(kind)
    }

    /// Host DRAM available for activation staging per GPU.
    pub fn host_capacity_per_gpu(&self) -> u64 {
        self.calib.host_capacity_per_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_shapes() {
        let c = ClusterSpec::with_gpus(8, Calibration::default());
        assert_eq!(c.n_nodes, 1);
        assert_eq!(c.total_gpus(), 8);
        let c = ClusterSpec::with_gpus(4, Calibration::default());
        assert_eq!((c.n_nodes, c.gpus_per_node), (1, 4));
    }

    #[test]
    fn multi_node_shapes() {
        let c = ClusterSpec::with_gpus(64, Calibration::default());
        assert_eq!((c.n_nodes, c.gpus_per_node), (8, 8));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_clusters() {
        ClusterSpec::with_gpus(12, Calibration::default());
    }

    #[test]
    fn bandwidth_ordering() {
        let c = ClusterSpec::with_gpus(8, Calibration::default());
        assert!(c.bandwidth(LinkKind::NvLink) > c.bandwidth(LinkKind::PcieHost));
        assert!(c.bandwidth(LinkKind::PcieHost) > c.bandwidth(LinkKind::InfiniBand) / 2.0);
    }

    #[test]
    fn transfer_secs_matches_bandwidth() {
        let c = ClusterSpec::with_gpus(8, Calibration::default());
        let bw = c.bandwidth(LinkKind::PcieHost);
        let secs = c.transfer_secs(bw as u64, LinkKind::PcieHost);
        assert!((secs - 1.0).abs() < 1e-6);
    }
}
