//! N-tier memory hierarchy below GPU HBM.
//!
//! The paper's testbed has exactly two offload tiers under the GPU: host DRAM
//! behind a shared PCIe switch, and an NVMe array behind the host. ROADMAP
//! item 5 generalises that hardcoded GPU→host→NVMe chain into an ordered list
//! of [`TierSpec`]s so CXL-class or remote-memory pools are one config away.
//!
//! Tier 0 is the offload tier *nearest* the GPU (host DRAM on the paper's
//! testbed); deeper tiers are reached through it. Every consumer that used to
//! read the flat `pcie_*`/`nvme_*`/`host_*` calibration fields now reads the
//! chain, and `MemoryHierarchy::three_tier` rebuilds the legacy chain
//! bit-exactly so all goldens are unchanged.

/// How many peers contend for a tier's link bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TierSharing {
    /// A fixed number of GPUs share the link (A800 PCIe switches: 2).
    Fixed(f64),
    /// Every GPU of the node shares the link (the NVMe array model).
    NodeGpus,
}

impl TierSharing {
    /// The divisor applied to the nominal link bandwidth.
    fn sharers(&self, gpus_per_node: usize) -> f64 {
        match *self {
            TierSharing::Fixed(n) => n,
            TierSharing::NodeGpus => gpus_per_node as f64,
        }
    }
}

/// One level of the offload chain: a capacity pool behind a shared link.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable tier name ("host", "nvme", "cxl", ...).
    pub name: String,
    /// Pool capacity per node, bytes.
    pub capacity_bytes: u64,
    /// Fraction of the pool usable for activation staging. `1.0` means the
    /// whole pool; the per-GPU share is then computed by exact integer
    /// division (the legacy NVMe path), otherwise through the float path
    /// (the legacy host-DRAM path).
    pub usable_fraction: f64,
    /// Nominal GPU↔tier link bandwidth, bytes/s (offload and prefetch).
    pub write_bandwidth: f64,
    /// Achievable fraction of the nominal link rate.
    pub utilization: f64,
    /// Link contention model.
    pub sharing: TierSharing,
    /// Fixed per-transfer latency, seconds (0.0 for DRAM-class tiers).
    pub latency_secs: f64,
}

impl TierSpec {
    /// Effective per-GPU offload bandwidth under concurrent use (bytes/s).
    pub(crate) fn effective_write_bandwidth(&self, gpus_per_node: usize) -> f64 {
        self.write_bandwidth * self.utilization / self.sharing.sharers(gpus_per_node)
    }

    /// This GPU's share of the tier's usable capacity (bytes).
    pub(crate) fn capacity_per_gpu(&self, gpus_per_node: usize) -> u64 {
        if self.usable_fraction == 1.0 {
            // Exact integer split — the legacy NVMe-capacity path.
            self.capacity_bytes / gpus_per_node as u64
        } else {
            // Derated float split — the legacy host-DRAM path.
            ((self.capacity_bytes as f64 * self.usable_fraction) / gpus_per_node as f64) as u64
        }
    }
}

/// The ordered offload chain below GPU HBM, nearest tier first.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryHierarchy {
    pub tiers: Vec<TierSpec>,
}

impl MemoryHierarchy {
    /// The legacy GPU→host→NVMe chain, bit-exact with the flat calibration
    /// fields it replaced: tier 0 is host DRAM behind the shared PCIe switch,
    /// tier 1 the node NVMe array (utilization 1.0, shared by all GPUs, so
    /// its effective bandwidth reduces to `nvme_bandwidth / gpus_per_node`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn three_tier(
        host_memory_bytes: u64,
        host_usable_fraction: f64,
        pcie_bandwidth: f64,
        pcie_utilization: f64,
        pcie_sharers: f64,
        nvme_bandwidth: f64,
        nvme_capacity_bytes: u64,
    ) -> Self {
        MemoryHierarchy {
            tiers: vec![
                TierSpec {
                    name: "host".to_string(),
                    capacity_bytes: host_memory_bytes,
                    usable_fraction: host_usable_fraction,
                    write_bandwidth: pcie_bandwidth,
                    utilization: pcie_utilization,
                    sharing: TierSharing::Fixed(pcie_sharers),
                    latency_secs: 0.0,
                },
                TierSpec {
                    name: "nvme".to_string(),
                    capacity_bytes: nvme_capacity_bytes,
                    usable_fraction: 1.0,
                    write_bandwidth: nvme_bandwidth,
                    utilization: 1.0,
                    sharing: TierSharing::NodeGpus,
                    latency_secs: 0.0,
                },
            ],
        }
    }

    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    pub fn tier(&self, idx: usize) -> Option<&TierSpec> {
        self.tiers.get(idx)
    }

    /// Append a tier at the far end of the chain.
    pub fn push(&mut self, tier: TierSpec) {
        self.tiers.push(tier);
    }

    /// A bit-exact FNV-1a hash of the whole chain: every field of every tier
    /// (floats by their IEEE-754 bit patterns) plus the tier count and order.
    /// Feeds [`crate::calib::CalibFingerprint`]. The exhaustive destructuring
    /// makes adding a `TierSpec` field without hashing it a compile error.
    pub(crate) fn chain_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h ^= byte as u64;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        let mut h = FNV_OFFSET;
        mix(&mut h, self.tiers.len() as u64);
        for t in &self.tiers {
            let TierSpec {
                name,
                capacity_bytes,
                usable_fraction,
                write_bandwidth,
                utilization,
                sharing,
                latency_secs,
            } = t;
            mix(&mut h, name.len() as u64);
            for b in name.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            mix(&mut h, *capacity_bytes);
            mix(&mut h, usable_fraction.to_bits());
            mix(&mut h, write_bandwidth.to_bits());
            mix(&mut h, utilization.to_bits());
            match sharing {
                TierSharing::Fixed(n) => {
                    mix(&mut h, 1);
                    mix(&mut h, n.to_bits());
                }
                TierSharing::NodeGpus => mix(&mut h, 2),
            }
            mix(&mut h, latency_secs.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_chain() -> MemoryHierarchy {
        MemoryHierarchy::three_tier(2048 << 30, 0.85, 32e9, 0.75, 2.0, 25e9, (30 * 1024) << 30)
    }

    #[test]
    fn three_tier_matches_legacy_accessors() {
        let h = default_chain();
        assert_eq!(h.len(), 2);
        let host = h.tier(0).unwrap();
        let nvme = h.tier(1).unwrap();
        // Legacy: pcie_bandwidth * pcie_utilization / pcie_sharers.
        assert_eq!(host.effective_write_bandwidth(8), 32e9 * 0.75 / 2.0);
        // Legacy: nvme_bandwidth / gpus_per_node (utilization 1.0 is exact).
        assert_eq!(nvme.effective_write_bandwidth(8), 25e9 / 8.0);
        // Legacy float path for host, integer path for NVMe.
        let host_bytes = 2048u64 << 30;
        assert_eq!(
            host.capacity_per_gpu(8),
            ((host_bytes as f64 * 0.85) / 8.0) as u64
        );
        assert_eq!(nvme.capacity_per_gpu(8), ((30 * 1024u64) << 30) / 8);
    }

    #[test]
    fn chain_hash_is_order_and_field_sensitive() {
        let base = default_chain();
        let mut swapped = base.clone();
        swapped.tiers.swap(0, 1);
        assert_ne!(base.chain_hash(), swapped.chain_hash());

        let mut renamed = base.clone();
        renamed.tiers[1].name = "ssd".to_string();
        assert_ne!(base.chain_hash(), renamed.chain_hash());

        let mut deeper = base.clone();
        deeper.push(TierSpec {
            name: "cxl".to_string(),
            capacity_bytes: 512 << 30,
            usable_fraction: 1.0,
            write_bandwidth: 64e9,
            utilization: 0.85,
            sharing: TierSharing::Fixed(2.0),
            latency_secs: 250e-9,
        });
        assert_ne!(base.chain_hash(), deeper.chain_hash());
        assert_eq!(base.chain_hash(), default_chain().chain_hash());
    }

    #[test]
    fn sharing_models() {
        assert_eq!(TierSharing::Fixed(2.0).sharers(8), 2.0);
        assert_eq!(TierSharing::NodeGpus.sharers(8), 8.0);
    }
}
