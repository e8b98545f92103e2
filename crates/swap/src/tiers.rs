//! Per-tier staging pools for the N-tier offload chain.
//!
//! [`TierStaging`] generalises the single `HostStaging` pool to one pool
//! per offload tier (host DRAM, NVMe, CXL, ...), indexed in chain order —
//! pool 0 is the tier nearest the GPU. A *layer* reservation stages that
//! layer's per-tier traffic across all pools at once; the batched
//! `reserve_layers`/`release_layers` variants reuse the `reserve_many`/
//! `release_many` splice primitives from the schedule fast path and keep
//! their contract: state and errors identical to the sequential loop they
//! replace, pass and fail alike.

use crate::host::{HostStaging, OutOfHostMemory};
use crate::schedule::TierTrafficList;

/// Out-of-memory failure of one tier of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfTierMemory {
    /// Index of the pool that overflowed (0 = host).
    pub tier: usize,
    pub requested: u64,
    pub used: u64,
    pub capacity: u64,
}

impl OutOfTierMemory {
    fn new(tier: usize, e: OutOfHostMemory) -> Self {
        OutOfTierMemory {
            tier,
            requested: e.requested,
            used: e.used,
            capacity: e.capacity,
        }
    }
}

impl std::fmt::Display for OutOfTierMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tier {} memory exhausted: staging {} bytes with {}/{} used",
            self.tier, self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for OutOfTierMemory {}

/// One reserve/release capacity tracker per offload tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStaging {
    pools: Vec<HostStaging>,
}

impl TierStaging {
    /// One pool per capacity, in chain order (index 0 = host).
    pub fn new(capacities: &[u64]) -> Self {
        TierStaging {
            pools: capacities.iter().map(|&c| HostStaging::new(c)).collect(),
        }
    }

    /// The legacy single-pool configuration (host tier only).
    pub fn single(capacity: u64) -> Self {
        TierStaging::new(&[capacity])
    }

    /// `n_tiers` pools of `HostStaging::unbounded` capacity.
    pub fn unbounded(n_tiers: usize) -> Self {
        TierStaging {
            pools: (0..n_tiers).map(|_| HostStaging::unbounded()).collect(),
        }
    }

    /// Number of tiers in the chain.
    pub fn tiers(&self) -> usize {
        self.pools.len()
    }

    pub(crate) fn pool(&self, tier: usize) -> Option<&HostStaging> {
        self.pools.get(tier)
    }

    /// Used bytes of the host pool (tier 0), 0 with no pools.
    pub fn host_used(&self) -> u64 {
        self.used(0)
    }

    /// Used bytes of pool `tier` (0 = host), 0 past the chain.
    pub fn used(&self, tier: usize) -> u64 {
        self.pools.get(tier).map_or(0, HostStaging::used)
    }

    /// Peak bytes of the host pool (tier 0), 0 with no pools.
    pub fn host_peak(&self) -> u64 {
        self.pools.first().map_or(0, HostStaging::peak)
    }

    /// Per-tier peak bytes, in chain order.
    #[cfg(test)]
    fn peaks(&self) -> Vec<u64> {
        self.pools.iter().map(HostStaging::peak).collect()
    }

    fn check_width(&self, traffic: &TierTrafficList) {
        assert!(
            traffic.len() <= self.pools.len(),
            "traffic spans {} tiers but staging has {} pools",
            traffic.len(),
            self.pools.len()
        );
    }

    /// Stage one layer's traffic: tier-by-tier in chain order. On overflow
    /// the nearer tiers stay committed — exactly the state the sequential
    /// per-tier loop leaves behind — and the error names the failing tier.
    pub fn reserve_layer(&mut self, traffic: &TierTrafficList) -> Result<(), OutOfTierMemory> {
        self.check_width(traffic);
        for (tier, t) in traffic.iter().enumerate() {
            self.pools[tier]
                .reserve(t.bytes)
                .map_err(|e| OutOfTierMemory::new(tier, e))?;
        }
        Ok(())
    }

    /// Stage `count` layers with semantics identical to `count` sequential
    /// [`Self::reserve_layer`] calls — the splice primitive of the schedule
    /// fast path, batched across every pool.
    pub(crate) fn reserve_layers(
        &mut self,
        traffic: &TierTrafficList,
        count: u64,
    ) -> Result<(), OutOfTierMemory> {
        self.check_width(traffic);
        if count == 0 {
            return Ok(());
        }
        // Whole layers that fit across every tier (the per-pool `fit`
        // formula of `HostStaging::reserve_many`).
        let mut fit = count;
        for (tier, t) in traffic.iter().enumerate() {
            if t.bytes == 0 {
                continue;
            }
            let p = &self.pools[tier];
            fit = fit.min((p.capacity() - p.used()) / t.bytes);
        }
        for (tier, t) in traffic.iter().enumerate() {
            self.pools[tier]
                .reserve_many(t.bytes, fit)
                .expect("sized to fit");
        }
        if fit < count {
            // The first failing layer, replayed tier-by-tier: commits the
            // tiers before the binding one, then reports it.
            return Err(self
                .reserve_layer(traffic)
                .expect_err("a tier must be full"));
        }
        Ok(())
    }

    /// Stage `bytes` on tier `tier` alone (a whole sequence paged out, or
    /// its growth there): committed if they fit, otherwise refused with
    /// nothing changed.
    pub fn reserve_on(&mut self, tier: usize, bytes: u64) -> Result<(), OutOfTierMemory> {
        self.pools[tier]
            .reserve(bytes)
            .map_err(|e| OutOfTierMemory::new(tier, e))
    }

    /// Release `bytes` from tier `tier` alone.
    pub fn release_on(&mut self, tier: usize, bytes: u64) {
        self.pools[tier].release(bytes);
    }

    /// Release one layer's traffic from every pool.
    pub fn release_layer(&mut self, traffic: &TierTrafficList) {
        self.check_width(traffic);
        for (tier, t) in traffic.iter().enumerate() {
            self.pools[tier].release(t.bytes);
        }
    }

    /// Release `count` layers ([`Self::release_layer`] batched).
    pub(crate) fn release_layers(&mut self, traffic: &TierTrafficList, count: u64) {
        self.check_width(traffic);
        for (tier, t) in traffic.iter().enumerate() {
            self.pools[tier].release_many(t.bytes, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TierTraffic;

    fn traffic(per_tier: &[u64]) -> TierTrafficList {
        let mut t = TierTrafficList::new();
        for &bytes in per_tier {
            t.push(TierTraffic {
                bytes,
                bandwidth: 1e9,
                latency_secs: 0.0,
            });
        }
        t
    }

    #[test]
    fn single_pool_matches_host_staging() {
        let mut tiers = TierStaging::single(100);
        let mut host = HostStaging::new(100);
        let t = traffic(&[30]);
        tiers.reserve_layer(&t).unwrap();
        host.reserve(30).unwrap();
        assert_eq!(tiers.pool(0), Some(&host));
        let te = tiers.reserve_layer(&traffic(&[80])).unwrap_err();
        let he = host.reserve(80).unwrap_err();
        assert_eq!(te, OutOfTierMemory::new(0, he));
        assert_eq!(tiers.pool(0), Some(&host));
    }

    #[test]
    fn overflow_names_the_failing_tier_and_commits_nearer_tiers() {
        let mut tiers = TierStaging::new(&[1000, 50]);
        let err = tiers.reserve_layer(&traffic(&[100, 60])).unwrap_err();
        assert_eq!(err.tier, 1);
        assert_eq!((err.requested, err.used, err.capacity), (60, 0, 50));
        // Tier 0 committed before tier 1 failed — sequential semantics.
        assert_eq!(tiers.pool(0).unwrap().used(), 100);
        assert_eq!(tiers.pool(1).unwrap().used(), 0);
    }

    #[test]
    fn release_returns_every_pool_to_zero() {
        let mut tiers = TierStaging::new(&[1000, 500]);
        let t = traffic(&[100, 40]);
        for _ in 0..3 {
            tiers.reserve_layer(&t).unwrap();
        }
        tiers.release_layer(&t);
        tiers.release_layers(&t, 2);
        assert_eq!(tiers.host_used(), 0);
        assert_eq!(tiers.pool(1).unwrap().used(), 0);
        assert_eq!(tiers.peaks(), vec![300, 120]);
        assert_eq!(tiers.host_peak(), 300);
    }

    #[test]
    fn reserve_layers_matches_sequential_loop() {
        // The batched splice must leave every pool in exactly the state
        // `count` sequential reserve_layer calls would — pass and fail
        // alike, across host-binding, deep-tier-binding and roomy cells.
        for caps in [[1000u64, 1000], [250, 1000], [1000, 90], [0, 0]] {
            for per_layer in [[100u64, 30], [100, 0], [0, 30]] {
                for count in [1u64, 3, 5, 12] {
                    let t = traffic(&per_layer);
                    let mut batched = TierStaging::new(&caps);
                    let mut serial = TierStaging::new(&caps);
                    let b = batched.reserve_layers(&t, count);
                    let mut s = Ok(());
                    for _ in 0..count {
                        s = serial.reserve_layer(&t);
                        if s.is_err() {
                            break;
                        }
                    }
                    assert_eq!(b, s, "caps={caps:?} layer={per_layer:?} count={count}");
                    assert_eq!(
                        batched, serial,
                        "caps={caps:?} layer={per_layer:?} count={count}"
                    );
                }
            }
        }
    }

    #[test]
    fn unbounded_pools_absorb_everything() {
        let mut tiers = TierStaging::unbounded(3);
        assert_eq!(tiers.tiers(), 3);
        tiers
            .reserve_layers(&traffic(&[1 << 40, 1 << 38, 1 << 36]), 1000)
            .unwrap();
        assert_eq!(tiers.host_used(), 1000 << 40);
    }
}
