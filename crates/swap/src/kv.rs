//! Token-wise KV swap/recompute and tiered cold-KV paging (serving).
//!
//! MEMO's α mechanism (Eq. 1–3) applied to the KV cache instead of
//! skeletal activations. During decode every step must *read* the whole
//! KV cache for attention, so keeping an α fraction of token rows off
//! device turns into per-step streaming traffic: the overlap constraint
//! becomes "α·S_kv / B ≤ T_step" and the host constraint "α·S_kv ≤
//! M_host" (a single resident copy: one staged layer). [`plan_kv_swap`]
//! does not solve that program: it returns the fraction the device deficit
//! *requires*, the host bytes it occupies and the per-step stall of the
//! transfer compute cannot hide. The caller gates the host bytes on its
//! own host capacity, and a violated overlap constraint is that stall.
//!
//! [`KvPager`] is the MemGPT-style tiered half: whole cold *sequences*
//! are paged out through [`TierStaging`] down the offload chain (host →
//! NVMe → …), nearest tier first, and their bytes keep accruing on that
//! tier until departure. The serving engine (`memo_core::serving`) uses
//! the planner for the α leg and the pager for the tiered leg.

use crate::schedule::{TierTraffic, TierTrafficList};
use crate::tiers::{OutOfTierMemory, TierStaging};

/// The KV α grid is the activation grid (1/8).
pub(crate) use crate::alpha::ALPHA_GRID;

/// Inputs to the KV swap solve, per device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSwapInputs {
    /// Total KV bytes the active batch holds at the planning point.
    pub total_kv_bytes: u64,
    /// Device bytes available for KV.
    pub device_kv_bytes: u64,
    /// Compute time of one decode step, seconds (the overlap budget).
    pub step_compute_secs: f64,
    /// Effective device↔host bandwidth, bytes/s.
    pub host_bandwidth: f64,
}

/// The single-tier KV swap at the fraction the device deficit requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSwapPlan {
    /// Fraction that *must* live off device (1/8 grid, rounded up).
    pub alpha_needed: f64,
    /// Host bytes the swapped fraction occupies (the caller checks them
    /// against its host capacity).
    pub host_bytes: u64,
    /// Per-step stall of running at `alpha_needed`: transfer time not
    /// hidden under compute (0 when the overlap constraint holds).
    pub step_overhead_secs: f64,
}

/// Round a required fraction *up* to the 1/8 grid (a deficit can only be
/// covered by swapping at least that much).
fn quantize_up(alpha: f64) -> f64 {
    ((alpha / ALPHA_GRID).ceil() * ALPHA_GRID).clamp(0.0, 1.0)
}

/// Fraction of `total` that does not fit in `device`, on the up-grid.
fn alpha_needed(total_kv_bytes: u64, device_kv_bytes: u64) -> f64 {
    if total_kv_bytes <= device_kv_bytes || total_kv_bytes == 0 {
        return 0.0;
    }
    let deficit = (total_kv_bytes - device_kv_bytes) as f64 / total_kv_bytes as f64;
    quantize_up(deficit)
}

/// Plan the single-tier (host) KV swap: the fraction the device deficit
/// requires, its host bytes and its per-step stall.
pub fn plan_kv_swap(inp: &KvSwapInputs) -> KvSwapPlan {
    let needed = alpha_needed(inp.total_kv_bytes, inp.device_kv_bytes);
    let host_bytes = (needed * inp.total_kv_bytes as f64).ceil() as u64;
    let transfer = if inp.host_bandwidth > 0.0 {
        needed * inp.total_kv_bytes as f64 / inp.host_bandwidth
    } else if needed > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    KvSwapPlan {
        alpha_needed: needed,
        host_bytes,
        step_overhead_secs: (transfer - inp.step_compute_secs).max(0.0),
    }
}

/// MemGPT-style pager: whole cold sequences page out through the offload
/// chain, nearest tier with room first, and stay there (appending on
/// their tier) until departure.
#[derive(Debug, Clone)]
pub struct KvPager {
    staging: TierStaging,
    /// seq → (tier, bytes staged there); dense by sequence id.
    placed: Vec<Option<(usize, u64)>>,
    evictions: u64,
}

impl KvPager {
    /// One pool per tier beyond the device, chain order (0 = host).
    pub fn new(tier_capacities: &[u64]) -> Self {
        assert!(!tier_capacities.is_empty(), "pager needs at least one tier");
        KvPager {
            staging: TierStaging::new(tier_capacities),
            placed: Vec::new(),
            evictions: 0,
        }
    }

    fn traffic_at(&self, tier: usize, bytes: u64) -> TierTrafficList {
        let mut t = TierTrafficList::new();
        for i in 0..=tier {
            t.push(TierTraffic {
                bytes: if i == tier { bytes } else { 0 },
                bandwidth: 1.0,
                latency_secs: 0.0,
            });
        }
        t
    }

    /// Page a resident sequence out: place its `bytes` on the nearest
    /// tier with room. Returns the tier index.
    pub fn evict(&mut self, seq: u32, bytes: u64) -> Result<usize, OutOfTierMemory> {
        if self.placed.len() <= seq as usize {
            self.placed.resize(seq as usize + 1, None);
        }
        assert!(
            self.placed[seq as usize].is_none(),
            "sequence {seq} already paged out"
        );
        let n = self.staging.len();
        let mut last_err = None;
        for tier in 0..n {
            match self.staging.reserve_layer(&self.traffic_at(tier, bytes)) {
                Ok(()) => {
                    self.placed[seq as usize] = Some((tier, bytes));
                    self.evictions += 1;
                    return Ok(tier);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one tier"))
    }

    /// Grow a paged-out sequence in place (its decode appends land on its
    /// tier). Fails if the tier is full — the engine then rejects or
    /// departs the sequence.
    pub fn append(&mut self, seq: u32, bytes: u64) -> Result<(), OutOfTierMemory> {
        let (tier, held) = self.placed[seq as usize].expect("sequence not paged out");
        self.staging.reserve_layer(&self.traffic_at(tier, bytes))?;
        self.placed[seq as usize] = Some((tier, held + bytes));
        Ok(())
    }

    /// True if `seq` currently lives off device.
    #[cfg(test)]
    fn is_paged_out(&self, seq: u32) -> bool {
        self.placed.get(seq as usize).is_some_and(|p| p.is_some())
    }

    /// Release a departed (or recalled) sequence's staged bytes.
    pub fn release(&mut self, seq: u32) {
        if let Some(Some((tier, bytes))) = self.placed.get_mut(seq as usize).map(|p| p.take()) {
            self.staging.release_layer(&self.traffic_at(tier, bytes));
        }
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes currently staged across the chain.
    #[cfg(test)]
    fn staged_bytes(&self) -> u64 {
        (0..self.staging.len())
            .map(|t| self.staging.pool(t).map_or(0, |p| p.used()))
            .sum()
    }

    /// Peak bytes ever staged on the nearest (host) tier.
    pub fn host_peak(&self) -> u64 {
        self.staging.host_peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn no_deficit_means_alpha_zero() {
        let plan = plan_kv_swap(&KvSwapInputs {
            total_kv_bytes: 10 * GIB,
            device_kv_bytes: 16 * GIB,
            step_compute_secs: 0.05,
            host_bandwidth: 20e9,
        });
        assert_eq!(plan.alpha_needed, 0.0);
        assert_eq!(plan.step_overhead_secs, 0.0);
    }

    #[test]
    fn deficit_rounds_up_to_grid() {
        // 10% deficit → α_needed = 1/8.
        assert_eq!(alpha_needed(100, 90), 0.125);
        // Exactly on-grid deficit stays put.
        assert_eq!(alpha_needed(8, 6), 0.25);
        // Total deficit caps at 1.
        assert_eq!(alpha_needed(100, 0), 1.0);
    }

    #[test]
    fn overlap_bound_matches_eq2() {
        // B·T = 1 GiB of hideable traffic against 4 GiB of KV: a 50%
        // deficit stalls each step, a 25% one hides under compute.
        let base = KvSwapInputs {
            total_kv_bytes: 4 * GIB,
            device_kv_bytes: 2 * GIB,
            step_compute_secs: 1.0,
            host_bandwidth: GIB as f64,
        };
        let plan = plan_kv_swap(&base);
        assert_eq!(plan.alpha_needed, 0.5);
        // Running anyway stalls: 2 GiB over 1 GiB/s − 1 s compute = 1 s.
        assert!((plan.step_overhead_secs - 1.0).abs() < 1e-9);

        let ok = plan_kv_swap(&KvSwapInputs {
            device_kv_bytes: 3 * GIB,
            ..base
        });
        assert_eq!(ok.step_overhead_secs, 0.0);
    }

    #[test]
    fn pager_places_nearest_first_and_spills() {
        let mut pager = KvPager::new(&[2 * GIB, 10 * GIB]);
        assert_eq!(pager.evict(0, GIB).unwrap(), 0);
        assert_eq!(pager.evict(1, GIB).unwrap(), 0); // host now full
        assert_eq!(pager.evict(2, GIB).unwrap(), 1); // spills to tier 1
        assert!(pager.is_paged_out(1));
        assert_eq!(pager.staged_bytes(), 3 * GIB);
        assert_eq!(pager.evictions(), 3);

        // Appends accrue on the sequence's own tier.
        pager.append(2, GIB).unwrap();
        assert_eq!(pager.staged_bytes(), 4 * GIB);
        // Host-resident seq 0 cannot grow: host is full.
        assert!(pager.append(0, GIB).is_err());

        pager.release(1);
        assert!(!pager.is_paged_out(1));
        assert_eq!(pager.staged_bytes(), 3 * GIB);
        assert_eq!(pager.host_peak(), 2 * GIB);
    }

    #[test]
    fn pager_oom_reports_deepest_tier() {
        let mut pager = KvPager::new(&[GIB, GIB]);
        pager.evict(0, GIB).unwrap();
        pager.evict(1, GIB).unwrap();
        let err = pager.evict(2, GIB).unwrap_err();
        assert_eq!(err.tier, 1, "error surfaces the last tier tried");
    }
}
