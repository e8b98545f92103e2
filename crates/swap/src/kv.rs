//! Token-wise KV swap for serving.
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
//! The tiered half, MemGPT-style paging of whole cold *sequences* down
//! the offload chain, needs no planner: the serving engine
//! (`memo_core::serving`) places each one on its own [`TierStaging`]
//! through the per-tier `reserve_on`/`release_on` calls, and its sequence
//! state is the only record of which tier holds what.
//!
//! [`TierStaging`]: crate::tiers::TierStaging

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
}
