//! The α linear program (§4.1, Eq. 1–3):
//!
//! ```text
//! max  α
//! s.t. (S_input + S_attn + α·S_others) / B        ≤ T_layer      (overlap)
//!      L_staged·(S_input + S_attn + α·S_others)   ≤ M_CPU        (host)
//!      0 ≤ α ≤ 1
//! ```
//!
//! The overlap constraint keeps one layer's offload hidden under the next
//! layer's forward compute; the host constraint keeps the staged layers'
//! activations within CPU DRAM. `L_staged` counts the layers that offload:
//! every layer but the last `slots`, which stay in their rounding buffers
//! because their backward starts immediately (§4.1; the paper's two buffers
//! give `n − 2`). Both constraints are monotone in α,
//! so the optimum is the smaller of two closed-form intercepts, clamped to
//! `[0, 1]` and rounded **down** to a 1/8 grid (the granularity the paper's
//! Appendix-A strategies use, and coarse enough that the token split lands
//! on clean tile boundaries).

/// Inputs to the α solve, all per GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaInputs {
    /// Bytes of the layer-input tensor (always offloaded).
    pub s_input: u64,
    /// Bytes of the FlashAttention output (always offloaded).
    pub s_attn: u64,
    /// Bytes of the remaining skeletal tensors (offloaded α-fractionally).
    pub s_others: u64,
    /// Effective CPU–GPU bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Forward time of one transformer layer, seconds.
    pub t_layer_fwd: f64,
    /// Layers whose activations stage off the device: the transformer
    /// layers beyond the rounding buffers (`layers − slots`). The host
    /// bound divides by at least one.
    pub staged_layers: usize,
    /// Host DRAM available to this GPU's staged activations, bytes.
    pub host_capacity: u64,
}

/// Which constraint fixed α.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingConstraint {
    /// α = 1 was feasible — nothing binds.
    None,
    /// The compute/transfer overlap constraint (Eq. 2).
    Overlap,
    /// The host memory constraint (Eq. 3).
    HostMemory,
}

/// Solution of the α program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaSolution {
    /// The chosen fraction, on the 1/8 grid.
    pub alpha: f64,
    pub binding: BindingConstraint,
    /// True if even the mandatory tensor-level swaps (α = 0) violate the
    /// host constraint — training will exhaust host memory (OOHM).
    pub host_infeasible_at_zero: bool,
    /// True if even α = 0 cannot hide the mandatory offload under compute —
    /// short sequences where swapping stalls the forward pass.
    overlap_infeasible_at_zero: bool,
}

/// The α grid step (1/8).
pub(crate) const ALPHA_GRID: f64 = 0.125;

/// Round α down to the 1/8 grid.
fn quantize_down(alpha: f64) -> f64 {
    ((alpha / ALPHA_GRID).floor() * ALPHA_GRID).clamp(0.0, 1.0)
}

impl AlphaInputs {
    /// One tier's two intercepts as upper bounds on its α: the overlap
    /// bound, where `window` bytes cross its link in the forward window,
    /// and the space bound, where `capacity` holds the staged layers; each
    /// after `mandatory` bytes per layer. Both are `+∞` when there are no
    /// "others" bytes to split.
    fn intercepts(&self, window: f64, capacity: u64, mandatory: f64) -> (f64, f64) {
        if self.s_others == 0 {
            return (f64::INFINITY, f64::INFINITY);
        }
        let others = self.s_others as f64;
        let staged = self.staged_layers.max(1) as f64;
        (
            (window - mandatory) / others,
            (capacity as f64 / staged - mandatory) / others,
        )
    }

    /// The host tier's intercepts (Eq. 2 and Eq. 3).
    fn host_intercepts(&self) -> (f64, f64) {
        let mandatory = (self.s_input + self.s_attn) as f64;
        self.intercepts(
            self.bandwidth * self.t_layer_fwd,
            self.host_capacity,
            mandatory,
        )
    }
}

/// The continuous optimum of the program (no grid): the exact token-wise
/// fraction. `solve_alpha` rounds this down to the 1/8 grid the paper's
/// Appendix A reports; the executor's token-wise mechanism could realise any
/// value on the 1/tokens grid, which is effectively this continuum.
pub fn solve_alpha_raw(inp: &AlphaInputs) -> f64 {
    let (overlap_cap, host_cap) = inp.host_intercepts();
    overlap_cap.min(host_cap).clamp(0.0, 1.0)
}

/// Solve the program. Always returns a valid α ∈ {0, 1/8, …, 1}.
///
/// ```
/// use memo_swap::alpha::{solve_alpha, AlphaInputs, BindingConstraint};
///
/// // One layer computes for 1 s; PCIe moves 1000 B/s; the mandatory
/// // input+attn swaps take 0.2 s, leaving 800 B of headroom for the
/// // 1400 B of "other" skeletal tensors: α = 0.571… → grid 0.5.
/// let sol = solve_alpha(&AlphaInputs {
///     s_input: 100, s_attn: 100, s_others: 1400,
///     bandwidth: 1000.0, t_layer_fwd: 1.0,
///     staged_layers: 30, host_capacity: u64::MAX / 2,
/// });
/// assert_eq!(sol.alpha, 0.5);
/// assert_eq!(sol.binding, BindingConstraint::Overlap);
/// ```
pub fn solve_alpha(inp: &AlphaInputs) -> AlphaSolution {
    // Constraint intercepts as α upper bounds (∞ when S_others = 0).
    let (overlap_cap, host_cap) = inp.host_intercepts();
    let overlap_infeasible_at_zero = overlap_cap < 0.0;
    let host_infeasible_at_zero = host_cap < 0.0;

    let raw = overlap_cap.min(host_cap).clamp(0.0, 1.0);
    let alpha = quantize_down(raw);

    let binding = if raw >= 1.0 {
        BindingConstraint::None
    } else if overlap_cap <= host_cap {
        BindingConstraint::Overlap
    } else {
        BindingConstraint::HostMemory
    };

    AlphaSolution {
        alpha,
        binding,
        host_infeasible_at_zero,
        overlap_infeasible_at_zero,
    }
}

/// Bytes offloaded per layer at the solved α.
#[cfg(test)]
fn offload_bytes(inp: &AlphaInputs, alpha: f64) -> u64 {
    inp.s_input + inp.s_attn + (alpha * inp.s_others as f64).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AlphaInputs {
        AlphaInputs {
            s_input: 100,
            s_attn: 100,
            s_others: 1400,
            bandwidth: 1000.0, // bytes/s
            t_layer_fwd: 1.0,
            staged_layers: 30,
            host_capacity: u64::MAX / 2,
        }
    }

    #[test]
    fn long_layers_allow_full_swap() {
        // bandwidth·T = 1000·2 = 2000 ≥ 200 + 1400 → α = 1.
        let sol = solve_alpha(&AlphaInputs {
            t_layer_fwd: 2.0,
            ..base()
        });
        assert_eq!(sol.alpha, 1.0);
        assert_eq!(sol.binding, BindingConstraint::None);
        assert!(!sol.host_infeasible_at_zero);
    }

    #[test]
    fn overlap_constraint_binds_for_short_layers() {
        // bandwidth·T = 1000 → α ≤ (1000-200)/1400 = 0.571 → grid 0.5.
        let sol = solve_alpha(&base());
        assert_eq!(sol.alpha, 0.5);
        assert_eq!(sol.binding, BindingConstraint::Overlap);
    }

    #[test]
    fn host_constraint_binds_for_huge_models() {
        // host per layer = 9000/30 = 300 → α ≤ (300-200)/1400 = 0.0714 → 0.
        let sol = solve_alpha(&AlphaInputs {
            host_capacity: 9000,
            t_layer_fwd: 100.0,
            ..base()
        });
        assert_eq!(sol.alpha, 0.0);
        assert_eq!(sol.binding, BindingConstraint::HostMemory);
        assert!(!sol.host_infeasible_at_zero);
    }

    #[test]
    fn oohm_detected_when_mandatory_swaps_overflow_host() {
        let sol = solve_alpha(&AlphaInputs {
            host_capacity: 100, // < staged × 200 by far
            ..base()
        });
        assert_eq!(sol.alpha, 0.0);
        assert!(sol.host_infeasible_at_zero);
    }

    #[test]
    fn overlap_infeasible_flag_for_tiny_sequences() {
        let sol = solve_alpha(&AlphaInputs {
            t_layer_fwd: 0.1, // bandwidth·T = 100 < 200 mandatory bytes
            ..base()
        });
        assert_eq!(sol.alpha, 0.0);
        assert!(sol.overlap_infeasible_at_zero);
    }

    #[test]
    fn quantization_is_downward_to_eighths() {
        for (raw, want) in [(0.99, 0.875), (0.51, 0.5), (0.124, 0.0), (0.125, 0.125)] {
            let inp = AlphaInputs {
                bandwidth: 1000.0,
                t_layer_fwd: (200.0 + raw * 1400.0) / 1000.0,
                ..base()
            };
            let sol = solve_alpha(&inp);
            assert!(
                (sol.alpha - want).abs() < 1e-9,
                "raw {raw}: got {} want {want}",
                sol.alpha
            );
        }
    }

    #[test]
    fn alpha_monotone_in_bandwidth() {
        let mut prev = -1.0;
        for bw in [200.0, 400.0, 800.0, 1200.0, 1600.0, 3200.0] {
            let sol = solve_alpha(&AlphaInputs {
                bandwidth: bw,
                ..base()
            });
            assert!(sol.alpha >= prev);
            prev = sol.alpha;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn raw_alpha_upper_bounds_gridded() {
        for t in [0.05f64, 0.3, 0.5, 0.9, 1.4, 2.4] {
            let inp = AlphaInputs {
                t_layer_fwd: t,
                ..base()
            };
            let raw = solve_alpha_raw(&inp);
            let gridded = solve_alpha(&inp).alpha;
            assert!(raw >= gridded);
            assert!(raw - gridded < ALPHA_GRID);
        }
    }

    #[test]
    fn offload_bytes_consistent() {
        let inp = base();
        assert_eq!(offload_bytes(&inp, 0.0), 200);
        assert_eq!(offload_bytes(&inp, 1.0), 1600);
        assert_eq!(offload_bytes(&inp, 0.5), 900);
    }

    #[test]
    fn zero_others_degenerates_cleanly() {
        let sol = solve_alpha(&AlphaInputs {
            s_others: 0,
            ..base()
        });
        assert_eq!(sol.alpha, 1.0);
        assert_eq!(sol.binding, BindingConstraint::None);
    }
}

/// Two-tier (host + NVMe) extension of the α program — beyond the paper:
/// when the host constraint binds before the overlap constraint, the
/// remaining bandwidth headroom can spill additional token rows to a slower
/// NVMe tier (ZeRO-Infinity style), raising the total swapped fraction.
///
/// Maximises `α_host + α_nvme` subject to
///
/// ```text
/// (S_in + S_attn + α_host·S_o)/B_pcie + α_nvme·S_o/B_nvme ≤ T_layer
/// L_staged·(S_in + S_attn + α_host·S_o)                  ≤ M_host
/// L_staged·α_nvme·S_o                                     ≤ M_nvme
/// ```
///
/// Host rows are preferred (PCIe is faster), so `α_host` is solved first.
///
/// Kept as the test oracle of [`solve_alpha_tiered`], which reproduces it
/// bit-for-bit on a one-extra-tier chain.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTierSolution {
    pub alpha_host: f64,
    pub alpha_nvme: f64,
    pub host_infeasible_at_zero: bool,
}

#[cfg(test)]
impl TwoTierSolution {
    pub fn alpha_total(&self) -> f64 {
        self.alpha_host + self.alpha_nvme
    }
}

/// Solve the two-tier program. `nvme_bandwidth = 0` disables the tier and
/// reduces to [`solve_alpha`].
#[cfg(test)]
pub fn solve_alpha_two_tier(
    inp: &AlphaInputs,
    nvme_bandwidth: f64,
    nvme_capacity: u64,
) -> TwoTierSolution {
    let base = solve_alpha(inp);
    if nvme_bandwidth <= 0.0 || inp.s_others == 0 {
        return TwoTierSolution {
            alpha_host: base.alpha,
            alpha_nvme: 0.0,
            host_infeasible_at_zero: base.host_infeasible_at_zero,
        };
    }
    let alpha_host = base.alpha;
    let mandatory = (inp.s_input + inp.s_attn) as f64;
    let others = inp.s_others as f64;

    // Remaining overlap headroom after the host-tier traffic.
    let pcie_time = (mandatory + alpha_host * others) / inp.bandwidth;
    let headroom = (inp.t_layer_fwd - pcie_time).max(0.0);
    let (nvme_cap_bw, nvme_cap_space) =
        inp.intercepts(headroom * nvme_bandwidth, nvme_capacity, 0.0);
    let alpha_nvme = nvme_cap_bw
        .min(nvme_cap_space)
        .min(1.0 - alpha_host)
        .max(0.0);
    // quantise down to the 1/8 grid, consistent with the host tier
    let alpha_nvme = quantize_down(alpha_nvme);
    TwoTierSolution {
        alpha_host,
        alpha_nvme,
        host_infeasible_at_zero: base.host_infeasible_at_zero,
    }
}

/// One tier of the offload chain beyond the host, as the α waterfall sees
/// it: an effective per-GPU link bandwidth and a per-GPU capacity share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierLink {
    /// Effective per-GPU bandwidth of the tier's link, bytes/s
    /// (≤ 0 disables the tier).
    pub bandwidth: f64,
    /// This GPU's capacity share of the tier, bytes.
    pub capacity: u64,
}

/// Solution of the N-tier α program: one fraction per tier of the chain,
/// host (tier 0) first.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredSolution {
    /// Per-tier swapped fractions on the 1/8 grid, `alphas[0]` = host.
    alphas: Vec<f64>,
    /// See [`AlphaSolution::host_infeasible_at_zero`].
    pub host_infeasible_at_zero: bool,
}

impl TieredSolution {
    /// The total swapped fraction across the whole chain.
    pub fn alpha_total(&self) -> f64 {
        self.alphas.iter().sum()
    }

    /// The fraction placed on tier `idx` (0 beyond the solved chain).
    pub fn alpha(&self, idx: usize) -> f64 {
        self.alphas.get(idx).copied().unwrap_or(0.0)
    }
}

/// N-tier greedy waterfall generalisation of the two-tier host + NVMe
/// program (`solve_alpha_two_tier`, kept as its test oracle): the
/// host tier is solved by the base α program, then each deeper tier in
/// chain order absorbs as much of the remaining fraction as its bandwidth
/// headroom and capacity allow, each tier's spill quantised down to the
/// 1/8 grid before the next tier is considered.
///
/// Nearer tiers are always preferred (their links are faster), which makes
/// the greedy order optimal for the per-tier-linear program. For chains of
/// length ≤ 3 (≤ 1 entry in `extra`) this provably reduces to the legacy
/// solvers — the loop body is the exact expression sequence of
/// `solve_alpha_two_tier`, so `extra == []` returns `[solve_alpha(..)
/// .alpha]` and `extra == [nvme]` returns the two-tier solution
/// bit-for-bit (differential-tested in `tiered_tests`).
pub fn solve_alpha_tiered(inp: &AlphaInputs, extra: &[TierLink]) -> TieredSolution {
    let base = solve_alpha(inp);
    let mut alphas = Vec::with_capacity(1 + extra.len());
    alphas.push(base.alpha);
    if inp.s_others == 0 {
        alphas.resize(1 + extra.len(), 0.0);
        return TieredSolution {
            alphas,
            host_infeasible_at_zero: base.host_infeasible_at_zero,
        };
    }
    let mandatory = (inp.s_input + inp.s_attn) as f64;
    let others = inp.s_others as f64;

    // Transfer time already claimed by nearer tiers; starts at the host
    // (PCIe) traffic of the base solution.
    let mut time_used = (mandatory + base.alpha * others) / inp.bandwidth;
    let mut total = base.alpha;
    for link in extra {
        if link.bandwidth <= 0.0 {
            alphas.push(0.0);
            continue;
        }
        let headroom = (inp.t_layer_fwd - time_used).max(0.0);
        let (cap_bw, cap_space) = inp.intercepts(headroom * link.bandwidth, link.capacity, 0.0);
        let alpha_tier = cap_bw.min(cap_space).min(1.0 - total).max(0.0);
        // quantise down to the 1/8 grid, consistent with the host tier
        let alpha_tier = quantize_down(alpha_tier);
        alphas.push(alpha_tier);
        total += alpha_tier;
        time_used += alpha_tier * others / link.bandwidth;
    }
    TieredSolution {
        alphas,
        host_infeasible_at_zero: base.host_infeasible_at_zero,
    }
}

#[cfg(test)]
mod two_tier_tests {
    use super::*;

    fn host_bound_inputs() -> AlphaInputs {
        // Host caps α at 0.25, but the overlap budget would allow 1.0.
        AlphaInputs {
            s_input: 100,
            s_attn: 100,
            s_others: 1600,
            bandwidth: 1000.0,
            t_layer_fwd: 4.0,
            staged_layers: 10,
            host_capacity: 6000, // per layer 600 -> alpha_host = 0.25
        }
    }

    #[test]
    fn nvme_recovers_host_bound_fraction() {
        let inp = host_bound_inputs();
        assert_eq!(solve_alpha(&inp).alpha, 0.25);
        let two = solve_alpha_two_tier(&inp, 500.0, u64::MAX / 4);
        assert_eq!(two.alpha_host, 0.25);
        assert!(two.alpha_nvme > 0.0, "NVMe must absorb spill");
        assert!(two.alpha_total() <= 1.0);
    }

    #[test]
    fn disabled_tier_reduces_to_base() {
        let inp = host_bound_inputs();
        let two = solve_alpha_two_tier(&inp, 0.0, u64::MAX / 4);
        assert_eq!(two.alpha_host, 0.25);
        assert_eq!(two.alpha_nvme, 0.0);
    }

    #[test]
    fn nvme_capacity_caps_spill() {
        let inp = host_bound_inputs();
        let unlimited = solve_alpha_two_tier(&inp, 500.0, u64::MAX / 4);
        let tiny = solve_alpha_two_tier(&inp, 500.0, 2200); // 220/layer -> 0.1375 -> 0.125
        assert!(tiny.alpha_nvme < unlimited.alpha_nvme);
        assert!((tiny.alpha_nvme - 0.125).abs() < 1e-9);
    }

    #[test]
    fn overlap_bound_inputs_gain_nothing() {
        // When PCIe time already fills the layer, NVMe cannot help.
        let inp = AlphaInputs {
            t_layer_fwd: 1.0,
            host_capacity: u64::MAX / 4,
            ..host_bound_inputs()
        };
        let base = solve_alpha(&inp);
        let two = solve_alpha_two_tier(&inp, 500.0, u64::MAX / 4);
        assert_eq!(two.alpha_host, base.alpha);
        // tiny residual grid headroom at most
        assert!(two.alpha_nvme <= 0.125);
    }
}

#[cfg(test)]
mod tiered_tests {
    use super::*;

    /// A dense input grid spanning host-bound, overlap-bound, roomy and
    /// degenerate cells.
    fn input_grid() -> Vec<AlphaInputs> {
        let mut out = Vec::new();
        for s_others in [0u64, 400, 1600, 6400] {
            for bandwidth in [250.0, 1000.0, 4000.0] {
                for t_layer_fwd in [0.05, 0.5, 1.0, 4.0] {
                    for host_capacity in [100u64, 6000, 60_000, u64::MAX / 4] {
                        out.push(AlphaInputs {
                            s_input: 100,
                            s_attn: 100,
                            s_others,
                            bandwidth,
                            t_layer_fwd,
                            staged_layers: 10,
                            host_capacity,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn empty_chain_reduces_to_solve_alpha() {
        for inp in input_grid() {
            let base = solve_alpha(&inp);
            let tiered = solve_alpha_tiered(&inp, &[]);
            assert_eq!(tiered.alphas, vec![base.alpha], "{inp:?}");
            assert_eq!(
                tiered.host_infeasible_at_zero, base.host_infeasible_at_zero,
                "{inp:?}"
            );
            assert_eq!(tiered.alpha_total(), base.alpha, "{inp:?}");
        }
    }

    #[test]
    fn one_extra_tier_reduces_to_solve_alpha_two_tier() {
        // The waterfall must be bit-identical to the hand-rolled two-tier
        // solver over the whole grid × every NVMe shape, including the
        // disabled-tier and capacity-starved corners.
        for inp in input_grid() {
            for nvme_bw in [0.0, 125.0, 500.0, 2000.0] {
                for nvme_cap in [0u64, 2200, 50_000, u64::MAX / 4] {
                    let two = solve_alpha_two_tier(&inp, nvme_bw, nvme_cap);
                    let tiered = solve_alpha_tiered(
                        &inp,
                        &[TierLink {
                            bandwidth: nvme_bw,
                            capacity: nvme_cap,
                        }],
                    );
                    assert_eq!(tiered.alphas.len(), 2, "{inp:?}");
                    assert!(
                        tiered.alpha(0).to_bits() == two.alpha_host.to_bits()
                            && tiered.alpha(1).to_bits() == two.alpha_nvme.to_bits(),
                        "{inp:?} nvme_bw={nvme_bw} nvme_cap={nvme_cap}: \
                         tiered {:?} vs two-tier ({}, {})",
                        tiered.alphas,
                        two.alpha_host,
                        two.alpha_nvme
                    );
                    assert_eq!(
                        tiered.host_infeasible_at_zero, two.host_infeasible_at_zero,
                        "{inp:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deeper_tiers_absorb_what_nearer_tiers_cannot() {
        // Host capped at 0.25, slow NVMe at ~0.25 more: a third (CXL-like)
        // tier between them in the chain order picks up further spill, and
        // the total never exceeds 1.
        let inp = AlphaInputs {
            s_input: 100,
            s_attn: 100,
            s_others: 1600,
            bandwidth: 1000.0,
            t_layer_fwd: 4.0,
            staged_layers: 10,
            host_capacity: 6000,
        };
        let shallow = solve_alpha_tiered(
            &inp,
            &[TierLink {
                bandwidth: 125.0,
                capacity: u64::MAX / 4,
            }],
        );
        let deep = solve_alpha_tiered(
            &inp,
            &[
                TierLink {
                    bandwidth: 125.0,
                    capacity: u64::MAX / 4,
                },
                TierLink {
                    bandwidth: 2000.0,
                    capacity: u64::MAX / 4,
                },
            ],
        );
        assert_eq!(deep.alpha(0), shallow.alpha(0));
        assert_eq!(deep.alpha(1), shallow.alpha(1));
        assert!(deep.alpha(2) > 0.0, "third tier must absorb spill");
        assert!(deep.alpha_total() > shallow.alpha_total());
        assert!(deep.alpha_total() <= 1.0);
    }

    #[test]
    fn waterfall_respects_per_tier_capacity_and_grid() {
        let inp = AlphaInputs {
            s_input: 100,
            s_attn: 100,
            s_others: 1600,
            bandwidth: 1000.0,
            t_layer_fwd: 8.0,
            staged_layers: 10,
            host_capacity: 6000,
        };
        let sol = solve_alpha_tiered(
            &inp,
            &[
                TierLink {
                    bandwidth: 2000.0,
                    capacity: 2200, // 220/layer → 0.1375 → grid 0.125
                },
                TierLink {
                    bandwidth: 2000.0,
                    capacity: u64::MAX / 4,
                },
            ],
        );
        assert_eq!(sol.alpha(0), 0.25);
        assert!((sol.alpha(1) - 0.125).abs() < 1e-12);
        // Every fraction sits on the 1/8 grid.
        for a in &sol.alphas {
            assert!((a / ALPHA_GRID - (a / ALPHA_GRID).round()).abs() < 1e-9);
        }
        assert!(sol.alpha_total() <= 1.0);
    }
}
