//! The memory plan: every tensor's device address for one iteration.
//!
//! The plan is the artifact flowing from MEMO's memory planner to its runtime
//! executor (Figure 10). It is serialisable (the paper's components exchange
//! it as a file) and convertible into a
//! `memo_alloc::plan::PlanAllocator`-compatible address set.

use memo_model::trace::{IterationTrace, MemOp, TensorId};

/// One tensor's planned placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTensor {
    pub offset: u64,
    pub bytes: u64,
}

/// The full iteration plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryPlan {
    /// One placement per tensor, sorted by tensor id. A sorted `Vec`
    /// instead of a map: the planner builds plans on the search path, where
    /// only `peak` is read, so building one must not hash every tensor.
    placements: Vec<(TensorId, PlannedTensor)>,
    /// Peak bytes of the planned arena (the single up-front reservation).
    pub peak: u64,
}

impl MemoryPlan {
    /// A plan from `(tensor, placement)` pairs in any order.
    ///
    /// Panics if a tensor is placed twice.
    pub fn new(mut placements: Vec<(TensorId, PlannedTensor)>, peak: u64) -> MemoryPlan {
        if !placements.is_sorted_by_key(|&(id, _)| id) {
            placements.sort_unstable_by_key(|&(id, _)| id);
        }
        assert!(
            placements.windows(2).all(|w| w[0].0 != w[1].0),
            "tensor placed twice"
        );
        MemoryPlan { placements, peak }
    }

    /// Build a plan from a solved DSA assignment over `inst`.
    pub fn from_assignment(
        inst: &crate::dsa::DsaInstance,
        assignment: &crate::dsa::Assignment,
    ) -> MemoryPlan {
        let placements = inst.tensors.iter().zip(&assignment.offsets).map(|(t, &o)| {
            let p = PlannedTensor {
                offset: o,
                bytes: t.size,
            };
            (t.id, p)
        });
        MemoryPlan::new(placements.collect(), assignment.peak)
    }

    /// Every placement, sorted by tensor id.
    pub fn placements(&self) -> &[(TensorId, PlannedTensor)] {
        &self.placements
    }

    /// The placement of `tensor`, if planned.
    pub fn get(&self, tensor: TensorId) -> Option<&PlannedTensor> {
        let i = self
            .placements
            .binary_search_by_key(&tensor, |&(id, _)| id)
            .ok()?;
        Some(&self.placements[i].1)
    }

    /// `(tensor, offset, bytes)` triples for building a `PlanAllocator`.
    pub fn address_triples(&self) -> impl Iterator<Item = (TensorId, u64, u64)> + '_ {
        self.placements
            .iter()
            .map(|&(id, p)| (id, p.offset, p.bytes))
    }

    /// Validate the plan against the trace it was built for: every request
    /// is covered, and simulating the trace never co-locates live tensors
    /// nor exceeds the declared peak (nor `u64::MAX`).
    pub fn validate_against(&self, trace: &IterationTrace) -> Result<(), String> {
        // `[start, end)` of every live tensor.
        let mut live: Vec<(u64, u64, TensorId)> = Vec::new();
        for r in trace.flatten() {
            match r.op {
                MemOp::Malloc => {
                    let p = self
                        .get(r.tensor)
                        .ok_or_else(|| format!("tensor {} not planned", r.tensor.0))?;
                    if p.bytes < r.bytes {
                        return Err(format!(
                            "tensor {} planned {} bytes but needs {}",
                            r.tensor.0, p.bytes, r.bytes
                        ));
                    }
                    let end = p.offset.checked_add(p.bytes).ok_or_else(|| {
                        format!(
                            "tensor {} at offset {} with {} bytes ends past u64::MAX",
                            r.tensor.0, p.offset, p.bytes
                        )
                    })?;
                    if end > self.peak {
                        return Err(format!(
                            "tensor {} exceeds declared peak {}",
                            r.tensor.0, self.peak
                        ));
                    }
                    for &(start, stop, id) in &live {
                        if p.offset < stop && start < end {
                            return Err(format!(
                                "live tensors {} and {} overlap in plan",
                                r.tensor.0, id.0
                            ));
                        }
                    }
                    live.push((p.offset, end, r.tensor));
                }
                MemOp::Free => {
                    let idx = live
                        .iter()
                        .position(|&(_, _, id)| id == r.tensor)
                        .ok_or_else(|| format!("freeing non-live tensor {}", r.tensor.0))?;
                    live.swap_remove(idx);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_model::activations::LayerDims;
    use memo_model::config::{DType, ModelConfig};
    use memo_model::trace::{generate, RematPolicy, TraceParams};

    #[test]
    fn naive_bump_plan_validates() {
        // A plan giving every tensor a unique address range always validates.
        let m = ModelConfig::tiny(2, 32, 2, 64);
        let dims = LayerDims::new(64, &m, DType::BF16);
        let trace = generate(&TraceParams::new(&m, dims, RematPolicy::FullRecompute));
        let mut placements = Vec::new();
        let mut cursor = 0u64;
        for r in trace.flatten() {
            if r.op == MemOp::Malloc {
                let p = PlannedTensor {
                    offset: cursor,
                    bytes: r.bytes,
                };
                placements.push((r.tensor, p));
                cursor += r.bytes;
            }
        }
        let plan = MemoryPlan::new(placements, cursor);
        plan.validate_against(&trace).unwrap();
    }

    #[test]
    fn overlapping_plan_is_rejected() {
        let m = ModelConfig::tiny(2, 32, 2, 64);
        let dims = LayerDims::new(64, &m, DType::BF16);
        let trace = generate(&TraceParams::new(&m, dims, RematPolicy::FullRecompute));
        // Place everything at offset 0 — guaranteed overlap somewhere.
        let mut placements = Vec::new();
        let mut max_bytes = 0;
        for r in trace.flatten() {
            if r.op == MemOp::Malloc {
                let p = PlannedTensor {
                    offset: 0,
                    bytes: r.bytes,
                };
                placements.push((r.tensor, p));
                max_bytes = max_bytes.max(r.bytes);
            }
        }
        let plan = MemoryPlan::new(placements, max_bytes);
        assert!(plan.validate_against(&trace).is_err());
    }

    #[test]
    fn placement_past_u64_max_is_rejected() {
        let m = ModelConfig::tiny(2, 32, 2, 64);
        let dims = LayerDims::new(64, &m, DType::BF16);
        let trace = generate(&TraceParams::new(&m, dims, RematPolicy::FullRecompute));
        let first = trace.flatten().next().unwrap();
        let placements = vec![(
            first.tensor,
            PlannedTensor {
                offset: u64::MAX - 3,
                bytes: first.bytes,
            },
        )];
        let err = MemoryPlan::new(placements, 100_000_000_000)
            .validate_against(&trace)
            .unwrap_err();
        assert!(err.contains(&format!("tensor {}", first.tensor.0)), "{err}");
        assert!(err.contains("past u64::MAX"), "{err}");
    }
}
