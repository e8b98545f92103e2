//! The memory plan: every tensor's device address for one iteration.
//!
//! The plan is the artifact flowing from MEMO's memory planner to its runtime
//! executor (Figure 10). It is serialisable (the paper's components exchange
//! it as a file) and convertible into a
//! [`PlanAllocator`](memo_alloc::plan::PlanAllocator)-compatible address set.

use memo_model::trace::{IterationTrace, MemOp, TensorId};
use std::collections::HashMap;

/// One tensor's planned placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTensor {
    pub offset: u64,
    pub bytes: u64,
}

/// The full iteration plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryPlan {
    pub placements: HashMap<TensorId, PlannedTensor>,
    /// Peak bytes of the planned arena (the single up-front reservation).
    pub peak: u64,
}

impl MemoryPlan {
    /// Build a plan from a solved DSA assignment over `inst`.
    pub fn from_assignment(
        inst: &crate::dsa::DsaInstance,
        assignment: &crate::dsa::Assignment,
    ) -> MemoryPlan {
        let mut placements = HashMap::with_capacity(inst.len());
        for (t, &o) in inst.tensors.iter().zip(&assignment.offsets) {
            placements.insert(
                t.id,
                PlannedTensor {
                    offset: o,
                    bytes: t.size,
                },
            );
        }
        MemoryPlan {
            placements,
            peak: assignment.peak,
        }
    }

    /// `(tensor, offset, bytes)` triples for building a `PlanAllocator`.
    pub fn address_triples(&self) -> impl Iterator<Item = (TensorId, u64, u64)> + '_ {
        self.placements
            .iter()
            .map(|(&id, p)| (id, p.offset, p.bytes))
    }

    /// Validate the plan against the trace it was built for: every request
    /// is covered, and simulating the trace never co-locates live tensors
    /// nor exceeds the declared peak.
    pub fn validate_against(&self, trace: &IterationTrace) -> Result<(), String> {
        // Interval bookkeeping over live tensors.
        let mut live: Vec<(u64, u64, TensorId)> = Vec::new();
        for r in trace.flatten() {
            match r.op {
                MemOp::Malloc => {
                    let p = self
                        .placements
                        .get(&r.tensor)
                        .ok_or_else(|| format!("tensor {} not planned", r.tensor.0))?;
                    if p.bytes < r.bytes {
                        return Err(format!(
                            "tensor {} planned {} bytes but needs {}",
                            r.tensor.0, p.bytes, r.bytes
                        ));
                    }
                    if p.offset + p.bytes > self.peak {
                        return Err(format!(
                            "tensor {} exceeds declared peak {}",
                            r.tensor.0, self.peak
                        ));
                    }
                    for &(o, b, id) in &live {
                        if p.offset < o + b && o < p.offset + p.bytes {
                            return Err(format!(
                                "live tensors {} and {} overlap in plan",
                                r.tensor.0, id.0
                            ));
                        }
                    }
                    live.push((p.offset, p.bytes, r.tensor));
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
        let mut plan = MemoryPlan::default();
        let mut cursor = 0u64;
        for r in trace.flatten() {
            if r.op == MemOp::Malloc {
                plan.placements.insert(
                    r.tensor,
                    PlannedTensor {
                        offset: cursor,
                        bytes: r.bytes,
                    },
                );
                cursor += r.bytes;
            }
        }
        plan.peak = cursor;
        plan.validate_against(&trace).unwrap();
    }

    #[test]
    fn overlapping_plan_is_rejected() {
        let m = ModelConfig::tiny(2, 32, 2, 64);
        let dims = LayerDims::new(64, &m, DType::BF16);
        let trace = generate(&TraceParams::new(&m, dims, RematPolicy::FullRecompute));
        // Place everything at offset 0 — guaranteed overlap somewhere.
        let mut plan = MemoryPlan::default();
        let mut max_bytes = 0;
        for r in trace.flatten() {
            if r.op == MemOp::Malloc {
                plan.placements.insert(
                    r.tensor,
                    PlannedTensor {
                        offset: 0,
                        bytes: r.bytes,
                    },
                );
                max_bytes = max_bytes.max(r.bytes);
            }
        }
        plan.peak = max_bytes;
        assert!(plan.validate_against(&trace).is_err());
    }
}
