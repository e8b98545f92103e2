//! The bi-level hierarchical MIP of §4.2 / Figure 8.
//!
//! Level 1 solves the offline-DSA instance of **one** transformer layer's
//! forward segment and one backward segment (all layers are identical, so one
//! solve each suffices). Level 2 replaces every transformer segment's
//! intra-segment requests with a single *pseudo request* of the level-1 peak
//! size, then solves the resulting whole-iteration instance — which now
//! contains only: pseudo requests, embedding/classifier requests, and
//! cross-segment tensors (boundary activations and gradients).
//!
//! The composition is sound because a layer's transient tensors only ever
//! share addresses with (a) each other — governed by the level-1 plan — and
//! (b) whatever level 2 later places in the pseudo block's address range,
//! which by construction does not temporally overlap the segment.

use crate::bnb::{self, BnbOptions, Solution};
use crate::dsa::DsaInstance;
use crate::memplan::{MemoryPlan, PlannedTensor};
use memo_model::trace::{IterationTrace, MemOp, SegmentKind, TensorId};
use std::collections::HashMap;

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Solver options for the level-1 (single layer) instances.
    pub level1: BnbOptions,
    /// Solver options for the level-2 (whole model) instance.
    pub level2: BnbOptions,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            level1: BnbOptions::default(),
            level2: BnbOptions {
                node_limit: 500_000,
                max_tensors: 28,
            },
        }
    }
}

/// Statistics of one solver invocation.
#[derive(Debug, Clone, Copy)]
pub struct LevelStats {
    pub n_tensors: usize,
    pub peak: u64,
    pub lower_bound: u64,
    pub optimal: bool,
    pub nodes: u64,
}

impl From<&Solution> for LevelStats {
    fn from(s: &Solution) -> Self {
        LevelStats {
            n_tensors: s.assignment.offsets.len(),
            peak: s.assignment.peak,
            lower_bound: s.lower_bound,
            optimal: s.optimal,
            nodes: s.nodes,
        }
    }
}

/// Whole-trace planner info (present only when the plan came from the
/// `PlannerKind::WholeTrace` dispatch path rather than the bi-level
/// decomposition).
#[derive(Debug, Clone, Copy)]
pub struct WholeTraceStats {
    pub backend: crate::dispatch::PlannerBackend,
    /// Boxing's certified `2·K·LOAD` bound (None on the exact path).
    pub guarantee: Option<u64>,
}

/// Result of the planner. For bi-level plans `layer_fwd`/`layer_bwd` carry
/// the level-1 solves and `level2` the composition solve; for whole-trace
/// plans the layer fields are `None`, `level2` describes the single flat
/// solve, and `whole` names the backend that produced it.
#[derive(Debug, Clone)]
pub struct BilevelReport {
    pub plan: MemoryPlan,
    pub layer_fwd: Option<LevelStats>,
    pub layer_bwd: Option<LevelStats>,
    pub level2: LevelStats,
    pub whole: Option<WholeTraceStats>,
}

/// Internal: a segment's position in the flattened event index space.
struct SegmentSpan {
    kind: SegmentKind,
    start: usize,
    end: usize,
}

/// Run the bi-level planner over an iteration trace.
///
/// Panics if the trace is malformed (use `IterationTrace::validate` first)
/// or if transformer segments are not identical.
///
/// ```
/// use memo_model::activations::LayerDims;
/// use memo_model::config::{DType, ModelConfig};
/// use memo_model::trace::{generate, RematPolicy, TraceParams};
/// use memo_plan::bilevel::{plan_iteration, PlanOptions};
///
/// let model = ModelConfig::tiny(4, 64, 4, 128);
/// let dims = LayerDims::new(256, &model, DType::BF16);
/// let trace = generate(&TraceParams::new(&model, dims, RematPolicy::MemoTokenWise));
/// let report = plan_iteration(&trace, &PlanOptions::default());
/// report.plan.validate_against(&trace).unwrap();
/// assert!(report.plan.peak >= trace.peak_live_bytes());
/// ```
pub fn plan_iteration(trace: &IterationTrace, opts: &PlanOptions) -> BilevelReport {
    assert!(
        trace.transformer_segments_identical(),
        "bi-level planning requires identical transformer segments"
    );

    // Flatten with global indices and record segment spans.
    let mut spans: Vec<SegmentSpan> = Vec::with_capacity(trace.segments.len());
    let mut idx = 0usize;
    for seg in &trace.segments {
        spans.push(SegmentSpan {
            kind: seg.kind,
            start: idx,
            end: idx + seg.requests.len(),
        });
        idx += seg.requests.len();
    }
    let total_events = idx;

    // Birth/death of every tensor in global indices.
    let mut births: HashMap<TensorId, (usize, u64)> = HashMap::new();
    let mut lifespans: HashMap<TensorId, (usize, usize, u64)> = HashMap::new();
    for (i, r) in trace.flatten().enumerate() {
        match r.op {
            MemOp::Malloc => {
                births.insert(r.tensor, (i, r.bytes));
            }
            MemOp::Free => {
                let (birth, bytes) = births.remove(&r.tensor).expect("validated trace");
                lifespans.insert(r.tensor, (birth, i, bytes));
            }
        }
    }
    assert!(births.is_empty(), "trace leaks tensors");

    // Partition tensors: intra-transformer-segment vs level-2 direct.
    let segment_of = |event: usize| -> usize {
        spans
            .iter()
            .position(|s| s.start <= event && event < s.end)
            .expect("event within trace")
    };

    // For each transformer segment, its intra tensors in birth order.
    let mut intra: HashMap<usize, Vec<(TensorId, usize, usize, u64)>> = HashMap::new();
    let mut direct: Vec<(TensorId, usize, usize, u64)> = Vec::new();
    for (&id, &(birth, death, bytes)) in &lifespans {
        let sb = segment_of(birth);
        let sd = segment_of(death);
        if sb == sd && spans[sb].kind.is_transformer() {
            intra.entry(sb).or_default().push((id, birth, death, bytes));
        } else {
            direct.push((id, birth, death, bytes));
        }
    }
    // Births are distinct event indices, so sorting by birth fixes the order
    // the map's random iteration would not. The level-2 instance, and with
    // it the solver's tie-breaks, is then a pure function of the trace.
    direct.sort_by_key(|&(_, birth, _, _)| birth);
    for v in intra.values_mut() {
        v.sort_by_key(|&(_, birth, _, _)| birth);
    }

    // Level 1: solve the reference fwd and bwd layer segments.
    let reference_seg = |want_fwd: bool| -> Option<usize> {
        spans.iter().position(|s| match s.kind {
            SegmentKind::LayerFwd(_) => want_fwd,
            SegmentKind::LayerBwd(_) => !want_fwd,
            _ => false,
        })
    };
    let solve_level1 = |seg_idx: Option<usize>| -> Option<(usize, Solution)> {
        let seg_idx = seg_idx?;
        let tensors = intra.get(&seg_idx)?;
        let inst = DsaInstance {
            tensors: tensors
                .iter()
                .map(|&(id, birth, death, bytes)| crate::dsa::DsaTensor {
                    id,
                    size: bytes,
                    birth,
                    death,
                })
                .collect(),
        };
        Some((seg_idx, bnb::solve(&inst, opts.level1)))
    };
    let fwd_sol = solve_level1(reference_seg(true));
    let bwd_sol = solve_level1(reference_seg(false));

    // Level 2 instance: direct tensors + one pseudo tensor per transformer
    // segment that has intra tensors.
    let mut l2_tensors: Vec<crate::dsa::DsaTensor> = direct
        .iter()
        .map(|&(id, birth, death, bytes)| crate::dsa::DsaTensor {
            id,
            size: bytes,
            birth,
            death,
        })
        .collect();
    let max_id = lifespans.keys().map(|t| t.0).max().unwrap_or(0);
    let mut pseudo_of_segment: HashMap<usize, TensorId> = HashMap::new();
    let mut next_pseudo = max_id + 1;
    for (seg_idx, span) in spans.iter().enumerate() {
        if !span.kind.is_transformer() || !intra.contains_key(&seg_idx) {
            continue;
        }
        let peak = match span.kind {
            SegmentKind::LayerFwd(_) => fwd_sol.as_ref().map(|(_, s)| s.assignment.peak),
            SegmentKind::LayerBwd(_) => bwd_sol.as_ref().map(|(_, s)| s.assignment.peak),
            _ => None,
        }
        .expect("transformer segment with intra tensors has a level-1 solve");
        let pid = TensorId(next_pseudo);
        next_pseudo += 1;
        pseudo_of_segment.insert(seg_idx, pid);
        l2_tensors.push(crate::dsa::DsaTensor {
            id: pid,
            size: peak,
            birth: span.start,
            // The pseudo block must cover the whole segment; `end` is the
            // index just past the segment's last request.
            death: span.end.min(total_events),
        });
    }
    let l2_inst = DsaInstance {
        tensors: l2_tensors,
    };
    let l2_sol = bnb::solve(&l2_inst, opts.level2);
    debug_assert!(l2_sol.assignment.validate(&l2_inst).is_ok());

    // Compose the final plan.
    let mut plan = MemoryPlan {
        placements: HashMap::new(),
        peak: l2_sol.assignment.peak,
    };
    let l2_offset_of: HashMap<TensorId, u64> = l2_inst
        .tensors
        .iter()
        .zip(&l2_sol.assignment.offsets)
        .map(|(t, &o)| (t.id, o))
        .collect();

    for &(id, _, _, bytes) in &direct {
        plan.placements.insert(
            id,
            PlannedTensor {
                offset: l2_offset_of[&id],
                bytes,
            },
        );
    }
    // Each transformer segment's intra tensors reuse the reference level-1
    // offsets (identical segments => identical birth order => positional map).
    for (&seg_idx, tensors) in &intra {
        let sol = match spans[seg_idx].kind {
            SegmentKind::LayerFwd(_) => &fwd_sol,
            SegmentKind::LayerBwd(_) => &bwd_sol,
            _ => unreachable!("intra only holds transformer segments"),
        };
        let (_, sol) = sol.as_ref().expect("level-1 solve exists");
        let base = l2_offset_of[&pseudo_of_segment[&seg_idx]];
        assert_eq!(tensors.len(), sol.assignment.offsets.len());
        for (k, &(id, _, _, bytes)) in tensors.iter().enumerate() {
            plan.placements.insert(
                id,
                PlannedTensor {
                    offset: base + sol.assignment.offsets[k],
                    bytes,
                },
            );
        }
    }

    BilevelReport {
        plan,
        layer_fwd: fwd_sol.as_ref().map(|(_, s)| s.into()),
        layer_bwd: bwd_sol.as_ref().map(|(_, s)| s.into()),
        level2: (&l2_sol).into(),
        whole: None,
    }
}

/// Plan the whole iteration as one flat instance under the size-based
/// dispatch policy (exact BnB below the threshold, boxing above it,
/// best-fit as last resort) — the `PlannerKind::WholeTrace` pipeline.
pub fn plan_whole(
    trace: &IterationTrace,
    opts: &crate::dispatch::DispatchOptions,
) -> BilevelReport {
    let (plan, sol) = crate::dispatch::plan_whole_trace(trace, opts);
    BilevelReport {
        plan,
        layer_fwd: None,
        layer_bwd: None,
        level2: sol.level_stats(),
        whole: Some(WholeTraceStats {
            backend: sol.backend,
            guarantee: sol.guarantee,
        }),
    }
}

/// The flat (single-level) formulation of the whole iteration, solved with
/// the same machinery — the baseline the paper calls computationally
/// intractable for commercial MIP solvers. Our heuristic fallback keeps it
/// finite, so it serves as the ablation comparator for plan quality and
/// solve time.
pub fn plan_flat(trace: &IterationTrace, opts: BnbOptions) -> (MemoryPlan, LevelStats) {
    let inst = DsaInstance::from_trace(trace);
    let sol = bnb::solve(&inst, opts);
    let mut plan = MemoryPlan {
        placements: HashMap::new(),
        peak: sol.assignment.peak,
    };
    for (t, &o) in inst.tensors.iter().zip(&sol.assignment.offsets) {
        plan.placements.insert(
            t.id,
            PlannedTensor {
                offset: o,
                bytes: t.size,
            },
        );
    }
    let stats = (&sol).into();
    (plan, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_model::activations::LayerDims;
    use memo_model::config::{DType, ModelConfig};
    use memo_model::trace::{generate, RematPolicy, TraceParams};

    fn trace(policy: RematPolicy, layers: usize) -> IterationTrace {
        let m = ModelConfig::tiny(layers, 64, 4, 128);
        let dims = LayerDims::new(256, &m, DType::BF16);
        let mut p = TraceParams::new(&m, dims, policy);
        p.comm_factor = 2;
        p.ce_chunk_tokens = 64;
        generate(&p)
    }

    #[test]
    fn bilevel_plan_validates_for_all_policies() {
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            let t = trace(policy, 4);
            let report = plan_iteration(&t, &PlanOptions::default());
            report
                .plan
                .validate_against(&t)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            assert!(report.plan.peak >= t.peak_live_bytes());
        }
    }

    #[test]
    fn bilevel_peak_close_to_liveness_bound() {
        let t = trace(RematPolicy::MemoTokenWise, 6);
        let report = plan_iteration(&t, &PlanOptions::default());
        let lb = t.peak_live_bytes();
        let ratio = report.plan.peak as f64 / lb as f64;
        assert!(
            ratio < 1.35,
            "bi-level peak {} vs liveness bound {lb} (ratio {ratio:.2})",
            report.plan.peak
        );
    }

    #[test]
    fn bilevel_not_worse_than_flat_heuristic_by_much() {
        let t = trace(RematPolicy::FullRecompute, 4);
        let report = plan_iteration(&t, &PlanOptions::default());
        let (flat, _) = plan_flat(&t, BnbOptions::default());
        flat.validate_against(&t).unwrap();
        let ratio = report.plan.peak as f64 / flat.peak as f64;
        assert!(
            ratio < 1.5,
            "bilevel {} vs flat {} (ratio {ratio:.2})",
            report.plan.peak,
            flat.peak
        );
    }

    #[test]
    fn level1_stats_present_and_layer_plans_reused() {
        let t = trace(RematPolicy::MemoTokenWise, 5);
        let report = plan_iteration(&t, &PlanOptions::default());
        assert!(report.layer_fwd.is_some());
        assert!(report.layer_bwd.is_some());
        // Level-2 instance size must be tiny relative to the full trace.
        assert!(report.level2.n_tensors * 4 < t.len());
    }

    #[test]
    fn plan_executes_on_plan_allocator() {
        use memo_alloc::plan::PlanAllocator;
        use memo_alloc::snapshot::replay;
        let t = trace(RematPolicy::MemoTokenWise, 4);
        let report = plan_iteration(&t, &PlanOptions::default());
        let mut alloc =
            PlanAllocator::from_addresses(report.plan.address_triples(), report.plan.peak);
        let series = replay(&mut alloc, &t);
        assert!(series.oom.is_none(), "plan replay failed: {:?}", series.oom);
        assert_eq!(series.reorgs, 0);
        assert!(series.peak_reserved() <= report.plan.peak);
    }
}
