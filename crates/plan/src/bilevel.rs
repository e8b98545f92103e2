//! The bi-level hierarchical MIP of §4.2 / Figure 8.
//!
//! Level 1 solves the offline-DSA instance of **one** transformer layer's
//! forward segment and one backward segment. The trace stores each
//! direction as one layer body (`memo_model::trace`'s periodic form), so
//! every layer is identical by construction and level 1 reads the two
//! bodies directly. Level 2 replaces every transformer segment's
//! intra-segment requests with a single *pseudo request* of the level-1
//! peak size, then solves the resulting whole-iteration instance — which
//! now contains only: pseudo requests, embedding/classifier requests, and
//! cross-segment tensors (boundary activations and gradients).
//!
//! Neither level expands the trace. Level 2's instance is built from body
//! lengths and layer offsets: a body's cross-segment requests sit at
//! `segment start + offset in the body`, with tensor ids resolved per
//! layer, so building it costs O(direct tensors + layers). The plan is then
//! composed in one walk over the allocations, in tensor-id order, without
//! hashing a tensor.
//!
//! The composition is sound because a layer's transient tensors only ever
//! share addresses with (a) each other — governed by the level-1 plan — and
//! (b) whatever level 2 later places in the pseudo block's address range,
//! which by construction does not temporally overlap the segment.

use crate::bnb::{self, BnbOptions, Solution};
use crate::dsa::{DsaInstance, DsaTensor};
use crate::memplan::{MemoryPlan, PlannedTensor};
use memo_model::trace::{BodyRequest, IterationTrace, MemOp, Segment, SegmentKind, Slot, TensorId};

/// Solver options for the level-1 (single layer) instances: the
/// [`BnbOptions`] default.
const LEVEL1: BnbOptions = BnbOptions {
    node_limit: 2_000_000,
    max_tensors: 40,
};

/// Solver options for the level-2 (whole model) instance: a quarter of the
/// default node budget, and exact search only up to 28 tensors.
const LEVEL2: BnbOptions = BnbOptions {
    node_limit: 500_000,
    max_tensors: 28,
};

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

/// One layer body split for planning: the tensors the body allocates and
/// frees itself (the level-1 instance) and the requests that cross the
/// segment boundary (level-2 direct tensors).
struct BodySplit {
    /// `(slot, birth, death, bytes)` of the body's own tensors in birth
    /// order; births and deaths are offsets into the body.
    intra: Vec<(Slot, usize, usize, u64)>,
    /// `(offset, request)` of every other request.
    cross: Vec<(usize, BodyRequest)>,
    /// Every allocation in order: slot, bytes, and index into `intra` for
    /// the body's own tensors.
    mallocs: Vec<(Slot, u64, Option<usize>)>,
}

impl BodySplit {
    /// Split the body of layer segment `seg`, a forward one if `fwd`.
    fn new(seg: Segment<'_>, fwd: bool) -> BodySplit {
        let (body, _) = seg.layer().expect("a layer segment");
        // The slots the body allocates, as indices.
        let own = |slot: Slot| match (slot, fwd) {
            (Slot::Fwd(k), true) | (Slot::Bwd(k), false) => Some(k as usize),
            _ => None,
        };
        let slots = body
            .iter()
            .filter_map(|r| own(r.slot))
            .max()
            .map_or(0, |s| s + 1);
        let mut death = vec![None; slots];
        for (k, r) in body.iter().enumerate() {
            if let (Some(s), MemOp::Free) = (own(r.slot), r.op) {
                death[s] = Some(k);
            }
        }
        // Allocation order is birth order.
        let intra: Vec<(Slot, usize, usize, u64)> = body
            .iter()
            .enumerate()
            .filter(|(_, r)| r.op == MemOp::Malloc)
            .filter_map(|(k, r)| Some((r.slot, k, death[own(r.slot)?]?, r.bytes)))
            .collect();
        let mut rank = vec![None; slots];
        for (k, &(slot, ..)) in intra.iter().enumerate() {
            rank[own(slot).expect("intra slots are own")] = Some(k);
        }
        let rank_of = |slot: Slot| own(slot).and_then(|s| rank[s]);
        BodySplit {
            cross: body
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, r)| rank_of(r.slot).is_none())
                .collect(),
            mallocs: body
                .iter()
                .filter(|r| r.op == MemOp::Malloc)
                .map(|r| (r.slot, r.bytes, rank_of(r.slot)))
                .collect(),
            intra,
        }
    }

    /// The level-1 instance of the copy of this body that `trace` runs as
    /// layer `layer`, starting at request `start`.
    fn instance(&self, trace: &IterationTrace, layer: usize, start: usize) -> DsaInstance {
        let tensors = self
            .intra
            .iter()
            .map(|&(slot, birth, death, bytes)| DsaTensor {
                id: trace.resolve(slot, layer),
                size: bytes,
                birth: position(start + birth),
                death: position(start + death),
            });
        DsaInstance::new(tensors.collect())
    }
}

/// A trace position as a [`DsaTensor`] position.
fn position(index: usize) -> u32 {
    u32::try_from(index).expect("trace positions fit in u32")
}

/// Run the bi-level planner over an iteration trace.
///
/// Panics if the trace is malformed (use `IterationTrace::validate` first).
///
/// ```
/// use memo_model::activations::LayerDims;
/// use memo_model::config::{DType, ModelConfig};
/// use memo_model::trace::{generate, RematPolicy, TraceParams};
/// use memo_plan::bilevel::plan_iteration;
///
/// let model = ModelConfig::tiny(4, 64, 4, 128);
/// let dims = LayerDims::new(256, &model, DType::BF16);
/// let trace = generate(&TraceParams::new(&model, dims, RematPolicy::MemoTokenWise));
/// let report = plan_iteration(&trace);
/// report.plan.validate_against(&trace).unwrap();
/// assert!(report.plan.peak >= trace.peak_live_bytes());
/// ```
pub fn plan_iteration(trace: &IterationTrace) -> BilevelReport {
    let layers = trace.layers();
    let fwd = trace
        .segments()
        .find(|s| s.kind == SegmentKind::LayerFwd(0));
    let bwd = trace
        .segments()
        .find(|s| matches!(s.kind, SegmentKind::LayerBwd(_)));
    let fwd = fwd.map(|s| (s, BodySplit::new(s, true)));
    let bwd = bwd.map(|s| (s, BodySplit::new(s, false)));

    // Level 1: layer 0's forward body and the first backward body to run
    // (the last layer's).
    let solve_level1 = |body: &Option<(Segment<'_>, BodySplit)>| {
        let (seg, split) = body.as_ref()?;
        let (_, layer) = seg.layer()?;
        (!split.intra.is_empty())
            .then(|| bnb::solve(&split.instance(trace, layer, seg.start), LEVEL1))
    };
    let fwd_sol = solve_level1(&fwd);
    let bwd_sol = solve_level1(&bwd);
    let body_of = |kind: SegmentKind| {
        let (body, sol) = if matches!(kind, SegmentKind::LayerFwd(_)) {
            (&fwd, &fwd_sol)
        } else {
            (&bwd, &bwd_sol)
        };
        let (_, split) = body.as_ref().expect("a layer segment implies its body");
        (split, sol.as_ref())
    };

    // Level 2: the tensors allocated outside a layer body or outliving one,
    // in allocation order, then one pseudo tensor per layer segment whose
    // body has tensors of its own.
    let mut direct: Vec<DsaTensor> = Vec::new();
    let mut frees: Vec<(TensorId, usize)> = Vec::new();
    let mut pseudo: Vec<(usize, usize, u64)> = Vec::new();
    let mut event = |index: usize, op: MemOp, id: TensorId, bytes: u64| match op {
        MemOp::Malloc => direct.push(DsaTensor {
            id,
            size: bytes,
            birth: position(index),
            death: 0,
        }),
        MemOp::Free => frees.push((id, index)),
    };
    for seg in trace.segments() {
        match seg.layer() {
            Some((_, layer)) => {
                let (split, sol) = body_of(seg.kind);
                for &(k, r) in &split.cross {
                    event(seg.start + k, r.op, trace.resolve(r.slot, layer), r.bytes);
                }
                if let Some(sol) = sol {
                    pseudo.push((seg.start, seg.start + seg.len(), sol.assignment.peak));
                }
            }
            None => {
                for (k, r) in seg.requests().enumerate() {
                    event(seg.start + k, r.op, r.tensor, r.bytes);
                }
            }
        }
    }
    // Pair each direct tensor with its free; `usize::MAX`, past every
    // position, marks one still unpaired.
    let mut by_id: Vec<u32> = (0..direct.len() as u32).collect();
    by_id.sort_unstable_by_key(|&i| direct[i as usize].id);
    let mut deaths = vec![usize::MAX; direct.len()];
    for (id, index) in frees {
        let k = by_id
            .binary_search_by_key(&id, |&i| direct[i as usize].id)
            .expect("validated trace");
        deaths[by_id[k] as usize] = index;
    }
    debug_assert!(
        deaths.iter().all(|&d| d != usize::MAX),
        "trace leaks tensors"
    );
    for (t, death) in direct.iter_mut().zip(deaths) {
        t.death = position(death);
    }

    // Pseudo ids follow the largest tensor id: Fwd ids grow with the
    // layer, Bwd ids with the backward position (so shrink with the layer).
    let intra_max = |body: &Option<(Segment<'_>, BodySplit)>, layer: usize| {
        let (_, split) = body.as_ref()?;
        split
            .intra
            .iter()
            .map(|&(slot, ..)| trace.resolve(slot, layer).0)
            .max()
    };
    let max_id = direct
        .iter()
        .map(|t| t.id.0)
        .chain(intra_max(&fwd, layers.saturating_sub(1)))
        .chain(intra_max(&bwd, 0))
        .max()
        .unwrap_or(0);
    let n_direct = direct.len();
    let mut l2_tensors = direct;
    l2_tensors.extend(
        pseudo
            .iter()
            .enumerate()
            .map(|(k, &(birth, death, size))| DsaTensor {
                id: TensorId(max_id + 1 + k as u64),
                size,
                birth: position(birth),
                death: position(death),
            }),
    );
    let l2_inst = DsaInstance::new(l2_tensors);
    let l2_sol = bnb::solve(&l2_inst, LEVEL2);
    debug_assert!(l2_sol.assignment.validate(&l2_inst).is_ok());

    // Compose the plan in allocation order: a direct tensor takes its
    // level-2 offset; a body's own tensor takes its level-1 offset above
    // its segment's pseudo block.
    let offsets = &l2_sol.assignment.offsets;
    let (mut next_direct, mut next_pseudo) = (0, n_direct);
    let mut direct_offset = || {
        next_direct += 1;
        offsets[next_direct - 1]
    };
    let mut placements: Vec<(TensorId, PlannedTensor)> = Vec::new();
    for seg in trace.segments() {
        match seg.layer() {
            Some((_, layer)) => {
                let (split, sol) = body_of(seg.kind);
                let level1 = sol.map(|sol| {
                    next_pseudo += 1;
                    (offsets[next_pseudo - 1], &sol.assignment.offsets)
                });
                for &(slot, bytes, rank) in &split.mallocs {
                    let offset = match (rank, level1) {
                        (Some(k), Some((base, l1))) => base + l1[k],
                        _ => direct_offset(),
                    };
                    placements.push((trace.resolve(slot, layer), PlannedTensor { offset, bytes }));
                }
            }
            None => {
                for r in seg.requests().filter(|r| r.op == MemOp::Malloc) {
                    let offset = direct_offset();
                    placements.push((
                        r.tensor,
                        PlannedTensor {
                            offset,
                            bytes: r.bytes,
                        },
                    ));
                }
            }
        }
    }

    BilevelReport {
        plan: MemoryPlan::new(placements, l2_sol.assignment.peak),
        layer_fwd: fwd_sol.as_ref().map(|s| s.into()),
        layer_bwd: bwd_sol.as_ref().map(|s| s.into()),
        level2: (&l2_sol).into(),
        whole: None,
    }
}

/// Plan the whole iteration as one flat instance under the default
/// size-based dispatch policy (exact BnB below the threshold, the boxing
/// family with its skyline certificate above it) — the
/// `PlannerKind::WholeTrace` pipeline.
pub fn plan_whole(trace: &IterationTrace) -> BilevelReport {
    let inst = DsaInstance::from_trace(trace);
    let sol = crate::dispatch::solve(&inst, &crate::dispatch::DispatchOptions::default());
    debug_assert!(sol.assignment.validate(&inst).is_ok());
    BilevelReport {
        plan: MemoryPlan::from_assignment(&inst, &sol.assignment),
        layer_fwd: None,
        layer_bwd: None,
        level2: sol.level_stats(),
        whole: Some(WholeTraceStats {
            guarantee: sol.guarantee,
        }),
    }
}

/// The flat (single-level) formulation of the whole iteration, solved with
/// the same machinery under the default [`BnbOptions`] — the baseline the
/// paper calls computationally intractable for commercial MIP solvers. Our
/// heuristic fallback keeps it finite, so it serves as the ablation
/// comparator for plan quality and solve time.
pub fn plan_flat(trace: &IterationTrace) -> (MemoryPlan, LevelStats) {
    let inst = DsaInstance::from_trace(trace);
    let sol = bnb::solve(&inst, BnbOptions::default());
    let plan = MemoryPlan::from_assignment(&inst, &sol.assignment);
    (plan, (&sol).into())
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
            let report = plan_iteration(&t);
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
        let report = plan_iteration(&t);
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
        let report = plan_iteration(&t);
        let (flat, _) = plan_flat(&t);
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
    fn level1_solves_under_the_solver_default() {
        let d = BnbOptions::default();
        assert_eq!(
            (LEVEL1.node_limit, LEVEL1.max_tensors),
            (d.node_limit, d.max_tensors)
        );
    }

    #[test]
    fn whole_trace_plan_validates() {
        let m = ModelConfig::tiny(4, 64, 4, 128);
        let dims = LayerDims::new(256, &m, DType::BF16);
        let t = generate(&TraceParams::new(&m, dims, RematPolicy::MemoTokenWise));
        let report = plan_whole(&t);
        report.plan.validate_against(&t).unwrap();
        assert!(report.plan.peak >= t.peak_live_bytes());
        assert_eq!(report.level2.lower_bound, t.peak_live_bytes());
    }

    #[test]
    fn level1_stats_present_and_layer_plans_reused() {
        let t = trace(RematPolicy::MemoTokenWise, 5);
        let report = plan_iteration(&t);
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
        let report = plan_iteration(&t);
        let mut alloc =
            PlanAllocator::from_addresses(report.plan.address_triples(), report.plan.peak);
        let series = replay(&mut alloc, &t);
        assert!(series.oom.is_none(), "plan replay failed: {:?}", series.oom);
        assert_eq!(series.reorgs, 0);
        assert!(series.peak_reserved() <= report.plan.peak);
    }

    type Stats = (usize, u64, u64, bool, u64);
    /// (policy, comm factor, materialized logits, layers, peak, level-1
    /// forward, level-1 backward, level 2, placement digest).
    type Pin = (
        RematPolicy,
        u64,
        bool,
        usize,
        u64,
        Option<Stats>,
        Option<Stats>,
        Stats,
        u64,
    );

    /// `plan_iteration` over the differential grid: the plan peak, the
    /// level-1 and level-2 stats, and an FNV-1a digest of the id-sorted
    /// placements, recorded from the planner that expanded every layer.
    #[rustfmt::skip]
    const PINS: [Pin; 36] = {
        use RematPolicy::*;
        [
        (KeepAll, 1, false, 1, 819200, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (25, 819200, 819200, true, 0), 0xb4eea1d7fdac3c11),
        (KeepAll, 1, false, 2, 1343488, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (38, 1343488, 1343488, true, 0), 0x2311a0e0d2fd3fb5),
        (KeepAll, 1, false, 5, 2916352, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (77, 2916352, 2916352, true, 0), 0xda1117ed1285fbad),
        (KeepAll, 1, true, 1, 1048576, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (22, 1048576, 1048576, true, 0), 0x0270c2306131a363),
        (KeepAll, 1, true, 2, 1572864, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (35, 1572864, 1572864, true, 0), 0x36ee36dfb758524c),
        (KeepAll, 1, true, 5, 3145728, Some((8, 114688, 114688, true, 0)), Some((14, 262144, 262144, true, 0)), (74, 3145728, 3145728, true, 0), 0x3f3f6cf841c53f33),
        (KeepAll, 2, false, 1, 819200, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (25, 819200, 819200, true, 0), 0xb58f9d3e51601ad4),
        (KeepAll, 2, false, 2, 1343488, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (38, 1343488, 1343488, true, 0), 0x22123cfcf50c0f5f),
        (KeepAll, 2, false, 5, 2916352, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (77, 2916352, 2916352, true, 0), 0x513136383b1758d4),
        (KeepAll, 2, true, 1, 1048576, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (22, 1048576, 1048576, true, 0), 0xde5c86cba8b9497c),
        (KeepAll, 2, true, 2, 1572864, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (35, 1572864, 1572864, true, 0), 0x4b15d14bcb4fe7d7),
        (KeepAll, 2, true, 5, 3145728, Some((10, 163840, 163840, true, 0)), Some((15, 262144, 262144, true, 0)), (74, 3145728, 3145728, true, 0), 0xcd020122c3280cfc),
        (FullRecompute, 1, false, 1, 851968, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (16, 851968, 851968, true, 0), 0xd83b09dd54253b21),
        (FullRecompute, 1, false, 2, 884736, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (20, 884736, 884736, true, 0), 0x62ef49422191e166),
        (FullRecompute, 1, false, 5, 983040, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (32, 983040, 983040, true, 0), 0xa1723f54abaf13ce),
        (FullRecompute, 1, true, 1, 851968, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (13, 851968, 851968, true, 0), 0xa3a42e8fcb9a97b3),
        (FullRecompute, 1, true, 2, 884736, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (17, 884736, 884736, true, 0), 0xfc961663ae5a8335),
        (FullRecompute, 1, true, 5, 983040, Some((17, 524416, 524416, true, 0)), Some((32, 753664, 753664, true, 0)), (29, 983040, 983040, true, 0), 0xe5acb41052e898cb),
        (FullRecompute, 2, false, 1, 851968, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (16, 851968, 851968, true, 0), 0xb0e6ef89c908a734),
        (FullRecompute, 2, false, 2, 884736, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (20, 884736, 884736, true, 0), 0x88f44cda70686107),
        (FullRecompute, 2, false, 5, 983040, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (32, 983040, 983040, true, 0), 0x216e828c7bacb7b0),
        (FullRecompute, 2, true, 1, 851968, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (13, 851968, 851968, true, 0), 0xb9904e52cabe8b39),
        (FullRecompute, 2, true, 2, 884736, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (17, 884736, 884736, true, 0), 0x15d0eb92fc8eefb2),
        (FullRecompute, 2, true, 5, 983040, Some((19, 557184, 557184, true, 0)), Some((35, 753664, 753664, true, 0)), (29, 983040, 983040, true, 0), 0x1ae402d2eae2320e),
        (MemoTokenWise, 1, false, 1, 327680, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (16, 327680, 327680, true, 0), 0xaa54279a4831e567),
        (MemoTokenWise, 1, false, 2, 327680, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (19, 327680, 327680, true, 0), 0xf39cf580cc98629e),
        (MemoTokenWise, 1, false, 5, 327680, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (28, 327680, 327680, true, 0), 0xfdb92af0a0522d87),
        (MemoTokenWise, 1, true, 1, 524288, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (13, 524288, 524288, true, 0), 0xaa5cb9988163c50f),
        (MemoTokenWise, 1, true, 2, 524288, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (16, 524288, 524288, true, 0), 0xba8304d2b4cc4933),
        (MemoTokenWise, 1, true, 5, 524288, Some((9, 114688, 114688, true, 0)), Some((15, 262144, 262144, true, 0)), (25, 524288, 524288, true, 0), 0x1388824fc810e23b),
        (MemoTokenWise, 2, false, 1, 327680, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (16, 327680, 327680, true, 0), 0x8e28cc9c57b95b15),
        (MemoTokenWise, 2, false, 2, 327680, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (19, 327680, 327680, true, 0), 0x0e48e17c703a7c55),
        (MemoTokenWise, 2, false, 5, 327680, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (28, 327680, 327680, true, 0), 0xd2344f9fb00a9ea5),
        (MemoTokenWise, 2, true, 1, 524288, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (13, 524288, 524288, true, 0), 0x0e5f56dbf327a4c6),
        (MemoTokenWise, 2, true, 2, 524288, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (16, 524288, 524288, true, 0), 0x8cd8b99d48461ab2),
        (MemoTokenWise, 2, true, 5, 524288, Some((11, 163840, 163840, true, 0)), Some((16, 262144, 262144, true, 0)), (25, 524288, 524288, true, 0), 0x8bd5c406ae965de6),
        ]
    };

    #[test]
    fn plans_are_pinned_over_the_trace_grid() {
        let stats = |l: LevelStats| (l.n_tensors, l.peak, l.lower_bound, l.optimal, l.nodes);
        for (policy, comm, logits, layers, peak, fwd, bwd, level2, digest) in PINS {
            let m = ModelConfig::tiny(layers, 64, 4, 128);
            let dims = LayerDims::new(256, &m, DType::BF16);
            let mut p = TraceParams::new(&m, dims, policy);
            p.comm_factor = comm;
            p.ce_chunk_tokens = 64;
            p.materialize_logits = logits;
            let t = generate(&p);
            let r = plan_iteration(&t);
            let case = (policy, comm, logits, layers);
            assert_eq!(r.plan.peak, peak, "{case:?}");
            assert_eq!(r.layer_fwd.map(stats), fwd, "{case:?}");
            assert_eq!(r.layer_bwd.map(stats), bwd, "{case:?}");
            assert_eq!(stats(r.level2), level2, "{case:?}");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (id, pt) in r.plan.placements() {
                for v in [id.0, pt.offset, pt.bytes] {
                    for byte in v.to_le_bytes() {
                        h ^= u64::from(byte);
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
            assert_eq!(h, digest, "{case:?}: placements differ");
            r.plan.validate_against(&t).unwrap();
        }
    }
}
