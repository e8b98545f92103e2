//! The pre-fast-path three-stream schedule builder, kept **verbatim** as
//! the schedule oracle for [`crate::schedule`] (the same pattern as
//! `memo_alloc::reference`): the paper's uniform layout only, one span per
//! op on the one [`Timeline`], every layer simulated through the event
//! machinery and its buffer slots tracked by [`RoundingBuffers`].
//!
//! `speed_gates` times this builder against `build_schedule_scalars`, and
//! `crates/swap/tests/differential.rs` drives it, `build_schedule` and the
//! scalars in lockstep asserting bit-identical makespans, per-stream
//! cursors, busy times, host peaks, OOHM errors and (against
//! `build_schedule`) span and mark streams. Do not optimise this module.

use crate::buffers::RoundingBuffers;
use crate::schedule::LayerCosts;
use crate::tiers::{OutOfTierMemory, TierStaging};
use memo_hal::engine::{StreamId, Timeline};
use memo_hal::time::SimTime;

/// Timing results of one simulated iteration's transformer portion
/// (mirrors `crate::schedule::ScheduleOutcome` for the reference builder).
#[derive(Debug, Clone)]
pub struct ReferenceScheduleOutcome {
    /// End of the last forward layer (compute stream).
    pub forward_end: SimTime,
    /// Total makespan of forward + head + backward.
    pub makespan: SimTime,
    /// Compute-stream busy time (the useful + recompute work).
    pub compute_busy: SimTime,
    /// Compute-stream idle time (stalls caused by transfers).
    pub compute_idle: SimTime,
    /// Peak host bytes staged (tier 0).
    pub host_peak: u64,
    /// The populated timeline (3 streams), for rendering.
    pub timeline: Timeline,
}

/// Streams created by the builder, in order.
#[derive(Debug, Clone, Copy)]
struct Streams {
    compute: StreamId,
    offload: StreamId,
    prefetch: StreamId,
}

/// Build the full transformer-layer schedule with a `t_head` block (final
/// norm + classifier fwd/bwd + loss) between forward and backward.
///
/// `n_layers ≥ 1`. Layers `n−1` and `n−2` are never offloaded (§4.1).
pub fn build_iteration_schedule(
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
) -> Result<ReferenceScheduleOutcome, OutOfTierMemory> {
    build_iteration_schedule_with_slots(n_layers, costs, t_head, staging, buffer_bytes, 2)
}

/// [`build_iteration_schedule`] generalised to `slots ≥ 2` rotating buffers:
/// layer `i+slots` waits on layer `i`'s offload, so an offload may hide
/// under `slots − 1` layers of compute (and the last `slots` layers never
/// swap).
pub fn build_iteration_schedule_with_slots(
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    staging: &mut TierStaging,
    buffer_bytes: u64,
    slots: usize,
) -> Result<ReferenceScheduleOutcome, OutOfTierMemory> {
    assert!(n_layers >= 1);
    let mut tl = Timeline::new();
    let s = Streams {
        compute: tl.add_stream("compute"),
        offload: tl.add_stream("offload"),
        prefetch: tl.add_stream("prefetch"),
    };
    let mut buffers = RoundingBuffers::with_slots(slots, buffer_bytes);
    let t_transfer = costs.t_transfer();
    // Layers that swap: all but the last `slots`.
    let swaps = |layer: usize| layer + slots < n_layers;

    // ---- forward ------------------------------------------------------------
    for layer in 0..n_layers {
        if let Some(ev) = buffers.acquire_for_forward(layer) {
            tl.wait_event(s.compute, ev);
        }
        tl.enqueue(s.compute, costs.t_fwd, format!("fwd L{layer}"));
        let fwd_done = tl.record_event(s.compute);
        if swaps(layer) {
            staging.reserve_layer(&costs.traffic)?;
            tl.wait_event(s.offload, fwd_done);
            tl.enqueue(s.offload, t_transfer, format!("off L{layer}"));
            let off_done = tl.record_event(s.offload);
            buffers.offload_enqueued(layer, off_done);
        } else {
            buffers.retain_for_backward(layer);
        }
    }
    let forward_end = tl.stream_cursor(s.compute);

    // ---- head (final norm, classifier, loss) --------------------------------
    if t_head > SimTime::ZERO {
        tl.enqueue(s.compute, t_head, "head");
    }

    // ---- backward -----------------------------------------------------------
    for layer in (0..n_layers).rev() {
        if swaps(layer) {
            // The prefetch was enqueued when layer+2's backward finished.
            let pf_done = buffers.prefetch_complete(layer);
            tl.wait_event(s.compute, pf_done);
            if costs.t_recompute > SimTime::ZERO {
                tl.enqueue(s.compute, costs.t_recompute, format!("remat L{layer}"));
            }
        }
        tl.enqueue(s.compute, costs.t_bwd, format!("bwd L{layer}"));
        let bwd_done = tl.record_event(s.compute);
        buffers.release_after_backward(layer);
        if swaps(layer) {
            staging.release_layer(&costs.traffic);
        }
        // Kick the prefetch of the slot's next occupant now that it's free.
        if layer >= slots && swaps(layer - slots) {
            tl.wait_event(s.prefetch, bwd_done);
            tl.enqueue(s.prefetch, t_transfer, format!("pf L{}", layer - slots));
            let pf_done = tl.record_event(s.prefetch);
            buffers.prefetch_enqueued(layer - slots, pf_done);
        }
    }

    tl.check_causality().expect("schedule must be causal");
    let makespan = tl.makespan();
    let compute_busy = tl.busy_time(s.compute);
    Ok(ReferenceScheduleOutcome {
        forward_end,
        makespan,
        compute_busy,
        compute_idle: makespan.saturating_sub(compute_busy),
        host_peak: staging.host_peak(),
        timeline: tl,
    })
}
