//! The three-stream iteration schedule (§4.3.4, Figure 11).
//!
//! Streams: `compute`, `offload` (GPU→CPU), `prefetch` (CPU→GPU). For each
//! forward layer the offload of its swapped skeletal slice is enqueued right
//! after its compute finishes and overlaps the next layer's compute; layer
//! `i+2` waits on layer `i`'s offload event before overwriting the rounding
//! buffer. During the backward pass, finishing layer `i`'s backward releases
//! its buffer and triggers the prefetch of layer `i−2`; the token-wise
//! recompute of the non-swapped slice runs on the compute stream immediately
//! before each backward.
//!
//! A schedule is built from a *layout*: runs of layers ([`LayerSegment`]),
//! each in one of three roles ([`SegmentPolicy`]) — token-wise swap, full
//! recompute, or retained in a rounding buffer. The paper's schedule is
//! the two-run layout [`LayerSegment::uniform`]; the delta-search extension
//! puts full-recompute layers between the swapping prefix and the retained
//! tail, trading host-staging pressure for re-forward compute. One
//! recurrence serves every layout ([`build_schedule`]), recorded in full or
//! cursor-only with each Swap run's steady region spliced in closed form.
//!
//! A layer's staged slice may span several tiers of the offload chain
//! ([`TierTrafficList`]): the per-layer transfer time is the sum of the
//! per-tier transfer times (the chain is traversed serially), and each
//! tier's bytes are tracked in its own [`TierStaging`] pool.
//!
//! The builder returns both the timings (from which MFU/TGS derive) and the
//! populated [`Timeline`] (for Figure 11 rendering); it reports an
//! out-of-tier failure if the staged activations overflow any pool — the
//! simulation's `X_oohm` when the host tier binds.

use crate::tiers::{OutOfTierMemory, TierStaging};
use memo_hal::engine::{CursorSegment, EventId, RecordLevel, Timeline};
use memo_hal::time::SimTime;

/// Maximum offload tiers a layer's traffic can span (chain depth below GPU
/// HBM). Deep enough for GPU→host→CXL→NVMe→remote chains with headroom;
/// keeping it fixed keeps [`LayerCosts`] `Copy`.
pub const MAX_TIERS: usize = 6;

/// One tier's share of a layer's staged slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTraffic {
    /// Bytes staged on this tier per layer.
    pub bytes: u64,
    /// Effective bandwidth of the tier's link, bytes/s (ignored when
    /// `bytes == 0`).
    pub bandwidth: f64,
    /// Fixed per-transfer latency charged on top of the bandwidth term,
    /// seconds (0.0 for DRAM-class tiers).
    pub latency_secs: f64,
}

/// A layer's traffic across the offload chain, nearest tier first.
/// Fixed-capacity so [`LayerCosts`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTrafficList {
    items: [TierTraffic; MAX_TIERS],
    len: usize,
}

impl TierTrafficList {
    pub fn new() -> Self {
        TierTrafficList {
            items: [TierTraffic {
                bytes: 0,
                bandwidth: 1.0,
                latency_secs: 0.0,
            }; MAX_TIERS],
            len: 0,
        }
    }

    /// Append the next-deeper tier's traffic.
    pub fn push(&mut self, t: TierTraffic) {
        assert!(self.len < MAX_TIERS, "offload chain deeper than MAX_TIERS");
        self.items[self.len] = t;
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, tier: usize) -> Option<&TierTraffic> {
        self.as_slice().get(tier)
    }

    pub fn as_slice(&self) -> &[TierTraffic] {
        &self.items[..self.len]
    }

    pub fn iter(&self) -> std::slice::Iter<'_, TierTraffic> {
        self.as_slice().iter()
    }

    /// Bytes staged on tier `tier` per layer (0 beyond the chain).
    pub fn bytes(&self, tier: usize) -> u64 {
        self.get(tier).map_or(0, |t| t.bytes)
    }
}

impl Default for TierTrafficList {
    fn default() -> Self {
        TierTrafficList::new()
    }
}

impl<'a> IntoIterator for &'a TierTrafficList {
    type Item = &'a TierTraffic;
    type IntoIter = std::slice::Iter<'a, TierTraffic>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-layer costs feeding the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// One transformer layer forward compute time.
    pub t_fwd: SimTime,
    /// One transformer layer backward compute time (gradients only).
    pub t_bwd: SimTime,
    /// Token-wise recompute time of the non-swapped slice, run before the
    /// layer's backward (zero when α = 1 or under full swapping).
    pub t_recompute: SimTime,
    /// The layer's staged slice across the offload chain, nearest tier
    /// first (tier 0 carries the mandatory input+attn swaps).
    pub traffic: TierTrafficList,
}

impl LayerCosts {
    /// Costs for the two-level GPU→host chain (the paper's testbed without
    /// its NVMe tier): every staged byte lands on host DRAM over PCIe, so
    /// the traffic list is the single host tier carrying
    /// `offload_bytes = S_input + S_attn + α·S_others` at the effective
    /// PCIe bandwidth.
    pub fn single_tier(
        t_fwd: SimTime,
        t_bwd: SimTime,
        t_recompute: SimTime,
        offload_bytes: u64,
        bandwidth: f64,
    ) -> Self {
        let mut traffic = TierTrafficList::new();
        traffic.push(TierTraffic {
            bytes: offload_bytes,
            bandwidth,
            latency_secs: 0.0,
        });
        LayerCosts {
            t_fwd,
            t_bwd,
            t_recompute,
            traffic,
        }
    }

    /// Costs for an arbitrary offload chain.
    pub fn with_traffic(
        t_fwd: SimTime,
        t_bwd: SimTime,
        t_recompute: SimTime,
        traffic: TierTrafficList,
    ) -> Self {
        LayerCosts {
            t_fwd,
            t_bwd,
            t_recompute,
            traffic,
        }
    }

    /// Bytes staged on the host tier (tier 0) per layer.
    pub fn host_bytes(&self) -> u64 {
        self.traffic.bytes(0)
    }

    /// Per-layer staging transfer time across the whole chain: the tiers
    /// are traversed serially, so the times add. An idle tier (0 bytes)
    /// contributes nothing regardless of its bandwidth or latency.
    pub fn t_transfer(&self) -> SimTime {
        let mut secs = 0.0;
        for t in &self.traffic {
            if t.bytes != 0 {
                secs += t.bytes as f64 / t.bandwidth + t.latency_secs;
            }
        }
        SimTime::from_secs_f64(secs)
    }

    /// Bytes staged per layer across the whole chain.
    pub fn staged_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.bytes).sum()
    }
}

/// Timing results of one simulated iteration's transformer portion.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
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

/// Scalar results of a cursor-only schedule build — everything besides the
/// timeline and the staging side effects. Small and `Copy` so the delta
/// layer ([`crate::delta`]) can memoize it and replay the staging effects
/// in bulk without re-running the recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarSchedule {
    /// End of the last forward layer (compute stream).
    pub forward_end: SimTime,
    /// Final compute-stream cursor (forward + head + backward).
    pub compute_end: SimTime,
    /// Final offload-stream cursor.
    pub offload_end: SimTime,
    /// Final prefetch-stream cursor.
    pub prefetch_end: SimTime,
    /// Compute-stream busy total (useful + recompute work).
    pub compute_busy: SimTime,
    /// Busy total of each IO stream (offload and prefetch move the same
    /// bytes, so they share one figure).
    pub io_busy: SimTime,
}

impl ScalarSchedule {
    pub fn makespan(&self) -> SimTime {
        self.compute_end
            .max(self.offload_end)
            .max(self.prefetch_end)
    }

    pub fn compute_idle(&self) -> SimTime {
        self.makespan().saturating_sub(self.compute_busy)
    }

    /// Materialise the cursor-only [`ScheduleOutcome`] the fast path
    /// returns: a 3-stream timeline carrying exactly these cursors and
    /// busy totals, landed through the [`CursorSegment`] splice.
    pub fn into_outcome(self, staging: &TierStaging) -> ScheduleOutcome {
        let mut tl = Timeline::with_recording(RecordLevel::CursorOnly);
        tl.add_stream("compute");
        tl.add_stream("offload");
        tl.add_stream("prefetch");
        tl.apply_segment(&CursorSegment::from_advances(vec![
            (self.compute_end, self.compute_busy),
            (self.offload_end, self.io_busy),
            (self.prefetch_end, self.io_busy),
        ]));
        ScheduleOutcome {
            forward_end: self.forward_end,
            makespan: self.makespan(),
            compute_busy: self.compute_busy,
            compute_idle: self.compute_idle(),
            host_peak: staging.host_peak(),
            timeline: tl,
        }
    }
}

/// How one layer's activations survive to its backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentPolicy {
    /// Token-wise swap: offload the staged slice in the forward pass,
    /// prefetch it and recompute the non-swapped slice in the backward
    /// pass. Occupies a rounding-buffer slot.
    Swap,
    /// Full recompute: nothing staged, no buffer slot; the backward pass
    /// re-runs the layer's forward (`t_recompute`) before its gradient step.
    Recompute,
    /// Resident in a rounding buffer: no traffic, no recompute.
    Retained,
}

/// A run of consecutive layers sharing one policy and one cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSegment {
    pub count: usize,
    pub policy: SegmentPolicy,
    /// Per-layer costs; `traffic` is read only for `Swap` layers and
    /// `t_recompute` only for `Swap`/`Recompute` layers.
    pub costs: LayerCosts,
}

impl LayerSegment {
    pub fn new(count: usize, policy: SegmentPolicy, costs: LayerCosts) -> Self {
        LayerSegment {
            count,
            policy,
            costs,
        }
    }

    /// The paper's schedule (§4.1): every layer swaps token-wise except the
    /// last `slots`, which stay resident in their rounding buffers —
    /// `[Swap × n−min(slots,n)][Retained × min(slots,n)]`.
    pub fn uniform(n_layers: usize, slots: usize, costs: LayerCosts) -> [LayerSegment; 2] {
        let retained = slots.min(n_layers);
        [
            LayerSegment::new(n_layers - retained, SegmentPolicy::Swap, costs),
            LayerSegment::new(retained, SegmentPolicy::Retained, costs),
        ]
    }
}

/// Check the invariants a layout must meet and return its number of
/// buffer users (Swap + Retained layers). Buffer rotation is over buffer
/// users by their occupancy ordinal, not the raw layer index — Recompute
/// layers pass through without touching the ring. Panics on an ill-formed
/// layout; these are construction bugs, not data-dependent failures:
///
/// * a Swap ordinal `b` must have an occupant at ordinal `b + slots`
///   (whose backward kicks the prefetch), i.e. `b < users − slots`;
/// * a Retained ordinal must be among the last `slots` occupants
///   (`b ≥ users − slots`), or the next user of its slot would overwrite
///   resident activations in the forward pass.
fn validate_layout(segments: &[LayerSegment], slots: usize) -> usize {
    assert!(
        segments.iter().any(|s| s.count > 0),
        "schedule needs at least one layer"
    );
    assert!(slots >= 2, "rotation needs at least two slots");
    let users: usize = segments
        .iter()
        .filter(|s| s.policy != SegmentPolicy::Recompute)
        .map(|s| s.count)
        .sum();
    let swap_cut = users.saturating_sub(slots);
    let (mut b, mut layer) = (0usize, 0usize);
    for seg in segments {
        match seg.policy {
            SegmentPolicy::Recompute => {}
            SegmentPolicy::Swap => {
                let bad = b.max(swap_cut);
                let bad_layer = layer + (bad - b);
                assert!(
                    b + seg.count <= swap_cut,
                    "layer {bad_layer}: Swap at buffer ordinal {bad} of {users} has no \
                     ordinal {bad}+{slots} occupant to kick its prefetch"
                );
            }
            SegmentPolicy::Retained => {
                assert!(
                    seg.count == 0 || b >= swap_cut,
                    "layer {layer}: Retained at buffer ordinal {b} of {users} would \
                     be clobbered by the ordinal {b}+{slots} occupant"
                );
            }
        }
        if seg.policy != SegmentPolicy::Recompute {
            b += seg.count;
        }
        layer += seg.count;
    }
    users
}

/// The Swap layer whose prefetch a backward kicks: the buffer user `slots`
/// ordinals below the layer that frees the slot. Walks the runs backwards
/// alongside the backward pass, so a whole schedule costs one pass over
/// the runs.
struct KickTarget<'a> {
    segments: &'a [LayerSegment],
    /// Run holding the current target.
    run: usize,
    /// First buffer ordinal and first layer index of `run`.
    ordinal: usize,
    layer: usize,
    /// Transfer time of a layer of `run`.
    t_transfer: SimTime,
}

impl<'a> KickTarget<'a> {
    fn new(segments: &'a [LayerSegment], users: usize, n_layers: usize) -> Self {
        KickTarget {
            segments,
            run: segments.len(),
            ordinal: users,
            layer: n_layers,
            t_transfer: SimTime::ZERO,
        }
    }

    /// Move to the run holding ordinal `b` (at or below every earlier
    /// seek) and return the layer index of that buffer user.
    fn seek(&mut self, b: usize) -> usize {
        if b < self.ordinal {
            while b < self.ordinal {
                self.run -= 1;
                let seg = &self.segments[self.run];
                self.layer -= seg.count;
                if seg.policy != SegmentPolicy::Recompute {
                    self.ordinal -= seg.count;
                }
            }
            self.t_transfer = self.segments[self.run].costs.t_transfer();
        }
        self.layer + (b - self.ordinal)
    }
}

/// Build the transformer-layer schedule of a layout with a `t_head` block
/// (final norm + classifier fwd/bwd + loss) between forward and backward,
/// over `slots ≥ 2` rotating buffers: buffer user `b + slots` waits on
/// user `b`'s offload, so an offload may hide under `slots − 1` layers of
/// compute. [`LayerSegment::uniform`] is the paper's layout.
///
/// * [`RecordLevel::Full`] runs the event machinery and returns a timeline
///   with every span and mark — the `--trace`/Figure-11 path.
/// * [`RecordLevel::CursorOnly`] runs [`build_schedule_scalars`]: the same
///   recurrence in scalar u64 arithmetic, with each Swap run's steady
///   region spliced in closed form. Makespan, per-stream cursors, busy
///   times, per-tier peaks and out-of-tier errors are bit-identical to the
///   `Full` run (asserted by `tests/differential.rs`); the returned
///   timeline carries cursors and busy totals but no spans.
pub fn build_schedule(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    slots: usize,
    level: RecordLevel,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    match level {
        RecordLevel::Full => build_event_loop(segments, t_head, staging, slots),
        RecordLevel::CursorOnly => {
            let s = build_schedule_scalars(segments, t_head, staging, slots)?;
            Ok(s.into_outcome(staging))
        }
    }
}

/// The full event-machinery simulation (every op a span, every dependency a
/// recorded event), with arenas pre-sized from the exact op counts — the
/// differential reference of [`build_schedule_scalars`].
fn build_event_loop(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    slots: usize,
) -> Result<ScheduleOutcome, OutOfTierMemory> {
    let users = validate_layout(segments, slots);
    // Exact op counts: Swap layers offload in the forward pass and prefetch
    // in the backward pass; Swap and Recompute layers with a nonzero
    // `t_recompute` add one recompute span each.
    let (mut n, mut swaps, mut remats) = (0usize, 0usize, 0usize);
    for seg in segments {
        n += seg.count;
        if seg.policy == SegmentPolicy::Swap {
            swaps += seg.count;
        }
        if seg.policy != SegmentPolicy::Retained && seg.costs.t_recompute > SimTime::ZERO {
            remats += seg.count;
        }
    }
    let mut tl = Timeline::new();
    let n_spans = 2 * n + 2 * swaps + usize::from(t_head > SimTime::ZERO) + remats;
    let n_events = 2 * n + 2 * swaps;
    // Marks: one per recorded event, plus the four wait sites (forward
    // compute, offload, backward compute, prefetch) — `swaps` each.
    tl.reserve_ops(n_spans, n_events + 4 * swaps, n_events);
    let compute = tl.add_stream("compute");
    let offload = tl.add_stream("offload");
    let prefetch = tl.add_stream("prefetch");

    // ---- forward ------------------------------------------------------------
    // Offload-done event of the current occupant of each buffer slot.
    let mut off_done: Vec<Option<EventId>> = vec![None; slots];
    let (mut layer, mut b) = (0usize, 0usize);
    for seg in segments {
        let user = seg.policy != SegmentPolicy::Recompute;
        let t_transfer = seg.costs.t_transfer();
        for _ in 0..seg.count {
            if user && b >= slots {
                let ev =
                    off_done[b % slots].expect("layout validity: previous slot occupant swaps");
                tl.wait_event(compute, ev);
            }
            tl.enqueue_fmt(compute, seg.costs.t_fwd, format_args!("fwd L{layer}"));
            let fwd_done = tl.record_event(compute);
            if seg.policy == SegmentPolicy::Swap {
                staging.reserve_layer(&seg.costs.traffic)?;
                tl.wait_event(offload, fwd_done);
                tl.enqueue_fmt(offload, t_transfer, format_args!("off L{layer}"));
                off_done[b % slots] = Some(tl.record_event(offload));
            }
            b += usize::from(user);
            layer += 1;
        }
    }
    let forward_end = tl.stream_cursor(compute);

    // ---- head (final norm, classifier, loss) --------------------------------
    if t_head > SimTime::ZERO {
        tl.enqueue(compute, t_head, "head");
    }

    // ---- backward -----------------------------------------------------------
    // Prefetch-done event of the Swap user at each ordinal, by its slot: the
    // kick for ordinal `b` lands `slots` backwards before `b`'s own, and
    // the kicks in between fill the other slots.
    let mut pf_done: Vec<Option<EventId>> = vec![None; slots];
    let mut kick = KickTarget::new(segments, users, n);
    for seg in segments.iter().rev() {
        let costs = &seg.costs;
        for _ in 0..seg.count {
            layer -= 1;
            match seg.policy {
                SegmentPolicy::Recompute => {
                    if costs.t_recompute > SimTime::ZERO {
                        tl.enqueue_fmt(compute, costs.t_recompute, format_args!("refwd L{layer}"));
                    }
                }
                SegmentPolicy::Swap => {
                    b -= 1;
                    let ev = pf_done[b % slots].expect("prefetch must be kicked before backward");
                    tl.wait_event(compute, ev);
                    if costs.t_recompute > SimTime::ZERO {
                        tl.enqueue_fmt(compute, costs.t_recompute, format_args!("remat L{layer}"));
                    }
                }
                SegmentPolicy::Retained => b -= 1,
            }
            tl.enqueue_fmt(compute, costs.t_bwd, format_args!("bwd L{layer}"));
            let bwd_done = tl.record_event(compute);
            if seg.policy == SegmentPolicy::Swap {
                staging.release_layer(&costs.traffic);
            }
            if seg.policy != SegmentPolicy::Recompute && b >= slots {
                // This backward frees slot b % slots: kick the prefetch of
                // the Swap layer occupying ordinal b − slots.
                let target = kick.seek(b - slots);
                tl.wait_event(prefetch, bwd_done);
                tl.enqueue_fmt(prefetch, kick.t_transfer, format_args!("pf L{target}"));
                pf_done[b % slots] = Some(tl.record_event(prefetch));
            }
        }
    }

    tl.check_causality().expect("schedule must be causal");
    let makespan = tl.makespan();
    let compute_busy = tl.busy_time(compute);
    Ok(ScheduleOutcome {
        forward_end,
        makespan,
        compute_busy,
        compute_idle: makespan.saturating_sub(compute_busy),
        host_peak: staging.host_peak(),
        timeline: tl,
    })
}

/// `t × k` in integer nanoseconds — exact, and identical to `k` repeated
/// additions (which is what the splice replaces).
fn scale(t: SimTime, k: u64) -> SimTime {
    SimTime(t.as_nanos() * k)
}

/// `base + rel` for a signed relative offset captured by the steady-state
/// detector. The result is always a valid (non-negative) time: offsets are
/// differences of event times within one iteration.
fn offset(base: SimTime, rel: i128) -> SimTime {
    let t = base.as_nanos() as i128 + rel;
    debug_assert!(t >= 0, "relative offset escaped the clock");
    SimTime(t as u64)
}

/// Detects the steady state of a Swap run.
///
/// After each layer of the run the recurrence is summarised *relative to
/// the compute cursor*: the IO-stream cursor offset and the ring of
/// in-flight transfer completion offsets, in next-read order. Within a run
/// the next layer's transition is a pure function of this relative state,
/// so two consecutive layers with equal state imply every remaining layer
/// of the run repeats the same transition — each advancing all clocks by
/// the same `delta` — and can be spliced in closed form. Runs whose state
/// never repeats never trigger the splice and fall through to per-layer
/// simulation.
struct SteadyDetector {
    slots: usize,
    prev_c: SimTime,
    /// `[rel_io, rel_ring[0..slots]]` of the previous layer.
    prev: Vec<i128>,
    prev_valid: bool,
    cur: Vec<i128>,
}

impl SteadyDetector {
    fn new(slots: usize) -> Self {
        SteadyDetector {
            slots,
            prev_c: SimTime::ZERO,
            prev: Vec::with_capacity(slots + 1),
            prev_valid: false,
            cur: Vec::with_capacity(slots + 1),
        }
    }

    /// Forget the previous layer: the next push starts a new run.
    fn reset(&mut self) {
        self.prev_valid = false;
    }

    /// Feed the state after one layer of the run (`ring(j)` = the j-th
    /// in-flight completion time in next-read order). Returns the steady
    /// per-layer advance once two consecutive layers match.
    fn push(
        &mut self,
        c: SimTime,
        io: SimTime,
        ring: impl Fn(usize) -> SimTime,
    ) -> Option<SimTime> {
        let rel = |t: SimTime| t.as_nanos() as i128 - c.as_nanos() as i128;
        self.cur.clear();
        self.cur.push(rel(io));
        for j in 0..self.slots {
            self.cur.push(rel(ring(j)));
        }
        let steady = self.prev_valid && self.cur == self.prev;
        let delta = c.saturating_sub(self.prev_c);
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.prev_valid = true;
        self.prev_c = c;
        if steady {
            Some(delta)
        } else {
            None
        }
    }

    /// The relative state of the layer last pushed: `(rel_io, rel_ring)`.
    fn state(&self) -> (i128, &[i128]) {
        (self.prev[0], &self.prev[1..])
    }
}

/// The cursor-only schedule: the recurrence of [`build_schedule`]'s event
/// loop in scalar u64 arithmetic, walking the runs without expanding them.
/// Inside each Swap run the steady region is spliced in closed form —
/// forward while the run continues, backward while both the layer and its
/// prefetch-kick target lie in the run — with the staging effects batched
/// through [`TierStaging::reserve_layers`] / [`TierStaging::release_layers`].
/// Returns the cursors and busy totals without building a timeline; this is
/// the unit the segment cache ([`crate::delta`]) memoizes, and callers
/// wanting a [`ScheduleOutcome`] use [`ScalarSchedule::into_outcome`]. See
/// DESIGN.md §2e for the bit-exactness argument.
pub fn build_schedule_scalars(
    segments: &[LayerSegment],
    t_head: SimTime,
    staging: &mut TierStaging,
    slots: usize,
) -> Result<ScalarSchedule, OutOfTierMemory> {
    let users = validate_layout(segments, slots);
    let mut detect = SteadyDetector::new(slots);
    // Busy totals as the event loop accumulates them (commutative u64 sums
    // of the same durations, so bit-identical).
    let mut compute_busy = t_head;
    let mut io_busy = SimTime::ZERO;
    let mut n_layers = 0usize;

    // ---- forward ------------------------------------------------------------
    // c/o: compute and offload stream cursors; off_end[b % slots]: completion
    // time of the in-flight offload of the slot's current occupant.
    let mut c = SimTime::ZERO;
    let mut o = SimTime::ZERO;
    let mut off_end = vec![SimTime::ZERO; slots];
    let mut b = 0usize;
    for seg in segments {
        let LayerCosts {
            t_fwd: tf,
            t_bwd: tb,
            t_recompute: tr,
            ref traffic,
        } = seg.costs;
        let k = seg.count as u64;
        n_layers += seg.count;
        compute_busy += scale(tf + tb, k);
        match seg.policy {
            SegmentPolicy::Recompute => {
                c += scale(tf, k);
                compute_busy += scale(tr, k);
            }
            SegmentPolicy::Retained => {
                for _ in 0..seg.count {
                    if b >= slots {
                        // The slot's previous occupant (always a Swap layer
                        // by layout validity) is offloading.
                        c = c.max(off_end[b % slots]);
                    }
                    c += tf;
                    b += 1;
                }
            }
            SegmentPolicy::Swap => {
                let tt = seg.costs.t_transfer();
                compute_busy += scale(tr, k);
                io_busy += scale(tt, k);
                let end = b + seg.count;
                detect.reset();
                while b < end {
                    if b >= slots {
                        c = c.max(off_end[b % slots]);
                    }
                    c += tf;
                    staging.reserve_layer(traffic)?;
                    o = o.max(c) + tt;
                    off_end[b % slots] = o;
                    if b >= slots && b + 1 < end {
                        if let Some(delta) = detect.push(c, o, |j| off_end[(b + 1 + j) % slots]) {
                            // Steady: splice ordinals b+1 ..= end−1 in one step.
                            let m = end - 1;
                            let k = (m - b) as u64;
                            staging.reserve_layers(traffic, k)?;
                            c += scale(delta, k);
                            let (rel_io, rel_ring) = detect.state();
                            o = offset(c, rel_io);
                            for (j, &r) in rel_ring.iter().enumerate() {
                                off_end[(m + 1 + j) % slots] = offset(c, r);
                            }
                            b = m;
                        }
                    }
                    b += 1;
                }
            }
        }
    }
    let forward_end = c;

    // ---- head (adding a zero-length head is a no-op, as in the event loop) --
    c += t_head;

    // ---- backward -----------------------------------------------------------
    // p: prefetch stream cursor; pf_end[b % slots]: completion time of the
    // prefetch of the Swap user at ordinal b.
    let mut p = SimTime::ZERO;
    let mut pf_end = vec![SimTime::ZERO; slots];
    let mut kick = KickTarget::new(segments, users, n_layers);
    for seg in segments.iter().rev() {
        let LayerCosts {
            t_bwd: tb,
            t_recompute: tr,
            ref traffic,
            ..
        } = seg.costs;
        if seg.policy == SegmentPolicy::Recompute {
            // Re-forward the whole layer, then its backward.
            c += scale(tr + tb, seg.count as u64);
            continue;
        }
        let swap = seg.policy == SegmentPolicy::Swap;
        let start = b - seg.count;
        // Layers at or above `lo` kick a target inside this run.
        let lo = start + slots;
        detect.reset();
        while b > start {
            b -= 1;
            if swap {
                // Wait for the prefetch kicked by the ordinal b+slots
                // occupant's backward, then recompute the non-swapped slice.
                c = c.max(pf_end[b % slots]) + tr;
            }
            c += tb;
            if swap {
                staging.release_layer(traffic);
            }
            if b >= slots {
                // This backward frees the slot: kick the prefetch of the
                // Swap layer at ordinal b − slots.
                kick.seek(b - slots);
                p = p.max(c) + kick.t_transfer;
                pf_end[b % slots] = p;
            }
            if swap && b > lo {
                if let Some(delta) = detect.push(c, p, |j| pf_end[(b - 1 - j) % slots]) {
                    // Steady: splice ordinals b−1 ..= lo in one step.
                    let k = (b - lo) as u64;
                    staging.release_layers(traffic, k);
                    c += scale(delta, k);
                    let (rel_io, rel_ring) = detect.state();
                    p = offset(c, rel_io);
                    for (j, &r) in rel_ring.iter().enumerate() {
                        pf_end[(lo - 1 - j) % slots] = offset(c, r);
                    }
                    b = lo;
                }
            }
        }
    }

    Ok(ScalarSchedule {
        forward_end,
        compute_end: c,
        offload_end: o,
        prefetch_end: p,
        compute_busy,
        io_busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(t_fwd_ms: u64, transfer_ratio: f64, t_remat_ms: u64) -> LayerCosts {
        let bytes = 1_000_000u64;
        let t_fwd = SimTime::from_millis(t_fwd_ms);
        LayerCosts::single_tier(
            t_fwd,
            SimTime::from_millis(2 * t_fwd_ms),
            SimTime::from_millis(t_remat_ms),
            bytes,
            bytes as f64 / (t_fwd.as_secs_f64() * transfer_ratio),
        )
    }

    /// The paper's layout on `slots` buffers, fully recorded.
    fn uniform(
        n: usize,
        c: LayerCosts,
        t_head: SimTime,
        staging: &mut TierStaging,
        slots: usize,
    ) -> Result<ScheduleOutcome, OutOfTierMemory> {
        let segs = LayerSegment::uniform(n, slots, c);
        build_schedule(&segs, t_head, staging, slots, RecordLevel::Full)
    }

    fn run(n: usize, c: LayerCosts) -> ScheduleOutcome {
        let mut staging = TierStaging::unbounded(1);
        uniform(n, c, SimTime::from_millis(5), &mut staging, 2).unwrap()
    }

    /// The MEMO-shaped layout: k swap, then recompute, then `slots` retained.
    fn mixed(n: usize, k: usize, slots: usize, c: LayerCosts, refwd_ms: u64) -> Vec<LayerSegment> {
        assert!(k + slots <= n);
        let mut refwd = c;
        refwd.t_recompute = SimTime::from_millis(refwd_ms);
        vec![
            LayerSegment::new(k, SegmentPolicy::Swap, c),
            LayerSegment::new(n - k - slots, SegmentPolicy::Recompute, refwd),
            LayerSegment::new(slots, SegmentPolicy::Retained, c),
        ]
    }

    fn assert_outcomes_match(a: &ScheduleOutcome, b: &ScheduleOutcome) {
        assert_eq!(a.forward_end, b.forward_end);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.compute_busy, b.compute_busy);
        assert_eq!(a.compute_idle, b.compute_idle);
        assert_eq!(a.host_peak, b.host_peak);
    }

    #[test]
    fn full_overlap_when_transfer_fits_under_compute() {
        // transfer = 0.8 × layer forward: offload hides completely.
        let c = costs(10, 0.8, 0);
        let out = run(8, c);
        // forward should take exactly 8 × t_fwd — no stalls.
        assert_eq!(out.forward_end, SimTime::from_millis(80));
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn stalls_when_transfer_exceeds_compute() {
        // transfer = 2 × layer forward: layer i+2 waits for layer i's
        // offload (the Figure 11 "w/o token-wise" picture).
        let c = costs(10, 2.0, 0);
        let out = run(8, c);
        assert!(out.forward_end > SimTime::from_millis(80));
        assert!(out.compute_idle > SimTime::ZERO);
    }

    #[test]
    fn backward_prefetch_overlaps() {
        // backward is 2× forward; transfer < bwd time → prefetches hide.
        let c = costs(10, 1.5, 0);
        let out = run(8, c);
        // Backward portion (from forward_end + head) should be ~8 × t_bwd.
        let bwd_span = out
            .makespan
            .saturating_sub(out.forward_end + SimTime::from_millis(5));
        let lower = SimTime::from_millis(8 * 20);
        let upper = SimTime::from_millis(8 * 20 + 25);
        assert!(
            bwd_span >= lower && bwd_span <= upper,
            "bwd span {bwd_span} outside [{lower}, {upper}]"
        );
    }

    #[test]
    fn recompute_serialises_on_compute_stream() {
        let with = run(8, costs(10, 0.5, 4));
        let without = run(8, costs(10, 0.5, 0));
        // 6 swapped layers × 4ms recompute.
        let delta = with.makespan.saturating_sub(without.makespan);
        assert_eq!(delta, SimTime::from_millis(24));
    }

    #[test]
    fn host_usage_returns_to_zero() {
        let mut staging = TierStaging::unbounded(1);
        let c = costs(10, 0.5, 0);
        uniform(8, c, SimTime::ZERO, &mut staging, 2).unwrap();
        assert_eq!(staging.host_used(), 0);
        assert_eq!(staging.host_peak(), 6 * c.host_bytes());
    }

    #[test]
    fn oohm_surfaces() {
        let mut staging = TierStaging::single(3 * 1_000_000); // room for 3 layers
        let c = costs(10, 0.5, 0);
        let err = uniform(12, c, SimTime::ZERO, &mut staging, 2).unwrap_err();
        assert_eq!(err.capacity, 3_000_000);
        assert_eq!(err.tier, 0);
    }

    #[test]
    fn deep_tier_overflow_surfaces_with_its_index() {
        // Host roomy, the second tier fits only 3 layers: the failure must
        // name tier 1 and leave the host pool holding the committed layers.
        let mut c = costs(10, 0.5, 0);
        c.traffic.push(TierTraffic {
            bytes: 500_000,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
        let mut staging = TierStaging::new(&[u64::MAX / 2, 3 * 500_000]);
        let err = uniform(12, c, SimTime::ZERO, &mut staging, 2).unwrap_err();
        assert_eq!(err.tier, 1);
        assert_eq!(err.capacity, 1_500_000);
        assert_eq!(staging.host_used(), 4 * 1_000_000);
    }

    #[test]
    fn multi_tier_transfer_times_add() {
        // 1 MB to a 1 GB/s host tier + 0.5 MB to a 0.1 GB/s deep tier with
        // 1 ms latency: 1 ms + (5 + 1) ms per layer.
        let mut traffic = TierTrafficList::new();
        traffic.push(TierTraffic {
            bytes: 1_000_000,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
        traffic.push(TierTraffic {
            bytes: 500_000,
            bandwidth: 1e8,
            latency_secs: 1e-3,
        });
        let c = LayerCosts::with_traffic(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::ZERO,
            traffic,
        );
        assert_eq!(c.t_transfer(), SimTime::from_millis(7));
        assert_eq!(c.staged_bytes(), 1_500_000);
        // An idle tier costs nothing even with a huge latency.
        let mut idle = traffic;
        idle.push(TierTraffic {
            bytes: 0,
            bandwidth: 1.0,
            latency_secs: 10.0,
        });
        assert_eq!(
            LayerCosts::with_traffic(c.t_fwd, c.t_bwd, c.t_recompute, idle).t_transfer(),
            SimTime::from_millis(7)
        );
    }

    #[test]
    fn zero_offload_bytes_never_stalls() {
        let c = LayerCosts::single_tier(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::ZERO,
            0,
            1e9,
        );
        let out = run(6, c);
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn tiny_models_skip_swapping_entirely() {
        // n = 2: both layers retained; no offload traffic at all.
        let mut staging = TierStaging::single(1);
        let out = uniform(2, costs(10, 2.0, 0), SimTime::ZERO, &mut staging, 2).unwrap();
        assert_eq!(staging.host_peak(), 0);
        assert_eq!(out.compute_idle, SimTime::ZERO);
    }

    #[test]
    fn extra_slots_cannot_beat_the_bandwidth_limit() {
        // transfer = 1.5 × layer fwd: the single offload stream is a serial
        // throughput bottleneck, so a third rounding buffer cannot remove
        // the forward stalls — it only smooths the first few layers. This
        // is why the paper's design stops at two buffers: the binding
        // constraint of Eq. (2) is PCIe bandwidth, not buffer count.
        let c = costs(10, 1.5, 0);
        let run_slots = |slots: usize| {
            let mut staging = TierStaging::unbounded(1);
            uniform(24, c, SimTime::ZERO, &mut staging, slots).unwrap()
        };
        let two = run_slots(2);
        let three = run_slots(3);
        let four = run_slots(4);
        assert!(two.compute_idle > SimTime::ZERO);
        assert!(three.compute_idle > SimTime::ZERO, "still bandwidth-bound");
        // Marginal gains shrink: each extra slot saves at most one layer's
        // worth of stall, while costing a full 16·bsh of GPU memory.
        assert!(three.makespan <= two.makespan);
        assert!(four.makespan <= three.makespan);
        let gain23 = two.makespan.saturating_sub(three.makespan);
        assert!(
            gain23.as_secs_f64() < 0.1 * two.compute_idle.as_secs_f64() + 0.021,
            "extra slots must not materially remove bandwidth stalls (saved {gain23})"
        );
    }

    #[test]
    fn timeline_renders_three_streams() {
        let out = run(6, costs(10, 0.8, 2));
        let art = memo_hal::timeline::render_ascii(&out.timeline, 80);
        assert!(art.contains("compute"));
        assert!(art.contains("offload"));
        assert!(art.contains("prefetch"));
    }

    #[test]
    fn scalar_path_matches_event_loop_on_mixed_layouts() {
        for n in [4usize, 6, 9, 16] {
            for slots in [2usize, 3] {
                if n < slots + 1 {
                    continue;
                }
                for k in 0..=(n - slots) {
                    for ratio in [0.6, 1.7] {
                        let c = costs(10, ratio, 3);
                        let segs = mixed(n, k, slots, c, 9);
                        let mut s1 = TierStaging::unbounded(1);
                        let mut s2 = TierStaging::unbounded(1);
                        let full = build_schedule(
                            &segs,
                            SimTime::from_millis(5),
                            &mut s1,
                            slots,
                            RecordLevel::Full,
                        )
                        .unwrap();
                        let fast = build_schedule(
                            &segs,
                            SimTime::from_millis(5),
                            &mut s2,
                            slots,
                            RecordLevel::CursorOnly,
                        )
                        .unwrap();
                        assert_outcomes_match(&full, &fast);
                        assert_eq!(s1, s2);
                    }
                }
            }
        }
    }

    #[test]
    fn fewer_swap_layers_cut_host_peak_and_add_refwd_time() {
        let c = costs(10, 0.8, 3);
        let n = 12;
        let all = mixed(n, n - 2, 2, c, 0);
        let half = mixed(n, 5, 2, c, 10);
        let mut s_all = TierStaging::unbounded(1);
        let mut s_half = TierStaging::unbounded(1);
        let out_all =
            build_schedule(&all, SimTime::ZERO, &mut s_all, 2, RecordLevel::CursorOnly).unwrap();
        let out_half = build_schedule(
            &half,
            SimTime::ZERO,
            &mut s_half,
            2,
            RecordLevel::CursorOnly,
        )
        .unwrap();
        assert_eq!(s_half.host_peak(), 5 * c.host_bytes());
        assert!(s_half.host_peak() < s_all.host_peak());
        // 5 recompute layers × 10 ms refwd lands on the compute stream.
        assert!(out_half.compute_busy > out_all.compute_busy);
    }

    #[test]
    fn oohm_failure_is_identical_across_levels() {
        let c = costs(10, 0.5, 0);
        let segs = mixed(12, 10, 2, c, 0);
        let mut s1 = TierStaging::single(3 * 1_000_000);
        let mut s2 = TierStaging::single(3 * 1_000_000);
        let e_full =
            build_schedule(&segs, SimTime::ZERO, &mut s1, 2, RecordLevel::Full).unwrap_err();
        let e_fast =
            build_schedule(&segs, SimTime::ZERO, &mut s2, 2, RecordLevel::CursorOnly).unwrap_err();
        assert_eq!(e_full, e_fast);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "kick its prefetch")]
    fn swap_without_successor_is_rejected() {
        // Swap in the last `slots` buffer ordinals: no one kicks its
        // prefetch.
        let c = costs(10, 1.0, 0);
        let segs = vec![
            LayerSegment::new(1, SegmentPolicy::Swap, c),
            LayerSegment::new(1, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let _ = build_schedule_scalars(&segs, SimTime::ZERO, &mut s, 2);
    }

    #[test]
    #[should_panic(expected = "clobbered")]
    fn retained_before_a_later_buffer_user_is_rejected() {
        let c = costs(10, 1.0, 0);
        let segs = vec![
            LayerSegment::new(1, SegmentPolicy::Retained, c),
            LayerSegment::new(1, SegmentPolicy::Swap, c),
            LayerSegment::new(2, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let _ = build_schedule_scalars(&segs, SimTime::ZERO, &mut s, 2);
    }

    #[test]
    fn all_recompute_layout_is_pure_compute() {
        let mut c = costs(10, 1.0, 0);
        c.t_recompute = SimTime::from_millis(10);
        let segs = vec![
            LayerSegment::new(6, SegmentPolicy::Recompute, c),
            LayerSegment::new(2, SegmentPolicy::Retained, c),
        ];
        let mut s = TierStaging::unbounded(1);
        let out = build_schedule_scalars(&segs, SimTime::from_millis(5), &mut s, 2).unwrap();
        assert_eq!(out.io_busy, SimTime::ZERO);
        assert_eq!(s.host_peak(), 0);
        // 8 fwd + head + 6 refwd + 8 bwd, fully serial.
        assert_eq!(
            out.makespan(),
            SimTime::from_millis(8 * 10 + 5 + 6 * 10 + 8 * 20)
        );
        assert_eq!(out.compute_idle(), SimTime::ZERO);
    }
}
