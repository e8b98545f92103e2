//! Rounding buffers (§4.1, Figure 6).
//!
//! Two GPU buffers, allocated once before training, hold the skeletal
//! activations of all transformer layers: even-indexed layers use buffer 0,
//! odd-indexed layers buffer 1. Layer `i+2` may only overwrite buffer
//! `i % 2` after the offload of layer `i`'s contents has completed —
//! enforced with a CUDA event. During the backward pass the buffers rotate
//! the other way: after layer `i+2`'s backward finishes, its buffer starts
//! prefetching layer `i`'s activations.
//!
//! When `α = 0`, only the (tensor-level) input + attention-output slices are
//! offloaded and everything else is recomputed, so the "others" region needs
//! no offload protection and is **shared** across all layers (§4.1's special
//! case, [`skeletal_gpu_bytes`]) — it is rebuilt in place right before each
//! backward.
//!
//! This type is a pure state machine over
//! [`EventId`]s; the executor owns the
//! [`Timeline`](memo_hal::engine::Timeline) and asks the manager which event
//! must be awaited before each transition. Every illegal transition panics:
//! a buffer-safety bug in the scheduler must never silently corrupt the
//! simulation.

use memo_hal::engine::EventId;

/// What currently owns a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufState {
    /// Nothing in flight.
    Free,
    /// Holds layer's skeletal data, offload not yet begun.
    Filled { layer: usize },
    /// Offload to host in flight; safe to rewrite only after `done`.
    Offloading { layer: usize, done: EventId },
    /// Offload finished; contents stale on GPU (authoritative copy on host).
    Offloaded { layer: usize, done: EventId },
    /// Prefetch from host in flight; usable for backward only after `done`.
    Prefetching { layer: usize, done: EventId },
    /// Ready for the layer's backward pass.
    Resident { layer: usize },
}

/// GPU bytes reserved for skeletal activations at a given α.
///
/// With α > 0 both rounding buffers must hold a full per-layer skeletal
/// footprint (`2 × 16·bsh`). At α = 0 only the input + attention-output
/// slices rotate (they are still offloaded); the "others" region is fully
/// recomputed per backward and can be **shared** by all layers — the §4.1
/// special case that shrinks the reservation to `2·(S_in + S_attn) +
/// S_others`.
pub fn skeletal_gpu_bytes(s_input: u64, s_attn: u64, s_others: u64, alpha: f64) -> u64 {
    skeletal_gpu_bytes_with_slots(s_input, s_attn, s_others, alpha, 2)
}

/// [`skeletal_gpu_bytes`] generalised to `slots` rotating buffers (the
/// design-choice ablation: more slots allow offloads to spread over more
/// layers of compute, at `slots × 16·bsh` of GPU memory).
pub fn skeletal_gpu_bytes_with_slots(
    s_input: u64,
    s_attn: u64,
    s_others: u64,
    alpha: f64,
    slots: usize,
) -> u64 {
    let slots = slots.max(2) as u64;
    if alpha > 0.0 {
        slots * (s_input + s_attn + s_others)
    } else {
        slots * (s_input + s_attn) + s_others
    }
}

/// The rounding-buffer manager (rotation state machine over the
/// offload-protected slice; two slots, even/odd layers).
#[derive(Debug, Clone)]
pub struct RoundingBuffers {
    states: Vec<BufState>,
    /// Bytes of one rotating buffer slot.
    buffer_bytes: u64,
}

impl RoundingBuffers {
    pub fn new(buffer_bytes: u64) -> Self {
        Self::with_slots(2, buffer_bytes)
    }

    /// A manager with `slots ≥ 2` rotating buffers (layer `i` uses slot
    /// `i % slots`).
    pub fn with_slots(slots: usize, buffer_bytes: u64) -> Self {
        assert!(slots >= 2, "rotation needs at least two slots");
        RoundingBuffers {
            states: vec![BufState::Free; slots],
            buffer_bytes,
        }
    }

    pub fn n_buffers(&self) -> usize {
        self.states.len()
    }

    /// Total GPU bytes of the rotating slots.
    pub fn total_bytes(&self) -> u64 {
        self.buffer_bytes * self.states.len() as u64
    }

    fn slot(&self, layer: usize) -> usize {
        layer % self.states.len()
    }

    /// The forward pass of `layer` wants to write its buffer. Returns the
    /// event that must complete first (the previous occupant's offload), if
    /// any. Marks the buffer filled by `layer`.
    pub fn acquire_for_forward(&mut self, layer: usize) -> Option<EventId> {
        let s = self.slot(layer);
        let wait = match self.states[s] {
            BufState::Free => None,
            BufState::Offloading { done, layer: prev } => {
                assert!(prev < layer, "buffer reused out of order");
                Some(done)
            }
            BufState::Offloaded { layer: prev, .. } => {
                assert!(prev < layer, "buffer reused out of order");
                None
            }
            other => panic!("layer {layer} forward cannot overwrite buffer in state {other:?}"),
        };
        self.states[s] = BufState::Filled { layer };
        wait
    }

    /// The offload of `layer`'s buffer has been enqueued; `done` fires when
    /// the copy completes.
    pub fn offload_enqueued(&mut self, layer: usize, done: EventId) {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Filled { layer: l } if l == layer => {
                self.states[s] = BufState::Offloading { layer, done };
            }
            other => panic!("cannot offload layer {layer} from state {other:?}"),
        }
    }

    /// Mark an offload as logically complete (its event was awaited).
    pub fn offload_complete(&mut self, layer: usize) {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Offloading { layer: l, done } if l == layer => {
                self.states[s] = BufState::Offloaded { layer, done };
            }
            other => panic!("offload of layer {layer} not in flight: {other:?}"),
        }
    }

    /// The last layers skip offloading entirely (their backward runs next).
    /// Transition Filled -> Resident.
    pub fn retain_for_backward(&mut self, layer: usize) {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Filled { layer: l } if l == layer => {
                self.states[s] = BufState::Resident { layer };
            }
            other => panic!("cannot retain layer {layer} from state {other:?}"),
        }
    }

    /// Begin prefetching `layer`'s activations back into its buffer. The
    /// buffer must be free-for-reuse (its previous occupant `layer + 2`
    /// finished backward). Returns nothing; completion is signalled via
    /// [`Self::prefetch_complete`].
    pub fn prefetch_enqueued(&mut self, layer: usize, done: EventId) {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Free | BufState::Offloaded { .. } => {
                self.states[s] = BufState::Prefetching { layer, done };
            }
            other => panic!("cannot prefetch layer {layer} into state {other:?}"),
        }
    }

    /// The prefetch event was awaited; the buffer now serves the backward.
    pub fn prefetch_complete(&mut self, layer: usize) -> EventId {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Prefetching { layer: l, done } if l == layer => {
                self.states[s] = BufState::Resident { layer };
                done
            }
            other => panic!("prefetch of layer {layer} not in flight: {other:?}"),
        }
    }

    /// The backward pass of `layer` finished; its buffer becomes free (and
    /// typically immediately starts prefetching layer `layer − 2`).
    pub fn release_after_backward(&mut self, layer: usize) {
        let s = self.slot(layer);
        match self.states[s] {
            BufState::Resident { layer: l } if l == layer => {
                self.states[s] = BufState::Free;
            }
            other => panic!("backward release of layer {layer} from state {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_hal::engine::Timeline;
    use memo_hal::time::SimTime;

    fn event(tl: &mut Timeline) -> EventId {
        let s = tl.add_stream("aux");
        tl.enqueue(s, SimTime::from_millis(1), "op");
        tl.record_event(s)
    }

    #[test]
    fn double_buffer_rotation_forward() {
        let mut tl = Timeline::new();
        let mut rb = RoundingBuffers::new(1024);
        assert_eq!(rb.n_buffers(), 2);
        assert_eq!(rb.total_bytes(), 2048);

        // layers 0 and 1 fill freely
        assert!(rb.acquire_for_forward(0).is_none());
        let e0 = event(&mut tl);
        rb.offload_enqueued(0, e0);
        assert!(rb.acquire_for_forward(1).is_none());
        let e1 = event(&mut tl);
        rb.offload_enqueued(1, e1);

        // layer 2 must wait for layer 0's offload
        let wait = rb.acquire_for_forward(2);
        assert_eq!(wait, Some(e0));
    }

    #[test]
    fn alpha_zero_shares_the_recompute_region() {
        // §4.1 special case: only input+attn rotate; "others" are shared.
        let (s_in, s_attn, s_others) = (100, 100, 1400);
        let at_zero = skeletal_gpu_bytes(s_in, s_attn, s_others, 0.0);
        let at_half = skeletal_gpu_bytes(s_in, s_attn, s_others, 0.5);
        assert_eq!(at_zero, 2 * 200 + 1400);
        assert_eq!(at_half, 2 * 1600);
        assert!(at_zero < at_half);
    }

    #[test]
    fn three_slot_rotation_defers_waits() {
        let mut tl = Timeline::new();
        let mut rb = RoundingBuffers::with_slots(3, 64);
        assert!(rb.acquire_for_forward(0).is_none());
        let e0 = event(&mut tl);
        rb.offload_enqueued(0, e0);
        assert!(rb.acquire_for_forward(1).is_none());
        let e1 = event(&mut tl);
        rb.offload_enqueued(1, e1);
        assert!(rb.acquire_for_forward(2).is_none(), "third slot is free");
        let e2 = event(&mut tl);
        rb.offload_enqueued(2, e2);
        // layer 3 reuses slot 0: must wait on layer 0's offload.
        assert_eq!(rb.acquire_for_forward(3), Some(e0));
    }

    #[test]
    #[should_panic(expected = "at least two slots")]
    fn rejects_single_slot() {
        let _ = RoundingBuffers::with_slots(1, 64);
    }

    #[test]
    fn backward_prefetch_cycle() {
        let mut tl = Timeline::new();
        let mut rb = RoundingBuffers::new(64);
        // forward of 4 layers
        for l in 0..4 {
            rb.acquire_for_forward(l);
            if l < 2 {
                let e = event(&mut tl);
                rb.offload_enqueued(l, e);
                rb.offload_complete(l);
            } else {
                rb.retain_for_backward(l); // last two layers skip swapping
            }
        }
        // backward: 3, 2 are resident
        rb.release_after_backward(3);
        let e1 = event(&mut tl);
        rb.prefetch_enqueued(1, e1);
        rb.release_after_backward(2);
        let e0 = event(&mut tl);
        rb.prefetch_enqueued(0, e0);
        assert_eq!(rb.prefetch_complete(1), e1);
        rb.release_after_backward(1);
        assert_eq!(rb.prefetch_complete(0), e0);
        rb.release_after_backward(0);
    }

    #[test]
    #[should_panic(expected = "cannot overwrite")]
    fn forward_cannot_steal_resident_buffer() {
        let mut rb = RoundingBuffers::new(64);
        rb.acquire_for_forward(0);
        rb.retain_for_backward(0);
        rb.acquire_for_forward(2); // buffer 0 is resident for layer 0's bwd
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn cannot_complete_unstarted_prefetch() {
        let mut rb = RoundingBuffers::new(64);
        rb.prefetch_complete(0);
    }

    #[test]
    #[should_panic(expected = "cannot offload")]
    fn cannot_offload_unfilled_buffer() {
        let mut tl = Timeline::new();
        let e = event(&mut tl);
        let mut rb = RoundingBuffers::new(64);
        rb.offload_enqueued(0, e);
    }

    #[test]
    fn forward_ring_wraps_across_many_cycles() {
        // Nine layers through a three-slot ring: on every revolution the
        // wrap boundary must hand back exactly the previous occupant's
        // offload event. With no `offload_complete` in between (the
        // schedule builders never await offloads mid-forward), the wait is
        // unconditional for every layer past the first revolution — the
        // invariant the schedule fast path's splice relies on.
        let mut tl = Timeline::new();
        let mut rb = RoundingBuffers::with_slots(3, 64);
        let mut off = Vec::new();
        for layer in 0..9 {
            let expect = if layer >= 3 {
                Some(off[layer - 3])
            } else {
                None
            };
            assert_eq!(rb.acquire_for_forward(layer), expect, "layer {layer}");
            let e = event(&mut tl);
            rb.offload_enqueued(layer, e);
            off.push(e);
        }
    }

    #[test]
    fn backward_ring_wraps_through_prefetches() {
        // Seven layers, two slots — the full forward/backward interleave of
        // the schedule builders. Each prefetch must land in the same slot
        // its layer's forward used ((i − slots) % slots == i % slots), and
        // complete with the event recorded at enqueue, across every wrap.
        let n = 7;
        let slots = 2;
        let swaps = |layer: usize| layer + slots < n;
        let mut tl = Timeline::new();
        let mut rb = RoundingBuffers::with_slots(slots, 64);
        for layer in 0..n {
            rb.acquire_for_forward(layer);
            if swaps(layer) {
                let e = event(&mut tl);
                rb.offload_enqueued(layer, e);
            } else {
                rb.retain_for_backward(layer);
            }
        }
        let mut pf = vec![None; n];
        for layer in (0..n).rev() {
            if swaps(layer) {
                assert_eq!(
                    Some(rb.prefetch_complete(layer)),
                    pf[layer],
                    "layer {layer}"
                );
            }
            rb.release_after_backward(layer);
            if layer >= slots && swaps(layer - slots) {
                let e = event(&mut tl);
                rb.prefetch_enqueued(layer - slots, e);
                pf[layer - slots] = Some(e);
            }
        }
    }
}
