//! # memo-swap — token-wise recomputation and swapping (§4.1)
//!
//! MEMO's first contribution: manage skeletal activations with a *fine
//! grained* mix of CPU offloading and recomputation.
//!
//! * Tensor level: always offload the layer input (the recompute anchor) and
//!   the FlashAttention output (1/16 of the bytes but ~the whole compute).
//! * Token level: of the remaining skeletal tensors, offload an `α` fraction
//!   of token rows and recompute the rest; `α` comes from the linear program
//!   of Eq. (1)–(3) ([`alpha`]).
//! * Two GPU **rounding buffers** hold skeletal activations — even layers in
//!   buffer 0, odd layers in buffer 1 — with CUDA events guarding reuse
//!   ([`buffers`]). When `α = 0` a single buffer suffices (§4.1 special
//!   case).
//! * The offload / prefetch / recompute operations are laid out on three
//!   streams ([`schedule`]) exactly as in Figure 11. One builder serves
//!   every per-layer layout — runs of swapped, fully recomputed and
//!   retained layers, the paper's schedule being the two-run
//!   [`LayerSegment::uniform`] — either recorded span by span
//!   ([`build_schedule`]) or, for runs that need only numbers, as a scalar
//!   recurrence with each swap run's steady state spliced in closed form
//!   ([`build_schedule_scalars`]); [`reference`](mod@reference) keeps the
//!   original event-loop builder as the differential oracle, and `delta`
//!   memoizes the scalar builds.
//! * Host staging capacity (and OOHM) is tracked by `host`; the N-tier
//!   offload chain keeps one such pool per tier in [`tiers`], and the
//!   α program generalises to a per-tier greedy waterfall
//!   ([`alpha::solve_alpha_tiered`]).
//! * The same α program drives token-wise **KV** swapping for the serving
//!   workload family ([`kv`]): the decode step is the overlap window, the
//!   KV cache the α-managed pool, and cold sequences page down the tier
//!   chain MemGPT-style.

pub mod alpha;
pub mod buffers;
mod delta;
mod host;
pub mod kv;
pub mod reference;
pub mod schedule;
pub mod tiers;

pub use buffers::RoundingBuffers;
pub use delta::{SegmentCache, SegmentCacheStats, SegmentStatsScope};
pub use schedule::{
    build_schedule, build_schedule_scalars, LayerCosts, LayerSegment, ScalarSchedule,
    ScheduleOutcome, SegmentPolicy, TierTraffic, TierTrafficList, MAX_TIERS,
};
pub use tiers::{OutOfTierMemory, TierStaging};
