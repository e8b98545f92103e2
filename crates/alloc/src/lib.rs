//! # memo-alloc — device memory allocators
//!
//! Two allocators, mirroring the paper's contrast:
//!
//! * [`caching::CachingAllocator`] reimplements the observable algorithm of
//!   the PyTorch CUDA caching allocator: 512 B size rounding, separate small
//!   (<1 MiB) and large pools, segment acquisition via simulated `cudaMalloc`,
//!   block splitting and coalescing, cached-block reuse, and — crucially —
//!   the expensive *memory reorganisation* path (release cached segments via
//!   `cudaFree` and retry) that the paper identifies as a major stall source
//!   in long-context training (§1, Figure 1a).
//! * [`plan::PlanAllocator`] executes a static address plan produced by the
//!   bi-level MIP planner: one arena reservation, zero fragmentation, zero
//!   reorganisations, with runtime verification that the plan is sound.
//! * [`expandable::ExpandableAllocator`] simulates VMM-backed expandable
//!   segments (PyTorch `expandable_segments`, GMLake) — the related-work
//!   alternative to MEMO's static planning.
//! * [`reference::ReferenceCachingAllocator`] is the original BTree-indexed
//!   caching allocator, kept verbatim as the bit-exactness oracle for the
//!   fast path in [`caching`]: blocks as linked slab nodes, free blocks in
//!   size-class lists, O(1) per request apart from the best-fit scan of one
//!   class (see DESIGN.md §2d).
//! * [`paged::PagedKvAllocator`] is the serving-side answer: fixed-size KV
//!   pages, per-sequence page tables, O(1) append/release — run in lockstep
//!   with [`paged::PagedKvReference`] per the same oracle pattern
//!   (DESIGN.md §2j).
//!
//! All training allocators implement [`DeviceAllocator`] so executors can
//! swap them freely; the paged KV allocator has its own sequence-oriented
//! interface (admit/append/release) since KV grows token-wise, not
//! tensor-wise.

pub mod caching;
pub mod expandable;
pub mod paged;
pub mod plan;
pub mod reference;
pub mod snapshot;

use memo_model::trace::TensorId;

/// Result of a failed allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The device cannot satisfy the request even after reorganisation.
    OutOfMemory {
        requested: u64,
        allocated: u64,
        reserved: u64,
        capacity: u64,
    },
    /// A plan allocator was asked for a tensor absent from its plan.
    NotInPlan(TensorId),
    /// A plan allocator detected two live tensors sharing addresses — the
    /// plan was invalid.
    PlanOverlap(TensorId, TensorId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                allocated,
                reserved,
                capacity,
            } => write!(
                f,
                "CUDA out of memory: tried to allocate {requested} bytes \
                 (allocated {allocated}, reserved {reserved}, capacity {capacity})"
            ),
            AllocError::NotInPlan(t) => write!(f, "tensor {} missing from memory plan", t.0),
            AllocError::PlanOverlap(a, b) => {
                write!(
                    f,
                    "memory plan places live tensors {} and {} on overlapping addresses",
                    a.0, b.0
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Common interface of the two allocators.
pub trait DeviceAllocator {
    /// Allocate `bytes` for tensor `id`; returns the device address.
    fn malloc(&mut self, id: TensorId, bytes: u64) -> Result<u64, AllocError>;
    /// Release tensor `id`.
    fn free(&mut self, id: TensorId);
    /// Bytes currently handed out to live tensors.
    fn allocated_bytes(&self) -> u64;
    /// Bytes currently reserved from the device (`cudaMalloc`'d).
    fn reserved_bytes(&self) -> u64;
    /// Number of reorganisation episodes so far (always 0 for plans).
    fn reorg_count(&self) -> u64;
}
