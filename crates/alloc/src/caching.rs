//! A faithful simulation of the PyTorch CUDA caching allocator.
//!
//! The algorithm (matching `CUDACachingAllocator.cpp`'s observable
//! behaviour):
//!
//! 1. round the request to a multiple of 512 B;
//! 2. pick a pool: *small* for rounded sizes < 1 MiB, *large* otherwise;
//! 3. best-fit among the pool's cached free blocks; split the block if the
//!    remainder is large enough (≥512 B small / >1 MiB large);
//! 4. on miss, `cudaMalloc` a fresh segment (2 MiB small; 20 MiB for large
//!    requests under 10 MiB; exact rounded size above);
//! 5. if the device has no room for the segment, **reorganise**: `cudaFree`
//!    every completely-free cached segment and retry — this is the expensive
//!    stall the paper measures (6–16 times per iteration for Megatron-LM at
//!    128–256 K, §5.2) — and if the retry still fails, raise OOM;
//! 6. `free` returns the block to its pool and coalesces with free
//!    neighbours within the same segment.
//!
//! Segment base addresses come from a monotonically increasing virtual
//! cursor: real `cudaMalloc` never relocates live segments, which is exactly
//! why fragmentation is irrecoverable without frees.
//!
//! ## The replay fast path (DESIGN.md §2d)
//!
//! Blocks are nodes of one slab, linked `prev`/`next` to their address
//! neighbours inside their segment, the way `CUDACachingAllocator` links
//! its `Block`s, and splitting and coalescing are link edits. The core
//! hands out and takes back blocks, not tensors: `alloc` returns a block's
//! node and `release` frees by node, the way PyTorch frees by `Block`. The
//! free blocks are indexed **by size class**: each pool keeps 64
//! power-of-two classes over the 512 B-rounded sizes (class *k* holds sizes
//! in `[512·2^k, 512·2^(k+1))`) with a `u64` occupancy bitmap for
//! first-nonempty-class lookup and an in-class best-fit scan, a
//! branch-free minimum over each entry's `(size, addr)` packed into one
//! `u128`. A free node records its position in its class, so taking it out
//! is one `swap_remove`. Apart from that scan, a request is O(1): a few
//! link edits, plus finding the tensor's block.
//!
//! A trace replay ([`DeviceAllocator::serve`], which every function of
//! [`crate::snapshot`] goes through) finds it without hashing: trace ids
//! are malloc ordinals ([`memo_model::trace::IterationTrace::tensors`]),
//! so the replay keeps each tensor's node in a table indexed by id. Only
//! `malloc`/`free`, whose callers pick their own ids, hash the tensor into
//! a map.
//!
//! [`CachingAllocator::reset`] makes an allocator a fresh one of a new
//! capacity while every buffer (slab, free lists, map, table) keeps its
//! capacity, so a caller replaying many traces reuses one workspace.
//!
//! The pre-optimization implementation survives verbatim as
//! [`crate::reference::ReferenceCachingAllocator`], and the two are kept
//! **bit-exact** (identical addresses, stats, reorganisation counts and
//! event streams) by a randomized differential test; the best-fit scan
//! reproduces the BTree's `(size, base, offset)` tuple order exactly,
//! including tie-breaks.

use crate::{AllocError, DeviceAllocator};
use memo_model::hash::FxHashMap;
use memo_model::trace::{MemOp, Request, TensorId};
use std::ops::ControlFlow;

const ROUND: u64 = 512;
const SMALL_LIMIT: u64 = 1 << 20; // requests below this go to the small pool
const SMALL_SEGMENT: u64 = 2 << 20;
const LARGE_SEGMENT_MIN: u64 = 20 << 20;
const LARGE_DIRECT_LIMIT: u64 = 10 << 20;
const SEGMENT_ROUND: u64 = 2 << 20;
const LARGE_SPLIT_REMAINDER: u64 = 1 << 20;

/// Number of power-of-two size classes per pool. Sizes are ≥512 B and fit
/// in a `u64`, so `log2(size/512) < 55 < 64` always indexes in range and
/// the occupancy bitmap fits one word.
const N_CLASSES: usize = 64;

/// The null link: no neighbour, or (in [`Node::slot`]) not in a free list.
const NIL: u32 = u32::MAX;

/// The two pools, indexing `CachingAllocator::free`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Small = 0,
    Large = 1,
}

/// One block of a segment: a slab node linked to its address neighbours.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index of the owning segment in `CachingAllocator::segments`.
    seg: u32,
    /// The blocks just below and just above this one in the segment.
    prev: u32,
    next: u32,
    /// Position in its size-class bucket while the block is cached, `NIL`
    /// while it is handed out: a block is free iff it is listed.
    slot: u32,
    off: u64,
    size: u64,
}

impl Node {
    #[inline]
    fn is_free(&self) -> bool {
        self.slot != NIL
    }
}

/// Merge `gone`, the block right above `keep`, into `keep`. The caller
/// recycles `gone`'s slab index.
#[inline]
fn absorb_next(nodes: &mut [Node], keep: u32, gone: u32) {
    let Node { size, next, .. } = nodes[gone as usize];
    let k = &mut nodes[keep as usize];
    k.size += size;
    k.next = next;
    if next != NIL {
        nodes[next as usize].prev = keep;
    }
}

/// One cached free block, kept in a size-class bucket with its node: its
/// size and address, the sort key of best fit. The old BTree index sorted
/// `(size, base, off)`, and `(size, base + off)` sorts the same way:
/// segments never overlap, and a later base lies above every block of an
/// earlier segment (the cursor only grows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeEntry {
    size: u64,
    addr: u64,
    node: u32,
}

impl FreeEntry {
    /// The best-fit order, packed into one integer: size, then address.
    /// Sizes are multiples of 512, so no entry's key is `u128::MAX`.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.size) << 64) | u128::from(self.addr)
    }
}

/// The node of the minimum-key entry of `entries` with `size ≥ rounded`,
/// by a scan with no data-dependent branch: an entry too small keys as
/// `u128::MAX`, and each step selects the smaller key and its node. Keys
/// are distinct (no two free blocks share an address), so the minimum is
/// the one `min_by_key` over the fitting entries returns.
#[inline]
fn min_fit(entries: &[FreeEntry], rounded: u64) -> Option<u32> {
    let (mut best, mut node) = (u128::MAX, NIL);
    for e in entries {
        let key = if e.size >= rounded {
            e.key()
        } else {
            u128::MAX
        };
        let less = key < best;
        best = if less { key } else { best };
        node = if less { e.node } else { node };
    }
    (node != NIL).then_some(node)
}

/// `floor(log2(size / 512))`: the power-of-two class of a rounded size.
#[inline]
fn class_of(size: u64) -> usize {
    debug_assert!(size >= ROUND);
    (size / ROUND).ilog2() as usize
}

/// One pool's segregated free lists: 64 power-of-two classes over the
/// 512 B-rounded block sizes, a one-word occupancy bitmap, and a running
/// byte total (kept exact so `total_free_bytes` matches the BTree sum).
#[derive(Debug)]
struct SegregatedLists {
    classes: Vec<Vec<FreeEntry>>,
    occupancy: u64,
    total_free: u64,
}

impl SegregatedLists {
    fn new() -> Self {
        SegregatedLists {
            classes: (0..N_CLASSES).map(|_| Vec::new()).collect(),
            occupancy: 0,
            total_free: 0,
        }
    }

    /// List `node` (of the segment at `base`) as free.
    #[inline]
    fn insert(&mut self, nodes: &mut [Node], node: u32, base: u64) {
        let n = &mut nodes[node as usize];
        let k = class_of(n.size);
        let class = &mut self.classes[k];
        n.slot = class.len() as u32;
        class.push(FreeEntry {
            size: n.size,
            addr: base + n.off,
            node,
        });
        self.occupancy |= 1 << k;
        self.total_free += n.size;
    }

    /// Unlist every block, keeping the lists' capacities.
    fn clear(&mut self) {
        for class in &mut self.classes {
            class.clear();
        }
        self.occupancy = 0;
        self.total_free = 0;
    }

    /// Unlist `node`: swap-remove its entry and fix the stored position of
    /// the entry moved into its place.
    #[inline]
    fn remove(&mut self, nodes: &mut [Node], node: u32) {
        let n = &mut nodes[node as usize];
        let (k, i, size) = (class_of(n.size), n.slot as usize, n.size);
        n.slot = NIL;
        let class = &mut self.classes[k];
        class.swap_remove(i);
        if let Some(moved) = class.get(i) {
            nodes[moved.node as usize].slot = i as u32;
        }
        if class.is_empty() {
            self.occupancy &= !(1 << k);
        }
        self.total_free -= size;
    }

    /// Best-fit lookup, bit-exact with the BTree's
    /// `range((rounded, 0, 0)..).next()`: the node of the minimum
    /// `(size, addr)` entry with `size ≥ rounded`. The request's own class
    /// is scanned for fitting entries; every entry in a higher class is
    /// strictly larger than every entry here, so on a miss the occupancy
    /// bitmap jumps straight to the first nonempty higher class and the
    /// scan there only resolves address ties on equal sizes. Both scans
    /// are [`min_fit`]'s branch-free minimum.
    fn best_fit(&self, rounded: u64) -> Option<u32> {
        let k = class_of(rounded);
        if self.occupancy & (1 << k) != 0 {
            if let Some(node) = min_fit(&self.classes[k], rounded) {
                return Some(node);
            }
        }
        let higher = if k + 1 >= N_CLASSES {
            0
        } else {
            self.occupancy & (u64::MAX << (k + 1))
        };
        if higher == 0 {
            return None;
        }
        min_fit(&self.classes[higher.trailing_zeros() as usize], 0)
    }

    /// The largest cached size: the max entry of the highest nonempty class.
    fn largest(&self) -> u64 {
        if self.occupancy == 0 {
            return 0;
        }
        let j = 63 - self.occupancy.leading_zeros() as usize;
        self.classes[j].iter().map(|e| e.size).max().unwrap_or(0)
    }
}

/// A `cudaMalloc`'d segment: its blocks are the node list from `head`
/// (the block at offset 0, which merges never remove) along `next`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    base: u64,
    size: u64,
    pool: Pool,
    head: u32,
    live_blocks: usize,
}
/// Aggregate statistics of one allocator lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CachingStats {
    pub n_mallocs: u64,
    pub(crate) n_frees: u64,
    pub n_segments_created: u64,
    pub(crate) n_segments_released: u64,
    pub(crate) n_reorgs: u64,
    pub(crate) peak_allocated: u64,
    pub peak_reserved: u64,
}

/// What an [`AllocEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocEventKind {
    /// A block was handed out (`bytes` = rounded request size).
    Malloc,
    /// A live block was returned (`bytes` = the freed block's size).
    Free,
    /// `cudaMalloc` created a segment (`bytes` = segment size).
    SegmentCreate,
    /// Reorganisation `cudaFree`'d a cached segment (`bytes` = its size).
    SegmentRelease,
    /// A reorganisation pass started (the expensive stall of §5.2).
    Reorg,
}

/// One allocator event, stamped with the *post-event* allocated/reserved
/// counters so the Figure 1(a) curves can be regenerated from a recorded
/// run. Only populated when recording is enabled
/// ([`CachingAllocator::record_events`]) — the default is a no-op `None`
/// with zero overhead on the malloc/free hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocEvent {
    pub kind: AllocEventKind,
    /// The tensor involved (`None` for segment/reorg events).
    pub tensor: Option<TensorId>,
    /// Size the event concerns (see [`AllocEventKind`]; 0 for `Reorg`).
    pub bytes: u64,
    /// Allocated bytes immediately after the event.
    pub allocated: u64,
    /// Reserved bytes immediately after the event.
    pub reserved: u64,
}

/// The caching allocator simulation. See module docs for the algorithm.
///
/// ```
/// use memo_alloc::caching::CachingAllocator;
/// use memo_alloc::DeviceAllocator;
/// use memo_model::trace::TensorId;
///
/// let mut alloc = CachingAllocator::new(1 << 30);
/// let addr = alloc.malloc(TensorId(0), 32 << 20).unwrap();
/// alloc.free(TensorId(0));
/// // the freed block is cached and reused, not returned to the device
/// assert_eq!(alloc.malloc(TensorId(1), 32 << 20).unwrap(), addr);
/// assert!(alloc.reserved_bytes() >= alloc.allocated_bytes());
/// ```
#[derive(Debug)]
pub struct CachingAllocator {
    capacity: u64,
    va_cursor: u64,
    /// Segments in creation order — ascending base, because the cursor only
    /// grows, and the reorganisation compaction preserves relative order.
    segments: Vec<Segment>,
    /// The block slab. Indices of merged-away and released blocks wait in
    /// `spare` for reuse.
    nodes: Vec<Node>,
    spare: Vec<u32>,
    /// Free lists, indexed by [`Pool`].
    free: [SegregatedLists; 2],
    /// Tensor → its block, for the tensors `malloc` handed out.
    live: FxHashMap<TensorId, u32>,
    /// [`DeviceAllocator::serve`]'s table of each replayed tensor's block
    /// (`NIL` while not live), kept between calls for its capacity only:
    /// every `serve` starts it empty.
    blocks: Vec<u32>,
    /// Blocks handed out and not released, however they were named.
    live_blocks: usize,
    allocated: u64,
    reserved: u64,
    stats: CachingStats,
    /// `Some` only while event recording is on (`record_events`); the
    /// default `None` keeps the hot path allocation- and branch-cheap.
    events: Option<Vec<AllocEvent>>,
}

impl CachingAllocator {
    /// A fresh allocator managing `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        CachingAllocator {
            capacity,
            va_cursor: 0,
            segments: Vec::new(),
            nodes: Vec::new(),
            spare: Vec::new(),
            free: [SegregatedLists::new(), SegregatedLists::new()],
            live: FxHashMap::default(),
            blocks: Vec::new(),
            live_blocks: 0,
            allocated: 0,
            reserved: 0,
            stats: CachingStats::default(),
            events: None,
        }
    }

    /// Make this allocator a fresh one managing `capacity` bytes, as
    /// [`Self::new`] would, while its buffers (the block slab, the free
    /// lists, the tensor map and [`DeviceAllocator::serve`]'s tensor
    /// table) keep their capacity: a replay workspace reused across
    /// replays allocates only where a replay outgrows every earlier one.
    /// Event recording is off, as on a fresh allocator.
    pub fn reset(&mut self, capacity: u64) {
        // Destructured in full, so that a new field cannot be left out.
        let CachingAllocator {
            capacity: cap,
            va_cursor,
            segments,
            nodes,
            spare,
            free,
            live,
            blocks,
            live_blocks,
            allocated,
            reserved,
            stats,
            events,
        } = self;
        *cap = capacity;
        *va_cursor = 0;
        segments.clear();
        nodes.clear();
        spare.clear();
        free.iter_mut().for_each(SegregatedLists::clear);
        live.clear();
        blocks.clear();
        *live_blocks = 0;
        *allocated = 0;
        *reserved = 0;
        *stats = CachingStats::default();
        *events = None;
    }

    /// Enable or disable event recording. Enabling starts a fresh event
    /// log; disabling discards it. Off by default (zero overhead).
    pub fn record_events(&mut self, on: bool) {
        self.events = if on { Some(Vec::new()) } else { None };
    }

    /// Events recorded since recording was (re-)enabled; empty when off.
    #[cfg(test)]
    fn events(&self) -> &[AllocEvent] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Drain the recorded events, leaving recording enabled iff it was.
    pub fn take_events(&mut self) -> Vec<AllocEvent> {
        match self.events.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    #[inline]
    fn emit(&mut self, kind: AllocEventKind, tensor: Option<TensorId>, bytes: u64) {
        if let Some(events) = self.events.as_mut() {
            events.push(AllocEvent {
                kind,
                tensor,
                bytes,
                allocated: self.allocated,
                reserved: self.reserved,
            });
        }
    }

    pub fn stats(&self) -> CachingStats {
        self.stats
    }

    /// Reserved-but-unallocated bytes — the fragmentation overhead visible in
    /// Figure 1(a) as the gap between the two curves. Saturating: the two
    /// counters are maintained so that `reserved ≥ allocated`, but a metric
    /// getter must not be able to underflow-panic if that drifts.
    pub fn fragmentation_bytes(&self) -> u64 {
        self.reserved.saturating_sub(self.allocated)
    }

    /// Total free bytes, summed over the free-block index. Unlike the
    /// `reserved − allocated` counter difference this is exact by
    /// construction: it counts precisely the cached blocks a `malloc` can
    /// actually be served from, independent of how rounding slack inside
    /// live blocks is attributed to the counters.
    pub fn total_free_bytes(&self) -> u64 {
        self.free.iter().map(|l| l.total_free).sum()
    }

    /// The largest single free block currently cached. A request above this
    /// cannot be served from cache even though `fragmentation_bytes` may be
    /// huge — the essence of external fragmentation.
    pub fn largest_free_block(&self) -> u64 {
        self.free
            .iter()
            .map(SegregatedLists::largest)
            .max()
            .unwrap_or(0)
    }

    /// External fragmentation ratio: `1 − largest_free / total_free`
    /// (0 when the free space is one block or there is none).
    ///
    /// Both terms come from the free-block index, so `largest ≤ total` holds
    /// structurally and the ratio is always within `[0, 1]`. The previous
    /// implementation divided by `reserved − allocated` instead — a counter
    /// difference that is only *incidentally* equal to the free bytes (it
    /// depends on rounding slack inside unsplit live blocks being charged to
    /// `allocated`) and that silently yields a bogus ratio the moment the
    /// two bookkeeping schemes drift (see
    /// `external_fragmentation_counters_vs_free_index`).
    pub fn external_fragmentation(&self) -> f64 {
        let free = self.total_free_bytes();
        if free == 0 {
            return 0.0;
        }
        (1.0 - self.largest_free_block() as f64 / free as f64).clamp(0.0, 1.0)
    }

    fn round_size(bytes: u64) -> u64 {
        bytes.max(1).div_ceil(ROUND) * ROUND
    }

    fn pool_for(rounded: u64) -> Pool {
        if rounded < SMALL_LIMIT {
            Pool::Small
        } else {
            Pool::Large
        }
    }

    fn segment_size_for(pool: Pool, rounded: u64) -> u64 {
        match pool {
            Pool::Small => SMALL_SEGMENT,
            Pool::Large => {
                if rounded < LARGE_DIRECT_LIMIT {
                    LARGE_SEGMENT_MIN
                } else {
                    rounded.div_ceil(SEGMENT_ROUND) * SEGMENT_ROUND
                }
            }
        }
    }

    fn min_split_remainder(pool: Pool) -> u64 {
        match pool {
            Pool::Small => ROUND,
            Pool::Large => LARGE_SPLIT_REMAINDER + 1,
        }
    }

    /// The accounting invariants, checked after every `malloc`, `free` and
    /// reorganisation in debug builds: reserved bytes are exactly the
    /// allocated plus the cached free ones (unsplit slack counts as
    /// allocated), `allocated ≤ reserved ≤ capacity`, and the segments'
    /// live-block counts sum to the blocks handed out and not released.
    #[inline]
    fn check_accounting(&self) {
        debug_assert_eq!(
            self.reserved,
            self.allocated + self.total_free_bytes(),
            "reserved != allocated + free"
        );
        debug_assert!(
            self.allocated <= self.reserved && self.reserved <= self.capacity,
            "allocated {} / reserved {} / capacity {} out of order",
            self.allocated,
            self.reserved,
            self.capacity
        );
        debug_assert_eq!(
            self.segments.iter().map(|s| s.live_blocks).sum::<usize>(),
            self.live_blocks,
            "segment live blocks != live tensors"
        );
    }

    /// Put `node` in the slab, reusing a spare index if there is one.
    fn new_node(&mut self, node: Node) -> u32 {
        if let Some(i) = self.spare.pop() {
            self.nodes[i as usize] = node;
            return i;
        }
        let i = self.nodes.len();
        assert!(i < NIL as usize, "more than 2^32 - 1 blocks");
        self.nodes.push(node);
        i as u32
    }

    /// Hand the free block `node` out for a `rounded`-byte request,
    /// splitting off the remainder as a new free block when it is large
    /// enough.
    fn take_block(&mut self, pool: Pool, node: u32, rounded: u64) {
        self.free[pool as usize].remove(&mut self.nodes, node);
        let Node {
            seg,
            next,
            off,
            size,
            ..
        } = self.nodes[node as usize];
        debug_assert!(size >= rounded);
        let base = self.segments[seg as usize].base;
        let remainder = size - rounded;
        if remainder >= Self::min_split_remainder(pool) {
            let rest = self.new_node(Node {
                seg,
                prev: node,
                next,
                slot: NIL,
                off: off + rounded,
                size: remainder,
            });
            if next != NIL {
                self.nodes[next as usize].prev = rest;
            }
            let taken = &mut self.nodes[node as usize];
            taken.next = rest;
            taken.size = rounded;
            self.free[pool as usize].insert(&mut self.nodes, rest, base);
            self.allocated += rounded;
        } else {
            // The whole (possibly over-sized) block is handed out; the slack
            // is internal fragmentation counted as allocated, like PyTorch's
            // "allocated" counter which tracks block sizes.
            self.allocated += size;
        }
        self.segments[seg as usize].live_blocks += 1;
        self.live_blocks += 1;
    }

    /// Hand `node` out for tensor `id` and record the malloc.
    fn hand_out(&mut self, id: TensorId, pool: Pool, node: u32, rounded: u64) -> u32 {
        self.take_block(pool, node, rounded);
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated);
        self.emit(AllocEventKind::Malloc, Some(id), rounded);
        self.check_accounting();
        node
    }

    /// The address of block `node`.
    fn address(&self, node: u32) -> u64 {
        let Node { seg, off, .. } = self.nodes[node as usize];
        self.segments[seg as usize].base + off
    }

    /// Simulated `cudaMalloc`: create a new segment with one free block.
    fn cuda_malloc(&mut self, pool: Pool, seg_size: u64) -> Option<u32> {
        if self.reserved + seg_size > self.capacity {
            return None;
        }
        let base = self.va_cursor;
        self.va_cursor += seg_size + SEGMENT_ROUND; // guard gap between segments
        let seg = self.segments.len() as u32;
        let head = self.new_node(Node {
            seg,
            prev: NIL,
            next: NIL,
            slot: NIL,
            off: 0,
            size: seg_size,
        });
        self.segments.push(Segment {
            base,
            size: seg_size,
            pool,
            head,
            live_blocks: 0,
        });
        self.free[pool as usize].insert(&mut self.nodes, head, base);
        self.reserved += seg_size;
        self.stats.n_segments_created += 1;
        self.stats.peak_reserved = self.stats.peak_reserved.max(self.reserved);
        self.emit(AllocEventKind::SegmentCreate, None, seg_size);
        Some(head)
    }

    /// The reorganisation path: `cudaFree` every fully-free segment, in
    /// ascending-base order (the canonical order, see module docs), via one
    /// in-place compaction pass — no temporary victim list. A kept segment
    /// that moves down has its blocks' `seg` rewritten.
    fn release_cached_segments(&mut self) {
        let n = self.segments.len();
        let mut kept = 0usize;
        for i in 0..n {
            let s = self.segments[i];
            let mut node = s.head;
            if s.live_blocks == 0 {
                // Coalescing has merged a fully free segment into one
                // block, but walking the list does not rely on that.
                while node != NIL {
                    let next = self.nodes[node as usize].next;
                    self.free[s.pool as usize].remove(&mut self.nodes, node);
                    self.spare.push(node);
                    node = next;
                }
                self.reserved -= s.size;
                self.stats.n_segments_released += 1;
                self.emit(AllocEventKind::SegmentRelease, None, s.size);
            } else {
                if kept != i {
                    self.segments[kept] = s;
                    while node != NIL {
                        let n = &mut self.nodes[node as usize];
                        n.seg = kept as u32;
                        node = n.next;
                    }
                }
                kept += 1;
            }
        }
        self.segments.truncate(kept);
    }

    /// Return the just-freed `node` to its pool, merged with whichever
    /// address neighbours are free.
    fn coalesce(&mut self, node: u32) {
        let Node {
            seg, prev, next, ..
        } = self.nodes[node as usize];
        let Segment { base, pool, .. } = self.segments[seg as usize];
        let (lists, nodes) = (&mut self.free[pool as usize], &mut self.nodes);
        let mut merged = node;
        if next != NIL && nodes[next as usize].is_free() {
            lists.remove(nodes, next);
            absorb_next(nodes, node, next);
            self.spare.push(next);
        }
        if prev != NIL && nodes[prev as usize].is_free() {
            lists.remove(nodes, prev);
            absorb_next(nodes, prev, node);
            self.spare.push(node);
            merged = prev;
        }
        lists.insert(nodes, merged, base);
    }

    /// The block-handle core of every malloc: serve `bytes` from the pools
    /// (best fit, else a fresh segment, else reorganise and retry) and
    /// return the block's node, or `None` when the device is out of memory
    /// ([`Self::out_of_memory`] then describes it). Nothing maps a tensor
    /// to the node; `id` only labels the events.
    fn alloc(&mut self, id: TensorId, bytes: u64) -> Option<u32> {
        let rounded = Self::round_size(bytes);
        let pool = Self::pool_for(rounded);
        self.stats.n_mallocs += 1;

        // 1. cached block?
        if let Some(node) = self.free[pool as usize].best_fit(rounded) {
            return Some(self.hand_out(id, pool, node, rounded));
        }

        // 2. fresh segment?
        let seg_size = Self::segment_size_for(pool, rounded);
        if let Some(node) = self.cuda_malloc(pool, seg_size) {
            return Some(self.hand_out(id, pool, node, rounded));
        }

        // 3. reorganise and retry (the expensive path). Released segments
        // were fully free and the remaining cached blocks were already
        // searched, so only a fresh cudaMalloc can help.
        self.stats.n_reorgs += 1;
        self.emit(AllocEventKind::Reorg, None, 0);
        self.release_cached_segments();
        self.check_accounting();
        let node = self.cuda_malloc(pool, seg_size)?;
        Some(self.hand_out(id, pool, node, rounded))
    }

    /// The error of the malloc of `bytes` that [`Self::alloc`] just failed.
    fn out_of_memory(&self, bytes: u64) -> AllocError {
        AllocError::OutOfMemory {
            requested: bytes,
            allocated: self.allocated,
            reserved: self.reserved,
            capacity: self.capacity,
        }
    }

    /// The block-handle core of every free: return the live block `node`
    /// to its pool. `id` only labels the event.
    fn release(&mut self, id: TensorId, node: u32) {
        let Node { seg, size, .. } = self.nodes[node as usize];
        debug_assert!(!self.nodes[node as usize].is_free());
        self.allocated -= size;
        self.segments[seg as usize].live_blocks -= 1;
        self.live_blocks -= 1;
        self.stats.n_frees += 1;
        self.coalesce(node);
        self.emit(AllocEventKind::Free, Some(id), size);
        self.check_accounting();
    }

    /// One request of [`DeviceAllocator::serve`], with `blocks` holding the
    /// node of each tensor the replay allocated (`NIL` while not live).
    /// Breaks with the bytes of a malloc the device cannot serve. The map
    /// is read only while `malloc` holds some tensor, to keep a duplicate
    /// from passing.
    ///
    /// Never inlined, so the closure `serve` passes to `try_for_each` is one
    /// call and inlines into the trace's iterator adapters; with this body
    /// inlined into it, the adapters call the closure per request instead,
    /// about a third slower.
    #[inline(never)]
    fn serve_one(&mut self, blocks: &mut [u32], r: Request) -> ControlFlow<u64> {
        let block = &mut blocks[r.tensor.0 as usize];
        match r.op {
            MemOp::Malloc => {
                let by_id = !self.live.is_empty() && self.live.contains_key(&r.tensor);
                assert!(
                    *block == NIL && !by_id,
                    "tensor {} allocated twice",
                    r.tensor.0
                );
                match self.alloc(r.tensor, r.bytes) {
                    Some(node) => *block = node,
                    None => return ControlFlow::Break(r.bytes),
                }
            }
            MemOp::Free => match std::mem::replace(block, NIL) {
                // Not this replay's: a tensor `malloc` holds, or an unknown
                // one, which `free` rejects.
                NIL => self.free(r.tensor),
                node => self.release(r.tensor, node),
            },
        }
        ControlFlow::Continue(())
    }
}

impl DeviceAllocator for CachingAllocator {
    fn malloc(&mut self, id: TensorId, bytes: u64) -> Result<u64, AllocError> {
        assert!(
            !self.live.contains_key(&id),
            "tensor {} allocated twice",
            id.0
        );
        let Some(node) = self.alloc(id, bytes) else {
            return Err(self.out_of_memory(bytes));
        };
        self.live.insert(id, node);
        Ok(self.address(node))
    }

    fn free(&mut self, id: TensorId) {
        let node = self
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("freeing unknown tensor {}", id.0));
        self.release(id, node);
    }

    /// The trace replay's fast path: each tensor's node sits in a table of
    /// `tensors` entries indexed by id, so no request hashes its tensor.
    /// The table is the allocator's own, refilled on every call. The
    /// checks are `malloc`'s and `free`'s, with their messages. A tensor
    /// the requests leave live keeps its block, but no later request can
    /// name it.
    fn serve(
        &mut self,
        tensors: usize,
        mut requests: impl Iterator<Item = Request>,
        mut served: impl FnMut(&Self),
    ) -> Result<(), AllocError> {
        let mut blocks = std::mem::take(&mut self.blocks);
        blocks.clear();
        blocks.resize(tensors, NIL);
        let failed = requests.try_for_each(|r| {
            self.serve_one(&mut blocks, r)?;
            served(self);
            ControlFlow::Continue(())
        });
        self.blocks = blocks;
        match failed {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(bytes) => Err(self.out_of_memory(bytes)),
        }
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn reserved_bytes(&self) -> u64 {
        self.reserved
    }

    fn reorg_count(&self) -> u64 {
        self.stats.n_reorgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn tid(n: u64) -> TensorId {
        TensorId(n)
    }

    #[test]
    fn small_requests_share_a_segment() {
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(0), 1000).unwrap();
        a.malloc(tid(1), 1000).unwrap();
        assert_eq!(a.stats().n_segments_created, 1);
        assert_eq!(a.reserved_bytes(), SMALL_SEGMENT);
        // rounded to 512B multiples
        assert_eq!(a.allocated_bytes(), 2 * 1024);
    }

    #[test]
    fn large_request_gets_exact_rounded_segment() {
        let mut a = CachingAllocator::new(1 << 34);
        a.malloc(tid(0), 64 * MIB + 5).unwrap();
        assert_eq!(a.reserved_bytes(), 66 * MIB); // rounded to 2MiB multiple
    }

    #[test]
    fn freed_block_is_reused() {
        let mut a = CachingAllocator::new(1 << 34);
        let addr0 = a.malloc(tid(0), 32 * MIB).unwrap();
        a.free(tid(0));
        let addr1 = a.malloc(tid(1), 32 * MIB).unwrap();
        assert_eq!(addr0, addr1, "cached block must be reused");
        assert_eq!(a.stats().n_segments_created, 1);
    }

    #[test]
    fn best_fit_prefers_smallest_block() {
        let mut a = CachingAllocator::new(1 << 34);
        a.malloc(tid(0), 64 * MIB).unwrap();
        a.malloc(tid(1), 16 * MIB).unwrap();
        a.free(tid(0));
        a.free(tid(1));
        // 16MiB fits both; best-fit must choose the 16MiB block.
        let addr = a.malloc(tid(2), 16 * MIB).unwrap();
        let frag = a.fragmentation_bytes();
        assert_eq!(frag, 64 * MIB);
        // and the 64MiB block must still be whole for a later request
        let _ = addr;
        a.malloc(tid(3), 64 * MIB).unwrap();
        assert_eq!(a.stats().n_segments_created, 2);
    }

    #[test]
    fn best_fit_scans_within_a_shared_size_class() {
        // 24 MiB and 30 MiB share class floor(log2(size/512)): the in-class
        // scan, not the bitmap, must pick the smaller fitting block —
        // and on a same-class miss the search must fall through to the
        // first higher class.
        let mut a = CachingAllocator::new(1 << 34);
        a.malloc(tid(0), 30 * MIB).unwrap();
        a.malloc(tid(1), 24 * MIB).unwrap();
        a.malloc(tid(2), 64 * MIB).unwrap();
        a.free(tid(0));
        a.free(tid(1));
        a.free(tid(2));
        assert_eq!(class_of(24 * MIB), class_of(30 * MIB));
        // 20 MiB fits both same-class blocks; best-fit takes 24 MiB.
        a.malloc(tid(3), 20 * MIB).unwrap();
        // 28 MiB misses the 24 MiB slot (taken) but fits 30 MiB in-class.
        a.malloc(tid(4), 28 * MIB).unwrap();
        // 40 MiB fits nothing in that class; the bitmap jumps to 64 MiB.
        a.malloc(tid(5), 40 * MIB).unwrap();
        assert_eq!(a.stats().n_segments_created, 3, "all served from cache");
    }

    #[test]
    fn splitting_leaves_usable_remainder() {
        let mut a = CachingAllocator::new(1 << 34);
        a.malloc(tid(0), 64 * MIB).unwrap();
        a.free(tid(0));
        a.malloc(tid(1), 16 * MIB).unwrap();
        // remainder 48MiB should satisfy a second request with no new segment
        a.malloc(tid(2), 48 * MIB).unwrap();
        assert_eq!(a.stats().n_segments_created, 1);
    }

    #[test]
    fn coalescing_rebuilds_full_block() {
        let mut a = CachingAllocator::new(1 << 34);
        a.malloc(tid(0), 64 * MIB).unwrap();
        a.free(tid(0));
        a.malloc(tid(1), 16 * MIB).unwrap();
        a.malloc(tid(2), 48 * MIB).unwrap();
        a.free(tid(1));
        a.free(tid(2));
        // fully coalesced: one 64MiB free block again
        a.malloc(tid(3), 64 * MIB).unwrap();
        assert_eq!(a.stats().n_segments_created, 1);
    }

    #[test]
    fn reorganisation_releases_cached_segments() {
        // Capacity fits exactly one 64MiB segment plus change. Allocate/free
        // 64MiB, then ask for 96MiB: the cached segment must be cudaFree'd.
        let mut a = CachingAllocator::new(100 * MIB);
        a.malloc(tid(0), 64 * MIB).unwrap();
        a.free(tid(0));
        assert_eq!(a.reserved_bytes(), 64 * MIB);
        a.malloc(tid(1), 96 * MIB).unwrap();
        assert_eq!(a.reorg_count(), 1);
        assert_eq!(a.stats().n_segments_released, 1);
        assert_eq!(a.reserved_bytes(), 96 * MIB);
    }

    #[test]
    fn oom_when_live_data_blocks_reorg() {
        let mut a = CachingAllocator::new(100 * MIB);
        a.malloc(tid(0), 64 * MIB).unwrap(); // live — cannot be released
        let err = a.malloc(tid(1), 96 * MIB).unwrap_err();
        match err {
            AllocError::OutOfMemory { requested, .. } => assert_eq!(requested, 96 * MIB),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(a.reorg_count(), 1);
    }

    #[test]
    fn multi_victim_reorg_releases_in_ascending_base_order() {
        // Three cached segments of different sizes; a request none of them
        // (nor fresh capacity) can serve forces a reorganisation that must
        // release all three, in creation (ascending-base) order.
        let mut a = CachingAllocator::new(200 * MIB);
        a.malloc(tid(0), 64 * MIB).unwrap();
        a.malloc(tid(1), 48 * MIB).unwrap();
        a.malloc(tid(2), 32 * MIB).unwrap();
        a.free(tid(0));
        a.free(tid(1));
        a.free(tid(2));
        a.record_events(true);
        a.malloc(tid(3), 150 * MIB).unwrap();
        let released: Vec<u64> = a
            .events()
            .iter()
            .filter(|e| e.kind == AllocEventKind::SegmentRelease)
            .map(|e| e.bytes)
            .collect();
        assert_eq!(
            released,
            vec![64 * MIB, 48 * MIB, 32 * MIB],
            "segments release in creation order, not size order"
        );
        assert_eq!(a.stats().n_segments_released, 3);
        assert_eq!(a.reserved_bytes(), 150 * MIB);
    }

    #[test]
    fn external_fragmentation_metric() {
        let mut a = CachingAllocator::new(1 << 40);
        assert_eq!(a.external_fragmentation(), 0.0);
        // Ten 30MiB holes out of 300MiB reserved: largest free block 30MiB.
        for i in 0..10 {
            a.malloc(tid(i), 30 * MIB).unwrap();
        }
        for i in (0..10).step_by(2) {
            a.free(tid(i));
        }
        assert_eq!(a.largest_free_block(), 30 * MIB);
        let ext = a.external_fragmentation();
        assert!((ext - 0.8).abs() < 1e-9, "1 - 30/150 = 0.8, got {ext}");
    }

    #[test]
    fn external_fragmentation_counters_vs_free_index() {
        // Regression pin for the old implementation, which divided
        // `largest_free_block` by the counter difference
        // `reserved − allocated` instead of the free-index total.
        //
        // A 19.5 MiB request lands in a 20 MiB segment whose 0.5 MiB
        // remainder is below the large-pool split threshold: the whole
        // segment is handed out as one live block with 0.5 MiB of rounding
        // slack inside it. The free index is empty — there is *nothing* a
        // malloc could be served from — so external fragmentation must be
        // exactly 0. The counter difference, however, only agrees because
        // `allocated` happens to charge the slack to the live block; under
        // PyTorch's requested-bytes accounting (allocated = rounded
        // request) the old formula degenerates to 1.0 — "totally
        // fragmented" with zero free blocks — and an unclamped
        // `1 − largest/(reserved − allocated)` is one counter drift away
        // from escaping [0, 1] entirely.
        let mut a = CachingAllocator::new(1 << 34);
        let requested = 19 * MIB + MIB / 2; // rounded to itself (512 B multiple)
        a.malloc(tid(0), requested).unwrap();
        assert_eq!(a.reserved_bytes(), 20 * MIB);
        assert_eq!(a.total_free_bytes(), 0, "no free blocks exist");
        assert_eq!(a.largest_free_block(), 0);
        assert_eq!(a.external_fragmentation(), 0.0, "index-based: exact");

        // The old denominator under requested-bytes accounting: slack shows
        // up as phantom "free" bytes and the old formula reports 1.0.
        let slack_denominator = a.reserved_bytes() - requested;
        assert_eq!(slack_denominator, MIB / 2, "slack inside the live block");
        let old_formula = 1.0 - a.largest_free_block() as f64 / slack_denominator as f64;
        assert_eq!(
            old_formula, 1.0,
            "old behaviour: total fragmentation with zero free blocks"
        );

        // With the block split (free remainder in the index), both the
        // counter difference and the index agree again.
        a.free(tid(0));
        a.malloc(tid(1), 16 * MIB).unwrap();
        assert_eq!(a.total_free_bytes(), 4 * MIB);
        assert_eq!(a.total_free_bytes(), a.fragmentation_bytes());
        assert_eq!(a.external_fragmentation(), 0.0, "one free block");
    }

    #[test]
    fn size_class_boundaries() {
        assert_eq!(class_of(512), 0);
        assert_eq!(class_of(1023), 0, "rounded sizes only, but floor holds");
        assert_eq!(class_of(1024), 1);
        assert_eq!(class_of(2047), 1);
        assert_eq!(class_of(2048), 2);
        assert_eq!(class_of(SMALL_SEGMENT), 12);
        assert_eq!(class_of(u64::MAX / 2), 53);
    }

    mod frag_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // The acceptance bound: under arbitrary malloc/free sequences
            // the ratio stays in [0, 1], and the free index agrees with
            // the counter difference (the invariant the old formula
            // silently depended on).
            #[test]
            fn external_fragmentation_within_unit_interval(
                ops in prop::collection::vec((0u8..=1, 1u64..64 * MIB), 1..400),
            ) {
                let mut a = CachingAllocator::new(1 << 34);
                let mut live: Vec<TensorId> = Vec::new();
                let mut next = 0u64;
                for (op, bytes) in ops {
                    if op == 0 || live.is_empty() {
                        let id = tid(next);
                        next += 1;
                        if a.malloc(id, bytes).is_ok() {
                            live.push(id);
                        }
                    } else {
                        let id = live.swap_remove((bytes % live.len() as u64) as usize);
                        a.free(id);
                    }
                    let ext = a.external_fragmentation();
                    prop_assert!((0.0..=1.0).contains(&ext), "ext {} out of [0,1]", ext);
                    prop_assert!(a.largest_free_block() <= a.total_free_bytes());
                    prop_assert_eq!(a.total_free_bytes(), a.fragmentation_bytes());
                }
            }
        }
    }

    #[test]
    fn event_recording_is_opt_in_and_stamped() {
        let mut a = CachingAllocator::new(200 * MIB);
        a.malloc(tid(0), 4 * MIB).unwrap();
        assert!(a.events().is_empty(), "recording is off by default");

        a.record_events(true);
        a.malloc(tid(1), 64 * MIB).unwrap();
        a.free(tid(1));
        // 150 MiB fits neither the cached 64 MiB segment nor fresh
        // capacity next to it: the allocator must reorganise first.
        a.malloc(tid(2), 150 * MIB).unwrap();
        let kinds: Vec<AllocEventKind> = a.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AllocEventKind::SegmentCreate, // 64 MiB segment
                AllocEventKind::Malloc,        // tid(1)
                AllocEventKind::Free,          // tid(1)
                AllocEventKind::Reorg,         // 90 MiB doesn't fit
                AllocEventKind::SegmentRelease,
                AllocEventKind::SegmentCreate,
                AllocEventKind::Malloc, // tid(2)
            ]
        );
        // Every event carries the post-event counters; the last one must
        // match the live getters.
        let last = *a.events().last().unwrap();
        assert_eq!(last.tensor, Some(tid(2)));
        assert_eq!(last.allocated, a.allocated_bytes());
        assert_eq!(last.reserved, a.reserved_bytes());
        for e in a.events() {
            assert!(e.reserved >= e.allocated, "stamps keep the invariant");
        }

        let drained = a.take_events();
        assert_eq!(drained.len(), 7);
        assert!(a.events().is_empty(), "drained");
        a.free(tid(2));
        assert_eq!(a.events().len(), 1, "recording stays on after take");
        a.record_events(false);
        a.free(tid(0));
        assert!(a.events().is_empty(), "disabled discards the log");
    }

    #[test]
    fn fragmentation_from_interleaved_lifetimes() {
        // The classic pattern: alternating live/dead large blocks leave
        // reserved ≫ allocated and no contiguous space.
        let mut a = CachingAllocator::new(1 << 40);
        for i in 0..10 {
            a.malloc(tid(i), 30 * MIB).unwrap();
        }
        for i in (0..10).step_by(2) {
            a.free(tid(i));
        }
        assert_eq!(a.allocated_bytes(), 5 * 30 * MIB);
        assert_eq!(a.reserved_bytes(), 10 * 30 * MIB);
        // a 60MiB request cannot use the five 30MiB holes
        a.malloc(tid(100), 60 * MIB).unwrap();
        assert!(a.reserved_bytes() > 10 * 30 * MIB);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved != allocated + free")]
    fn corrupted_counter_trips_the_accounting_check() {
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(0), 4 * MIB).unwrap();
        a.allocated += ROUND; // drift: bytes no block accounts for
        a.free(tid(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "segment live blocks != live tensors")]
    fn corrupted_live_count_trips_the_accounting_check() {
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(0), 4 * MIB).unwrap();
        a.segments[0].live_blocks += 1;
        a.malloc(tid(1), 4 * MIB).unwrap();
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_malloc_panics() {
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(0), 1024).unwrap();
        let _ = a.malloc(tid(0), 1024);
    }

    #[test]
    #[should_panic(expected = "freeing unknown tensor")]
    fn unknown_free_panics() {
        let mut a = CachingAllocator::new(1 << 30);
        a.free(tid(42));
    }

    /// A one-segment trace of `(op, id)` requests of 1 KiB each.
    fn trace_of(requests: &[(MemOp, u64)]) -> memo_model::trace::IterationTrace {
        use memo_model::trace::{IterationTrace, SegmentKind, Sym, TraceSegment, TraceStrings};
        let requests = requests
            .iter()
            .map(|&(op, id)| Request {
                op,
                tensor: tid(id),
                bytes: 1024,
                label: Sym::EMPTY,
            })
            .collect();
        let segment = TraceSegment {
            kind: SegmentKind::EmbeddingFwd,
            requests,
        };
        IterationTrace::from_segments(vec![segment], TraceStrings::new()).unwrap()
    }

    #[test]
    #[should_panic(expected = "tensor 0 allocated twice")]
    fn replayed_double_malloc_panics() {
        let trace = trace_of(&[(MemOp::Malloc, 5), (MemOp::Malloc, 5)]);
        let _ = crate::snapshot::replay_peak(&mut CachingAllocator::new(1 << 30), &trace);
    }

    #[test]
    #[should_panic(expected = "tensor 1 allocated twice")]
    fn replayed_malloc_of_a_tensor_malloc_holds_panics() {
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(1), 1024).unwrap();
        let trace = trace_of(&[(MemOp::Malloc, 7), (MemOp::Malloc, 8)]);
        let _ = crate::snapshot::replay_peak(&mut a, &trace);
    }

    #[test]
    #[should_panic(expected = "freeing unknown tensor 1")]
    fn replayed_unknown_free_panics() {
        let trace = trace_of(&[(MemOp::Malloc, 5), (MemOp::Free, 6)]);
        let _ = crate::snapshot::replay_peak(&mut CachingAllocator::new(1 << 30), &trace);
    }

    #[test]
    #[should_panic(expected = "freeing unknown tensor 0")]
    fn a_tensor_one_replay_leaves_live_is_unknown_to_the_next() {
        // The replays share the allocator's tensor table, but each starts
        // it empty: the second cannot free the block the first left live.
        let mut a = CachingAllocator::new(1 << 30);
        let _ = crate::snapshot::replay_peak(&mut a, &trace_of(&[(MemOp::Malloc, 5)]));
        let _ = crate::snapshot::replay_peak(&mut a, &trace_of(&[(MemOp::Free, 5)]));
    }

    #[test]
    fn replay_frees_a_tensor_malloc_holds() {
        // Trace ids are malloc ordinals; a free the replay did not allocate
        // goes to the tensors `malloc` holds.
        let mut a = CachingAllocator::new(1 << 30);
        a.malloc(tid(0), 1024).unwrap();
        let trace = trace_of(&[(MemOp::Free, 9)]);
        assert_eq!(crate::snapshot::replay_peak(&mut a, &trace).1, None);
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn live_blocks_never_overlap_randomized() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = CachingAllocator::new(1 << 40);
        let mut live: Vec<(TensorId, u64, u64)> = Vec::new();
        let mut next = 0u64;
        for _ in 0..2000 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let bytes = rng.gen_range(1..8 * MIB);
                let id = tid(next);
                next += 1;
                let addr = a.malloc(id, bytes).unwrap();
                let rounded = CachingAllocator::round_size(bytes);
                for &(oid, oaddr, osz) in &live {
                    let overlap = addr < oaddr + osz && oaddr < addr + rounded;
                    assert!(!overlap, "tensor {} overlaps {}", id.0, oid.0);
                }
                live.push((id, addr, rounded));
            } else {
                let idx = rng.gen_range(0..live.len());
                let (id, _, _) = live.swap_remove(idx);
                a.free(id);
            }
            assert!(a.reserved_bytes() >= a.allocated_bytes());
        }
    }
}
