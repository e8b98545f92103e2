//! The pre-optimization `CachingAllocator` — `BTreeSet` free index,
//! per-segment `BTreeMap` block maps — kept verbatim as the differential
//! oracle for the linked-block fast path in [`crate::caching`].
//!
//! [`ReferenceCachingAllocator`] and [`CachingAllocator`] must be
//! *bit-exact*: identical addresses, [`CachingStats`], reorganisation
//! counts, and [`AllocEvent`] streams on any request sequence. The
//! differential test (`tests/differential.rs`, on randomized scripts and on
//! 7B traces up to 1M tokens) replays the two implementations side by side
//! and compares everything observable.
//!
//! One deliberate deviation from the original code: reorganisation used to
//! collect its fully-free victims from a `HashMap` iteration, whose order is
//! seeded per process — the `SegmentRelease` event order (and the
//! intermediate `reserved` stamps on those events) was nondeterministic
//! across runs. Both implementations now release in ascending-base order,
//! which is the canonical order the bit-exactness invariant is pinned to.
//! Addresses, stats and counters were never affected (release order does not
//! feed the virtual-address cursor).
//!
//! [`CachingAllocator`]: crate::caching::CachingAllocator

use crate::caching::{AllocEvent, AllocEventKind, CachingStats};
use crate::{AllocError, DeviceAllocator};
use memo_model::trace::TensorId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const ROUND: u64 = 512;
const SMALL_LIMIT: u64 = 1 << 20;
const SMALL_SEGMENT: u64 = 2 << 20;
const LARGE_SEGMENT_MIN: u64 = 20 << 20;
const LARGE_DIRECT_LIMIT: u64 = 10 << 20;
const SEGMENT_ROUND: u64 = 2 << 20;
const LARGE_SPLIT_REMAINDER: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pool {
    Small,
    Large,
}

#[derive(Debug, Clone, Copy)]
struct Block {
    size: u64,
    free: bool,
}

#[derive(Debug)]
struct Segment {
    base: u64,
    size: u64,
    pool: Pool,
    /// offset within segment -> block
    blocks: BTreeMap<u64, Block>,
    live_blocks: usize,
}

impl Segment {
    fn is_fully_free(&self) -> bool {
        self.live_blocks == 0
    }
}

/// The original BTree-indexed caching-allocator simulation. See the module
/// docs of [`crate::caching`] for the algorithm; this type exists only as
/// the slow reference the fast path is checked against.
#[derive(Debug)]
pub struct ReferenceCachingAllocator {
    capacity: u64,
    va_cursor: u64,
    segments: HashMap<u64, Segment>, // keyed by base address
    /// (size, segment_base, offset) — best-fit index per pool.
    free_index: HashMap<Pool, BTreeSet<(u64, u64, u64)>>,
    live: HashMap<TensorId, (u64, u64)>, // id -> (segment base, offset)
    allocated: u64,
    reserved: u64,
    stats: CachingStats,
    events: Option<Vec<AllocEvent>>,
}

impl ReferenceCachingAllocator {
    /// A fresh allocator managing `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        let mut free_index = HashMap::new();
        free_index.insert(Pool::Small, BTreeSet::new());
        free_index.insert(Pool::Large, BTreeSet::new());
        ReferenceCachingAllocator {
            capacity,
            va_cursor: 0,
            segments: HashMap::new(),
            free_index,
            live: HashMap::new(),
            allocated: 0,
            reserved: 0,
            stats: CachingStats::default(),
            events: None,
        }
    }

    /// Enable or disable event recording (see
    /// [`CachingAllocator::record_events`](crate::caching::CachingAllocator::record_events)).
    pub fn record_events(&mut self, on: bool) {
        self.events = if on { Some(Vec::new()) } else { None };
    }

    /// Events recorded since recording was (re-)enabled; empty when off.
    pub fn events(&self) -> &[AllocEvent] {
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

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn stats(&self) -> CachingStats {
        self.stats
    }

    pub fn fragmentation_bytes(&self) -> u64 {
        self.reserved.saturating_sub(self.allocated)
    }

    pub fn total_free_bytes(&self) -> u64 {
        self.free_index
            .values()
            .flat_map(|set| set.iter().map(|&(size, _, _)| size))
            .sum()
    }

    pub fn largest_free_block(&self) -> u64 {
        self.free_index
            .values()
            .filter_map(|set| set.iter().next_back().map(|&(size, _, _)| size))
            .max()
            .unwrap_or(0)
    }

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

    /// Best-fit search in the pool's free index.
    fn find_free_block(&self, pool: Pool, rounded: u64) -> Option<(u64, u64)> {
        self.free_index[&pool]
            .range((rounded, 0, 0)..)
            .next()
            .map(|&(_, base, off)| (base, off))
    }

    fn take_block(&mut self, pool: Pool, base: u64, off: u64, rounded: u64) -> u64 {
        let seg = self.segments.get_mut(&base).expect("segment exists");
        let block = *seg.blocks.get(&off).expect("block exists");
        debug_assert!(block.free && block.size >= rounded);
        self.free_index
            .get_mut(&pool)
            .unwrap()
            .remove(&(block.size, base, off));

        let remainder = block.size - rounded;
        if remainder >= Self::min_split_remainder(pool) {
            seg.blocks.insert(
                off,
                Block {
                    size: rounded,
                    free: false,
                },
            );
            seg.blocks.insert(
                off + rounded,
                Block {
                    size: remainder,
                    free: true,
                },
            );
            self.free_index
                .get_mut(&pool)
                .unwrap()
                .insert((remainder, base, off + rounded));
            seg.live_blocks += 1;
            self.allocated += rounded;
        } else {
            seg.blocks.insert(
                off,
                Block {
                    size: block.size,
                    free: false,
                },
            );
            seg.live_blocks += 1;
            // The slack is internal fragmentation counted as allocated.
            self.allocated += block.size;
        }
        base + off
    }

    /// Simulated `cudaMalloc`: create a new segment with one free block.
    fn cuda_malloc(&mut self, pool: Pool, seg_size: u64) -> Option<u64> {
        if self.reserved + seg_size > self.capacity {
            return None;
        }
        let base = self.va_cursor;
        self.va_cursor += seg_size + SEGMENT_ROUND; // guard gap between segments
        let mut blocks = BTreeMap::new();
        blocks.insert(
            0,
            Block {
                size: seg_size,
                free: true,
            },
        );
        self.segments.insert(
            base,
            Segment {
                base,
                size: seg_size,
                pool,
                blocks,
                live_blocks: 0,
            },
        );
        self.free_index
            .get_mut(&pool)
            .unwrap()
            .insert((seg_size, base, 0));
        self.reserved += seg_size;
        self.stats.n_segments_created += 1;
        self.stats.peak_reserved = self.stats.peak_reserved.max(self.reserved);
        self.emit(AllocEventKind::SegmentCreate, None, seg_size);
        Some(base)
    }

    /// The reorganisation path: `cudaFree` every fully-free segment, in the
    /// canonical ascending-base order (see module docs).
    fn release_cached_segments(&mut self) -> usize {
        let mut victims: Vec<u64> = self
            .segments
            .values()
            .filter(|s| s.is_fully_free())
            .map(|s| s.base)
            .collect();
        victims.sort_unstable();
        for base in &victims {
            let seg = self.segments.remove(base).expect("victim exists");
            for (off, b) in &seg.blocks {
                debug_assert!(b.free);
                self.free_index
                    .get_mut(&seg.pool)
                    .unwrap()
                    .remove(&(b.size, seg.base, *off));
            }
            self.reserved -= seg.size;
            self.stats.n_segments_released += 1;
            self.emit(AllocEventKind::SegmentRelease, None, seg.size);
        }
        victims.len()
    }

    fn coalesce(&mut self, base: u64, off: u64) {
        let seg = self.segments.get_mut(&base).expect("segment exists");
        let pool = seg.pool;
        let mut start = off;
        let mut size = seg.blocks[&off].size;

        // Inspect neighbours first (copies), then mutate.
        let prev = seg
            .blocks
            .range(..off)
            .next_back()
            .map(|(&poff, pb)| (poff, *pb))
            .filter(|(poff, pb)| pb.free && poff + pb.size == off);
        let next = seg
            .blocks
            .range(off + 1..)
            .next()
            .map(|(&noff, nb)| (noff, *nb))
            .filter(|(noff, nb)| nb.free && off + size == *noff && nb.size > 0);

        if let Some((poff, pb)) = prev {
            seg.blocks.remove(&off);
            start = poff;
            size += pb.size;
            self.free_index
                .get_mut(&pool)
                .unwrap()
                .remove(&(pb.size, base, poff));
        }
        let seg = self.segments.get_mut(&base).unwrap();
        if let Some((noff, nb)) = next {
            seg.blocks.remove(&noff);
            size += nb.size;
            self.free_index
                .get_mut(&pool)
                .unwrap()
                .remove(&(nb.size, base, noff));
        }
        let seg = self.segments.get_mut(&base).unwrap();
        seg.blocks.insert(start, Block { size, free: true });
        self.free_index
            .get_mut(&pool)
            .unwrap()
            .insert((size, base, start));
    }
}

impl DeviceAllocator for ReferenceCachingAllocator {
    fn malloc(&mut self, id: TensorId, bytes: u64) -> Result<u64, AllocError> {
        assert!(
            !self.live.contains_key(&id),
            "tensor {} allocated twice",
            id.0
        );
        let rounded = Self::round_size(bytes);
        let pool = Self::pool_for(rounded);
        self.stats.n_mallocs += 1;

        // 1. cached block?
        if let Some((base, off)) = self.find_free_block(pool, rounded) {
            let addr = self.take_block(pool, base, off, rounded);
            self.live.insert(id, (base, addr - base));
            self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated);
            self.emit(AllocEventKind::Malloc, Some(id), rounded);
            return Ok(addr);
        }

        // 2. fresh segment?
        let seg_size = Self::segment_size_for(pool, rounded);
        if let Some(base) = self.cuda_malloc(pool, seg_size) {
            let addr = self.take_block(pool, base, 0, rounded);
            self.live.insert(id, (base, addr - base));
            self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated);
            self.emit(AllocEventKind::Malloc, Some(id), rounded);
            return Ok(addr);
        }

        // 3. reorganise and retry (the expensive path).
        self.stats.n_reorgs += 1;
        self.emit(AllocEventKind::Reorg, None, 0);
        self.release_cached_segments();
        if let Some(base) = self.cuda_malloc(pool, seg_size) {
            let addr = self.take_block(pool, base, 0, rounded);
            self.live.insert(id, (base, addr - base));
            self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated);
            self.emit(AllocEventKind::Malloc, Some(id), rounded);
            return Ok(addr);
        }

        Err(AllocError::OutOfMemory {
            requested: bytes,
            allocated: self.allocated,
            reserved: self.reserved,
            capacity: self.capacity,
        })
    }

    fn free(&mut self, id: TensorId) {
        let (base, off) = self
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("freeing unknown tensor {}", id.0));
        let seg = self.segments.get_mut(&base).expect("segment exists");
        let block = seg.blocks.get_mut(&off).expect("block exists");
        debug_assert!(!block.free);
        block.free = true;
        let freed = block.size;
        self.allocated -= freed;
        seg.live_blocks -= 1;
        self.stats.n_frees += 1;
        self.coalesce(base, off);
        self.emit(AllocEventKind::Free, Some(id), freed);
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
