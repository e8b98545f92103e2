//! Expandable segments — the virtual-memory answer to fragmentation
//! (PyTorch `expandable_segments:True`, GMLake \[17\] in the paper's intro).
//!
//! Instead of many fixed `cudaMalloc` segments, the allocator reserves one
//! huge *virtual* range and maps physical pages (2 MiB granularity) on
//! demand; freeing a block unmaps pages no live block touches. Blocks can
//! therefore be placed in one contiguous arena and physical usage tracks the
//! live set to page granularity — external fragmentation largely disappears
//! without any static planning.
//!
//! The catch, which the paper's approach avoids entirely: every map/unmap is
//! a driver call on the critical path (`cuMemMap`/`cuMemUnmap`), thousands
//! per iteration for long-context traces. MEMO's plan does *zero* runtime
//! memory management once the arena exists. The `expandable` study binary
//! quantifies both sides.

use crate::{AllocError, DeviceAllocator};
use memo_model::trace::TensorId;
use std::collections::{BTreeMap, HashMap};

const PAGE: u64 = 2 << 20;

/// Virtual-memory-backed allocator with on-demand physical mapping.
#[derive(Debug)]
pub struct ExpandableAllocator {
    capacity: u64,
    /// Eager mode unmaps pages the moment no live block touches them
    /// (minimal physical footprint, maximal driver traffic). Lazy mode keeps
    /// them mapped as a cache, PyTorch-style, unmapping only under pressure.
    eager_unmap: bool,
    /// live blocks: start -> (size, id)
    live: BTreeMap<u64, (u64, TensorId)>,
    by_id: HashMap<TensorId, u64>,
    /// physical pages mapped: page index -> live bytes touching it
    pages: HashMap<u64, u32>,
    allocated: u64,
    mapped_pages: u64,
    peak_mapped_pages: u64,
    pub map_calls: u64,
    pub unmap_calls: u64,
}

impl ExpandableAllocator {
    pub fn new(capacity: u64) -> Self {
        Self::with_mode(capacity, true)
    }

    /// Lazy-unmap variant (see the struct docs).
    pub fn new_lazy(capacity: u64) -> Self {
        Self::with_mode(capacity, false)
    }

    fn with_mode(capacity: u64, eager_unmap: bool) -> Self {
        ExpandableAllocator {
            capacity,
            eager_unmap,
            live: BTreeMap::new(),
            by_id: HashMap::new(),
            pages: HashMap::new(),
            allocated: 0,
            mapped_pages: 0,
            peak_mapped_pages: 0,
            map_calls: 0,
            unmap_calls: 0,
        }
    }

    fn pages_of(start: u64, size: u64) -> impl Iterator<Item = u64> {
        let first = start / PAGE;
        let last = (start + size - 1) / PAGE;
        first..=last
    }

    /// First-fit in the virtual arena (virtual holes are free — only
    /// physical pages cost memory).
    fn find_slot(&self, size: u64) -> u64 {
        let mut candidate = 0u64;
        for (&start, &(len, _)) in &self.live {
            if candidate + size <= start {
                return candidate;
            }
            candidate = candidate.max(start + len);
        }
        candidate
    }

    pub fn peak_mapped_bytes(&self) -> u64 {
        self.peak_mapped_pages * PAGE
    }
}

impl DeviceAllocator for ExpandableAllocator {
    fn malloc(&mut self, id: TensorId, bytes: u64) -> Result<u64, AllocError> {
        assert!(
            !self.by_id.contains_key(&id),
            "tensor {} allocated twice",
            id.0
        );
        let bytes = bytes.max(1);
        let start = self.find_slot(bytes);
        // Map any pages not yet present (a lazily-cached zero-ref page is
        // reused for free).
        let mut fresh: Vec<u64> = Vec::new();
        for page in Self::pages_of(start, bytes) {
            match self.pages.entry(page) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(1);
                    fresh.push(page);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += 1;
                }
            }
        }
        let new_pages = fresh.len() as u64;
        if (self.mapped_pages + new_pages) * PAGE > self.capacity {
            // roll back: fresh pages disappear entirely; cached/shared pages
            // return to their previous refcount (and stay mapped).
            for page in Self::pages_of(start, bytes) {
                if fresh.contains(&page) {
                    self.pages.remove(&page);
                } else {
                    *self.pages.get_mut(&page).expect("just touched") -= 1;
                }
            }
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                allocated: self.allocated,
                reserved: self.mapped_pages * PAGE,
                capacity: self.capacity,
            });
        }
        self.mapped_pages += new_pages;
        self.map_calls += new_pages;
        self.peak_mapped_pages = self.peak_mapped_pages.max(self.mapped_pages);
        self.live.insert(start, (bytes, id));
        self.by_id.insert(id, start);
        self.allocated += bytes;
        Ok(start)
    }

    fn free(&mut self, id: TensorId) {
        let start = self
            .by_id
            .remove(&id)
            .unwrap_or_else(|| panic!("freeing unknown tensor {}", id.0));
        let (bytes, _) = self.live.remove(&start).expect("live block");
        self.allocated -= bytes;
        for page in Self::pages_of(start, bytes) {
            let cnt = self.pages.get_mut(&page).expect("page mapped");
            *cnt -= 1;
            if *cnt == 0 && self.eager_unmap {
                self.pages.remove(&page);
                self.mapped_pages -= 1;
                self.unmap_calls += 1;
            }
        }
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn reserved_bytes(&self) -> u64 {
        self.mapped_pages * PAGE
    }

    fn reorg_count(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TensorId {
        TensorId(n)
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn physical_usage_tracks_live_set() {
        let mut a = ExpandableAllocator::new(1 << 40);
        a.malloc(tid(0), 30 * MIB).unwrap();
        a.malloc(tid(1), 30 * MIB).unwrap();
        let reserved_full = a.reserved_bytes();
        assert!((60 * MIB..=64 * MIB).contains(&reserved_full));
        a.free(tid(0));
        // pages of the freed block are unmapped (minus a shared boundary page)
        assert!(a.reserved_bytes() <= 32 * MIB);
    }

    #[test]
    fn interleaved_lifetimes_do_not_fragment() {
        // The workload that defeats the caching allocator: alternating holes.
        let mut a = ExpandableAllocator::new(1 << 40);
        for i in 0..10 {
            a.malloc(tid(i), 30 * MIB).unwrap();
        }
        for i in (0..10).step_by(2) {
            a.free(tid(i));
        }
        // a 60MiB block maps fresh pages in a virtual hole — physical usage
        // stays near the live set instead of doubling.
        a.malloc(tid(100), 60 * MIB).unwrap();
        let live = a.allocated_bytes();
        assert!(
            a.reserved_bytes() <= live + 12 * PAGE,
            "page-granularity slack only"
        );
    }

    #[test]
    fn oom_on_physical_exhaustion() {
        let mut a = ExpandableAllocator::new(64 * MIB);
        a.malloc(tid(0), 40 * MIB).unwrap();
        let err = a.malloc(tid(1), 40 * MIB).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        // failed malloc must not leak page mappings
        let before = a.reserved_bytes();
        a.free(tid(0));
        a.malloc(tid(2), 40 * MIB).unwrap();
        assert!(a.reserved_bytes() <= before);
    }

    #[test]
    fn map_unmap_traffic_is_counted() {
        let mut a = ExpandableAllocator::new(1 << 40);
        a.malloc(tid(0), 8 * MIB).unwrap();
        assert!(a.map_calls >= 4); // 8MiB / 2MiB pages
        a.free(tid(0));
        assert!(a.unmap_calls >= 4);
    }

    #[test]
    fn lazy_mode_caches_mappings() {
        let mut a = ExpandableAllocator::new_lazy(1 << 40);
        a.malloc(tid(0), 30 * MIB).unwrap();
        let mapped = a.reserved_bytes();
        a.free(tid(0));
        assert_eq!(a.unmap_calls, 0);
        assert_eq!(a.reserved_bytes(), mapped, "pages stay cached");
        // re-allocating the same range costs no new mappings
        let maps_before = a.map_calls;
        a.malloc(tid(1), 30 * MIB).unwrap();
        assert_eq!(a.map_calls, maps_before);
    }

    #[test]
    fn virtual_reuse_of_freed_ranges() {
        let mut a = ExpandableAllocator::new(1 << 40);
        let x = a.malloc(tid(0), 10 * MIB).unwrap();
        a.free(tid(0));
        let y = a.malloc(tid(1), 10 * MIB).unwrap();
        assert_eq!(x, y, "first-fit reuses the lowest hole");
    }
}
