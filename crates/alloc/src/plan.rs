//! The static plan allocator: MEMO's replacement for the caching allocator.
//!
//! A memory plan assigns every tensor of the (static) iteration a fixed
//! device address. The allocator reserves one arena of the plan's peak size
//! via a single `cudaMalloc` before training and then serves every request
//! by table lookup — no searching, no splitting, no fragmentation, no
//! reorganisation (§4.2, §4.3.4).
//!
//! The allocator *verifies* the plan at runtime: handing out an address range
//! overlapping a live tensor is reported as [`AllocError::PlanOverlap`],
//! which the planner's property tests use to cross-check the MIP solvers.

use crate::{AllocError, DeviceAllocator};
use memo_model::trace::TensorId;
use std::collections::{BTreeMap, HashMap};

/// One planned placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    offset: u64,
    pub bytes: u64,
}

/// Executes a static address plan. See module docs.
#[derive(Debug, Clone)]
pub struct PlanAllocator {
    addresses: HashMap<TensorId, Placement>,
    /// Arena size = planned peak (the single `cudaMalloc`).
    arena: u64,
    /// Live intervals keyed by start offset, for overlap verification.
    live: BTreeMap<u64, (u64, TensorId)>,
    live_ids: HashMap<TensorId, u64>,
    allocated: u64,
}

impl PlanAllocator {
    /// Build from `(tensor, offset, bytes)` triples and the arena (peak) size.
    pub fn from_addresses(
        placements: impl IntoIterator<Item = (TensorId, u64, u64)>,
        arena: u64,
    ) -> Self {
        let addresses = placements
            .into_iter()
            .map(|(id, offset, bytes)| (id, Placement { offset, bytes }))
            .collect();
        PlanAllocator {
            addresses,
            arena,
            live: BTreeMap::new(),
            live_ids: HashMap::new(),
            allocated: 0,
        }
    }

    fn overlap_check(&self, offset: u64, bytes: u64) -> Option<TensorId> {
        // Any live interval starting before our end and ending after our
        // start overlaps. Check the predecessor and all successors below end.
        if let Some((&s, &(sz, id))) = self.live.range(..=offset).next_back() {
            if s + sz > offset {
                return Some(id);
            }
        }
        if let Some((&s, &(_, id))) = self.live.range(offset..).next() {
            if s < offset + bytes {
                return Some(id);
            }
        }
        None
    }
}

impl DeviceAllocator for PlanAllocator {
    fn malloc(&mut self, id: TensorId, bytes: u64) -> Result<u64, AllocError> {
        let p = *self.addresses.get(&id).ok_or(AllocError::NotInPlan(id))?;
        assert!(
            p.bytes >= bytes,
            "plan reserves {} bytes for tensor {} but {} requested",
            p.bytes,
            id.0,
            bytes
        );
        if let Some(other) = self.overlap_check(p.offset, p.bytes) {
            return Err(AllocError::PlanOverlap(id, other));
        }
        self.live.insert(p.offset, (p.bytes, id));
        self.live_ids.insert(id, p.offset);
        self.allocated += p.bytes;
        Ok(p.offset)
    }

    fn free(&mut self, id: TensorId) {
        let offset = self
            .live_ids
            .remove(&id)
            .unwrap_or_else(|| panic!("freeing unknown tensor {}", id.0));
        let (bytes, _) = self.live.remove(&offset).expect("live interval exists");
        self.allocated -= bytes;
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn reserved_bytes(&self) -> u64 {
        self.arena
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

    #[test]
    fn serves_planned_addresses() {
        let mut a = PlanAllocator::from_addresses([(tid(0), 0, 100), (tid(1), 100, 50)], 150);
        assert_eq!(a.malloc(tid(0), 100).unwrap(), 0);
        assert_eq!(a.malloc(tid(1), 50).unwrap(), 100);
        assert_eq!(a.allocated_bytes(), 150);
        assert_eq!(a.reserved_bytes(), 150);
        a.free(tid(0));
        assert_eq!(a.allocated_bytes(), 50);
        assert_eq!(a.reorg_count(), 0);
    }

    #[test]
    fn detects_overlapping_plan() {
        let mut a = PlanAllocator::from_addresses([(tid(0), 0, 100), (tid(1), 50, 100)], 150);
        a.malloc(tid(0), 100).unwrap();
        match a.malloc(tid(1), 100) {
            Err(AllocError::PlanOverlap(x, y)) => {
                assert_eq!((x, y), (tid(1), tid(0)));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn reuse_after_free_is_fine() {
        // The whole point of the plan: tensors with disjoint lifespans share
        // addresses.
        let mut a = PlanAllocator::from_addresses([(tid(0), 0, 100), (tid(1), 0, 100)], 100);
        a.malloc(tid(0), 100).unwrap();
        a.free(tid(0));
        assert_eq!(a.malloc(tid(1), 100).unwrap(), 0);
    }

    #[test]
    fn missing_tensor_is_an_error() {
        let mut a = PlanAllocator::from_addresses([], 0);
        assert_eq!(a.malloc(tid(9), 8), Err(AllocError::NotInPlan(tid(9))));
    }

    #[test]
    fn adjacent_placements_do_not_overlap() {
        let mut a = PlanAllocator::from_addresses(
            [(tid(0), 0, 100), (tid(1), 100, 100), (tid(2), 200, 1)],
            201,
        );
        a.malloc(tid(0), 100).unwrap();
        a.malloc(tid(1), 100).unwrap();
        a.malloc(tid(2), 1).unwrap();
    }
}
