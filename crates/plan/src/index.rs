//! Sweep-line interval index over a [`DsaInstance`].
//!
//! Replaces the linear-scan `DsaInstance::conflicts_of` on every hot path:
//! [`IntervalIndex::adjacency`] materializes all per-tensor conflict lists
//! in O(n log n + K) with a birth-ordered sweep over a min-heap of live
//! tensors, where K is the total number of conflicting pairs.
//!
//! `DsaInstance::conflicts_of` is retained as the differential oracle; see
//! the tests at the bottom and `tests/boxing_scale.rs`.

use crate::dsa::DsaInstance;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Immutable interval index: tensor indices sorted by `(birth, death, idx)`.
#[derive(Debug)]
pub struct IntervalIndex {
    /// Original tensor indices in sorted order.
    order: Vec<u32>,
    /// `birth[p]` / `death[p]` of `order[p]`.
    birth: Vec<usize>,
    death: Vec<usize>,
}

impl IntervalIndex {
    pub fn new(inst: &DsaInstance) -> IntervalIndex {
        let n = inst.tensors.len();
        assert!(n <= u32::MAX as usize, "instance too large for u32 indices");
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let t = &inst.tensors[i as usize];
            (t.birth, t.death, i)
        });
        let birth: Vec<usize> = order
            .iter()
            .map(|&i| inst.tensors[i as usize].birth as usize)
            .collect();
        let death: Vec<usize> = order
            .iter()
            .map(|&i| inst.tensors[i as usize].death as usize)
            .collect();
        IntervalIndex {
            order,
            birth,
            death,
        }
    }

    /// All per-tensor conflict lists (each ascending), equivalent to
    /// calling `conflicts_of` for every tensor but in O(n log n + K).
    pub fn adjacency(&self, inst: &DsaInstance) -> Vec<Vec<usize>> {
        self.adjacency_capped(inst, usize::MAX)
            .expect("uncapped adjacency")
    }

    /// Like [`adjacency`](Self::adjacency) but aborts returning `None` once
    /// more than `max_pairs` conflicting pairs have been discovered — used
    /// to gate quadratic-in-K polish passes on dense instances.
    pub(crate) fn adjacency_capped(
        &self,
        inst: &DsaInstance,
        max_pairs: usize,
    ) -> Option<Vec<Vec<usize>>> {
        let n = inst.tensors.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Live tensors as a min-heap keyed by death; birth order comes from
        // the sorted index. Heap iteration order is arbitrary but every
        // entry is genuinely live once expired deaths are popped.
        let mut live: BinaryHeap<Reverse<(usize, u32)>> = BinaryHeap::new();
        let mut pairs = 0usize;
        for p in 0..n {
            let (b, d, i) = (self.birth[p], self.death[p], self.order[p]);
            while let Some(&Reverse((death, _))) = live.peek() {
                if death <= b {
                    live.pop();
                } else {
                    break;
                }
            }
            pairs += live.len();
            if pairs > max_pairs {
                return None;
            }
            for &Reverse((_, j)) in live.iter() {
                adj[i as usize].push(j as usize);
                adj[j as usize].push(i as usize);
            }
            live.push(Reverse((d, i)));
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        Some(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    fn inst_from(spans: &[(usize, usize)]) -> DsaInstance {
        DsaInstance::new(
            spans
                .iter()
                .enumerate()
                .map(|(i, &(b, d))| DsaTensor {
                    id: TensorId(i as u64),
                    size: 1 + i as u64,
                    birth: b as u32,
                    death: d as u32,
                })
                .collect(),
        )
    }

    /// Deterministic pseudo-random spans (xorshift; no external RNG).
    fn random_inst(seed: u64, n: usize, horizon: usize) -> DsaInstance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let spans: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                let b = (next() as usize) % horizon;
                let len = 1 + (next() as usize) % horizon;
                (b, b + len)
            })
            .collect();
        inst_from(&spans)
    }

    #[test]
    fn adjacency_matches_conflicts_of_oracle() {
        for seed in 1..=20u64 {
            let inst = random_inst(seed, 60, 25);
            let idx = IntervalIndex::new(&inst);
            let adj = idx.adjacency(&inst);
            for (i, row) in adj.iter().enumerate() {
                assert_eq!(row, &inst.conflicts_of(i), "seed {seed} tensor {i}");
            }
        }
    }

    #[test]
    fn adjacency_cap_aborts_dense_instances() {
        // 30 fully-overlapping tensors: K = 30*29/2 = 435 pairs.
        let inst = inst_from(&vec![(0, 10); 30]);
        let idx = IntervalIndex::new(&inst);
        assert!(idx.adjacency_capped(&inst, 100).is_none());
        assert!(idx.adjacency_capped(&inst, 435).is_some());
    }

    #[test]
    fn empty_and_touching_intervals() {
        let inst = inst_from(&[(0, 5), (5, 9)]);
        let adj = IntervalIndex::new(&inst).adjacency(&inst);
        assert_eq!(adj, vec![Vec::<usize>::new(); 2], "touching never overlaps");
    }
}
