//! Best-fit placement heuristics for offline DSA.
//!
//! Used (a) as the incumbent seeding the exact branch-and-bound and (b) as
//! the solver of record for instances beyond exact reach (the paper's flat
//! formulation with thousands of requests). Runs several placement orders
//! and keeps the best result; each placement slides the tensor into the
//! lowest feasible gap among already-placed temporal conflicts — the
//! standard first/best-fit-decreasing family for DSA, which is a constant
//! factor off optimal in theory and usually optimal on layered traces.

use crate::dsa::{Assignment, DsaInstance};
use crate::index::IntervalIndex;

/// Placement orders tried by [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Largest size first (classic BFD).
    SizeDesc,
    /// Longest lifespan first, ties by size.
    DurationDesc,
    /// Program order (birth index).
    BirthAsc,
    /// Size × duration ("area") descending.
    AreaDesc,
}

const ORDERS: [Order; 4] = [
    Order::SizeDesc,
    Order::DurationDesc,
    Order::BirthAsc,
    Order::AreaDesc,
];

/// Place tensors one by one in `order`, each at the lowest offset that fits
/// among its already-placed temporal conflicts, read from `adj` (each
/// tensor's conflicts, as [`IntervalIndex::adjacency`] lists them).
fn place(inst: &DsaInstance, adj: &[Vec<usize>], order: &[usize]) -> Assignment {
    let n = inst.tensors.len();
    let mut offsets = vec![0u64; n];
    let mut placed = vec![false; n];
    let mut peak = 0u64;
    let mut busy: Vec<(u64, u64)> = Vec::new();

    for &i in order {
        let size = inst.tensors[i].size;
        // Occupied address intervals of placed conflicting tensors.
        busy.clear();
        busy.extend(
            adj[i]
                .iter()
                .filter(|&&j| placed[j])
                .map(|&j| (offsets[j], offsets[j].saturating_add(inst.tensors[j].size))),
        );
        busy.sort_unstable();
        // Lowest gap scan.
        let mut candidate = 0u64;
        for &(start, end) in &busy {
            if candidate.saturating_add(size) <= start {
                break;
            }
            candidate = candidate.max(end);
        }
        offsets[i] = candidate;
        placed[i] = true;
        peak = peak.max(candidate.saturating_add(size));
    }
    Assignment { offsets, peak }
}

/// Every tensor's temporal conflicts, computed once per instance and shared
/// by all placement orders.
fn adjacency(inst: &DsaInstance) -> Vec<Vec<usize>> {
    IntervalIndex::new(inst).adjacency(inst)
}

fn ordering(inst: &DsaInstance, order: Order) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..inst.tensors.len()).collect();
    match order {
        Order::SizeDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            (std::cmp::Reverse(t.size), t.birth)
        }),
        Order::DurationDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            (
                std::cmp::Reverse(t.death - t.birth),
                std::cmp::Reverse(t.size),
            )
        }),
        Order::BirthAsc => idx.sort_by_key(|&i| inst.tensors[i].birth),
        Order::AreaDesc => idx.sort_by_key(|&i| {
            let t = inst.tensors[i];
            std::cmp::Reverse(t.size.saturating_mul((t.death - t.birth) as u64))
        }),
    }
    idx
}

/// Best-of-orders best-fit heuristic. The result always validates and its
/// peak is ≥ the liveness lower bound.
pub fn solve(inst: &DsaInstance) -> Assignment {
    if inst.is_empty() {
        return Assignment {
            offsets: Vec::new(),
            peak: 0,
        };
    }
    solve_with(inst, &adjacency(inst))
}

fn solve_with(inst: &DsaInstance, adj: &[Vec<usize>]) -> Assignment {
    ORDERS
        .iter()
        .map(|&o| place(inst, adj, &ordering(inst, o)))
        .min_by_key(|a| a.peak)
        .expect("at least one order")
}

/// [`solve`] refined by insertion local search: from each portfolio
/// order, move one tensor to another position in the order whenever that
/// lowers the best-fit peak, until no single move does or the peak meets
/// the liveness bound. A pass costs O(n⁴), so this is for instances within
/// exact-search size.
pub(crate) fn solve_by_insertion(inst: &DsaInstance) -> Assignment {
    let load = inst.lower_bound();
    let adj = adjacency(inst);
    let mut best = solve_with(inst, &adj);
    for &o in &ORDERS {
        if best.peak <= load {
            break;
        }
        let mut order = ordering(inst, o);
        let mut a = place(inst, &adj, &order);
        while a.peak > load {
            let Some(better) = improving_move(inst, &adj, &mut order, a.peak) else {
                break;
            };
            a = better;
        }
        if a.peak < best.peak {
            best = a;
        }
    }
    best
}

/// Apply the first single-tensor move in `order` whose best-fit placement
/// peaks below `peak` and return that placement; `None` at a local
/// optimum (then `order` is unchanged).
fn improving_move(
    inst: &DsaInstance,
    adj: &[Vec<usize>],
    order: &mut Vec<usize>,
    peak: u64,
) -> Option<Assignment> {
    let n = order.len();
    for from in 0..n {
        for to in (0..n).filter(|&to| to != from) {
            let i = order.remove(from);
            order.insert(to, i);
            let a = place(inst, adj, order);
            if a.peak < peak {
                return Some(a);
            }
            let i = order.remove(to);
            order.insert(from, i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    /// The O(n²) placement that scans every tensor for conflicts: the
    /// oracle for [`place`].
    fn place_by_scan(inst: &DsaInstance, order: &[usize]) -> Assignment {
        let n = inst.tensors.len();
        let mut offsets = vec![0u64; n];
        let mut placed = vec![false; n];
        let mut peak = 0u64;

        for &i in order {
            let ti = inst.tensors[i];
            let mut busy: Vec<(u64, u64)> = Vec::new();
            for (j, tj) in inst.tensors.iter().enumerate() {
                if placed[j] && ti.overlaps(tj) {
                    busy.push((offsets[j], offsets[j].saturating_add(tj.size)));
                }
            }
            busy.sort_unstable();
            let mut candidate = 0u64;
            for (start, end) in busy {
                if candidate.saturating_add(ti.size) <= start {
                    break;
                }
                candidate = candidate.max(end);
            }
            offsets[i] = candidate;
            placed[i] = true;
            peak = peak.max(candidate.saturating_add(ti.size));
        }
        Assignment { offsets, peak }
    }

    #[test]
    fn adjacency_placement_matches_the_scan_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let n = rng.gen_range(1..60);
            let horizon = rng.gen_range(1..3 * n);
            let tensors = (0..n)
                .map(|i| {
                    // Zero sizes and empty lifespans included.
                    let birth = rng.gen_range(0..horizon);
                    t(
                        i as u64,
                        rng.gen_range(0..5) * 64,
                        birth,
                        birth + rng.gen_range(0..horizon),
                    )
                })
                .collect();
            let inst = DsaInstance::new(tensors);
            let adj = adjacency(&inst);
            for o in ORDERS {
                let order = ordering(&inst, o);
                assert_eq!(place(&inst, &adj, &order), place_by_scan(&inst, &order));
            }
        }
    }

    fn t(id: u64, size: u64, birth: u32, death: u32) -> DsaTensor {
        DsaTensor {
            id: TensorId(id),
            size,
            birth,
            death,
        }
    }

    #[test]
    fn disjoint_lifespans_share_addresses() {
        let inst = DsaInstance::new(vec![t(0, 100, 0, 2), t(1, 100, 2, 4), t(2, 100, 4, 6)]);
        let a = solve(&inst);
        a.validate(&inst).unwrap();
        assert_eq!(a.peak, 100, "sequential tensors must reuse one slot");
    }

    #[test]
    fn overlapping_tensors_stack() {
        let inst = DsaInstance::new(vec![t(0, 100, 0, 4), t(1, 50, 1, 3), t(2, 25, 2, 5)]);
        let a = solve(&inst);
        a.validate(&inst).unwrap();
        assert_eq!(a.peak, 175);
        assert_eq!(a.peak, inst.lower_bound());
    }

    #[test]
    fn peak_never_below_lower_bound() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..100u32);
                    t(
                        i as u64,
                        rng.gen_range(1..1000),
                        birth,
                        birth + rng.gen_range(1..30),
                    )
                })
                .collect();
            let inst = DsaInstance::new(tensors);
            let a = solve(&inst);
            a.validate(&inst).unwrap();
            assert!(a.peak >= inst.lower_bound());
            assert_eq!(a.peak, a.measured_peak(&inst));
        }
    }

    #[test]
    fn insertion_never_loses_to_the_portfolio_and_sometimes_beats_it() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let mut improved = 0;
        for _ in 0..30 {
            let n = rng.gen_range(8..29);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..2 * n);
                    t(
                        i as u64,
                        64 << rng.gen_range(0..4),
                        birth,
                        birth + rng.gen_range(1..n),
                    )
                })
                .collect();
            let inst = DsaInstance::new(tensors);
            let (a, base) = (solve_by_insertion(&inst), solve(&inst));
            a.validate(&inst).unwrap();
            assert_eq!(a.peak, a.measured_peak(&inst));
            assert!(inst.lower_bound() <= a.peak && a.peak <= base.peak);
            improved += usize::from(a.peak < base.peak);
        }
        assert!(improved > 0, "local search never improved the portfolio");
    }

    #[test]
    fn empty_instance() {
        let a = solve(&DsaInstance::default());
        assert_eq!(a.peak, 0);
    }
}
