//! Exact branch-and-bound for offline DSA (the "MIP solver" of §4.2).
//!
//! The paper hands its MIP to an off-the-shelf solver; we implement the
//! equivalent combinatorial search directly. Correctness rests on the
//! *normalised solution* property: any feasible placement can be compacted
//! (pushing tensors toward address 0 in increasing-offset order) into one
//! where every tensor sits either at offset 0 or flush on top of a
//! temporally-conflicting tensor with a lower offset, without raising the
//! peak. Zero-size tensors occupy no addresses and sit at 0.
//!
//! Branching. The DFS places tensors in the *canonical order* of such a
//! solution: nondecreasing offset, ties by expansion position (birth, then
//! index). A node carries the offset `level` and position of the last
//! placement; every later tensor lands at or above `level`, and at `level`
//! itself only from a later position. Above `level` a tensor's only
//! normalised offset is the top of its highest placed conflict, so the
//! search branches over *which* tensor comes next and nothing else. Each
//! placement is enumerated at most once, and an optimal one is always
//! among them: compact an optimum tensor by tensor to the lowest feasible
//! offset, then sort it into canonical order.
//!
//! Pruning:
//!
//! * a best-fit incumbent (from [`crate::heuristic`]) and branch cuts on
//!   the placed tensor's top;
//! * the *skyline bound*, recomputed at every node: at each birth `t`,
//!   `level + Σ unplaced bytes live at t + Σ over placed live j of
//!   max(0, top_j − level)` — the canonical order puts every unplaced byte
//!   above `level`, beside what placed tensors already hold there. At the
//!   root it is the liveness bound (LOAD);
//! * early exit when the incumbent meets LOAD (then it is provably optimal);
//! * symmetry breaking among identical `(size, birth, death)` tensors;
//! * a node budget. Within the budget the solver is exact; beyond it, it
//!   returns the incumbent flagged `optimal = false` unless the bound
//!   closed.
//!
//! The inner loop is allocation-free: symmetry stamps are preallocated per
//! depth and the skyline check points per instance. Byte sums saturate, so
//! sizes near `u64::MAX` cannot overflow the search.

use crate::dsa::{Assignment, DsaInstance};
use crate::heuristic;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct BnbOptions {
    /// Maximum search nodes before falling back to the incumbent.
    pub node_limit: u64,
    /// Instances larger than this skip exact search entirely.
    pub max_tensors: usize,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions {
            node_limit: 2_000_000,
            max_tensors: 40,
        }
    }
}

/// Solve outcome.
#[derive(Debug, Clone)]
pub struct Solution {
    pub assignment: Assignment,
    /// True iff the returned peak is provably optimal.
    pub optimal: bool,
    /// Search nodes expanded (0 when the bound closed immediately).
    pub(crate) nodes: u64,
    /// Liveness lower bound of the instance.
    pub lower_bound: u64,
}

struct Searcher<'a> {
    inst: &'a DsaInstance,
    /// Conflict adjacency, ascending index order.
    conflicts: Vec<Vec<usize>>,
    /// Symmetry class (identical `(size, birth, death)`) of each tensor.
    class_of: Vec<usize>,
    /// Expansion order of the nonzero-size tensors: `(birth, index)`. A
    /// tensor's position here breaks offset ties in the canonical order.
    order: Vec<usize>,
    /// The skyline bound's check points: for each distinct birth, the
    /// nonzero-size tensors live there.
    live_at: Vec<Vec<usize>>,
    /// Symmetry stamps per depth and class: `class_seen[d][c] == stamp` of
    /// the node at depth `d` marks class `c` as already expanded there.
    /// Depth-local so deeper nodes (which bump the stamp) cannot
    /// invalidate our marks.
    class_seen: Vec<Vec<u64>>,
    stamp: u64,
    best: Assignment,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
    offsets: Vec<u64>,
    placed: Vec<bool>,
    lower_bound: u64,
}

impl<'a> Searcher<'a> {
    fn top(&self, j: usize) -> u64 {
        self.offsets[j].saturating_add(self.inst.tensors[j].size)
    }

    /// Lowest offset above every placed conflict of `i`. Placed tensors
    /// never sit above `level`, so this is `i`'s only normalised offset
    /// at or above it.
    fn floor(&self, i: usize) -> u64 {
        self.conflicts[i]
            .iter()
            .filter(|&&j| self.placed[j])
            .map(|&j| self.top(j))
            .max()
            .unwrap_or(0)
    }

    /// The skyline bound of a node at `level` (see the module docs): no
    /// completion in canonical order peaks below it.
    fn skyline_bound(&self, level: u64) -> u64 {
        let mut bound = level;
        for live in &self.live_at {
            let mut top = level;
            for &j in live {
                let above = if self.placed[j] {
                    self.top(j).saturating_sub(level)
                } else {
                    self.inst.tensors[j].size
                };
                top = top.saturating_add(above);
            }
            bound = bound.max(top);
        }
        bound
    }

    /// Expand the node whose last placement sat at offset `level` and
    /// expansion position `next - 1`.
    fn dfs(&mut self, depth: usize, level: u64, next: usize, peak: u64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.exhausted = true;
            return;
        }
        if self.skyline_bound(level) >= self.best.peak {
            return; // no completion fits under the incumbent
        }
        if depth == self.order.len() {
            self.best = Assignment {
                offsets: self.offsets.clone(),
                peak,
            };
            return;
        }

        self.stamp += 1;
        let stamp = self.stamp;
        for pos in 0..self.order.len() {
            let i = self.order[pos];
            if self.placed[i] {
                continue;
            }
            // Symmetry breaking: among unplaced tensors with identical
            // (size, birth, death), expand only the first in order.
            let class = self.class_of[i];
            if self.class_seen[depth][class] == stamp {
                continue;
            }
            self.class_seen[depth][class] = stamp;
            let c = self.floor(i);
            if c < level || (c == level && pos < next) {
                continue; // not next in canonical order
            }
            let top = c.saturating_add(self.inst.tensors[i].size);
            if top >= self.best.peak {
                continue;
            }
            self.offsets[i] = c;
            self.placed[i] = true;
            self.dfs(depth + 1, c, pos + 1, peak.max(top));
            self.placed[i] = false;
            if self.exhausted || self.best.peak <= self.lower_bound {
                return;
            }
        }
    }
}

/// Solve the instance. Exact within the node budget and size cap; otherwise
/// returns the best-fit incumbent (still validated, just not certified).
pub fn solve(inst: &DsaInstance, opts: BnbOptions) -> Solution {
    let lower_bound = inst.lower_bound();
    let incumbent = heuristic::solve(inst);
    debug_assert!(incumbent.validate(inst).is_ok());

    if incumbent.peak == lower_bound {
        return Solution {
            assignment: incumbent,
            optimal: true,
            nodes: 0,
            lower_bound,
        };
    }
    if inst.tensors.len() > opts.max_tensors {
        return Solution {
            assignment: incumbent,
            optimal: false,
            nodes: 0,
            lower_bound,
        };
    }

    let n = inst.tensors.len();
    let conflicts: Vec<Vec<usize>> = crate::index::IntervalIndex::new(inst).adjacency(inst);

    // Symmetry classes: tensors sharing (size, birth, death) are
    // interchangeable; give each distinct key one class id.
    let mut keys: Vec<(u64, u32, u32)> = inst
        .tensors
        .iter()
        .map(|t| (t.size, t.birth, t.death))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let class_of: Vec<usize> = inst
        .tensors
        .iter()
        .map(|t| {
            keys.binary_search(&(t.size, t.birth, t.death))
                .expect("key set covers every tensor")
        })
        .collect();

    // Zero-size tensors start placed at offset 0, where they block nothing.
    let placed: Vec<bool> = inst.tensors.iter().map(|t| t.size == 0).collect();
    let mut order: Vec<usize> = (0..n).filter(|&i| !placed[i]).collect();
    order.sort_by_key(|&i| (inst.tensors[i].birth, i));
    let mut births: Vec<u32> = order.iter().map(|&i| inst.tensors[i].birth).collect();
    births.dedup();
    let live_at = births
        .iter()
        .map(|&at| {
            order
                .iter()
                .copied()
                .filter(|&j| inst.tensors[j].birth <= at && at < inst.tensors[j].death)
                .collect()
        })
        .collect();

    let mut s = Searcher {
        inst,
        conflicts,
        class_of,
        class_seen: vec![vec![0; keys.len()]; order.len()],
        order,
        live_at,
        stamp: 0,
        best: incumbent,
        nodes: 0,
        node_limit: opts.node_limit,
        exhausted: false,
        offsets: vec![0; n],
        placed,
        lower_bound,
    };
    s.dfs(0, 0, 0, 0);
    let optimal = !s.exhausted || s.best.peak == lower_bound;
    debug_assert!(s.best.validate(inst).is_ok());
    Solution {
        assignment: s.best,
        optimal,
        nodes: s.nodes,
        lower_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    fn t(id: u64, size: u64, birth: u32, death: u32) -> DsaTensor {
        DsaTensor {
            id: TensorId(id),
            size,
            birth,
            death,
        }
    }

    /// Brute-force optimal peak by exhaustive normalised search without any
    /// pruning shortcuts (tiny instances only).
    #[allow(clippy::needless_range_loop)]
    fn brute_force(inst: &DsaInstance) -> u64 {
        fn rec(inst: &DsaInstance, offsets: &mut Vec<Option<u64>>, best: &mut u64, peak: u64) {
            if peak >= *best {
                return;
            }
            let n = inst.tensors.len();
            if offsets.iter().all(|o| o.is_some()) {
                *best = peak;
                return;
            }
            for i in 0..n {
                if offsets[i].is_some() {
                    continue;
                }
                let ti = inst.tensors[i];
                let mut cands = vec![0u64];
                for j in 0..n {
                    if let Some(oj) = offsets[j] {
                        if ti.overlaps(&inst.tensors[j]) {
                            cands.push(oj + inst.tensors[j].size);
                        }
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                'cand: for c in cands {
                    for j in 0..n {
                        if let Some(oj) = offsets[j] {
                            let tj = inst.tensors[j];
                            if ti.overlaps(&tj) && c < oj + tj.size && oj < c + ti.size {
                                continue 'cand;
                            }
                        }
                    }
                    offsets[i] = Some(c);
                    rec(inst, offsets, best, peak.max(c + ti.size));
                    offsets[i] = None;
                }
            }
        }
        let mut best = u64::MAX;
        let mut offsets = vec![None; inst.tensors.len()];
        rec(inst, &mut offsets, &mut best, 0);
        best
    }

    #[test]
    fn classic_gap_instance_beats_greedy() {
        // Sizes and lifespans chosen so naive size-ordered best-fit leaves a
        // hole; exact search must reach the liveness bound or prove a gap.
        let inst = DsaInstance::new(vec![
            t(0, 4, 0, 3),
            t(1, 4, 4, 8),
            t(2, 6, 2, 6),
            t(3, 2, 1, 7),
        ]);
        let sol = solve(&inst, BnbOptions::default());
        assert!(sol.optimal);
        sol.assignment.validate(&inst).unwrap();
        assert_eq!(sol.assignment.peak, brute_force(&inst));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..40 {
            let n = rng.gen_range(2..7);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..12u32);
                    t(
                        i as u64,
                        rng.gen_range(1..9) * 4,
                        birth,
                        birth + rng.gen_range(1..8),
                    )
                })
                .collect();
            let inst = DsaInstance::new(tensors);
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "round {round}: search not exhausted");
            let bf = brute_force(&inst);
            assert_eq!(
                sol.assignment.peak, bf,
                "round {round}: bnb {} vs brute force {bf} for {inst:?}",
                sol.assignment.peak
            );
        }
    }

    #[test]
    fn matches_brute_force_with_identical_and_zero_size_tensors() {
        // Copies of one (size, birth, death) exercise the symmetry classes
        // and the canonical order's position tie-break; zero-size tensors
        // the point semantics. An instance with OPT > LOAD makes the search
        // exhaust rather than stop at the liveness bound.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..100 {
            // Round 0: OPT 24 > LOAD 20 (sizes ×4 below), plus a zero-size
            // tensor.
            let (mut tensors, n) = if round == 0 {
                let shape = [
                    (1, 1, 4),
                    (1, 0, 3),
                    (2, 3, 4),
                    (2, 2, 5),
                    (4, 0, 1),
                    (3, 1, 2),
                    (1, 2, 3),
                    (3, 4, 5),
                    (0, 1, 4),
                ];
                (instance(&shape, 4).tensors, shape.len())
            } else {
                (Vec::new(), rng.gen_range(3..7))
            };
            while tensors.len() < n {
                let id = tensors.len() as u64;
                if !tensors.is_empty() && rng.gen_bool(0.3) {
                    let twin = tensors[rng.gen_range(0..tensors.len())];
                    tensors.push(DsaTensor {
                        id: TensorId(id),
                        ..twin
                    });
                } else {
                    let birth = rng.gen_range(0..8u32);
                    let size = rng.gen_range(0..5) * 4;
                    tensors.push(t(id, size, birth, birth + rng.gen_range(1..6)));
                }
            }
            let inst = DsaInstance::new(tensors);
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "round {round}: search not exhausted");
            sol.assignment.validate(&inst).unwrap();
            let bf = brute_force(&inst);
            assert_eq!(
                sol.assignment.peak, bf,
                "round {round}: bnb {} vs brute force {bf} for {inst:?}",
                sol.assignment.peak
            );
            if round == 0 {
                assert_eq!((bf, sol.lower_bound), (24, 20), "OPT > LOAD");
            }
        }
    }

    #[test]
    fn harder_instances_stay_optimal_and_node_counts_do_not_regress() {
        // The seed-7 corpus exercises real search pressure (the seed-3
        // corpus above closes at 0 nodes). The totals below were measured
        // with the pre-overhaul searcher (per-node allocations, O(n²)
        // symmetry scan, liveness-only bound): 15_514 nodes over the 12
        // rounds, with round 8 alone at 15_448. The reworked searcher must
        // still be exact AND expand no more nodes than that baseline; the
        // canonical-order search with the skyline bound expands 2_234.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const BASELINE_TOTAL_NODES: u64 = 15_514;
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0u64;
        for round in 0..12 {
            let n = rng.gen_range(8..18);
            let tensors = (0..n)
                .map(|i| {
                    let birth = rng.gen_range(0..20u32);
                    t(
                        i as u64,
                        rng.gen_range(1..60),
                        birth,
                        birth + rng.gen_range(1..12),
                    )
                })
                .collect();
            let inst = DsaInstance::new(tensors);
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "round {round}: search not exhausted");
            sol.assignment.validate(&inst).unwrap();
            assert!(
                sol.assignment.peak >= sol.lower_bound,
                "round {round}: peak below the liveness bound"
            );
            total += sol.nodes;
        }
        assert!(
            total <= BASELINE_TOTAL_NODES,
            "node count regressed: {total} > baseline {BASELINE_TOTAL_NODES}"
        );
    }

    /// The seven distinct level-1 layer instances of a search-short run
    /// (2K–4K tokens per GPU), sizes in units of their GCD. Every one
    /// packs at exactly LOAD; the best-fit incumbent does not.
    const SEARCH_SHORT_LAYERS: [&[(u64, u32, u32)]; 7] = [
        &[
            (1, 591, 592),
            (16, 593, 597),
            (32, 594, 595),
            (16, 596, 601),
            (32, 598, 599),
            (4, 600, 603),
            (4, 602, 621),
            (4, 604, 612),
            (8, 605, 606),
            (4, 607, 618),
            (4, 608, 617),
            (4, 609, 616),
            (2, 610, 611),
            (4, 613, 620),
            (24, 614, 615),
        ],
        &[
            (1, 719, 720),
            (8, 721, 725),
            (16, 722, 727),
            (32, 723, 724),
            (16, 726, 731),
            (32, 728, 729),
            (4, 730, 733),
            (4, 732, 751),
            (4, 734, 742),
            (8, 735, 736),
            (4, 737, 748),
            (4, 738, 747),
            (4, 739, 746),
            (2, 740, 741),
            (4, 743, 750),
            (24, 744, 745),
        ],
        &[
            (1, 735, 736),
            (16, 737, 741),
            (20, 738, 739),
            (16, 740, 745),
            (20, 742, 743),
            (4, 744, 747),
            (4, 746, 765),
            (4, 748, 756),
            (5, 749, 750),
            (4, 751, 762),
            (4, 752, 761),
            (4, 753, 760),
            (2, 754, 755),
            (4, 757, 764),
            (15, 758, 759),
        ],
        &[
            (1, 879, 880),
            (16, 881, 885),
            (28, 882, 883),
            (16, 884, 889),
            (28, 886, 887),
            (4, 888, 891),
            (4, 890, 909),
            (4, 892, 900),
            (7, 893, 894),
            (4, 895, 906),
            (4, 896, 905),
            (4, 897, 904),
            (2, 898, 899),
            (4, 901, 908),
            (21, 902, 903),
        ],
        &[
            (1, 1071, 1072),
            (8, 1073, 1077),
            (16, 1074, 1079),
            (28, 1075, 1076),
            (16, 1078, 1083),
            (28, 1080, 1081),
            (4, 1082, 1085),
            (4, 1084, 1103),
            (4, 1086, 1094),
            (7, 1087, 1088),
            (4, 1089, 1100),
            (4, 1090, 1099),
            (4, 1091, 1098),
            (2, 1092, 1093),
            (4, 1095, 1102),
            (21, 1096, 1097),
        ],
        &[
            (1, 1455, 1456),
            (16, 1457, 1461),
            (32, 1458, 1459),
            (16, 1460, 1465),
            (32, 1462, 1463),
            (4, 1464, 1467),
            (4, 1466, 1485),
            (4, 1468, 1476),
            (8, 1469, 1470),
            (4, 1471, 1482),
            (4, 1472, 1481),
            (4, 1473, 1480),
            (2, 1474, 1475),
            (4, 1477, 1484),
            (24, 1478, 1479),
        ],
        &[
            (1, 1775, 1776),
            (8, 1777, 1781),
            (16, 1778, 1783),
            (32, 1779, 1780),
            (16, 1782, 1787),
            (32, 1784, 1785),
            (4, 1786, 1789),
            (4, 1788, 1807),
            (4, 1790, 1798),
            (8, 1791, 1792),
            (4, 1793, 1804),
            (4, 1794, 1803),
            (4, 1795, 1802),
            (2, 1796, 1797),
            (4, 1799, 1806),
            (24, 1800, 1801),
        ],
    ];

    fn instance(shape: &[(u64, u32, u32)], unit: u64) -> DsaInstance {
        DsaInstance::new(
            shape
                .iter()
                .enumerate()
                .map(|(i, &(size, birth, death))| t(i as u64, size * unit, birth, death))
                .collect(),
        )
    }

    #[test]
    fn search_short_layers_close_at_the_liveness_bound() {
        for (k, shape) in SEARCH_SHORT_LAYERS.iter().enumerate() {
            let inst = instance(shape, 1);
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "layer {k}: not proven");
            assert_eq!(sol.assignment.peak, sol.lower_bound, "layer {k}");
            assert!(sol.nodes <= 1_000, "layer {k}: {} nodes", sol.nodes);
            sol.assignment.validate(&inst).unwrap();
        }
    }

    #[test]
    fn sizes_near_a_quarter_of_the_address_space_do_not_overflow() {
        // The largest tensor of each layer lands just under u64::MAX / 4;
        // every stack the search tries must saturate, not wrap or panic.
        for (k, shape) in SEARCH_SHORT_LAYERS.iter().enumerate() {
            let largest = shape.iter().map(|&(size, _, _)| size).max().unwrap();
            let inst = instance(shape, u64::MAX / 4 / largest);
            let sol = solve(&inst, BnbOptions::default());
            assert!(sol.optimal, "layer {k}: not proven");
            assert_eq!(sol.assignment.peak, sol.lower_bound, "layer {k}");
            sol.assignment.validate(&inst).unwrap();
        }
    }

    #[test]
    fn instant_optimality_when_heuristic_hits_bound() {
        let inst = DsaInstance::new(vec![t(0, 8, 0, 2), t(1, 8, 2, 4)]);
        let sol = solve(&inst, BnbOptions::default());
        assert!(sol.optimal);
        assert_eq!(sol.nodes, 0, "bound should close without search");
        assert_eq!(sol.assignment.peak, 8);
    }

    #[test]
    fn oversized_instances_fall_back_to_heuristic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let tensors = (0..120)
            .map(|i| {
                let birth = rng.gen_range(0..50u32);
                t(
                    i as u64,
                    rng.gen_range(1..100),
                    birth,
                    birth + rng.gen_range(1..20),
                )
            })
            .collect();
        let inst = DsaInstance::new(tensors);
        let sol = solve(
            &inst,
            BnbOptions {
                max_tensors: 40,
                ..Default::default()
            },
        );
        sol.assignment.validate(&inst).unwrap();
        assert!(sol.assignment.peak >= sol.lower_bound);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let tensors = (0..18)
            .map(|i| {
                let birth = rng.gen_range(0..10u32);
                t(
                    i as u64,
                    rng.gen_range(1..50),
                    birth,
                    birth + rng.gen_range(1..9),
                )
            })
            .collect();
        let inst = DsaInstance::new(tensors);
        let sol = solve(
            &inst,
            BnbOptions {
                node_limit: 50,
                max_tensors: 40,
            },
        );
        sol.assignment.validate(&inst).unwrap();
    }
}
