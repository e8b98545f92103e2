//! Near-optimal whole-trace DSA via jobset analysis and interval boxing.
//!
//! Exact branch-and-bound ([`crate::bnb`]) is limited to the tiny instances
//! produced by the bi-level decomposition; the whole-model ("flat")
//! formulation of §4.2 carries thousands to millions of intervals. This
//! module implements a boxing solver in the idealloc/Buchsbaum family,
//! behind a certificate that usually makes it unnecessary:
//!
//! 0. **Certificate before boxing** (the `skyline` module): place tensors
//!    longest-surviving first, each directly on top of the highest tensor
//!    already placed in its lifespan, keeping the skyline as a stack of
//!    `(start, height)` segments below the current death (O(n) after the
//!    order, O(depth) scratch). Stack-shaped traces (token-chunked ones:
//!    layer inputs and carried chunk outputs freed in reverse allocation
//!    order, each chunk's transients freed before its carried output)
//!    come out at exactly the liveness bound `LOAD`, and `peak == LOAD`
//!    proves the plan optimal, so the solver returns it at once. Otherwise
//!    it becomes one more candidate below. It is a member of the best-fit
//!    portfolio and is reported as [`Candidate::BestFit`].
//! 1. **Jobset analysis** ([`jobsets`]): sweep the birth/death event points
//!    and record, per power-of-two *height class* `c` (true sizes in
//!    `(2^(c-1), 2^c]`), the maximum number of concurrently-live tensors
//!    `T_c` and the maximum live bytes, plus the global liveness load
//!    `LOAD = lower_bound()`.
//! 2. **Per-class coloring**: within a class every tensor is rounded to
//!    height `2^c`, so placement reduces to interval-graph coloring; a
//!    birth-ordered sweep with a free-track min-heap colors each class with
//!    exactly `T_c` tracks (optimal, since `T_c` is the clique number).
//! 3. **Recursive boxing**: pairs of class-`c` tracks are merged into boxes
//!    of height `2^(c+1)` (the box lifespan is the union span) and promoted
//!    into class `c+1`, recursing until the top class, whose tracks are
//!    stacked contiguously. Unwinding the boxes yields concrete offsets.
//! 4. **Certified fallback** (stacked bands): coloring each class in its
//!    own contiguous band gives peak `Σ_c T_c·2^c ≤ 2·K·LOAD` where `K` is
//!    the number of nonempty classes — at the instant class `c` reaches
//!    `T_c` live tensors, each has true size `> 2^(c-1)`, so
//!    `T_c·2^c < 2·maxload_c ≤ 2·LOAD` (class 0 sizes are exactly 1, so
//!    the factor-2 is not even needed there).
//!
//! Past the certificate, the solver returns the best of {recursive boxes,
//! stacked bands, best-fit portfolio (small instances only; refined by
//! insertion local search within exact-search size), skyline} after
//! optional compaction polish, so its peak is **provably ≤ `2·K·LOAD`** —
//! the `guarantee` field, which the certificate's early exit reports too —
//! while in practice landing much closer to the lower bound. Everything is
//! O(n log n) per class level, which is what lets a ≥1M-interval trace
//! solve in seconds (gated by `speed_gates`).

use crate::bnb::BnbOptions;
use crate::dsa::{Assignment, DsaInstance};
use crate::heuristic;
use crate::index::IntervalIndex;
use crate::skyline;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Run compaction polish passes when `n ≤` this.
const POLISH_MAX_TENSORS: usize = 65_536;
/// Skip polish if the instance has more conflicting pairs than this.
const POLISH_MAX_PAIRS: usize = 4_000_000;
/// Maximum number of compaction passes.
const POLISH_PASSES: usize = 3;

/// Tuning knobs for [`solve_with`]. The default is a documented threshold
/// (also exercised by the dispatch tests).
#[derive(Debug, Clone)]
pub struct BoxingOptions {
    /// Run the O(n²) best-fit portfolio candidate when `n ≤` this. The
    /// portfolio's O(n log n) skyline certificate runs at every `n`; `0`
    /// turns the whole portfolio off, the skyline included.
    pub portfolio_max_tensors: usize,
}

impl Default for BoxingOptions {
    fn default() -> Self {
        BoxingOptions {
            portfolio_max_tensors: 4096,
        }
    }
}

/// Per-height-class liveness summary from [`jobsets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLoad {
    /// Height class: true sizes in `(2^(class-1), 2^class]`.
    pub class: u32,
    /// Number of tensors in the class.
    pub count: usize,
    /// Maximum concurrently-live tensors (= optimal track count).
    pub tracks: usize,
    /// Maximum concurrently-live true bytes within the class.
    pub max_live_bytes: u64,
}

/// Event-point liveness jobsets: the global load plus per-class summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jobsets {
    /// `DsaInstance::lower_bound()`: max total live bytes at any event.
    pub load: u64,
    /// Nonempty height classes, ascending. Zero-size tensors are excluded
    /// (they occupy no address space).
    pub classes: Vec<ClassLoad>,
}

/// How the winning candidate was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    RecursiveBoxes,
    StackedBands,
    BestFit,
}

impl Candidate {
    pub fn name(self) -> &'static str {
        match self {
            Candidate::RecursiveBoxes => "recursive-boxes",
            Candidate::StackedBands => "stacked-bands",
            Candidate::BestFit => "best-fit",
        }
    }
}

/// Solve statistics.
#[derive(Debug, Clone)]
pub struct BoxingStats {
    pub n_tensors: usize,
    /// Nonempty height classes (the `K` in the `2·K·LOAD` guarantee).
    pub classes: usize,
    /// Which candidate won (before polish).
    pub candidate: Candidate,
    /// Compaction passes actually run.
    pub polish_passes: usize,
}

/// A validated boxing solution with its certified bound.
#[derive(Debug, Clone)]
pub struct BoxingSolution {
    pub assignment: Assignment,
    pub lower_bound: u64,
    /// Certified multiplicative-gap bound: `peak ≤ guarantee = 2·K·LOAD`.
    pub guarantee: u64,
    pub stats: BoxingStats,
}

/// Height class of a (nonzero) size: `size ∈ (2^(c-1), 2^c]` maps to `c`.
fn class_of(size: u64) -> u32 {
    debug_assert!(size > 0);
    if size >= (1u64 << 63) {
        // Clamp: a >8 EiB tensor never occurs; avoids shift overflow.
        return 63;
    }
    63 - size.next_power_of_two().leading_zeros()
}

/// Compute the event-point liveness jobsets.
pub fn jobsets(inst: &DsaInstance) -> Jobsets {
    Jobsets {
        load: inst.lower_bound(),
        classes: class_loads(inst),
    }
}

/// The per-class half of [`jobsets`]. Byte sums run in 128 bits and
/// saturate at `u64::MAX`.
fn class_loads(inst: &DsaInstance) -> Vec<ClassLoad> {
    let mut per_class: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, t) in inst.tensors.iter().enumerate() {
        if t.size == 0 {
            continue;
        }
        per_class.entry(class_of(t.size)).or_default().push(i);
    }
    per_class
        .iter()
        .map(|(&class, members)| {
            // Sweep this class's events: deaths before births at equal
            // positions (half-open lifespans).
            let mut events: Vec<(usize, i64, i128)> = Vec::with_capacity(members.len() * 2);
            for &i in members {
                let t = &inst.tensors[i];
                events.push((t.birth, 1, i128::from(t.size)));
                events.push((t.death, -1, -i128::from(t.size)));
            }
            events.sort_unstable_by_key(|&(pos, d, _)| (pos, d));
            let (mut live, mut bytes) = (0i64, 0i128);
            let (mut tracks, mut max_bytes) = (0i64, 0i128);
            for (_, d, b) in events {
                live += d;
                bytes += b;
                tracks = tracks.max(live);
                max_bytes = max_bytes.max(bytes);
            }
            ClassLoad {
                class,
                count: members.len(),
                tracks: tracks as usize,
                max_live_bytes: u64::try_from(max_bytes).unwrap_or(u64::MAX),
            }
        })
        .collect()
}

/// A boxing work item: either an original tensor (leaf) or a box merging
/// two time-disjoint tracks of the class below.
#[derive(Debug)]
struct Node {
    birth: usize,
    death: usize,
    kind: NodeKind,
}

#[derive(Debug)]
enum NodeKind {
    Leaf(u32),
    Merge {
        /// Height of the class below: `hi` members sit at `base + half`.
        half: u64,
        lo: Vec<Node>,
        hi: Vec<Node>,
    },
}

/// Color time-overlapping items onto the minimum number of tracks
/// (interval-graph coloring by birth-ordered sweep). Items within a track
/// are time-disjoint and birth-sorted.
fn color(mut items: Vec<Node>) -> Vec<Vec<Node>> {
    items.sort_unstable_by_key(|n| (n.birth, n.death));
    let mut tracks: Vec<Vec<Node>> = Vec::new();
    // (death, track) of currently-live track heads.
    let mut live: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    for item in items {
        while let Some(&Reverse((death, track))) = live.peek() {
            if death <= item.birth {
                live.pop();
                free.push(Reverse(track));
            } else {
                break;
            }
        }
        let track = match free.pop() {
            Some(Reverse(t)) => t,
            None => {
                tracks.push(Vec::new());
                tracks.len() - 1
            }
        };
        live.push(Reverse((item.death, track)));
        tracks[track].push(item);
    }
    tracks
}

fn track_span(track: &[Node]) -> (usize, usize) {
    // Track members are birth-sorted and time-disjoint.
    let birth = track.first().map(|n| n.birth).unwrap_or(0);
    let death = track.last().map(|n| n.death).unwrap_or(0);
    (birth, death)
}

/// Recursively place a node's leaves at `base` (+`half` for `hi` members).
fn place(node: &Node, base: u64, offsets: &mut [u64]) {
    match &node.kind {
        NodeKind::Leaf(i) => offsets[*i as usize] = base,
        NodeKind::Merge { half, lo, hi } => {
            for n in lo {
                place(n, base, offsets);
            }
            for n in hi {
                place(n, base.saturating_add(*half), offsets);
            }
        }
    }
}

fn leaves_by_class(inst: &DsaInstance) -> BTreeMap<u32, Vec<Node>> {
    let mut native: BTreeMap<u32, Vec<Node>> = BTreeMap::new();
    for (i, t) in inst.tensors.iter().enumerate() {
        if t.size == 0 {
            continue;
        }
        native.entry(class_of(t.size)).or_default().push(Node {
            birth: t.birth,
            death: t.death,
            kind: NodeKind::Leaf(i as u32),
        });
    }
    native
}

/// Candidate B: recursive buddy boxing. Tracks of class `c` are paired
/// into boxes of height `2^(c+1)` and promoted; the top class's tracks are
/// stacked contiguously.
fn recursive_boxes(inst: &DsaInstance) -> (Vec<u64>, u64) {
    let mut offsets = vec![0u64; inst.tensors.len()];
    let mut native = leaves_by_class(inst);
    let Some((&top, _)) = native.iter().next_back() else {
        return (offsets, 0);
    };
    let mut c = *native.keys().next().unwrap();
    let mut carry: Vec<Node> = Vec::new();
    loop {
        let mut items = native.remove(&c).unwrap_or_default();
        items.append(&mut carry);
        let tracks = color(items);
        if c >= top {
            let height = 1u64 << c;
            for (t, track) in tracks.iter().enumerate() {
                let base = (t as u64).saturating_mul(height);
                for node in track {
                    place(node, base, &mut offsets);
                }
            }
            let peak = (tracks.len() as u64).saturating_mul(height);
            return (offsets, peak);
        }
        let half = 1u64 << c;
        let mut tracks = tracks.into_iter();
        while let Some(lo) = tracks.next() {
            let hi = tracks.next().unwrap_or_default();
            let (lb, ld) = track_span(&lo);
            let (hb, hd) = track_span(&hi);
            let (birth, death) = if hi.is_empty() {
                (lb, ld)
            } else {
                (lb.min(hb), ld.max(hd))
            };
            carry.push(Node {
                birth,
                death,
                kind: NodeKind::Merge { half, lo, hi },
            });
        }
        c += 1;
    }
}

/// Candidate A: each class colored into its own contiguous band; bands are
/// stacked. This is the candidate whose peak certifies the `2·K·LOAD`
/// guarantee (see the module docs).
fn stacked_bands(inst: &DsaInstance) -> (Vec<u64>, u64) {
    let mut offsets = vec![0u64; inst.tensors.len()];
    let mut base = 0u64;
    for (c, items) in leaves_by_class(inst) {
        let height = 1u64 << c;
        let tracks = color(items);
        for (t, track) in tracks.iter().enumerate() {
            let off = base.saturating_add((t as u64).saturating_mul(height));
            for node in track {
                place(node, off, &mut offsets);
            }
        }
        base = base.saturating_add((tracks.len() as u64).saturating_mul(height));
    }
    (offsets, base)
}

/// One compaction pass: re-place every tensor in ascending current-offset
/// order at the lowest address feasible w.r.t. already re-placed
/// conflicts. Never increases the peak (the standard normalization
/// argument: by induction each tensor's old offset stays feasible).
fn compact(inst: &DsaInstance, adj: &[Vec<usize>], offsets: &mut [u64]) {
    let n = inst.tensors.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| (offsets[i], i));
    let mut placed = vec![false; n];
    let mut busy: Vec<(u64, u64)> = Vec::new();
    for &i in &order {
        let size = inst.tensors[i].size;
        busy.clear();
        for &j in &adj[i] {
            if placed[j] {
                let s = inst.tensors[j].size;
                if s > 0 {
                    busy.push((offsets[j], offsets[j].saturating_add(s)));
                }
            }
        }
        busy.sort_unstable();
        let mut cursor = 0u64;
        for &(start, end) in &busy {
            if start.saturating_sub(cursor) >= size {
                break;
            }
            cursor = cursor.max(end);
        }
        offsets[i] = cursor;
        placed[i] = true;
    }
}

fn peak_of(inst: &DsaInstance, offsets: &[u64]) -> u64 {
    inst.tensors
        .iter()
        .zip(offsets)
        .map(|(t, &o)| o.saturating_add(t.size))
        .max()
        .unwrap_or(0)
}

/// Solve with default options.
pub fn solve(inst: &DsaInstance) -> BoxingSolution {
    solve_with(inst, &BoxingOptions::default())
}

/// Solve: skyline certificate, then jobset analysis, candidate
/// generation, polish, certification.
pub fn solve_with(inst: &DsaInstance, opts: &BoxingOptions) -> BoxingSolution {
    let n = inst.tensors.len();
    let load = inst.lower_bound();
    let certify = |classes: usize| load.saturating_mul(2).saturating_mul(classes as u64);
    let mut sky = (opts.portfolio_max_tensors > 0).then(|| skyline::place(inst));
    if let Some((offsets, peak)) = sky.take_if(|&mut (_, peak)| peak == load) {
        // Optimal: boxing cannot beat it. Report the same `2·K·LOAD`.
        let mask = inst
            .tensors
            .iter()
            .filter(|t| t.size > 0)
            .fold(0u64, |m, t| m | 1 << class_of(t.size));
        let classes = mask.count_ones() as usize;
        return BoxingSolution {
            assignment: Assignment { offsets, peak },
            lower_bound: load,
            guarantee: certify(classes),
            stats: BoxingStats {
                n_tensors: n,
                classes,
                candidate: Candidate::BestFit,
                polish_passes: 0,
            },
        };
    }
    let classes = class_loads(inst);
    // Certified bound peak ≤ 2·K·LOAD (see module docs); the returned
    // assignment is the min over candidates that include stacked bands,
    // whose peak obeys the bound by construction.
    let guarantee = certify(classes.len());

    let (bands_off, bands_peak) = stacked_bands(inst);
    debug_assert!(bands_peak <= guarantee);
    let (boxes_off, boxes_peak) = recursive_boxes(inst);
    let mut best = (Candidate::StackedBands, bands_off, bands_peak);
    if boxes_peak < best.2 {
        best = (Candidate::RecursiveBoxes, boxes_off, boxes_peak);
    }
    if n <= opts.portfolio_max_tensors && n > 0 {
        // Within exact-search size the portfolio can afford local search.
        let bf = if n <= BnbOptions::default().max_tensors {
            heuristic::solve_by_insertion(inst)
        } else {
            heuristic::solve(inst)
        };
        if bf.peak < best.2 {
            best = (Candidate::BestFit, bf.offsets, bf.peak);
        }
    }
    if let Some((offsets, peak)) = sky {
        if peak < best.2 {
            best = (Candidate::BestFit, offsets, peak);
        }
    }
    let (candidate, mut offsets, mut peak) = best;

    let mut polish_passes = 0usize;
    if n > 0 && n <= POLISH_MAX_TENSORS {
        if let Some(adj) = IntervalIndex::new(inst).adjacency_capped(inst, POLISH_MAX_PAIRS) {
            for _ in 0..POLISH_PASSES {
                compact(inst, &adj, &mut offsets);
                polish_passes += 1;
                let new_peak = peak_of(inst, &offsets);
                debug_assert!(new_peak <= peak, "compaction must not raise the peak");
                if new_peak >= peak {
                    peak = new_peak.min(peak);
                    break;
                }
                peak = new_peak;
            }
        }
    }

    let assignment = Assignment { offsets, peak };
    debug_assert!(assignment.validate(inst).is_ok());
    debug_assert!(peak <= guarantee || n == 0);
    BoxingSolution {
        assignment,
        lower_bound: load,
        guarantee,
        stats: BoxingStats {
            n_tensors: n,
            classes: classes.len(),
            candidate,
            polish_passes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;

    fn t(id: u64, size: u64, birth: usize, death: usize) -> DsaTensor {
        DsaTensor {
            id: TensorId(id),
            size,
            birth,
            death,
        }
    }

    fn random_inst(seed: u64, n: usize, horizon: usize, max_size: u64) -> DsaInstance {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        DsaInstance {
            tensors: (0..n)
                .map(|i| {
                    let b = (next() as usize) % horizon;
                    let len = 1 + (next() as usize) % horizon;
                    t(i as u64, 1 + next() % max_size, b, b + len)
                })
                .collect(),
        }
    }

    #[test]
    fn class_of_power_of_two_boundaries() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(4), 2);
        assert_eq!(class_of(5), 3);
        assert_eq!(class_of(1 << 40), 40);
        assert_eq!(class_of((1 << 40) + 1), 41);
    }

    #[test]
    fn jobsets_counts_tracks_and_load() {
        let inst = DsaInstance {
            tensors: vec![t(0, 3, 0, 4), t(1, 4, 2, 6), t(2, 16, 1, 3)],
        };
        let js = jobsets(&inst);
        assert_eq!(js.load, inst.lower_bound());
        assert_eq!(js.classes.len(), 2);
        let c2 = &js.classes[0];
        assert_eq!((c2.class, c2.count, c2.tracks), (2, 2, 2));
        let c4 = &js.classes[1];
        assert_eq!((c4.class, c4.count, c4.tracks), (4, 1, 1));
    }

    #[test]
    fn solve_validates_and_respects_bounds_on_random_instances() {
        for seed in 1..=30u64 {
            let inst = random_inst(seed, 120, 60, 1 << 20);
            let sol = solve(&inst);
            sol.assignment.validate(&inst).unwrap();
            assert!(sol.assignment.peak >= sol.lower_bound, "seed {seed}");
            assert!(sol.assignment.peak <= sol.guarantee, "seed {seed}");
            assert_eq!(sol.assignment.peak, sol.assignment.measured_peak(&inst));
        }
    }

    #[test]
    fn solve_is_optimal_on_disjoint_and_identical_instances() {
        // All-disjoint: everything at offset 0.
        let inst = DsaInstance {
            tensors: vec![t(0, 7, 0, 1), t(1, 9, 1, 2), t(2, 5, 2, 3)],
        };
        let sol = solve(&inst);
        assert_eq!(sol.assignment.peak, 9);
        // Fully-overlapping equal power-of-two sizes: perfect stacking.
        let inst = DsaInstance {
            tensors: (0..8).map(|i| t(i, 16, 0, 10)).collect(),
        };
        let sol = solve(&inst);
        assert_eq!(sol.assignment.peak, 128);
        assert_eq!(sol.assignment.peak, sol.lower_bound);
    }

    #[test]
    fn zero_size_tensors_are_placed_at_zero() {
        let inst = DsaInstance {
            tensors: vec![t(0, 0, 0, 5), t(1, 8, 0, 5), t(2, 0, 2, 4)],
        };
        let sol = solve(&inst);
        sol.assignment.validate(&inst).unwrap();
        assert_eq!(sol.assignment.peak, 8);
        assert_eq!(sol.assignment.offsets[0], 0);
        assert_eq!(sol.assignment.offsets[2], 0);
    }

    /// The certificate's early exit reports the same `2·K·LOAD` guarantee
    /// and class count as a full solve.
    #[test]
    fn certified_exit_reports_the_boxing_guarantee() {
        // Nested lifespans over five height classes, plus a zero-size one.
        let inst = DsaInstance {
            tensors: vec![
                t(0, 100, 0, 20),
                t(1, 3, 1, 9),
                t(2, 17, 2, 5),
                t(3, 0, 3, 4),
                t(4, 1, 10, 19),
                t(5, 64, 11, 12),
            ],
        };
        let sol = solve(&inst);
        let js = jobsets(&inst);
        assert_eq!(sol.assignment.peak, js.load, "stack-shaped: optimal");
        assert_eq!(sol.stats.candidate, Candidate::BestFit);
        assert_eq!(sol.stats.polish_passes, 0);
        assert_eq!(sol.stats.classes, js.classes.len());
        assert_eq!(sol.guarantee, 2 * js.classes.len() as u64 * js.load);
        sol.assignment.validate(&inst).unwrap();
    }

    #[test]
    fn jobsets_sum_bytes_past_i64() {
        let huge = (1u64 << 63) + 1;
        let inst = DsaInstance {
            tensors: vec![t(0, huge, 0, 4), t(1, huge, 2, 6), t(2, 5, 0, 1)],
        };
        let js = jobsets(&inst);
        assert_eq!(js.load, u64::MAX);
        let top = js.classes.last().unwrap();
        assert_eq!(
            (top.class, top.tracks, top.max_live_bytes),
            (63, 2, u64::MAX)
        );
        assert_eq!(js.classes[0].max_live_bytes, 5);
    }

    #[test]
    fn empty_instance() {
        let sol = solve(&DsaInstance::default());
        assert_eq!(sol.assignment.peak, 0);
        assert_eq!(sol.guarantee, 0);
        assert_eq!(sol.stats.classes, 0);
    }

    #[test]
    fn polish_never_raises_peak_and_large_path_skips_portfolio() {
        let inst = random_inst(99, 200, 80, 1 << 12);
        // Without the portfolio, the unpolished pick is the better of the
        // two boxing candidates.
        let base = stacked_bands(&inst).1.min(recursive_boxes(&inst).1);
        let polished = solve_with(
            &inst,
            &BoxingOptions {
                portfolio_max_tensors: 0,
            },
        );
        assert!(polished.assignment.peak <= base);
        assert!(matches!(
            polished.stats.candidate,
            Candidate::RecursiveBoxes | Candidate::StackedBands
        ));
    }
}
