//! Offline Dynamic Storage Allocation: problem model.
//!
//! The MIP of §4.2 (decision variables `A_i` = address of tensor *i*,
//! indicator `z_ij` ordering each overlapping pair, objective `min M`) is
//! represented here as a geometric problem: place axis-aligned rectangles
//! (x = lifespan, fixed; y = address range, free) without overlap,
//! minimising the maximum y extent.
//!
//! The whole-trace ("flat") formulation used to be written off as
//! computationally intractable; with the streaming [`DsaInstanceBuilder`],
//! the sweep-line [`crate::index::IntervalIndex`], the O(n log n)
//! [`Assignment::validate`] and the [`crate::boxing`] solver it now scales
//! to million-interval traces.

use crate::bitset::BitTree;
use memo_model::hash::FxHashMap;
use memo_model::trace::{IterationTrace, MemOp, Request, TensorId};
use std::cmp::Reverse;

/// One tensor to place. Lifespan is the half-open index interval
/// `[birth, death)` over the request sequence's *event positions*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsaTensor {
    pub id: TensorId,
    pub size: u64,
    pub birth: usize,
    pub death: usize,
}

impl DsaTensor {
    /// Two tensors conflict iff their lifespans intersect.
    pub fn overlaps(&self, other: &DsaTensor) -> bool {
        self.birth < other.death && other.birth < self.death
    }
}

/// A DSA problem instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DsaInstance {
    pub tensors: Vec<DsaTensor>,
}

/// Streaming construction of a [`DsaInstance`] from a malloc/free event
/// stream, without materializing the flattened request vector. Each pushed
/// request advances the event cursor by one; lifespans are the half-open
/// `[birth, death)` cursor intervals.
#[derive(Debug, Default)]
pub struct DsaInstanceBuilder {
    open: FxHashMap<TensorId, (usize, u64)>,
    tensors: Vec<DsaTensor>,
    cursor: usize,
    poisoned: bool,
}

impl DsaInstanceBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one request. A `Free` without a matching `Malloc`, or a second
    /// `Malloc` of an open tensor, poisons the builder:
    /// [`finish`](Self::finish) will return `None`.
    pub fn push(&mut self, r: &Request) {
        match r.op {
            MemOp::Malloc => {
                if self.open.insert(r.tensor, (self.cursor, r.bytes)).is_some() {
                    self.poisoned = true;
                }
            }
            MemOp::Free => match self.open.remove(&r.tensor) {
                Some((birth, size)) => self.tensors.push(DsaTensor {
                    id: r.tensor,
                    size,
                    birth,
                    death: self.cursor,
                }),
                None => self.poisoned = true,
            },
        }
        self.cursor += 1;
    }

    /// Finalize. Returns `None` if any tensor is still open, a free had
    /// no matching malloc (the stream crossed a segment boundary), or a
    /// tensor was malloc'd while open.
    pub fn finish(self) -> Option<DsaInstance> {
        if self.open.is_empty() && !self.poisoned {
            Some(DsaInstance {
                tensors: self.tensors,
            })
        } else {
            None
        }
    }
}

impl DsaInstance {
    /// Build from a whole iteration trace (the "flat" whole-model
    /// formulation), streaming the requests without collecting them.
    pub fn from_trace(trace: &IterationTrace) -> DsaInstance {
        let mut b = DsaInstanceBuilder::new();
        for r in trace.flatten() {
            b.push(&r);
        }
        b.finish().expect("validated traces have no open tensors")
    }

    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Liveness lower bound: at any event point, all live tensors must fit,
    /// so `max_t Σ_{live at t} size` bounds every assignment's peak from
    /// below. (This is the clique bound on the interval-overlap graph.)
    /// Saturates at `u64::MAX`; a tensor with `death <= birth` is live at
    /// no position.
    ///
    /// One delta sweep over the positions shifted by the smallest one, when
    /// that leaves at most `2·n + 2` slots (the `dense_positions` test)
    /// and the live tensors' byte total fits a `u64`: no live sum exceeds
    /// that total, so wrapping `u64` arithmetic is exact. Sparse positions
    /// and larger totals take the rank-compressed 128-bit sweep.
    pub fn lower_bound(&self) -> u64 {
        let n = self.tensors.len();
        let (mut lo, mut hi, mut total) = (usize::MAX, 0, Some(0u64));
        for t in &self.tensors {
            lo = lo.min(t.birth).min(t.death);
            hi = hi.max(t.birth).max(t.death);
            if t.birth < t.death {
                total = total.and_then(|s| s.checked_add(t.size));
            }
        }
        if n == 0 || hi - lo > 2 * n + 1 || total.is_none() {
            let (pos, span) = self.dense_positions();
            return self.load_at(&pos, span);
        }
        let mut delta = vec![0u64; hi - lo + 1];
        for t in self.tensors.iter().filter(|t| t.birth < t.death) {
            delta[t.birth - lo] = delta[t.birth - lo].wrapping_add(t.size);
            delta[t.death - lo] = delta[t.death - lo].wrapping_sub(t.size);
        }
        let (mut live, mut peak) = (0u64, 0u64);
        for x in delta {
            live = live.wrapping_add(x);
            peak = peak.max(live);
        }
        peak
    }

    /// [`lower_bound`](Self::lower_bound) over positions from
    /// [`dense_positions`](Self::dense_positions): one delta sweep. A birth
    /// and a death at the same position net out, which is the half-open
    /// "deaths first" rule. Byte sums run in 128 bits.
    fn load_at(&self, pos: &[(usize, usize)], span: usize) -> u64 {
        let mut delta = vec![0i128; span];
        for (t, &(b, d)) in self.tensors.iter().zip(pos) {
            if b < d {
                delta[b] += i128::from(t.size);
                delta[d] -= i128::from(t.size);
            }
        }
        let (mut live, mut peak) = (0i128, 0i128);
        for x in delta {
            live += x;
            peak = peak.max(live);
        }
        u64::try_from(peak).unwrap_or(u64::MAX)
    }

    /// Call `f` on every tensor index in death-descending order (ties:
    /// birth ascending, then index), stopping at the first `false`; returns
    /// whether every call returned `true`. A builder-made instance, whose
    /// deaths strictly ascend, is walked backwards in place; any other
    /// takes one sort of its indices.
    pub(crate) fn death_descending(&self, f: impl FnMut(usize) -> bool) -> bool {
        let t = &self.tensors;
        if t.windows(2).all(|w| w[0].death < w[1].death) {
            return (0..t.len()).rev().all(f);
        }
        let mut order: Vec<usize> = (0..t.len()).collect();
        order.sort_unstable_by_key(|&i| (Reverse(t[i].death), t[i].birth, i));
        order.into_iter().all(f)
    }

    /// Every tensor's `(birth, death)` renumbered onto `0..span`, order and
    /// equality preserved. Positions are shifted by the smallest one; if
    /// that leaves more than `2·n + 2` slots, they are rank-compressed with
    /// one sort instead, so memory stays O(n) for any position values.
    pub(crate) fn dense_positions(&self) -> (Vec<(usize, usize)>, usize) {
        let n = self.tensors.len();
        let ends = || self.tensors.iter().flat_map(|t| [t.birth, t.death]);
        if n == 0 {
            return (Vec::new(), 0);
        }
        let (lo, hi) = ends().fold((usize::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)));
        if hi - lo <= 2 * n + 1 {
            let pos = self
                .tensors
                .iter()
                .map(|t| (t.birth - lo, t.death - lo))
                .collect();
            return (pos, hi - lo + 1);
        }
        // (position, 2·tensor + is_death), ranked in one sorted pass.
        let mut keys: Vec<(usize, usize)> = ends().enumerate().map(|(k, p)| (p, k)).collect();
        keys.sort_unstable();
        let mut pos = vec![(0, 0); n];
        let mut rank = 0;
        for (j, &(p, k)) in keys.iter().enumerate() {
            if j > 0 && p != keys[j - 1].0 {
                rank += 1;
            }
            let slot = &mut pos[k / 2];
            if k % 2 == 0 {
                slot.0 = rank;
            } else {
                slot.1 = rank;
            }
        }
        (pos, rank + 1)
    }

    /// Indices of tensors overlapping tensor `i`, by linear scan.
    ///
    /// Retained as the differential oracle for the sweep-line
    /// [`crate::index::IntervalIndex`], whose `adjacency` replaces it on
    /// every hot path.
    pub fn conflicts_of(&self, i: usize) -> Vec<usize> {
        let ti = self.tensors[i];
        self.tensors
            .iter()
            .enumerate()
            .filter(|&(j, tj)| j != i && ti.overlaps(tj))
            .map(|(j, _)| j)
            .collect()
    }
}

/// Tensor indices bucketed by a key in `0..span`, ascending within each
/// bucket: one counting sort. Indices must fit a `u32`.
struct Buckets {
    idx: Vec<u32>,
    /// `ends[p]` is one past bucket `p`'s last entry.
    ends: Vec<u32>,
}

impl Buckets {
    fn new(span: usize, keys: impl Iterator<Item = usize> + Clone) -> Self {
        let mut ends = vec![0u32; span + 1];
        for k in keys.clone() {
            ends[k + 1] += 1;
        }
        for p in 1..=span {
            ends[p] += ends[p - 1];
        }
        // `ends[p]` starts at bucket `p`'s first slot and is advanced past
        // each entry placed there, ending at bucket `p + 1`'s first slot.
        let mut idx = vec![0u32; ends[span] as usize];
        for (i, k) in keys.enumerate() {
            idx[ends[k] as usize] = i as u32;
            ends[k] += 1;
        }
        ends.pop();
        Buckets { idx, ends }
    }

    fn at(&self, p: usize) -> &[u32] {
        let lo = p.checked_sub(1).map_or(0, |q| self.ends[q]);
        &self.idx[lo as usize..self.ends[p] as usize]
    }
}

/// An address assignment for a [`DsaInstance`], `offsets[i]` for
/// `instance.tensors[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub offsets: Vec<u64>,
    pub peak: u64,
}

/// The live sets of [`Assignment::validate`]'s sweep, as `(offset, index)`
/// ranks: nonzero-size ranges (pairwise disjoint, since the sweep stops at
/// the first overlap) and zero-size points.
struct LiveRanks<'a> {
    offsets: &'a [u64],
    tensors: &'a [DsaTensor],
    /// `by_rank[r]` is the tensor of rank `r`.
    by_rank: &'a [u32],
    ranges: BitTree,
    points: BitTree,
}

impl LiveRanks<'_> {
    /// The first live tensor that `accept` admits and whose addresses meet
    /// tensor `i`'s `[off, end)` (rank `r`), as the `(a, b)` pair the
    /// overlap error names. Candidates come in address order: the range
    /// straddling `off`, the ranges starting in `[off, end)`, then the
    /// points strictly inside `(off, end)` (per the naive overlap formula a
    /// point conflicts with a range iff it lies strictly inside it, so
    /// points cannot be allowed to mask a range's true neighbours). When
    /// `accept` admits every live tensor, only the first of each kind is
    /// looked at.
    fn conflict(
        &self,
        i: usize,
        r: usize,
        end: u64,
        accept: impl Fn(usize) -> bool,
    ) -> Option<(usize, usize)> {
        let off = self.offsets[i];
        let at = |q: usize| self.by_rank[q] as usize;
        // The predecessor range's end did not overflow at its own birth.
        if let Some(j) = r.checked_sub(1).and_then(|x| self.ranges.pred(x)).map(at) {
            let p_off = self.offsets[j];
            if p_off < end && p_off + self.tensors[j].size > off && accept(j) {
                return Some((j, i));
            }
        }
        if end == off {
            return None;
        }
        let mut q = r + 1;
        while let Some(s) = self.ranges.succ(q) {
            let j = at(s);
            if self.offsets[j] >= end {
                break;
            }
            if accept(j) {
                return Some((i, j));
            }
            q = s + 1;
        }
        if !self.points.is_empty() {
            let mut q = self
                .by_rank
                .partition_point(|&j| self.offsets[j as usize] <= off);
            while let Some(s) = self.points.succ(q) {
                let j = at(s);
                if self.offsets[j] >= end {
                    break;
                }
                if accept(j) {
                    return Some((i, j));
                }
                q = s + 1;
            }
        }
        None
    }
}

impl Assignment {
    /// Verify the assignment: tensors whose lifespans overlap (by
    /// [`DsaTensor::overlaps`]) get disjoint address ranges, and no tensor
    /// exceeds the reported peak.
    ///
    /// Runs an O(n log n) event sweep: replay births/deaths in event order
    /// (position, deaths before births, tensor index) keeping the live
    /// tensors in address order; since the live set is pairwise disjoint by
    /// induction, a new tensor only needs to be checked against its address
    /// predecessor and successor. Address arithmetic is `checked_add` so
    /// `u64::MAX`-adjacent offsets report an error instead of overflowing.
    ///
    /// A tensor with an empty lifespan (`death <= birth`) is checked at its
    /// birth `b`, after the deaths there and before the births, against
    /// the live tensors born before its death: by `overlaps`, exactly the
    /// tensors it conflicts with. It never joins the live set (two empty
    /// lifespans never overlap). A point (`death == birth`) admits every
    /// live tensor, so it costs what a birth does; an inverted lifespan
    /// walks the live tensors under its address range.
    ///
    /// A plan that passes the O(n) decision pass `stacks_up` (the
    /// skyline's, on a stack-shaped trace) is accepted at once. Every other
    /// plan, and every invalid one, goes through the sweep, which finds the
    /// first error in event order. Its event order is a counting sort over
    /// `DsaInstance::dense_positions`, and its live sets are hierarchical
    /// bitsets over each tensor's rank in `(offset, index)` order, so its
    /// only comparison sort is the rank sort. More than `u32::MAX` tensors
    /// is an error (ranks and indices are `u32`).
    pub fn validate(&self, inst: &DsaInstance) -> Result<(), String> {
        let n = inst.tensors.len();
        if self.offsets.len() != n {
            return Err(format!(
                "assignment covers {} of {} tensors",
                self.offsets.len(),
                n
            ));
        }
        if u32::try_from(n).is_err() {
            return Err(format!(
                "{n} tensors exceed the validator's u32 index limit"
            ));
        }
        if self.stacks_up(inst) {
            return Ok(());
        }
        // `by_rank[r]` is the tensor of rank `r`: a stable sort by offset
        // breaks ties by index.
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        by_rank.sort_by_key(|&i| self.offsets[i as usize]);
        let mut rank = vec![0u32; n];
        for (r, &i) in by_rank.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let (pos, span) = inst.dense_positions();
        let deaths = Buckets::new(span, pos.iter().map(|&(_, d)| d));
        let births = Buckets::new(span, pos.iter().map(|&(b, _)| b));
        let mut live = LiveRanks {
            offsets: &self.offsets,
            tensors: &inst.tensors,
            by_rank: &by_rank,
            ranges: BitTree::new(n),
            points: BitTree::new(n),
        };
        for p in 0..span {
            for &i in deaths.at(p) {
                let r = rank[i as usize] as usize;
                if inst.tensors[i as usize].size == 0 {
                    live.points.remove(r);
                } else {
                    live.ranges.remove(r);
                }
            }
            // Empty lifespans first, then the tensors that join the live set.
            for empty_pass in [true, false] {
                for &i in births.at(p) {
                    let idx = i as usize;
                    let (b, d) = pos[idx];
                    if (d <= b) != empty_pass {
                        continue;
                    }
                    let t = &inst.tensors[idx];
                    let off = self.offsets[idx];
                    let end = off.checked_add(t.size).ok_or_else(|| {
                        format!(
                            "tensor {} at offset {} + size {} overflows the address space",
                            t.id.0, off, t.size
                        )
                    })?;
                    if end > self.peak {
                        return Err(format!(
                            "tensor {} at {}..{} exceeds peak {}",
                            t.id.0, off, end, self.peak
                        ));
                    }
                    // Every live tensor was born by `p`, before `d` unless
                    // the lifespan is empty.
                    let r = rank[idx] as usize;
                    if let Some((x, y)) = live.conflict(idx, r, end, |j| pos[j].0 < d) {
                        return Err(format!(
                            "live tensors {} and {} overlap at addresses {} and {}",
                            inst.tensors[x].id.0,
                            inst.tensors[y].id.0,
                            self.offsets[x],
                            self.offsets[y]
                        ));
                    }
                    if !empty_pass {
                        if t.size == 0 {
                            live.points.insert(r);
                        } else {
                            live.ranges.insert(r);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A sufficient test for validity: `true` only if every tensor ends
    /// within the peak and every two tensors whose lifespans overlap get
    /// disjoint addresses. `false` decides nothing.
    ///
    /// Tensors are taken in death-descending order onto a stack of
    /// `(birth, end)` entries whose address ranges ascend: each tensor must
    /// start at or above the end of the top entry. An entry born at or
    /// after the current death is live at no later position; it is popped
    /// when it reaches the top. An entry that overlaps a later tensor is
    /// born before that tensor's death, and so before every death walked
    /// until then: it is still on the stack when the later tensor is
    /// checked, below the top's end. The skyline walks the same order and puts
    /// each tensor at the highest end among the placed tensors live at its
    /// last position, which is at least the top's (the top is not stale, so
    /// it is live there): its plans pass whenever no tensor has a zero size
    /// or an empty lifespan.
    fn stacks_up(&self, inst: &DsaInstance) -> bool {
        let mut stack: Vec<(usize, u64)> = Vec::new();
        inst.death_descending(|i| {
            let t = &inst.tensors[i];
            let off = self.offsets[i];
            let Some(end) = off.checked_add(t.size).filter(|&e| e <= self.peak) else {
                return false;
            };
            while stack.last().is_some_and(|&(b, _)| b >= t.death) {
                stack.pop();
            }
            if stack.last().is_some_and(|&(_, top)| off < top) {
                return false;
            }
            stack.push((t.birth, end));
            true
        })
    }

    /// The original O(n²) validator, retained as a differential oracle for
    /// the sweep validator on small instances.
    pub fn validate_naive(&self, inst: &DsaInstance) -> Result<(), String> {
        if self.offsets.len() != inst.tensors.len() {
            return Err(format!(
                "assignment covers {} of {} tensors",
                self.offsets.len(),
                inst.tensors.len()
            ));
        }
        for (i, t) in inst.tensors.iter().enumerate() {
            let end = self.offsets[i].checked_add(t.size).ok_or_else(|| {
                format!(
                    "tensor {} at offset {} + size {} overflows the address space",
                    t.id.0, self.offsets[i], t.size
                )
            })?;
            if end > self.peak {
                return Err(format!(
                    "tensor {} at {}..{} exceeds peak {}",
                    t.id.0, self.offsets[i], end, self.peak
                ));
            }
        }
        for i in 0..inst.tensors.len() {
            for j in (i + 1)..inst.tensors.len() {
                let (a, b) = (&inst.tensors[i], &inst.tensors[j]);
                if !a.overlaps(b) {
                    continue;
                }
                let (oa, ob) = (self.offsets[i], self.offsets[j]);
                // Ends are overflow-checked above.
                if oa < ob + b.size && ob < oa + a.size {
                    return Err(format!(
                        "live tensors {} and {} overlap at addresses {} and {}",
                        a.id.0, b.id.0, oa, ob
                    ));
                }
            }
        }
        Ok(())
    }

    /// Recompute the peak from the offsets (must equal `self.peak` for a
    /// tight assignment). Saturates instead of overflowing on
    /// `u64::MAX`-adjacent offsets; [`validate`](Self::validate) is the
    /// place that reports such assignments as errors.
    pub fn measured_peak(&self, inst: &DsaInstance) -> u64 {
        inst.tensors
            .iter()
            .zip(&self.offsets)
            .map(|(t, &o)| o.saturating_add(t.size))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(id: u64, size: u64, birth: usize, death: usize) -> DsaTensor {
        DsaTensor {
            id: TensorId(id),
            size,
            birth,
            death,
        }
    }

    #[test]
    fn overlap_semantics_half_open() {
        let a = t(0, 1, 0, 5);
        let b = t(1, 1, 5, 9);
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        let c = t(2, 1, 4, 6);
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn lower_bound_is_max_liveness() {
        let inst = DsaInstance {
            tensors: vec![t(0, 10, 0, 4), t(1, 20, 2, 6), t(2, 5, 5, 8)],
        };
        // at event 2..4: tensors 0+1 live => 30; at 5: 20+5 = 25
        assert_eq!(inst.lower_bound(), 30);
    }

    /// The event-sort sweep `lower_bound` ran before dense positions, kept
    /// as its oracle, with byte sums in 128 bits that saturate at
    /// `u64::MAX` like `lower_bound`'s.
    fn lower_bound_by_event_sort(inst: &DsaInstance) -> u64 {
        let mut events: Vec<(usize, i128)> = Vec::with_capacity(inst.tensors.len() * 2);
        for t in &inst.tensors {
            events.push((t.birth, i128::from(t.size)));
            events.push((t.death, -i128::from(t.size)));
        }
        // Deaths before births at the same index: lifespans are half-open.
        events.sort_by_key(|&(i, delta)| (i, delta));
        let mut live = 0i128;
        let mut peak = 0i128;
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        u64::try_from(peak).unwrap_or(u64::MAX)
    }

    /// `lower_bound` sums in `u64` while the live tensors' byte total fits
    /// and in 128 bits past it: totals of exactly `u64::MAX` and of
    /// `u64::MAX + 1`, with overlapping and disjoint lifespans, match the
    /// oracle (an empty lifespan's bytes are live nowhere and count toward
    /// no total).
    #[test]
    fn lower_bound_at_the_u64_width_switch() {
        let half = 1u64 << 63;
        // Totals u64::MAX, u64::MAX, u64::MAX + 1, u64::MAX + 1.
        for sizes in [[half - 1, half], [u64::MAX, 0], [half, half], [u64::MAX, 1]] {
            for (birth, overlap) in [(2, true), (4, false)] {
                let inst = DsaInstance {
                    tensors: vec![
                        t(0, sizes[0], 0, 4),
                        t(1, sizes[1], birth, birth + 4),
                        t(2, u64::MAX, 3, 3),
                    ],
                };
                let want = if overlap {
                    u64::MAX
                } else {
                    sizes[0].max(sizes[1])
                };
                let case = (sizes, overlap);
                assert_eq!(inst.lower_bound(), want, "{case:?}");
                assert_eq!(lower_bound_by_event_sort(&inst), want, "{case:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Zero sizes, empty lifespans, a shifted base and sparse strides
        // (which take the rank-compression path).
        #[test]
        fn dense_lower_bound_matches_the_event_sort(
            raw in prop::collection::vec((0u64..1 << 40, 0usize..80, 0usize..24), 0..80),
            base in prop::sample::select(vec![0usize, 7, 999, usize::MAX / 4]),
            stride in prop::sample::select(vec![1usize, 2, 3, 1 << 40]),
        ) {
            let tensors = raw.iter().enumerate().map(|(i, &(size, b, len))| {
                let size = if size % 8 == 0 { 0 } else { size };
                t(i as u64, size, base + b * stride, base + (b + len) * stride)
            });
            let inst = DsaInstance { tensors: tensors.collect() };
            prop_assert_eq!(inst.lower_bound(), lower_bound_by_event_sort(&inst));
            // Dense positions keep order and equality, in O(n) slots.
            let (pos, span) = inst.dense_positions();
            prop_assert!(span <= 2 * inst.len() + 2);
            let mut ends: Vec<(usize, usize)> = inst
                .tensors
                .iter()
                .zip(&pos)
                .flat_map(|(t, &(b, d))| [(t.birth, b), (t.death, d)])
                .collect();
            ends.sort_unstable();
            prop_assert!(ends.iter().all(|&(_, x)| x < span));
            for w in ends.windows(2) {
                prop_assert_eq!(w[0].0 == w[1].0, w[0].1 == w[1].1);
                prop_assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn dense_lower_bound_matches_the_event_sort_on_chunked_traces() {
        use memo_model::chunked::{for_each_request, ChunkedParams};
        use memo_model::config::{DType, ModelConfig};
        for (seq, chunk, base) in [(1000, 256, 0), (1024, 128, 5), (999, 96, 1 << 33)] {
            let p = ChunkedParams {
                model: ModelConfig::tiny(3, 64, 4, 256),
                dtype: DType::F16,
                seq_tokens: seq,
                chunk_tokens: chunk,
            };
            let mut b = DsaInstanceBuilder::new();
            for_each_request(&p, |r| b.push(r));
            let mut inst = b.finish().unwrap();
            for t in &mut inst.tensors {
                t.birth += base;
                t.death += base;
            }
            assert_eq!(inst.lower_bound(), lower_bound_by_event_sort(&inst));
        }
    }

    #[test]
    fn lower_bound_sums_bytes_past_i64() {
        let huge = (1u64 << 63) + 1;
        let inst = DsaInstance {
            tensors: vec![t(0, huge, 0, 4), t(1, 3, 4, 6)],
        };
        assert_eq!(inst.lower_bound(), huge);
        let inst = DsaInstance {
            tensors: vec![t(0, huge, 0, 4), t(1, huge, 2, 6)],
        };
        assert_eq!(inst.lower_bound(), u64::MAX, "saturates");
    }

    #[test]
    fn lower_bound_respects_half_open_boundaries() {
        // tensor 1 born exactly when tensor 0 dies: address reuse possible.
        let inst = DsaInstance {
            tensors: vec![t(0, 10, 0, 3), t(1, 10, 3, 6)],
        };
        assert_eq!(inst.lower_bound(), 10);
    }

    #[test]
    fn validate_rejects_overlap() {
        let inst = DsaInstance {
            tensors: vec![t(0, 10, 0, 4), t(1, 10, 2, 6)],
        };
        let bad = Assignment {
            offsets: vec![0, 5],
            peak: 15,
        };
        assert!(bad.validate(&inst).is_err());
        assert!(bad.validate_naive(&inst).is_err());
        let good = Assignment {
            offsets: vec![0, 10],
            peak: 20,
        };
        good.validate(&inst).unwrap();
        good.validate_naive(&inst).unwrap();
    }

    #[test]
    fn validate_rejects_peak_violation() {
        let inst = DsaInstance {
            tensors: vec![t(0, 10, 0, 4)],
        };
        let bad = Assignment {
            offsets: vec![5],
            peak: 12,
        };
        assert!(bad.validate(&inst).is_err());
        assert!(bad.validate_naive(&inst).is_err());
    }

    #[test]
    fn validate_reports_overflow_at_u64_max_adjacent_offsets() {
        // Regression: offsets near u64::MAX used to overflow `offset + size`
        // (a debug-mode panic / release-mode wraparound masking the error).
        let inst = DsaInstance {
            tensors: vec![t(0, 8, 0, 4), t(1, 8, 2, 6)],
        };
        let bad = Assignment {
            offsets: vec![u64::MAX - 4, 0],
            peak: u64::MAX,
        };
        let err = bad.validate(&inst).unwrap_err();
        assert!(err.contains("overflow"), "unexpected error: {err}");
        let err = bad.validate_naive(&inst).unwrap_err();
        assert!(err.contains("overflow"), "unexpected error: {err}");
        // measured_peak saturates rather than wrapping to a tiny value.
        assert_eq!(bad.measured_peak(&inst), u64::MAX);
    }

    #[test]
    fn validate_sweep_handles_zero_size_and_shared_offsets() {
        let inst = DsaInstance {
            tensors: vec![t(0, 0, 0, 4), t(1, 0, 1, 5), t(2, 4, 2, 6)],
        };
        // Zero-size tensors at a nonzero range's boundaries are fine (and
        // may share an offset with each other).
        let ok = Assignment {
            offsets: vec![0, 4, 0],
            peak: 4,
        };
        ok.validate(&inst).unwrap();
        ok.validate_naive(&inst).unwrap();
        let ok2 = Assignment {
            offsets: vec![0, 0, 0],
            peak: 4,
        };
        ok2.validate(&inst).unwrap();
        ok2.validate_naive(&inst).unwrap();
        // ... but strictly inside one they count as overlap (legacy
        // semantics), and the sweep must agree with the naive oracle.
        let bad = Assignment {
            offsets: vec![3, 3, 0],
            peak: 4,
        };
        assert!(bad.validate(&inst).is_err());
        assert!(bad.validate_naive(&inst).is_err());
    }

    /// The BTreeMap event sweep `validate` ran before ranks and bitsets,
    /// kept as its differential oracle, with the same rule for empty
    /// lifespans: checked at their birth, after the deaths and before the
    /// births there, against the live tensors born before their death.
    fn validate_sweep(a: &Assignment, inst: &DsaInstance) -> Result<(), String> {
        use std::collections::BTreeMap;
        use std::ops::Bound;
        if a.offsets.len() != inst.tensors.len() {
            return Err(format!(
                "assignment covers {} of {} tensors",
                a.offsets.len(),
                inst.tensors.len()
            ));
        }
        // (position, 0 death / 1 empty lifespan / 2 birth, tensor)
        let mut events: Vec<(usize, u8, u32)> = Vec::with_capacity(inst.tensors.len() * 2);
        for (i, t) in inst.tensors.iter().enumerate() {
            if t.death <= t.birth {
                events.push((t.birth, 1, i as u32));
            } else {
                events.push((t.birth, 2, i as u32));
                events.push((t.death, 0, i as u32));
            }
        }
        events.sort_unstable();
        let mut live_nz: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        let mut live_pt: BTreeMap<(u64, u32), ()> = BTreeMap::new();
        let overlap_err = |x: usize, y: usize| {
            Err(format!(
                "live tensors {} and {} overlap at addresses {} and {}",
                inst.tensors[x].id.0, inst.tensors[y].id.0, a.offsets[x], a.offsets[y]
            ))
        };
        for (_, kind, i) in events {
            let idx = i as usize;
            let t = &inst.tensors[idx];
            let off = a.offsets[idx];
            if kind == 0 {
                if t.size == 0 {
                    live_pt.remove(&(off, i));
                } else {
                    live_nz.remove(&(off, i));
                }
                continue;
            }
            let end = off.checked_add(t.size).ok_or_else(|| {
                format!(
                    "tensor {} at offset {} + size {} overflows the address space",
                    t.id.0, off, t.size
                )
            })?;
            if end > a.peak {
                return Err(format!(
                    "tensor {} at {}..{} exceeds peak {}",
                    t.id.0, off, end, a.peak
                ));
            }
            let accept = |j: u32| inst.tensors[j as usize].birth < t.death;
            if let Some((&(p_off, p_idx), &p_end)) = live_nz.range(..(off, i)).next_back() {
                if p_off < end && p_end > off && accept(p_idx) {
                    return overlap_err(p_idx as usize, idx);
                }
            }
            if t.size > 0 {
                for (&(s_off, s_idx), _) in live_nz.range((off, i)..) {
                    if s_off >= end {
                        break;
                    }
                    if accept(s_idx) {
                        return overlap_err(idx, s_idx as usize);
                    }
                }
                let above = (Bound::Excluded((off, u32::MAX)), Bound::Unbounded);
                for (&(q_off, q_idx), _) in live_pt.range(above) {
                    if q_off >= end {
                        break;
                    }
                    if accept(q_idx) {
                        return overlap_err(idx, q_idx as usize);
                    }
                }
            }
            if kind == 2 {
                if t.size > 0 {
                    live_nz.insert((off, i), end);
                } else {
                    live_pt.insert((off, i), ());
                }
            }
        }
        Ok(())
    }

    /// `validate` returns exactly the old sweep's `Result`, error text
    /// included, and agrees with the naive validator on validity.
    fn assert_validators_agree(a: &Assignment, inst: &DsaInstance) {
        let got = a.validate(inst);
        assert_eq!(got, validate_sweep(a, inst), "{inst:?} {a:?}");
        assert_eq!(
            got.is_ok(),
            a.validate_naive(inst).is_ok(),
            "{got:?} {inst:?} {a:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Zero sizes, empty and inverted lifespans, shared positions, and
        /// offsets drawn from a few values (so that they are shared) or
        /// `u64::MAX`-adjacent.
        #[test]
        fn validate_matches_the_sweep_and_naive_oracles(
            raw in prop::collection::vec(
                (0u64..10, 0usize..16, 0usize..8, 0u8..4, 0u64..24),
                0..40,
            ),
            peak in prop::sample::select(vec![24u64, 30, u64::MAX]),
            empty in prop::sample::select(vec![false, true]),
        ) {
            // Without `empty`, every lifespan is nonempty.
            let tensors = raw.iter().enumerate().map(|(i, &(size, birth, len, kind, _))| {
                let death = match (empty, kind) {
                    (false, _) => birth + len.max(1),
                    (true, 0) => birth.saturating_sub(len),
                    (true, _) => birth + len,
                };
                t(i as u64, size.saturating_sub(3), birth, death)
            });
            let offsets = raw.iter().map(|&(_, _, _, kind, off)| {
                if kind == 1 && off < 4 { u64::MAX - off } else { off }
            });
            let inst = DsaInstance { tensors: tensors.collect() };
            assert_validators_agree(&Assignment { offsets: offsets.collect(), peak }, &inst);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Valid plans (the skyline's) and every one-offset mutation of
        /// them: each tensor moved onto another tensor's offset, or by ±1.
        #[test]
        fn validate_matches_the_oracles_on_mutated_valid_plans(
            raw in prop::collection::vec((0u64..12, 0usize..30, 0usize..10), 1..30),
            shortest in prop::sample::select(vec![0usize, 1]),
        ) {
            let tensors = raw.iter().enumerate().map(|(i, &(size, birth, len))| {
                t(i as u64, size.saturating_sub(2), birth, birth + len.max(shortest))
            });
            let inst = DsaInstance { tensors: tensors.collect() };
            let (offsets, peak) = crate::skyline::place(&inst);
            let valid = Assignment { offsets, peak };
            prop_assert!(valid.validate(&inst).is_ok());
            assert_validators_agree(&valid, &inst);
            for i in 0..inst.len() {
                let o = valid.offsets[i];
                let moves = valid.offsets.iter().copied().chain([o + 1, o.saturating_sub(1)]);
                for to in moves {
                    let mut a = valid.clone();
                    a.offsets[i] = to;
                    assert_validators_agree(&a, &inst);
                }
            }
        }
    }

    #[test]
    fn validate_matches_the_sweep_on_a_chunked_plan() {
        use memo_model::chunked::{for_each_request, ChunkedParams};
        use memo_model::config::{DType, ModelConfig};
        let p = ChunkedParams {
            model: ModelConfig::tiny(3, 64, 4, 256),
            dtype: DType::F16,
            seq_tokens: 1000,
            chunk_tokens: 128,
        };
        let mut b = DsaInstanceBuilder::new();
        for_each_request(&p, |r| b.push(r));
        let inst = b.finish().unwrap();
        let (offsets, peak) = crate::skyline::place(&inst);
        let mut a = Assignment { offsets, peak };
        assert_eq!(a.validate(&inst), Ok(()));
        assert_eq!(validate_sweep(&a, &inst), Ok(()));
        // Drop the largest tensor onto the one below it.
        let top = (0..inst.len()).max_by_key(|&i| a.offsets[i]).unwrap();
        a.offsets[top] = a.offsets[top].saturating_sub(1);
        let err = a.validate(&inst);
        assert!(err.is_err());
        assert_eq!(err, validate_sweep(&a, &inst));
    }

    /// The skyline's plans of chunked traces pass the O(n) decision pass,
    /// in stored order and shuffled (where the order takes a sort), so
    /// `validate` accepts them without the sweep; a plan with one tensor
    /// dropped onto the one below it does not.
    #[test]
    fn skyline_plans_of_chunked_traces_stack_up() {
        use memo_model::chunked::{for_each_request, ChunkedParams};
        use memo_model::config::{DType, ModelConfig};
        for (seq, chunk) in [(1000, 128), (1024, 256), (999, 97)] {
            let p = ChunkedParams {
                model: ModelConfig::tiny(3, 64, 4, 256),
                dtype: DType::F16,
                seq_tokens: seq,
                chunk_tokens: chunk,
            };
            let mut b = DsaInstanceBuilder::new();
            for_each_request(&p, |r| b.push(r));
            let mut inst = b.finish().unwrap();
            for shuffled in [false, true] {
                if shuffled {
                    let n = inst.len();
                    for i in 0..n {
                        inst.tensors.swap(i, (i * 7919 + 13) % n);
                    }
                }
                let (offsets, peak) = crate::skyline::place(&inst);
                let mut a = Assignment { offsets, peak };
                assert!(a.stacks_up(&inst), "{seq}/{chunk} shuffled {shuffled}");
                let top = (0..inst.len()).max_by_key(|&i| a.offsets[i]).unwrap();
                a.offsets[top] -= 1;
                assert!(!a.stacks_up(&inst), "{seq}/{chunk} shuffled {shuffled}");
            }
        }
    }

    #[test]
    fn finish_rejects_cross_boundary() {
        use memo_model::trace::{Request, Sym};
        for (op, why) in [
            (MemOp::Malloc, "an open tensor"),
            (MemOp::Free, "a free without malloc poisons the builder"),
        ] {
            let mut b = DsaInstanceBuilder::new();
            b.push(&Request {
                op,
                tensor: TensorId(0),
                bytes: 8,
                label: Sym::EMPTY,
            });
            assert!(b.finish().is_none(), "{why}");
        }
    }

    #[test]
    fn finish_rejects_a_double_malloc() {
        use memo_model::trace::{Request, Sym};
        let mut b = DsaInstanceBuilder::new();
        for op in [MemOp::Malloc, MemOp::Malloc, MemOp::Free] {
            b.push(&Request {
                op,
                tensor: TensorId(0),
                bytes: 8,
                label: Sym::EMPTY,
            });
        }
        assert!(b.finish().is_none(), "the first lifespan was dropped");
    }

    #[test]
    fn builder_lifespans_are_half_open_cursor_intervals() {
        use memo_model::trace::{Request, Sym};
        let mut b = DsaInstanceBuilder::new();
        for (op, id, bytes) in [
            (MemOp::Malloc, 0, 16),
            (MemOp::Malloc, 1, 8),
            (MemOp::Free, 0, 16),
            (MemOp::Malloc, 2, 4),
            (MemOp::Free, 2, 4),
            (MemOp::Free, 1, 8),
        ] {
            b.push(&Request {
                op,
                tensor: TensorId(id),
                bytes,
                label: Sym::EMPTY,
            });
        }
        // Tensors in free order, `[birth, death)` over push positions from 0.
        assert_eq!(
            b.finish().unwrap().tensors,
            vec![t(0, 16, 0, 2), t(2, 4, 3, 4), t(1, 8, 1, 5)]
        );
    }
}
