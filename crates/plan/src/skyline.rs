//! Longest-surviving-first skyline placement: the certificate that runs
//! before boxing.
//!
//! Tensors are taken in death-descending order (ties: birth ascending,
//! then index) and each one is put directly on top of the highest tensor
//! already placed in its lifespan. The "skyline" is that height as a step
//! function of the event position. Every placed tensor that overlaps a new
//! one `[b, d)` dies at or after `d`, so it is live at `d − 1`: the new
//! tensor lands on the highest top among the placed tensors live at its
//! last position. Token-chunked and other stack-shaped traces make this
//! placement optimal — no tensor dies inside a gap the order leaves below a
//! tensor (DESIGN.md §2i) — so the peak is the liveness bound `LOAD`, and
//! `peak == LOAD` is then its own proof.
//!
//! Nothing at or past the current death is read again, so the step
//! function is kept only over `[0, current death)`, as a stack of
//! `(start, height)` segments with ascending starts (positions below the
//! first start have height 0). Placing `[b, d)` pops the segments starting
//! at or after `b`, takes the maximum of those starting before `d` together
//! with the segment left covering `b`, and pushes `(b, top)`. Each tensor
//! pushes at most one segment and each segment is popped at most once, so
//! the placement is O(n) after the order and its scratch is the stack,
//! O(depth) on a stack-shaped trace. Positions are compared, never indexed,
//! so they need no renumbering. The order is the stored order reversed for
//! builder-made instances, whose deaths strictly ascend
//! ([`DsaInstance::death_descending`]).

use crate::dsa::DsaInstance;

/// The skyline over `[0, current death)`: `(start, height)` segments with
/// ascending starts, each running up to the next start.
#[derive(Default)]
struct Skyline {
    segments: Vec<(usize, u64)>,
}

impl Skyline {
    /// Height of the last segment (0 when there is none).
    fn last_height(&self) -> u64 {
        self.segments.last().map_or(0, |&(_, h)| h)
    }

    /// Forget the segments starting at or after `d` (the caller reads only
    /// positions below `d` from now on); returns the height just below `d`.
    fn cut(&mut self, d: usize) -> u64 {
        while self.segments.last().is_some_and(|&(s, _)| s >= d) {
            self.segments.pop();
        }
        self.last_height()
    }

    /// Put `size` bytes on `[b, d)` (`b < d`, `d` at most every earlier
    /// call's) on top of everything there; returns the offset: the
    /// highest of the segments starting in `[b, d)` and the one covering
    /// `b`.
    fn place(&mut self, b: usize, d: usize, size: u64) -> u64 {
        let mut base = self.cut(d);
        while self.segments.last().is_some_and(|&(s, _)| s >= b) {
            self.segments.pop();
            base = base.max(self.last_height());
        }
        self.segments.push((b, base.saturating_add(size)));
        base
    }
}

/// Skyline placement of `inst`. Returns the offsets and their peak
/// (saturating).
///
/// A zero-size tensor occupies no address space: it sits at 0, which
/// conflicts with nothing, and leaves the skyline unchanged.
///
/// A tensor with an empty lifespan (`death == birth`; `death < birth` is
/// treated alike) sits at its death point `p` and conflicts only with
/// tensors live strictly around it (`birth < p < death`, the
/// [`DsaInstance::conflicts_of`] rule). All of those die after `p`, so
/// they were placed before any tensor dying at `p`; the point tensor takes
/// the height just below `p` as it stood then, and — since nothing placed
/// later conflicts with it — leaves the skyline unchanged. A builder-made
/// instance has no empty lifespans, so it is not scanned for them.
pub(crate) fn place(inst: &DsaInstance) -> (Vec<u64>, u64) {
    let has_points = inst.has_empty_lifespans();
    let mut sky = Skyline::default();
    let mut offsets = vec![0u64; inst.len()];
    let mut peak = 0u64;
    // Height just below the current death point, read before any tensor
    // dying there was placed (only needed for point tensors). The first
    // death, `usize::MAX`, is past every position.
    let (mut death, mut below) = (usize::MAX, 0u64);
    inst.death_descending(|i| {
        let t = &inst.tensors[i];
        let (b, d) = (t.birth as usize, t.death as usize);
        if has_points && d != death {
            death = d;
            below = sky.cut(death);
        }
        let off = if t.size == 0 {
            0
        } else if b < d {
            sky.place(b, d, t.size)
        } else {
            below
        };
        offsets[i] = off;
        peak = peak.max(off.saturating_add(t.size));
        true
    });
    (offsets, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Quadratic oracle: the same order, each tensor at the highest top
    /// among its already placed `conflicts_of` neighbours (a zero-size
    /// tensor at 0).
    fn oracle(inst: &DsaInstance) -> Vec<u64> {
        let n = inst.tensors.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let t = &inst.tensors[i];
            (Reverse(t.death), t.birth, i)
        });
        let mut offsets: Vec<Option<u64>> = vec![None; n];
        for i in order {
            if inst.tensors[i].size == 0 {
                offsets[i] = Some(0);
                continue;
            }
            let base = inst
                .conflicts_of(i)
                .into_iter()
                .filter_map(|j| offsets[j].map(|o| o.saturating_add(inst.tensors[j].size)))
                .max()
                .unwrap_or(0);
            offsets[i] = Some(base);
        }
        offsets.into_iter().map(|o| o.unwrap_or(0)).collect()
    }

    fn skyline_of(inst: &DsaInstance) -> (Vec<u64>, u64) {
        place(inst)
    }

    /// Random instances: zero sizes, empty lifespans and, with `base`, a
    /// shifted or sparse position range.
    fn inst_strategy(base: u32, stride: u32) -> impl Strategy<Value = DsaInstance> {
        prop::collection::vec((0u64..64, 0u32..40, 0u32..12), 0..60).prop_map(move |raw| {
            DsaInstance::new(
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (size, birth, len))| DsaTensor {
                        id: TensorId(i as u64),
                        size: size.saturating_sub(8),
                        birth: base + birth * stride,
                        death: base + (birth + len) * stride,
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn skyline_matches_the_quadratic_oracle(inst in inst_strategy(0, 1)) {
            let (offsets, peak) = skyline_of(&inst);
            prop_assert_eq!(&offsets, &oracle(&inst));
            let a = crate::dsa::Assignment { offsets, peak };
            prop_assert_eq!(peak, a.measured_peak(&inst));
            prop_assert!(a.validate(&inst).is_ok());
            prop_assert!(a.validate_naive(&inst).is_ok());
        }

        /// Positions `1 << 24` apart whose largest `birth + len` (50)
        /// lands on `u32::MAX`: any two distinct ones are further apart
        /// than `2·n + 2` slots, so dense positions are ranks.
        #[test]
        fn skyline_matches_the_oracle_on_sparse_positions(
            inst in inst_strategy(u32::MAX - 50 * (1 << 24), 1 << 24),
        ) {
            let (_, span) = inst.dense_positions();
            prop_assert!(span <= 2 * inst.len() + 2, "dense positions are O(n)");
            let mut distinct: Vec<u32> = inst.tensors.iter().flat_map(|t| [t.birth, t.death]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() > 1 {
                prop_assert_eq!(span, distinct.len(), "ranks, not shifted positions");
            }
            prop_assert_eq!(place(&inst).0, oracle(&inst));
        }
    }

    /// Token-chunked traces of tiny models: random layer counts, widths,
    /// chunk sizes and chunk counts, the last chunk often partial.
    fn chunked_strategy() -> impl Strategy<Value = DsaInstance> {
        let shape = (1usize..4, 1usize..5, 1u64..64, 1u64..12, 0u64..64);
        shape.prop_map(|(layers, width, chunk, chunks, short)| {
            use memo_model::chunked::{for_each_request, ChunkedParams};
            use memo_model::config::{DType, ModelConfig};
            let p = ChunkedParams {
                model: ModelConfig::tiny(layers, 16 * width, 2, 64),
                dtype: DType::F16,
                seq_tokens: chunks * chunk - short % chunk,
                chunk_tokens: chunk,
            };
            let mut b = crate::DsaInstanceBuilder::new();
            for_each_request(&p, |r| b.push(r));
            b.finish().expect("chunked traces are balanced")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The segment stack on the stack-shaped traces it is built for:
        /// the oracle's offsets, at the liveness bound.
        #[test]
        fn skyline_matches_the_oracle_on_chunked_traces(inst in chunked_strategy()) {
            let (offsets, peak) = place(&inst);
            prop_assert_eq!(&offsets, &oracle(&inst));
            prop_assert_eq!(peak, inst.lower_bound());
        }
    }

    /// Laminar instances (any two lifespans nested or disjoint) plan at
    /// the liveness bound.
    #[test]
    fn laminar_instances_plan_at_the_liveness_bound() {
        fn nest(out: &mut Vec<DsaTensor>, lo: u32, hi: u32, depth: u32, seed: &mut u64) {
            *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            out.push(DsaTensor {
                id: TensorId(out.len() as u64),
                size: 1 + (*seed >> 40) % 1000,
                birth: lo,
                death: hi,
            });
            if depth == 0 || hi - lo < 4 {
                return;
            }
            let mid = lo + 2 + ((*seed >> 20) % u64::from(hi - lo - 3)) as u32;
            nest(out, lo + 1, mid, depth - 1, seed);
            nest(out, mid, hi - 1, depth - 1, seed);
        }
        for s in 1..=20u64 {
            let (mut tensors, mut seed) = (Vec::new(), s);
            nest(&mut tensors, 0, 400, 7, &mut seed);
            let inst = DsaInstance::new(tensors);
            let (offsets, peak) = skyline_of(&inst);
            assert_eq!(peak, inst.lower_bound(), "seed {s}");
            crate::dsa::Assignment { offsets, peak }
                .validate(&inst)
                .unwrap();
        }
    }
}
