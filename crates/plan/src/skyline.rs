//! Longest-surviving-first skyline placement: the certificate that runs
//! before boxing.
//!
//! Tensors are taken in death-descending order (ties: birth ascending,
//! then index) and each one is put directly on top of the highest tensor
//! already placed in its lifespan. The "skyline" is that height as a step
//! function of the event position. Token-chunked and other stack-shaped
//! traces — every tensor freed before anything allocated earlier that is
//! still live, transients nested inside carried outputs — make this
//! placement optimal: a tensor lands on exactly the tensors live with it,
//! so the peak is the liveness bound `LOAD`, and `peak == LOAD` is then
//! its own proof.
//!
//! The step function lives on dense positions
//! ([`DsaInstance::dense_positions`]): a hierarchical bitset of segment
//! starts plus one height per start. Placing `[b, d)` splits the steps at
//! `b` and `d`, takes the maximum over the starts in `[b, d)`, deletes the
//! starts in `(b, d)` and writes the new top at `b`. Each start is inserted
//! once and deleted at most once, so the whole placement is O(n log n),
//! dominated by the order sort (nearly free for builder-made instances,
//! which arrive sorted by ascending death).

use crate::bitset::BitTree;
use crate::dsa::DsaInstance;
use std::cmp::Reverse;

/// The skyline: `top[s]` is the height on `[s, next start)` for every
/// start `s`. Position 0 is always a start, so every position has one.
struct Skyline {
    starts: BitTree,
    top: Vec<u64>,
}

impl Skyline {
    fn new(span: usize) -> Self {
        let mut starts = BitTree::new(span);
        starts.insert(0);
        Skyline {
            starts,
            top: vec![0; span],
        }
    }

    fn height(&self, x: usize) -> u64 {
        self.top[self.starts.pred(x).unwrap_or(0)]
    }

    fn split(&mut self, x: usize) {
        if !self.starts.contains(x) {
            self.top[x] = self.height(x);
            self.starts.insert(x);
        }
    }

    /// Put `size` bytes on `[b, d)` (`b < d`) on top of everything there;
    /// returns the offset.
    fn place(&mut self, b: usize, d: usize, size: u64) -> u64 {
        self.split(d);
        self.split(b);
        let mut base = self.top[b];
        while let Some(s) = self.starts.succ(b + 1).filter(|&s| s < d) {
            base = base.max(self.top[s]);
            self.starts.remove(s);
        }
        self.top[b] = base.saturating_add(size);
        base
    }
}

/// Skyline placement of `inst` over its [`DsaInstance::dense_positions`]
/// `pos`/`span`. Returns the offsets and their peak (saturating).
///
/// A zero-size tensor occupies no address space: it sits at 0, which
/// conflicts with nothing, and leaves the skyline unchanged.
///
/// A tensor with an empty lifespan (`death == birth`; `death < birth` is
/// treated alike) sits at its death point `p` and conflicts only with tensors live strictly around it
/// (`birth < p < death`, the [`DsaInstance::conflicts_of`] rule). All of
/// those die after `p`, so they were placed before any tensor dying at
/// `p`; the point tensor takes the height just below `p` as it stood
/// then, and — since nothing placed later conflicts with it — leaves the
/// skyline unchanged.
pub(crate) fn place(inst: &DsaInstance, pos: &[(usize, usize)], span: usize) -> (Vec<u64>, u64) {
    let n = inst.tensors.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| (Reverse(pos[i].1), pos[i].0, i));
    let has_points = pos.iter().any(|&(b, d)| d <= b);
    let mut sky = Skyline::new(span);
    let mut offsets = vec![0u64; n];
    let mut peak = 0u64;
    // Height just below the current death point, read before any tensor
    // dying there was placed (only needed for point tensors).
    let (mut death, mut below) = (usize::MAX, 0u64);
    for i in order {
        let (b, d) = pos[i];
        let size = inst.tensors[i].size;
        if has_points && d != death {
            death = d;
            below = d.checked_sub(1).map_or(0, |x| sky.height(x));
        }
        let off = if size == 0 {
            0
        } else if b < d {
            sky.place(b, d, size)
        } else {
            below
        };
        offsets[i] = off;
        peak = peak.max(off.saturating_add(size));
    }
    (offsets, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaTensor;
    use memo_model::trace::TensorId;
    use proptest::prelude::*;

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
        let (pos, span) = inst.dense_positions();
        place(inst, &pos, span)
    }

    /// Random instances: zero sizes, empty lifespans and, with `base`, a
    /// shifted or sparse position range.
    fn inst_strategy(base: usize, stride: usize) -> impl Strategy<Value = DsaInstance> {
        prop::collection::vec((0u64..64, 0usize..40, 0usize..12), 0..60).prop_map(move |raw| {
            DsaInstance {
                tensors: raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (size, birth, len))| DsaTensor {
                        id: TensorId(i as u64),
                        size: size.saturating_sub(8),
                        birth: base + birth * stride,
                        death: base + (birth + len) * stride,
                    })
                    .collect(),
            }
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

        #[test]
        fn skyline_matches_the_oracle_on_sparse_positions(
            inst in inst_strategy(usize::MAX / 4, 1 << 40),
        ) {
            let (pos, span) = inst.dense_positions();
            prop_assert!(span <= 2 * inst.len() + 2, "dense positions are O(n)");
            prop_assert_eq!(place(&inst, &pos, span).0, oracle(&inst));
        }
    }

    /// Laminar instances (any two lifespans nested or disjoint) plan at
    /// the liveness bound.
    #[test]
    fn laminar_instances_plan_at_the_liveness_bound() {
        fn nest(out: &mut Vec<DsaTensor>, lo: usize, hi: usize, depth: u32, seed: &mut u64) {
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
            let mid = lo + 2 + (*seed >> 20) as usize % (hi - lo - 3);
            nest(out, lo + 1, mid, depth - 1, seed);
            nest(out, mid, hi - 1, depth - 1, seed);
        }
        for s in 1..=20u64 {
            let (mut tensors, mut seed) = (Vec::new(), s);
            nest(&mut tensors, 0, 400, 7, &mut seed);
            let inst = DsaInstance { tensors };
            let (offsets, peak) = skyline_of(&inst);
            assert_eq!(peak, inst.lower_bound(), "seed {s}");
            crate::dsa::Assignment { offsets, peak }
                .validate(&inst)
                .unwrap();
        }
    }
}
