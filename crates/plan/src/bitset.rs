//! A hierarchical 64-ary bitset over `0..universe`: O(log₆₄ n) insert,
//! remove, successor and predecessor. [`crate::dsa::Assignment::validate`]'s
//! event sweep keeps its live tensors' `(offset, index)` ranks in two. (The
//! skyline keeps its segments on a stack and needs no set.)

/// A set of positions in `0..universe` as a hierarchy of 64-ary bitsets:
/// a set bit at level `k + 1` marks a nonzero word at level `k`.
pub(crate) struct BitTree {
    levels: Vec<Vec<u64>>,
}

impl BitTree {
    pub(crate) fn new(universe: usize) -> Self {
        let mut levels = Vec::new();
        let mut words = universe.div_ceil(64).max(1);
        loop {
            levels.push(vec![0u64; words]);
            if words == 1 {
                return BitTree { levels };
            }
            words = words.div_ceil(64);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.levels.last().is_none_or(|top| top[0] == 0)
    }

    pub(crate) fn insert(&mut self, mut x: usize) {
        for level in &mut self.levels {
            let word = &mut level[x >> 6];
            let was_empty = *word == 0;
            *word |= 1 << (x & 63);
            if !was_empty {
                return;
            }
            x >>= 6;
        }
    }

    pub(crate) fn remove(&mut self, mut x: usize) {
        for level in &mut self.levels {
            let word = &mut level[x >> 6];
            *word &= !(1 << (x & 63));
            if *word != 0 {
                return;
            }
            x >>= 6;
        }
    }

    /// Smallest member `>= x`.
    pub(crate) fn succ(&self, mut x: usize) -> Option<usize> {
        let mut k = 0;
        loop {
            let words = self.levels.get(k)?;
            let w = words.get(x >> 6)? & (u64::MAX << (x & 63));
            if w != 0 {
                x = (x & !63) | w.trailing_zeros() as usize;
                break;
            }
            x = (x >> 6) + 1;
            k += 1;
        }
        while k > 0 {
            k -= 1;
            x = (x << 6) | self.levels[k][x].trailing_zeros() as usize;
        }
        Some(x)
    }

    /// Largest member `<= x`.
    pub(crate) fn pred(&self, mut x: usize) -> Option<usize> {
        let mut k = 0;
        loop {
            let words = self.levels.get(k)?;
            let w = words[x >> 6] & (u64::MAX >> (63 - (x & 63)));
            if w != 0 {
                x = (x & !63) | (63 - w.leading_zeros() as usize);
                break;
            }
            x = (x >> 6).checked_sub(1)?;
            k += 1;
        }
        while k > 0 {
            k -= 1;
            x = (x << 6) | (63 - self.levels[k][x].leading_zeros() as usize);
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succ_and_pred_cross_every_level() {
        let universe = 64 * 64 * 64 + 5;
        let mut s = BitTree::new(universe);
        assert_eq!(s.levels.len(), 4);
        for x in [0, 63, 64, 4095, 4096, 262_143, universe - 1] {
            s.insert(x);
            assert_eq!(s.succ(x), Some(x));
        }
        assert_eq!(s.succ(1), Some(63));
        assert_eq!(s.succ(65), Some(4095));
        assert_eq!(s.succ(4097), Some(262_143));
        assert_eq!(s.succ(262_144), Some(universe - 1));
        assert_eq!(s.succ(universe), None);
        assert_eq!(s.pred(262_142), Some(4096));
        assert_eq!(s.pred(universe - 2), Some(262_143));
        s.remove(262_143);
        s.remove(4096);
        assert_eq!(s.succ(4096), Some(universe - 1));
        assert_eq!(s.pred(universe - 2), Some(4095));
        s.remove(0);
        assert_eq!(s.pred(62), None);
    }
}
