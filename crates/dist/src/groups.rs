//! The rank grid and communication groups.
//!
//! Ranks are laid out Megatron-style with TP innermost:
//!
//! ```text
//! rank = ((dp · PP + pp) · CP + cp) · TP + tp
//! ```
//!
//! so a TP group is a contiguous run of ranks (it must sit inside one node
//! for NVLink), and DP groups stride the furthest apart.

/// One rank's coordinates in the 4-D parallelism grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCoords {
    pub dp: usize,
    pub pp: usize,
    pub cp: usize,
    pub tp: usize,
}

/// The grid: world size and per-axis degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankGrid {
    pub tp: usize,
    pub cp: usize,
    pub pp: usize,
    pub dp: usize,
}

/// Communication axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Tp,
    Cp,
    Pp,
    Dp,
}

impl RankGrid {
    pub fn world(&self) -> usize {
        self.tp * self.cp * self.pp * self.dp
    }

    /// Rank of the given coordinates.
    pub fn rank_of(&self, c: RankCoords) -> usize {
        ((c.dp * self.pp + c.pp) * self.cp + c.cp) * self.tp + c.tp
    }

    /// Coordinates of `rank`.
    pub fn coords_of(&self, rank: usize) -> RankCoords {
        assert!(rank < self.world());
        let tp = rank % self.tp;
        let rest = rank / self.tp;
        let cp = rest % self.cp;
        let rest = rest / self.cp;
        let pp = rest % self.pp;
        let dp = rest / self.pp;
        RankCoords { dp, pp, cp, tp }
    }

    /// The ranks sharing every coordinate with `rank` except `axis`.
    fn group_of(&self, rank: usize, axis: Axis) -> Vec<usize> {
        let c = self.coords_of(rank);
        let n = match axis {
            Axis::Tp => self.tp,
            Axis::Cp => self.cp,
            Axis::Pp => self.pp,
            Axis::Dp => self.dp,
        };
        (0..n)
            .map(|i| {
                let mut cc = c;
                match axis {
                    Axis::Tp => cc.tp = i,
                    Axis::Cp => cc.cp = i,
                    Axis::Pp => cc.pp = i,
                    Axis::Dp => cc.dp = i,
                }
                self.rank_of(cc)
            })
            .collect()
    }

    /// All distinct groups along `axis`.
    pub fn groups(&self, axis: Axis) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.world()];
        let mut out = Vec::new();
        for r in 0..self.world() {
            if seen[r] {
                continue;
            }
            let g = self.group_of(r, axis);
            for &m in &g {
                seen[m] = true;
            }
            out.push(g);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RankGrid {
        RankGrid {
            tp: 4,
            cp: 2,
            pp: 1,
            dp: 2,
        }
    }

    #[test]
    fn rank_coords_roundtrip() {
        let g = grid();
        for r in 0..g.world() {
            assert_eq!(g.rank_of(g.coords_of(r)), r);
        }
    }

    #[test]
    fn tp_groups_are_contiguous() {
        let g = grid();
        let tp0 = g.group_of(0, Axis::Tp);
        assert_eq!(tp0, vec![0, 1, 2, 3]);
        let tp5 = g.group_of(5, Axis::Tp);
        assert_eq!(tp5, vec![4, 5, 6, 7]);
    }

    #[test]
    fn groups_partition_world() {
        let g = grid();
        for axis in [Axis::Tp, Axis::Cp, Axis::Pp, Axis::Dp] {
            let groups = g.groups(axis);
            let mut all: Vec<usize> = groups.iter().flatten().cloned().collect();
            all.sort_unstable();
            assert_eq!(all, (0..g.world()).collect::<Vec<_>>(), "{axis:?}");
        }
    }

    #[test]
    fn group_sizes_match_degrees() {
        let g = grid();
        assert_eq!(g.group_of(3, Axis::Tp).len(), 4);
        assert_eq!(g.group_of(3, Axis::Cp).len(), 2);
        assert_eq!(g.group_of(3, Axis::Dp).len(), 2);
        assert_eq!(g.groups(Axis::Tp).len(), 4); // 16 / 4
    }
}
