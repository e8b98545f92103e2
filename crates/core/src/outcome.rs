//! Run outcomes: success metrics, or the two failure modes of Tables 3/4
//! (`X_oom` — GPU memory exhausted; `X_oohm` — host memory exhausted).

use crate::metrics::Metrics;

/// Outcome of one (system, model, #GPUs, sequence length, strategy) cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    Ok(Metrics),
    /// GPU out-of-memory, with the shortfall diagnostics.
    Oom {
        needed: u64,
        capacity: u64,
    },
    /// Host (CPU) out-of-memory.
    Oohm {
        needed: u64,
        capacity: u64,
    },
    /// The strategy search space was empty: no parallel configuration is
    /// valid for the workload (e.g. attention heads not divisible).
    NoValidStrategy,
    /// The simulated iteration time came out zero, negative, or non-finite,
    /// so MFU/TGS are undefined. Carried as a reported failure (`X_time`)
    /// instead of the process abort it used to be.
    Degenerate {
        iter_secs: f64,
    },
}

impl CellOutcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    pub fn metrics(&self) -> Option<&Metrics> {
        match self {
            CellOutcome::Ok(m) => Some(m),
            _ => None,
        }
    }

    pub fn mfu(&self) -> Option<f64> {
        self.metrics().map(|m| m.mfu)
    }

    /// Rank failures from least-bad to worst: any OOHM before any OOM
    /// (host gave out while the GPU fit), smaller shortfalls first within
    /// each kind, then degenerate timings, then the empty search space.
    /// `Ok` ranks 0 — strictly below every failure — so min-by-rank over a
    /// mixed cell set never prefers a failure to a success.
    pub fn failure_rank(&self) -> u128 {
        let kind_penalty = 1u128 << 64;
        match self {
            CellOutcome::Ok(_) => 0,
            CellOutcome::Oohm { needed, capacity } => needed.saturating_sub(*capacity) as u128,
            CellOutcome::Oom { needed, capacity } => {
                kind_penalty + needed.saturating_sub(*capacity) as u128
            }
            // A degenerate iteration time is a simulator-level anomaly,
            // worse than any concrete memory shortfall but still more
            // informative than an empty search space.
            CellOutcome::Degenerate { .. } => u128::MAX - 1,
            CellOutcome::NoValidStrategy => u128::MAX,
        }
    }

    /// Every outcome kind: `ok`, then the failures' table labels, in the
    /// order [`Self::kind`] indexes them.
    pub const KINDS: [&'static str; 5] = ["ok", "X_oom", "X_oohm", "X_cfg", "X_time"];

    /// This outcome's index in [`Self::KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            CellOutcome::Ok(_) => 0,
            CellOutcome::Oom { .. } => 1,
            CellOutcome::Oohm { .. } => 2,
            CellOutcome::NoValidStrategy => 3,
            CellOutcome::Degenerate { .. } => 4,
        }
    }

    /// Render like the paper's table cells: "52.34% / 1786.2" or "X_oom".
    pub fn cell(&self) -> String {
        match self {
            CellOutcome::Ok(m) => format!("{:.2}% {:>8.2}", m.mfu * 100.0, m.tgs),
            failure => Self::KINDS[failure.kind()].into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rendering() {
        let oom = CellOutcome::Oom {
            needed: 100,
            capacity: 50,
        };
        assert_eq!(oom.cell(), "X_oom");
        assert!(!oom.is_ok());
        assert!(oom.mfu().is_none());
        let degenerate = CellOutcome::Degenerate { iter_secs: 0.0 };
        assert_eq!(degenerate.cell(), "X_time");
        assert_eq!(CellOutcome::KINDS[oom.kind()], "X_oom");
        assert_eq!(
            CellOutcome::KINDS[CellOutcome::NoValidStrategy.kind()],
            "X_cfg"
        );
        assert!(!degenerate.is_ok());
    }
}
