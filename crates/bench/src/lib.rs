//! # memo-bench — experiment regeneration harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the
//! index), plus `speed_gates`, the release-mode wall-clock gates of the
//! fast paths. This library holds the shared sweep driver, table
//! formatting, the paper's reported numbers (embedded for side-by-side
//! "paper vs reproduced" output) and the cell inputs that the speed gates
//! share with the differential tests.

pub mod inputs;
pub mod paper;
pub mod sweep;

use memo_core::outcome::CellOutcome;

/// Render an outcome like the paper's Table 3 cells.
pub fn cell_text(out: &CellOutcome) -> String {
    match out {
        CellOutcome::Ok(m) => format!("{:5.2}% {:>9.2}", m.mfu * 100.0, m.tgs),
        CellOutcome::Oom { .. } => "X_oom".to_string(),
        CellOutcome::Oohm { .. } => "X_oohm".to_string(),
        CellOutcome::NoValidStrategy => "X_cfg".to_string(),
        CellOutcome::Degenerate { .. } => "X_time".to_string(),
    }
}

/// Sequence-length label, e.g. 1024 → "1024K".
pub fn sk(s_k: u64) -> String {
    format!("{s_k}K")
}
