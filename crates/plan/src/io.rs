//! Memory-plan serialisation (the planner → executor hand-off of Figure 10).
//!
//! ```text
//! # memo-plan v1
//! peak <bytes>
//! place <tensor_id> <offset> <bytes>
//! ```

use crate::memplan::{MemoryPlan, PlannedTensor};
use memo_model::trace::TensorId;
use std::collections::HashSet;
use std::io::{self, BufRead, BufWriter, Write};

const HEADER: &str = "# memo-plan v1";

/// Write a plan in the v1 text format (placements sorted for determinism).
pub fn write_plan<W: Write>(plan: &MemoryPlan, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{HEADER}")?;
    writeln!(w, "peak {}", plan.peak)?;
    for (id, p) in plan.placements() {
        writeln!(w, "place {} {} {}", id.0, p.offset, p.bytes)?;
    }
    w.flush()
}

/// Plan parse failure with a line number.
#[derive(Debug)]
pub struct PlanParseError {
    line: usize,
    message: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PlanParseError {}

/// Read a plan written by [`write_plan`].
pub fn read_plan<R: BufRead>(r: R) -> Result<MemoryPlan, PlanParseError> {
    let err = |line: usize, message: &str| PlanParseError {
        line,
        message: message.to_string(),
    };
    let mut peak: Option<u64> = None;
    let mut placements: Vec<(TensorId, PlannedTensor)> = Vec::new();
    let mut seen: HashSet<TensorId> = HashSet::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| err(i + 1, &e.to_string()))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            if line != HEADER {
                return Err(err(1, "missing memo-plan header"));
            }
            continue;
        }
        let mut parts = line.split(' ');
        match parts.next() {
            Some("peak") => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad peak"))?;
                peak = Some(v);
            }
            Some("place") => {
                let id: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad tensor id"))?;
                let offset: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad offset"))?;
                let bytes: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(i + 1, "bad size"))?;
                if !seen.insert(TensorId(id)) {
                    return Err(err(i + 1, "duplicate placement"));
                }
                placements.push((TensorId(id), PlannedTensor { offset, bytes }));
            }
            _ => return Err(err(i + 1, "unrecognised directive")),
        }
    }
    let peak = peak.ok_or_else(|| err(0, "missing peak"))?;
    Ok(MemoryPlan::new(placements, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilevel::plan_iteration;
    use memo_model::activations::LayerDims;
    use memo_model::config::{DType, ModelConfig};
    use memo_model::trace::{generate, RematPolicy, TraceParams};

    #[test]
    fn roundtrip_identity() {
        let m = ModelConfig::tiny(3, 32, 2, 64);
        let dims = LayerDims::new(128, &m, DType::BF16);
        let trace = generate(&TraceParams::new(&m, dims, RematPolicy::MemoTokenWise));
        let report = plan_iteration(&trace);
        let mut buf = Vec::new();
        write_plan(&report.plan, &mut buf).unwrap();
        let back = read_plan(&buf[..]).unwrap();
        assert_eq!(back, report.plan);
        back.validate_against(&trace).unwrap();
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        let text = "# memo-plan v1\npeak 100\nplace 0 0 10\nplace 0 16 10\n";
        assert!(read_plan(text.as_bytes()).is_err());
        assert!(read_plan(&b"peak 5\n"[..]).is_err());
        let text = "# memo-plan v1\nplace 0 0 10\n";
        assert!(read_plan(text.as_bytes()).is_err(), "missing peak");
    }
}
