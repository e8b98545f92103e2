//! `memo-benchmark compare <parent-dir> <change-dir>`: judge a change
//! against its parent from the result files of untraced runs.
//!
//! Runs are paired by seed. For every (workload, end-to-end metric) the
//! verdict is, in this order:
//!
//! * `identical` / `changed` — for metrics that must repeat exactly per
//!   seed ([`crate::metrics::EXACT`]);
//! * `improved` — the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * `unresolved` — the parent's spread (IQR / median) is wider than the
//!   metric's bound, unless every change run beats every parent run;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `unchanged` otherwise.
//!
//! Bounds come from `BENCHMARK.json`.

use crate::metrics::{median, Better, EXACT};
use memo_obs::json::{parse, Json};
use std::path::Path;

/// The end-to-end numbers of one untraced run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m == metric)
            .map(|(_, v)| *v)
    }
}

/// A bounded end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Parse a result file written by `run`; `None` for traced runs and for
/// files that are not results (Chrome traces).
pub fn parse_result(text: &str) -> Option<RunResult> {
    let doc = parse(text).ok()?;
    if doc.get("trace")?.as_bool()? {
        return None;
    }
    let Json::Obj(fields) = doc.get("metrics")? else {
        return None;
    };
    Some(RunResult {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_u64()?,
        metrics: fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every untraced result in `dir`, sorted by workload and seed.
pub fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.extend(parse_result(&text));
        }
    }
    out.sort_by(|a, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(out)
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            let better = match field("better")?.as_str() {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("better must be higher or lower, not {other:?}")),
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name must be a string")?
                    .into(),
                better,
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    Some([1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative for two values, where Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    }))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Changed,
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "changed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }

    /// Whether the verdict should fail a gate.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Changed | Verdict::Regressed)
    }
}

/// One (workload, metric) row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judge `change` against `parent` for one metric. Values are (seed,
/// value) pairs; both sides need at least two runs.
pub fn judge(parent: &[(u64, f64)], change: &[(u64, f64)], bound: &Bound) -> Option<Row> {
    let values = |side: &[(u64, f64)]| side.iter().map(|(_, v)| *v).collect::<Vec<_>>();
    let (p, c) = (values(parent), values(change));
    let (pq, cq) = (quartiles(&p)?, quartiles(&c)?);
    let better = |a: f64, b: f64| match bound.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let mut pairs = 0;
    let mut wins = 0;
    let mut differ = 0;
    for (seed, pv) in parent {
        if let Some((_, cv)) = change.iter().find(|(s, _)| s == seed) {
            pairs += 1;
            wins += usize::from(better(*cv, *pv));
            differ += usize::from(cv != pv);
        }
    }
    let (pm, cm) = (median(&p), median(&c));
    let worse_by = match bound.better {
        Better::Higher => (pm - cm) / pm,
        Better::Lower => (cm - pm) / pm,
    };
    let beats_all = c.iter().all(|cv| p.iter().all(|pv| better(*cv, *pv)));
    let verdict = if EXACT.contains(&bound.name.as_str()) {
        if differ == 0 && pairs > 0 {
            Verdict::Identical
        } else {
            Verdict::Changed
        }
    } else if pairs > 0 && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq[2] - pq[0] {
        Verdict::Improved
    } else if (pq[2] - pq[0]) / pm.abs() > bound.bound && !beats_all {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        workload: String::new(),
        metric: bound.name.clone(),
        parent: pq,
        change: cq,
        wins,
        pairs,
        verdict,
    })
}

/// Compare every (workload, metric) present on both sides.
pub fn compare(parent: &[RunResult], change: &[RunResult], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for b in bounds {
            let side = |runs: &[RunResult]| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| Some((r.seed, r.get(&b.name)?)))
                    .collect()
            };
            if let Some(mut row) = judge(&side(parent), &side(change), b) {
                row.workload = w.to_string();
                rows.push(row);
            }
        }
    }
    rows
}
