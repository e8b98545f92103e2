//! Latency aggregation for request-driven runs (the serve layer).
//!
//! The planning service reports per-request wall latencies; benches and the
//! CLI want them compressed to the usual fleet metrics — p50/p99, mean,
//! max — without dragging a stats crate in. Percentiles use the
//! nearest-rank definition (ceil(p·n)-th smallest), so every reported
//! value is an actually-observed sample, never an interpolation.

use crate::json::Json;

/// Percentile summary of a latency sample set (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub(crate) count: usize,
    pub p50_secs: f64,
    pub p90_secs: f64,
    pub p99_secs: f64,
    pub max_secs: f64,
    mean_secs: f64,
}

impl LatencySummary {
    /// Summarise `samples` (any order; non-finite samples are rejected by
    /// debug assertion, tolerated as sorted-last in release). `None` for an
    /// empty set — there is no honest percentile of nothing.
    pub fn from_secs(samples: &[f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        debug_assert!(samples.iter().all(|s| s.is_finite()));
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let nearest_rank = |p: f64| {
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(LatencySummary {
            count: sorted.len(),
            p50_secs: nearest_rank(0.50),
            p90_secs: nearest_rank(0.90),
            p99_secs: nearest_rank(0.99),
            max_secs: *sorted.last().unwrap(),
            mean_secs: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// JSON object for `memo-serve --report-json` and `ServeSummary::to_json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::int(self.count as u64)),
            ("p50_secs".into(), Json::num(self.p50_secs)),
            ("p90_secs".into(), Json::num(self.p90_secs)),
            ("p99_secs".into(), Json::num(self.p99_secs)),
            ("max_secs".into(), Json::num(self.max_secs)),
            ("mean_secs".into(), Json::num(self.mean_secs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(LatencySummary::from_secs(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::from_secs(&[0.25]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_secs, 0.25);
        assert_eq!(s.p99_secs, 0.25);
        assert_eq!(s.max_secs, 0.25);
        assert_eq!(s.mean_secs, 0.25);
    }

    #[test]
    fn nearest_rank_percentiles_are_observed_samples() {
        // 1..=100 in scrambled order: p50 = 50th smallest = 50, p90 = 90,
        // p99 = 99 under nearest-rank.
        let mut samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        samples.reverse();
        let s = LatencySummary::from_secs(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_secs, 50.0);
        assert_eq!(s.p90_secs, 90.0);
        assert_eq!(s.p99_secs, 99.0);
        assert_eq!(s.max_secs, 100.0);
        assert!((s.mean_secs - 50.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_keys() {
        let s = LatencySummary::from_secs(&[0.1, 0.2, 0.3]).unwrap();
        let j = s.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("p50_secs").and_then(Json::as_f64), Some(0.2));
        assert_eq!(j.get("max_secs").and_then(Json::as_f64), Some(0.3));
    }
}
