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
    /// debug assertion). `None` for an empty set — there is no honest
    /// percentile of nothing. The mean sums the samples in input order.
    pub fn from_secs(samples: &[f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        debug_assert!(samples.iter().all(|s| s.is_finite()));
        let n = samples.len();
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
        // Select the three ranks from the top down: each selection leaves
        // everything below its rank in front of it, so the next one only
        // partitions that prefix. No full sort.
        let mut v = samples.to_vec();
        let mut hi = n;
        let mut nearest_rank = |p: f64| {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            let x = *v[..hi].select_nth_unstable_by(rank, cmp).1;
            hi = rank + 1;
            x
        };
        let p99_secs = nearest_rank(0.99);
        let p90_secs = nearest_rank(0.90);
        let p50_secs = nearest_rank(0.50);
        Some(LatencySummary {
            count: n,
            p50_secs,
            p90_secs,
            p99_secs,
            max_secs: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_secs: samples.iter().sum::<f64>() / n as f64,
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

    /// The summary as it was computed with a full sort.
    fn sorted_summary(samples: &[f64]) -> LatencySummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank =
            |p: f64| sorted[((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
        LatencySummary {
            count: sorted.len(),
            p50_secs: rank(0.50),
            p90_secs: rank(0.90),
            p99_secs: rank(0.99),
            max_secs: *sorted.last().unwrap(),
            mean_secs: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    #[test]
    fn selection_matches_the_sorted_summary() {
        // xorshift64: seeded, so a failure reproduces.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1, 2, 3, 10, 99, 100, 101, 1_436, 5_000] {
            for _ in 0..4 {
                // Latency-like samples with repeats: a few distinct
                // microsecond values plus a heavy tail.
                let samples: Vec<f64> = (0..n)
                    .map(|_| {
                        let r = next();
                        if r % 3 == 0 {
                            (r % 7) as f64 * 1e-7
                        } else {
                            (r >> 11) as f64 / (1u64 << 53) as f64 * 1e-3
                        }
                    })
                    .collect();
                let got = LatencySummary::from_secs(&samples).unwrap();
                let want = sorted_summary(&samples);
                assert_eq!(got.count, want.count);
                assert_eq!(
                    (got.p50_secs, got.p90_secs, got.p99_secs, got.max_secs),
                    (want.p50_secs, want.p90_secs, want.p99_secs, want.max_secs),
                    "n = {n}"
                );
                let rel = (got.mean_secs - want.mean_secs).abs() / want.mean_secs.abs().max(1e-300);
                assert!(rel <= 1e-12, "n = {n}: mean off by {rel:e}");
            }
        }
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
