//! The metric tables and the arithmetic that fills them.
//!
//! Every run prints every end-to-end metric and every traced run prints
//! every per-layer metric, whatever the workload: a layer a workload never
//! calls reads 0. Per-layer busy time is therefore given as a share of the
//! traced replay (`<layer>.busy_pct`) next to the replay's total
//! (`layers.busy_s`), so no time reads an exact 0 s on every run; the
//! absolute seconds per layer are in the result file and the Chrome trace.

use crate::{Layers, Outcome, Round};
use memo_obs::json::Json;
use memo_obs::latency::LatencySummary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. What an "op" is per
/// workload is in the README.
pub const END_TO_END: [MetricDef; 6] = [
    def("ops_per_s", "1/s", Higher),
    def("op_ms_p50", "ms", Lower),
    def("op_ms_p90", "ms", Lower),
    def("plan_quality", "ratio", Higher),
    def("peak_rss_mib", "MiB", Lower),
    def("setup_s", "s", Lower),
];

/// End-to-end metrics that are a pure function of the seed: a change that
/// alters them changed what the planners decide, not how fast.
pub const EXACT: &[&str] = &["plan_quality"];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [MetricDef; 38] = [
    def("layers.busy_s", "s", Lower),
    def("tracing.overhead_pct", "%", Lower),
    // search-long / search-short
    def("search.configs", "count", Lower),
    def("search.feasible_configs", "count", Higher),
    def("profiler.busy_pct", "%", Lower),
    def("profiler.calls", "count", Lower),
    def("trace.requests", "count", Lower),
    def("bilevel.busy_pct", "%", Lower),
    def("bilevel.calls", "count", Lower),
    def("bnb.nodes", "count", Lower),
    def("bnb.unproven_solves", "count", Lower),
    def("caching.busy_pct", "%", Lower),
    def("caching.replays", "count", Lower),
    def("pipeline_rest.busy_pct", "%", Lower),
    def("profile_cache.hits", "count", Higher),
    def("profile_cache.misses", "count", Lower),
    // fleet-mixed
    def("admission.busy_pct", "%", Lower),
    def("training.busy_pct", "%", Lower),
    def("serving.busy_pct", "%", Lower),
    def("shed.queue", "count", Lower),
    def("shed.deadline", "count", Lower),
    def("shed.budget", "count", Lower),
    def("elastic.rebalances", "count", Lower),
    def("elastic.drift_bytes", "bytes", Lower),
    def("pool.jobs", "count", Higher),
    def("pool.steals", "count", Lower),
    def("segment_cache.hits", "count", Higher),
    def("segment_cache.misses", "count", Lower),
    def("segment_cache.fallbacks", "count", Lower),
    // dsa-chunked
    def("dsa.intervals", "count", Higher),
    def("dsa_builder.busy_pct", "%", Lower),
    def("dispatch.busy_pct", "%", Lower),
    def("validate.busy_pct", "%", Lower),
    def("dispatch.exact", "count", Higher),
    def("dispatch.best_fit", "count", Higher),
    def("dispatch.boxing", "count", Lower),
    def("boxing.recursive_boxes", "count", Higher),
    def("boxing.stacked_bands", "count", Lower),
];

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank p50 and p90 of latencies in seconds, as milliseconds.
pub fn latency_ms(latencies: &[f64]) -> (f64, f64) {
    LatencySummary::from_secs(latencies).map_or((f64::NAN, f64::NAN), |s| {
        (s.p50_secs * 1e3, s.p90_secs * 1e3)
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics of `o`, in [`END_TO_END`] order, with every
/// timing scaled to the nominal machine speed of [`crate::speed`].
/// Throughput and latency are taken per round and reported as the median
/// over the rounds, so a burst of interference from outside the process
/// moves a round, not the run.
pub fn end_to_end(o: &Outcome) -> Vec<(MetricDef, f64)> {
    timings(o, &factors(o, &o.round_spans), &factors(o, &o.setup_spans))
}

/// The end-to-end metrics of `o` as the wall clock read them, unscaled.
pub fn wall_clock(o: &Outcome) -> Vec<(MetricDef, f64)> {
    timings(
        o,
        &vec![1.0; o.rounds.len()],
        &vec![1.0; o.setup_secs.len()],
    )
}

/// Machine speed over the rounds of `o`, relative to the nominal one: the
/// median of the factors [`end_to_end`] scales each round's timings by.
pub fn machine_speed(o: &Outcome) -> f64 {
    median(&factors(o, &o.round_spans))
}

fn factors(o: &Outcome, spans: &[(f64, f64)]) -> Vec<f64> {
    spans
        .iter()
        .map(|&(start, end)| o.speed.factor(start, end))
        .collect()
}

/// The end-to-end metrics with round `r`'s timings scaled by `rounds[r]`
/// and set-up repetition `s` by `setups[s]`.
fn timings(o: &Outcome, rounds: &[f64], setups: &[f64]) -> Vec<(MetricDef, f64)> {
    let scaled: Vec<Round> = o
        .rounds
        .iter()
        .zip(rounds)
        .map(|(r, k)| Round {
            secs: r.secs * k,
            latencies: r.latencies.iter().map(|l| l * k).collect(),
        })
        .collect();
    let per_round = |f: fn(&Round) -> f64| median(&scaled.iter().map(f).collect::<Vec<_>>());
    let values = [
        per_round(|r| r.latencies.len() as f64 / r.secs),
        per_round(|r| latency_ms(&r.latencies).0),
        per_round(|r| latency_ms(&r.latencies).1),
        o.quality,
        o.peak_rss_mib.unwrap_or(f64::NAN),
        median(
            &o.setup_secs
                .iter()
                .zip(setups)
                .map(|(s, k)| s * k)
                .collect::<Vec<_>>(),
        ),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(layers: &Layers) -> Vec<(MetricDef, f64)> {
    let total: f64 = layers.busy.iter().map(|(_, s)| s).sum();
    PER_LAYER
        .iter()
        .map(|&d| {
            let value = match d.name {
                "layers.busy_s" => total,
                "tracing.overhead_pct" => layers.overhead_pct,
                name => match name.strip_suffix(".busy_pct") {
                    Some(layer) => layers
                        .busy
                        .iter()
                        .find(|(l, _)| *l == layer)
                        .map_or(0.0, |(_, s)| 100.0 * s / total),
                    None => layers
                        .counts
                        .iter()
                        .find(|(c, _)| *c == name)
                        .map_or(0.0, |(_, v)| *v),
                },
            };
            (d, value)
        })
        .collect()
}

/// `{name: {"value": v, "unit": u}}`.
pub fn to_json(metrics: &[(MetricDef, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::num(*v)),
                        ("unit".to_string(), Json::str(d.unit)),
                    ]),
                )
            })
            .collect(),
    )
}
