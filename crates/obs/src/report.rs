//! JSON serialization of [`ExecutionReport`]s (and the observer's
//! collected statistics), with a full parser back — the report artifact is
//! only useful if downstream tooling can load it again.

use crate::json::Json;
use memo_core::observer::RunObserver;
use memo_core::outcome::CellOutcome;
use memo_core::pipeline::{ByteBreakdown, ExecutionReport, TimeBreakdown};
use memo_core::Metrics;
use memo_parallel::strategy::{KvCachePolicy, ParallelConfig, SystemSpec};

fn spec_json(spec: SystemSpec) -> Json {
    let variant = |v: &str| vec![("variant".to_string(), Json::str(v))];
    Json::Obj(match spec {
        SystemSpec::Memo => variant("Memo"),
        SystemSpec::MegatronLM => variant("MegatronLM"),
        SystemSpec::MegatronKeepAll => variant("MegatronKeepAll"),
        SystemSpec::DeepSpeed => variant("DeepSpeed"),
        SystemSpec::TensorHybrid => variant("TensorHybrid"),
        SystemSpec::FullRecomputePlan => variant("FullRecomputePlan"),
        SystemSpec::FullSwapPlan => variant("FullSwapPlan"),
        SystemSpec::MemoBufferSlots(n) => {
            let mut fields = variant("MemoBufferSlots");
            fields.push(("slots".into(), Json::int(n as u64)));
            fields
        }
        SystemSpec::MemoTiered(depth) => {
            let mut fields = variant("MemoTiered");
            fields.push(("depth".into(), Json::int(depth as u64)));
            fields
        }
        SystemSpec::MemoMixed(k) => {
            let mut fields = variant("MemoMixed");
            fields.push(("swap_layers".into(), Json::int(k as u64)));
            fields
        }
        SystemSpec::MemoWholePlan => {
            let mut fields = variant("MemoWholePlan");
            fields.push(("planner".into(), Json::str("whole-trace")));
            fields
        }
        SystemSpec::Serving(policy) => {
            let mut fields = variant("Serving");
            fields.push(("kv".into(), Json::str(policy.name())));
            fields
        }
    })
}

fn parse_spec(doc: &Json) -> Result<SystemSpec, String> {
    let variant = doc
        .get("variant")
        .and_then(Json::as_str)
        .ok_or("spec missing variant")?;
    Ok(match variant {
        "Memo" => SystemSpec::Memo,
        "MegatronLM" => SystemSpec::MegatronLM,
        "MegatronKeepAll" => SystemSpec::MegatronKeepAll,
        "DeepSpeed" => SystemSpec::DeepSpeed,
        "TensorHybrid" => SystemSpec::TensorHybrid,
        "FullRecomputePlan" => SystemSpec::FullRecomputePlan,
        "FullSwapPlan" => SystemSpec::FullSwapPlan,
        "MemoBufferSlots" => SystemSpec::MemoBufferSlots(
            doc.get("slots")
                .and_then(Json::as_u64)
                .ok_or("MemoBufferSlots missing slots")? as u8,
        ),
        "MemoTiered" => SystemSpec::MemoTiered(
            doc.get("depth")
                .and_then(Json::as_u64)
                .ok_or("MemoTiered missing depth")? as u8,
        ),
        "MemoMixed" => SystemSpec::MemoMixed(
            doc.get("swap_layers")
                .and_then(Json::as_u64)
                .ok_or("MemoMixed missing swap_layers")? as u8,
        ),
        "MemoWholePlan" => SystemSpec::MemoWholePlan,
        "Serving" => {
            let kv = doc
                .get("kv")
                .and_then(Json::as_str)
                .ok_or("Serving missing kv policy")?;
            let policy = KvCachePolicy::ALL
                .into_iter()
                .find(|p| p.name() == kv)
                .ok_or_else(|| format!("unknown kv policy {kv:?}"))?;
            SystemSpec::Serving(policy)
        }
        other => return Err(format!("unknown spec variant {other:?}")),
    })
}

fn strategy_json(cfg: &ParallelConfig) -> Json {
    Json::Obj(vec![
        ("tp".into(), Json::int(cfg.tp as u64)),
        ("cp".into(), Json::int(cfg.cp as u64)),
        ("pp".into(), Json::int(cfg.pp as u64)),
        ("dp".into(), Json::int(cfg.dp as u64)),
        ("ulysses".into(), Json::int(cfg.ulysses as u64)),
        ("sp".into(), Json::Bool(cfg.sp)),
        ("zero_stage".into(), Json::int(cfg.zero_stage as u64)),
    ])
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing integer field {key:?}"))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing number field {key:?}"))
}

fn parse_strategy(doc: &Json) -> Result<ParallelConfig, String> {
    Ok(ParallelConfig {
        tp: req_u64(doc, "tp")? as usize,
        cp: req_u64(doc, "cp")? as usize,
        pp: req_u64(doc, "pp")? as usize,
        dp: req_u64(doc, "dp")? as usize,
        ulysses: req_u64(doc, "ulysses")? as usize,
        sp: doc
            .get("sp")
            .and_then(Json::as_bool)
            .ok_or("missing bool field \"sp\"")?,
        zero_stage: req_u64(doc, "zero_stage")? as u8,
    })
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(vec![
        ("iter_secs".into(), Json::Num(m.iter_secs)),
        ("mfu".into(), Json::Num(m.mfu)),
        ("tgs".into(), Json::Num(m.tgs)),
        ("peak_gpu_bytes".into(), Json::int(m.peak_gpu_bytes)),
        ("host_peak_bytes".into(), Json::int(m.host_peak_bytes)),
        ("reorgs".into(), Json::int(m.reorgs)),
        ("alpha".into(), m.alpha.map_or(Json::Null, Json::Num)),
        ("strategy".into(), Json::str(m.strategy.clone())),
    ])
}

fn parse_metrics(doc: &Json) -> Result<Metrics, String> {
    Ok(Metrics {
        iter_secs: req_f64(doc, "iter_secs")?,
        mfu: req_f64(doc, "mfu")?,
        tgs: req_f64(doc, "tgs")?,
        peak_gpu_bytes: req_u64(doc, "peak_gpu_bytes")?,
        host_peak_bytes: req_u64(doc, "host_peak_bytes")?,
        reorgs: req_u64(doc, "reorgs")?,
        alpha: doc.get("alpha").and_then(Json::as_f64),
        strategy: doc
            .get("strategy")
            .and_then(Json::as_str)
            .ok_or("missing strategy string")?
            .to_string(),
    })
}

/// Serialize one [`CellOutcome`] (also used standalone by the CLI's
/// serving records and the bench parity checks).
pub fn outcome_json(out: &CellOutcome) -> Json {
    let shortfall = |kind: &str, needed: u64, capacity: u64| {
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("needed".into(), Json::int(needed)),
            ("capacity".into(), Json::int(capacity)),
        ])
    };
    match out {
        CellOutcome::Ok(m) => Json::Obj(vec![
            ("kind".into(), Json::str("ok")),
            ("metrics".into(), metrics_json(m)),
        ]),
        CellOutcome::Oom { needed, capacity } => shortfall("oom", *needed, *capacity),
        CellOutcome::Oohm { needed, capacity } => shortfall("oohm", *needed, *capacity),
        CellOutcome::NoValidStrategy => {
            Json::Obj(vec![("kind".into(), Json::str("no_valid_strategy"))])
        }
        CellOutcome::Degenerate { iter_secs } => Json::Obj(vec![
            ("kind".into(), Json::str("degenerate")),
            ("iter_secs".into(), Json::Num(*iter_secs)),
        ]),
    }
}

/// Parse an [`outcome_json`] document back.
pub fn parse_outcome(doc: &Json) -> Result<CellOutcome, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("outcome missing kind")?;
    Ok(match kind {
        "ok" => CellOutcome::Ok(parse_metrics(
            doc.get("metrics").ok_or("ok outcome missing metrics")?,
        )?),
        "oom" => CellOutcome::Oom {
            needed: req_u64(doc, "needed")?,
            capacity: req_u64(doc, "capacity")?,
        },
        "oohm" => CellOutcome::Oohm {
            needed: req_u64(doc, "needed")?,
            capacity: req_u64(doc, "capacity")?,
        },
        "no_valid_strategy" => CellOutcome::NoValidStrategy,
        "degenerate" => CellOutcome::Degenerate {
            iter_secs: req_f64(doc, "iter_secs")?,
        },
        other => return Err(format!("unknown outcome kind {other:?}")),
    })
}

/// Serialize one [`ExecutionReport`].
pub fn report_json(report: &ExecutionReport) -> Json {
    Json::Obj(vec![
        ("spec".into(), spec_json(report.spec)),
        ("strategy".into(), strategy_json(&report.strategy)),
        (
            "bytes".into(),
            Json::Obj(vec![
                ("model_states".into(), Json::int(report.bytes.model_states)),
                (
                    "skeletal_buffers".into(),
                    Json::int(report.bytes.skeletal_buffers),
                ),
                (
                    "planned_arena".into(),
                    Json::int(report.bytes.planned_arena),
                ),
            ]),
        ),
        (
            "time".into(),
            Json::Obj(vec![
                ("compute".into(), Json::Num(report.time.compute)),
                ("recompute".into(), Json::Num(report.time.recompute)),
                ("stall".into(), Json::Num(report.time.stall)),
                ("bubble".into(), Json::Num(report.time.bubble)),
                ("optimizer".into(), Json::Num(report.time.optimizer)),
                ("grad_sync".into(), Json::Num(report.time.grad_sync)),
            ]),
        ),
        ("outcome".into(), outcome_json(&report.outcome)),
    ])
}

/// Parse a [`report_json`] document back into an [`ExecutionReport`].
/// Unknown fields (e.g. an attached `"observed"` section) are ignored.
pub fn parse_report(doc: &Json) -> Result<ExecutionReport, String> {
    let bytes = doc.get("bytes").ok_or("missing bytes")?;
    let time = doc.get("time").ok_or("missing time")?;
    Ok(ExecutionReport {
        spec: parse_spec(doc.get("spec").ok_or("missing spec")?)?,
        strategy: parse_strategy(doc.get("strategy").ok_or("missing strategy")?)?,
        bytes: ByteBreakdown {
            model_states: req_u64(bytes, "model_states")?,
            skeletal_buffers: req_u64(bytes, "skeletal_buffers")?,
            planned_arena: req_u64(bytes, "planned_arena")?,
        },
        time: TimeBreakdown {
            compute: req_f64(time, "compute")?,
            recompute: req_f64(time, "recompute")?,
            stall: req_f64(time, "stall")?,
            bubble: req_f64(time, "bubble")?,
            optimizer: req_f64(time, "optimizer")?,
            grad_sync: req_f64(time, "grad_sync")?,
        },
        outcome: parse_outcome(doc.get("outcome").ok_or("missing outcome")?)?,
    })
}

/// Serialize what a [`RunObserver`] collected (host-side statistics only —
/// the timeline and allocator events have their own exporters).
pub fn observed_json(obs: &RunObserver) -> Json {
    Json::Obj(vec![
        (
            "stage_secs".to_string(),
            Json::Obj(vec![
                ("profile".into(), Json::Num(obs.stage_secs.profile)),
                ("policy".into(), Json::Num(obs.stage_secs.policy)),
                ("memory".into(), Json::Num(obs.stage_secs.memory)),
                ("schedule".into(), Json::Num(obs.stage_secs.schedule)),
            ]),
        ),
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".into(), Json::int(obs.cache_hits)),
                ("misses".into(), Json::int(obs.cache_misses)),
            ]),
        ),
        (
            "alloc_events".to_string(),
            Json::int(obs.alloc_events.len() as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_core::session::Workload;
    use memo_model::config::ModelConfig;

    fn all_specs() -> Vec<SystemSpec> {
        let mut specs = SystemSpec::ALL_MODES.to_vec();
        specs.extend([
            SystemSpec::FullSwapPlan,
            SystemSpec::FullRecomputePlan,
            SystemSpec::MemoBufferSlots(4),
            SystemSpec::MemoTiered(0),
            SystemSpec::MemoTiered(3),
            SystemSpec::MemoMixed(3),
            SystemSpec::MemoWholePlan,
        ]);
        specs.extend(SystemSpec::SERVING);
        specs
    }

    #[test]
    fn spec_round_trip_covers_every_variant() {
        for spec in all_specs() {
            let text = spec_json(spec).to_string();
            let back = parse_spec(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{spec:?}");
        }
    }

    #[test]
    fn real_reports_round_trip_bit_exactly() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 64 * 1024);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        for spec in SystemSpec::ALL_MODES {
            let report = w.run_report(spec, &cfg);
            let text = report_json(&report).to_string();
            let back = parse_report(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.spec, report.spec, "{spec:?}");
            assert_eq!(back.strategy, report.strategy, "{spec:?}");
            assert_eq!(back.bytes, report.bytes, "{spec:?}");
            assert_eq!(back.time, report.time, "{spec:?} (floats exact)");
            assert_eq!(back.outcome, report.outcome, "{spec:?}");
        }
    }

    #[test]
    fn failure_outcomes_round_trip() {
        for out in [
            CellOutcome::Oom {
                needed: 100,
                capacity: 50,
            },
            CellOutcome::Oohm {
                needed: 7,
                capacity: 3,
            },
            CellOutcome::NoValidStrategy,
            CellOutcome::Degenerate { iter_secs: -1.5 },
        ] {
            let text = outcome_json(&out).to_string();
            let back = parse_outcome(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, out);
        }
    }

    #[test]
    fn observed_section_serializes() {
        let mut obs = RunObserver::new();
        obs.cache_hits = 3;
        let doc = observed_json(&obs);
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_u64(),
            Some(3)
        );
    }
}
