//! Cross-crate integration: memory plans produced by `memo-plan` must
//! execute flawlessly on `memo-alloc`'s plan allocator for traces produced
//! by `memo-model` under every policy and a range of shapes, and whole
//! profiled traces up to 100B-class models must plan within their bounds.

use memo::alloc::plan::PlanAllocator;
use memo::alloc::snapshot::replay;
use memo::alloc::DeviceAllocator;
use memo::model::activations::LayerDims;
use memo::model::config::{DType, ModelConfig};
use memo::model::trace::{generate, RematPolicy, TraceParams};
use memo::plan::bilevel::plan_iteration;

fn shapes() -> Vec<TraceParams> {
    let mut out = Vec::new();
    for (layers, hidden, heads) in [(2usize, 32usize, 2usize), (5, 64, 4), (12, 128, 8)] {
        for policy in [
            RematPolicy::KeepAll,
            RematPolicy::FullRecompute,
            RematPolicy::MemoTokenWise,
        ] {
            let m = ModelConfig::tiny(layers, hidden, heads, 512);
            let dims = LayerDims::new(1024, &m, DType::BF16);
            let mut p = TraceParams::new(&m, dims, policy);
            p.comm_factor = 2;
            p.ce_chunk_tokens = 256;
            out.push(p);
        }
    }
    out
}

#[test]
fn every_plan_executes_cleanly() {
    for params in shapes() {
        let trace = generate(&params);
        trace.validate().expect("trace valid");
        let report = plan_iteration(&trace);
        report
            .plan
            .validate_against(&trace)
            .unwrap_or_else(|e| panic!("{:?}: {e}", params.policy));

        let mut alloc =
            PlanAllocator::from_addresses(report.plan.address_triples(), report.plan.peak);
        let series = replay(&mut alloc, &trace);
        assert!(
            series.oom.is_none(),
            "{:?}: {:?}",
            params.policy,
            series.oom
        );
        assert_eq!(series.reorgs, 0);
        assert_eq!(alloc.allocated_bytes(), 0, "all tensors freed at the end");
        // The executed peak can never exceed the declared arena.
        assert!(series.peak_allocated() <= report.plan.peak);
    }
}

#[test]
fn plans_beat_or_match_caching_reserved() {
    use memo::alloc::caching::CachingAllocator;
    for params in shapes() {
        let trace = generate(&params);
        let report = plan_iteration(&trace);
        let mut caching = CachingAllocator::new(u64::MAX / 4);
        let series = replay(&mut caching, &trace);
        // The plan's arena should not be dramatically worse than what the
        // caching allocator reserves (it is usually better).
        assert!(
            report.plan.peak as f64 <= 1.25 * series.peak_reserved() as f64,
            "{:?}: plan {} vs caching reserved {}",
            params.policy,
            report.plan.peak,
            series.peak_reserved()
        );
    }
}

#[test]
fn pipeline_sharded_traces_plan_too() {
    // Odd layer counts and single-layer models must not break the bi-level
    // decomposition.
    for layers in [1usize, 2, 3, 7] {
        let m = ModelConfig::tiny(layers, 32, 2, 128);
        let dims = LayerDims::new(256, &m, DType::BF16);
        let params = TraceParams::new(&m, dims, RematPolicy::MemoTokenWise);
        let trace = generate(&params);
        let report = plan_iteration(&trace);
        report
            .plan
            .validate_against(&trace)
            .unwrap_or_else(|e| panic!("layers={layers}: {e}"));
    }
}

#[test]
fn file_pipeline_roundtrip_preserves_everything() {
    // Figure 10 as files: trace out -> trace in -> plan out -> plan in,
    // then execute — all in memory buffers here.
    use memo::model::io::{read_trace, write_trace};
    use memo::plan::io::{read_plan, write_plan};
    for params in shapes() {
        let trace = generate(&params);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let trace2 = read_trace(&buf[..]).unwrap();
        assert_eq!(trace2, trace);

        let report = plan_iteration(&trace2);
        let mut pbuf = Vec::new();
        write_plan(&report.plan, &mut pbuf).unwrap();
        let plan2 = read_plan(&pbuf[..]).unwrap();
        assert_eq!(plan2, report.plan);
        plan2.validate_against(&trace).unwrap();

        let mut alloc = PlanAllocator::from_addresses(plan2.address_triples(), plan2.peak);
        let series = replay(&mut alloc, &trace);
        assert!(series.oom.is_none());
    }
}

#[test]
fn whole_model_traces_plan_within_the_certified_gap() {
    // Real per-GPU iteration traces from 7B to 100B-class models, including
    // the 1M-token regime the NVMe-tiered chain targets, planned whole
    // through the size-based dispatch policy (far above BnB's size cap).
    use memo::core::profiler;
    use memo::core::session::Workload;
    use memo::parallel::strategy::ParallelConfig;
    use memo::plan::dispatch::{self, DispatchOptions};
    use memo::plan::DsaInstance;
    let cells = [
        (
            ModelConfig::gpt_7b(),
            8,
            64 << 10,
            ParallelConfig::megatron(4, 2, 1, 1),
        ),
        (
            ModelConfig::gpt_13b(),
            8,
            256 << 10,
            ParallelConfig::megatron(4, 2, 1, 1),
        ),
        (
            ModelConfig::gpt_30b(),
            16,
            512 << 10,
            ParallelConfig::megatron(8, 2, 1, 1),
        ),
        (
            ModelConfig::gpt_65b(),
            16,
            1 << 20,
            ParallelConfig::megatron(8, 2, 1, 1),
        ),
        (
            ModelConfig::gpt_100b(),
            8,
            1 << 20,
            ParallelConfig::megatron(1, 8, 1, 1),
        ),
    ];
    for (model, n_gpus, seq, cfg) in cells {
        let label = format!("{}@{}k", model.name, seq >> 10);
        let w = Workload::new(model, n_gpus, seq);
        let p = profiler::profile(&w, &cfg, RematPolicy::MemoTokenWise, false);
        let inst = DsaInstance::from_trace(&p.trace);
        let sol = dispatch::solve(&inst, &DispatchOptions::default());
        sol.assignment
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{label}: invalid assignment: {e}"));
        let peak = sol.assignment.peak;
        assert!(peak >= sol.lower_bound, "{label}: below the liveness bound");
        assert!(
            sol.guarantee.is_none_or(|g| peak <= g),
            "{label}: peak outside the certified gap"
        );
    }
}
