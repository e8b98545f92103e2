//! Fleet-serving benchmark: sustained planning throughput under a
//! Zipfian multi-tenant mix.
//!
//! Generates a deterministic stream of planning queries (48 tenants,
//! Zipf-popular, 7B/13B models at 64K–256K context on 4–8 GPU slices),
//! serves it twice, each leg from cold caches — pooled (the product path:
//! work-stealing pool, shared profile/segment caches, memoized training
//! and serving picks) and serial (the reference: one thread, every pick
//! recomputed) — and enforces:
//!
//! * **parity** — every record identical between the legs: same admitted
//!   set, same shed reasons, same picked cell with a bit-identical
//!   winning report;
//! * **cache locality** — the pick table serves ≥ 50% of the pooled
//!   leg's requests under the Zipfian mix (per-request scoped counts, so
//!   the rate is attributable, not process noise);
//! * **latency accounting** — p50/p99 per-request planning latency and
//!   queries/sec recorded in `BENCH_serve.json`.

use memo_obs::json::Json;
use memo_serve::{
    generate, replies_match, PlanServer, RequestOutcome, ServeConfig, ServeReport, StreamSpec,
    TenantKind,
};
use std::time::Instant;

/// Serve `stream` on cold caches: every leg starts from the same (empty)
/// profile and segment caches, so pooled and serial timings compare the
/// execution paths, not the run order, and each leg's hit rate is earned
/// by the stream's own locality.
fn serve_leg(stream: &[memo_serve::PlanRequest], serial: bool) -> ServeReport {
    memo_core::cache::ProfileCache::global().clear();
    memo_swap::SegmentCache::global().clear();
    PlanServer::new(ServeConfig {
        serial,
        ..ServeConfig::default()
    })
    .serve(stream)
}

fn main() {
    let mut spec = StreamSpec::new(48, 1500, 42);
    spec.mean_gap_secs = 0.5e-3;
    spec.deadline_range_secs = (2e-3, 60e-3);
    let stream = generate(&spec);
    println!(
        "serve_bench — {} requests from {} tenants (zipf {}), {} workers\n",
        spec.requests,
        spec.tenants,
        spec.zipf_exponent,
        memo_parallel::pool::available_workers()
    );

    let t0 = Instant::now();
    let pooled = serve_leg(&stream, false);
    let pooled_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let serial = serve_leg(&stream, true);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- parity: record-by-record across the legs -------------------------
    let mut parity = true;
    assert_eq!(pooled.records.len(), serial.records.len());
    for (p, s) in pooled.records.iter().zip(&serial.records) {
        let ok = match (&p.outcome, &s.outcome) {
            (RequestOutcome::Planned(a), RequestOutcome::Planned(b)) => replies_match(a, b),
            (RequestOutcome::Rejected(a), RequestOutcome::Rejected(b)) => a == b,
            _ => false,
        };
        assert!(ok, "request {} diverged between legs", p.request.id);
        parity &= ok;
    }
    let s = &pooled.summary;
    println!(
        "parity: {} records identical (planned {}, shed queue {} / deadline {} / budget {})",
        s.requests, s.planned, s.shed_queue, s.shed_deadline, s.shed_budget
    );
    assert!(s.planned > 0, "the fleet must plan something");
    assert!(
        s.shed_queue + s.shed_deadline + s.shed_budget > 0,
        "the mix is tuned to shed at least one request"
    );

    // ---- shared-cache locality --------------------------------------------
    println!(
        "caches: pick {:.1}% hit ({}/{}), profile {:.1}% hit ({}/{}), segment {:.1}% hit ({}/{})",
        s.picks.hit_rate() * 100.0,
        s.picks.hits,
        s.picks.hits + s.picks.misses,
        s.profile_hit_rate() * 100.0,
        s.profile_cache.hits,
        s.profile_cache.hits + s.profile_cache.misses,
        s.segment_hit_rate() * 100.0,
        s.segment_cache.hits,
        s.segment_cache.hits + s.segment_cache.misses,
    );
    assert!(
        s.picks.hit_rate() >= 0.5,
        "pick-table hit rate {:.2} below the 0.5 target",
        s.picks.hit_rate()
    );

    // ---- latency / throughput ---------------------------------------------
    let lat = s.latency.expect("planned requests have latencies");
    println!(
        "latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} plans",
        lat.p50_secs * 1e3,
        lat.p90_secs * 1e3,
        lat.p99_secs * 1e3,
        lat.max_secs * 1e3,
        lat.count
    );
    println!(
        "throughput: pooled {:.0} plans/s ({:.0} ms), serial leg {:.0} ms; \
         elastic: {} rebalances, peak {} tenants, pool {} jobs / {} steals",
        s.qps,
        pooled_ms,
        serial_ms,
        s.rebalances,
        s.peak_active_tenants,
        s.pool.jobs,
        s.pool.steals
    );
    assert!(lat.p50_secs <= lat.p99_secs && lat.p99_secs <= lat.max_secs);
    assert!(s.qps > 0.0);
    assert!(
        s.rebalances >= spec.tenants as u64,
        "every tenant arrival must rebalance the fleet"
    );

    // ---- mixed-tenant cell: serving + training share the ElasticPools ----
    // Every other tenant plans decode KV policies instead of training
    // grids; both kinds stage different quanta against the same elastic
    // budgets. Contract: record parity across legs, and zero
    // budget-accounting drift (ledger vs. staged bytes) at every
    // admission step.
    let mut mixed_spec = StreamSpec::new(24, 300, 77);
    mixed_spec.serving_stride = 2;
    mixed_spec.mean_gap_secs = 0.5e-3;
    mixed_spec.deadline_range_secs = (5e-3, 80e-3);
    let mixed_stream = generate(&mixed_spec);
    let mixed_pooled = serve_leg(&mixed_stream, false);
    let mixed_serial = serve_leg(&mixed_stream, true);
    let mut mixed_parity = true;
    let (mut planned_serving, mut planned_training) = (0u64, 0u64);
    for (p, s) in mixed_pooled.records.iter().zip(&mixed_serial.records) {
        let ok = match (&p.outcome, &s.outcome) {
            (RequestOutcome::Planned(a), RequestOutcome::Planned(b)) => {
                match p.request.kind {
                    TenantKind::Serving => planned_serving += 1,
                    TenantKind::Training => planned_training += 1,
                }
                replies_match(a, b)
            }
            (RequestOutcome::Rejected(a), RequestOutcome::Rejected(b)) => a == b,
            _ => false,
        };
        assert!(ok, "mixed request {} diverged between legs", p.request.id);
        mixed_parity &= ok;
    }
    assert!(planned_serving > 0, "the mix must plan serving requests");
    assert!(planned_training > 0, "the mix must plan training requests");
    let drift = mixed_pooled
        .summary
        .budget_drift_bytes
        .max(mixed_serial.summary.budget_drift_bytes);
    assert_eq!(drift, 0, "elastic budget accounting drifted");
    println!(
        "\nmixed cell: {} records identical ({} serving / {} training planned), \
         budget drift {} bytes",
        mixed_stream.len(),
        planned_serving,
        planned_training,
        drift
    );

    let doc = Json::Obj(vec![
        ("bench".into(), Json::str("serve")),
        ("tenants".into(), Json::int(spec.tenants as u64)),
        ("requests".into(), Json::int(spec.requests as u64)),
        ("zipf_exponent".into(), Json::num(spec.zipf_exponent)),
        ("seed".into(), Json::int(spec.seed)),
        (
            "workers".into(),
            Json::int(memo_parallel::pool::available_workers() as u64),
        ),
        ("parity".into(), Json::Bool(parity)),
        ("pooled_ms".into(), Json::num(pooled_ms)),
        ("serial_ms".into(), Json::num(serial_ms)),
        ("summary".into(), s.to_json()),
        (
            "mixed".into(),
            Json::Obj(vec![
                ("requests".into(), Json::int(mixed_stream.len() as u64)),
                ("parity".into(), Json::Bool(mixed_parity)),
                ("planned_serving".into(), Json::int(planned_serving)),
                ("planned_training".into(), Json::int(planned_training)),
                ("budget_drift_bytes".into(), Json::int(drift)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_serve.json", format!("{doc}\n")).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}
