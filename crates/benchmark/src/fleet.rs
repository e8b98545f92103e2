//! `fleet-mixed`: the memo-serve warm path.
//!
//! One round is one stream of Zipf-popular requests from 48 tenants, every
//! second tenant a serving tenant, served by one `PlanServer::serve` call
//! on the machine-wide pool. The stream's arrival clock is virtual, so
//! admission is deterministic and the loop is closed: each stream is
//! admitted, then executed as one pooled batch. One op is one request; a
//! planned request's latency is its reply's `latency_secs`, and shed
//! requests lower `plan_quality` (the planned share) instead.
//!
//! Set-up serves a warm-up stream against cold caches, so the timed
//! streams see the steady state the service runs in.

use crate::spans::{Tracer, OP};
use crate::{add_count, metrics, Budget, Layers, Outcome, Round};
use memo_core::cache::ProfileCache;
use memo_serve::{
    generate, replies_match, PlanRequest, PlanServer, RequestOutcome, ServeConfig, ServeReport,
    StreamSpec, TenantKind,
};
use memo_swap::SegmentCache;
use std::time::{Duration, Instant};

/// The stream shape and the seed that draws its streams.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub tenants: usize,
    pub requests: usize,
    pub seed: u64,
}

impl Inputs {
    pub fn mixed(seed: u64) -> Self {
        Inputs {
            tenants: 48,
            requests: 1500,
            seed,
        }
    }

    fn stream(&self, k: u64) -> Vec<PlanRequest> {
        let mut spec = StreamSpec::new(
            self.tenants,
            self.requests,
            self.seed.wrapping_mul(1000).wrapping_add(k),
        );
        spec.serving_stride = 2;
        generate(&spec)
    }

    /// The untimed stream served during set-up.
    pub fn warmup(&self) -> Vec<PlanRequest> {
        self.stream(0)
    }

    /// Timed stream `r`.
    pub fn round(&self, r: usize) -> Vec<PlanRequest> {
        self.stream(r as u64 + 1)
    }
}

/// Requests of `a` whose record differs from `b`'s; the first is reported.
fn mismatches(a: &ServeReport, b: &ServeReport) -> u64 {
    let mut n = a.records.len().abs_diff(b.records.len()) as u64;
    for (x, y) in a.records.iter().zip(&b.records) {
        let same = match (&x.outcome, &y.outcome) {
            (RequestOutcome::Planned(p), RequestOutcome::Planned(q)) => replies_match(p, q),
            (RequestOutcome::Rejected(p), RequestOutcome::Rejected(q)) => p == q,
            _ => false,
        };
        if !same && n == 0 {
            eprintln!(
                "fleet: request {} differs between the pooled and the serial serve:\n  {:?}\n  {:?}",
                x.request.id, x.outcome, y.outcome
            );
        }
        n += u64::from(!same);
    }
    n
}

/// Output check of every served stream: the ledger never drifts and every
/// request is either planned or shed.
fn accounted(rep: &ServeReport) -> bool {
    let s = &rep.summary;
    let ok = s.budget_drift_bytes == 0
        && s.planned + s.shed_queue + s.shed_deadline + s.shed_budget == s.requests
        && rep.records.len() == s.requests;
    if !ok {
        eprintln!("fleet: stream accounting broken: {s:?}");
    }
    ok
}

fn latencies(rep: &ServeReport, kind: Option<TenantKind>) -> impl Iterator<Item = f64> + '_ {
    rep.records.iter().filter_map(move |r| match &r.outcome {
        RequestOutcome::Planned(reply) if kind.is_none_or(|k| k == r.request.kind) => {
            Some(reply.latency_secs)
        }
        _ => None,
    })
}

pub fn run(inputs: &Inputs, budget: &Budget, trace: bool) -> Outcome {
    let server = PlanServer::new(ServeConfig::default());
    let mut o = Outcome::default();
    o.set_up(budget, || {
        let stream = inputs.warmup();
        ProfileCache::global().clear();
        SegmentCache::global().clear();
        server.serve(&stream);
    });
    // Output check: on warm caches the pooled serve matches the serial
    // reference record for record. Warm, because two workers that plan the
    // same key on cold caches can get bi-level plans of different peaks:
    // the planner orders its level-2 instance by HashMap iteration.
    let warmup = inputs.warmup();
    let pooled = server.serve(&warmup);
    let serial = PlanServer::new(ServeConfig {
        serial: true,
        ..ServeConfig::default()
    })
    .serve(&warmup);
    o.ops += warmup.len() as u64;
    o.ops_failed += mismatches(&pooled, &serial);

    let (mut sent, mut planned) = (0usize, 0usize);
    let (mut train, mut serve) = (Vec::new(), Vec::new());
    while o.more(budget) {
        let stream = inputs.round(o.rounds.len());
        let t0 = Instant::now();
        let rep = server.serve(&stream);
        let secs = t0.elapsed().as_secs_f64();
        train.extend(latencies(&rep, Some(TenantKind::Training)));
        serve.extend(latencies(&rep, Some(TenantKind::Serving)));
        o.ops += stream.len() as u64;
        if !accounted(&rep) {
            o.ops_failed += stream.len() as u64;
        }
        if o.in_quality_rounds(budget) {
            sent += rep.summary.requests;
            planned += rep.summary.planned;
        }
        let round = Round {
            secs,
            latencies: latencies(&rep, None).collect(),
        };
        o.end_round(budget, round);
    }
    o.quality = planned as f64 / sent as f64;
    o.extra = vec![
        ("shed_frac", 1.0 - o.quality, "ratio"),
        ("train_plan_ms_p50", metrics::latency_ms(&train).0, "ms"),
        ("serve_plan_ms_p50", metrics::latency_ms(&serve).0, "ms"),
    ];
    if trace {
        let walls: Vec<f64> = o.rounds[..budget.min_rounds]
            .iter()
            .map(|r| r.secs)
            .collect();
        o.layers = Some(traced(inputs, budget, &server, &walls));
    }
    o
}

const LANES: &[&str] = &["op", "admission", "execute"];
const ADMISSION: usize = 1;
const EXECUTE: usize = 2;

/// The first `min_rounds` streams again, one span per serve, split into
/// admission and pooled execution by the summary's execution wall time.
/// Everything else comes from the returned summaries.
fn traced(inputs: &Inputs, budget: &Budget, server: &PlanServer, untraced: &[f64]) -> Layers {
    let mut tracer = Tracer::new(LANES);
    let mut counts: Vec<(&'static str, f64)> = Vec::new();
    let (mut training, mut serving, mut drift) = (0.0, 0.0, 0u64);
    for r in 0..budget.min_rounds {
        let stream = inputs.round(r);
        let op = r as u64;
        let start = Instant::now();
        let (rep, wall) = tracer.span(OP, op, || server.serve(&stream));
        let s = &rep.summary;
        let admission = wall - s.wall_secs;
        tracer.record(ADMISSION, op, start, admission);
        tracer.record(
            EXECUTE,
            op,
            start + Duration::from_secs_f64(admission),
            s.wall_secs,
        );
        training += latencies(&rep, Some(TenantKind::Training)).sum::<f64>();
        serving += latencies(&rep, Some(TenantKind::Serving)).sum::<f64>();
        for (name, v) in [
            ("shed.queue", s.shed_queue as u64),
            ("shed.deadline", s.shed_deadline as u64),
            ("shed.budget", s.shed_budget as u64),
            ("elastic.rebalances", s.rebalances),
            ("pool.jobs", s.pool.jobs),
            ("pool.steals", s.pool.steals),
            ("profile_cache.hits", s.profile_cache.hits),
            ("profile_cache.misses", s.profile_cache.misses),
            ("segment_cache.hits", s.segment_cache.hits),
            ("segment_cache.misses", s.segment_cache.misses),
            ("segment_cache.fallbacks", s.segment_cache.fallbacks),
        ] {
            add_count(&mut counts, name, v as f64);
        }
        drift = drift.max(s.budget_drift_bytes);
    }
    counts.push(("elastic.drift_bytes", drift as f64));
    Layers {
        // Busy thread-seconds: admission runs on the calling thread, the
        // two tenant kinds on the pool's workers.
        busy: vec![
            ("admission", tracer.busy(ADMISSION)),
            ("training", training),
            ("serving", serving),
        ],
        counts,
        overhead_pct: tracer.overhead_pct(untraced),
        tracer,
    }
}
